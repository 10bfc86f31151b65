//! Thread budgeting for intra-graph parallelism, and the one fan-out
//! helper ([`fan_out`]) that spends it.
//!
//! The parallel BFS kernel ([`crate::metrics::parallel_bfs_from_sources`])
//! can fan sources across threads, but the metrics entry points
//! (`sampled_diameter`, `diameter`, ...) are called from inside experiment
//! *parts* that an executor is already fanning across workers. Letting
//! every BFS sweep grab all cores would oversubscribe the machine as soon
//! as two parts run concurrently, so parallelism inside one part is
//! governed by an explicit **thread budget**:
//!
//! * the executor scopes a per-item budget around each work item with
//!   [`with_thread_budget`] (a thread-local, so concurrent items on
//!   different worker threads cannot see each other's budgets);
//! * standalone processes (or worker subprocesses, as a default) inherit
//!   a process-wide budget from the [`THREADS_ENV`] environment variable;
//! * with neither set, the budget is 1 and every metric runs exactly the
//!   sequential path.
//!
//! The budget only bounds *resource use*; results never depend on it —
//! the kernel writes each source's result into its slot by source index,
//! so any budget produces byte-identical output.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable holding the process-wide default thread budget
/// (`ONIONBOTS_THREADS_PER_ITEM`). Read once, on first use; values that
/// are absent, unparseable or zero mean a budget of 1. The process
/// executor sets it on worker subprocesses so they inherit the parent's
/// per-item split even outside an explicitly scoped work item.
pub const THREADS_ENV: &str = "ONIONBOTS_THREADS_PER_ITEM";

thread_local! {
    /// The scoped per-thread budget; `None` falls back to the env default.
    static BUDGET: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Parses one raw env value into a budget (`None` when it does not name a
/// usable thread count).
fn parse_env(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn env_default() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .as_deref()
            .and_then(parse_env)
            .unwrap_or(1)
    })
}

/// The thread budget governing intra-graph parallelism on the calling
/// thread: the innermost [`with_thread_budget`] scope if one is active,
/// else the [`THREADS_ENV`] process default, else 1.
pub fn thread_budget() -> usize {
    BUDGET.with(Cell::get).unwrap_or_else(env_default)
}

/// Runs `f` with the calling thread's budget set to `threads` (clamped to
/// at least 1), restoring the previous budget afterwards — also on panic,
/// via a drop guard, so a panicking work item cannot leak its budget into
/// the next item executed on the same worker thread.
pub fn with_thread_budget<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|b| b.set(self.0));
        }
    }
    let _restore = Restore(BUDGET.with(|b| b.replace(Some(threads.max(1)))));
    f()
}

/// Hard ceiling on fan-out workers: budgets are caller-supplied (CLI
/// flag, environment variable), and an absurd value must degrade to
/// "merely pointless", not to a failed `std::thread` spawn aborting the
/// scope. 64 is far above any useful fan-out while keeping
/// over-provisioned determinism tests (threads > cores) meaningful.
pub const MAX_THREADS: usize = 64;

/// Runs `task(&mut state, i)` for every index in `0..items` and returns
/// the results in index order.
///
/// Up to `threads` scoped workers (clamped to `1..=`[`MAX_THREADS`] and
/// to `items`; one worker runs inline with no thread machinery) claim
/// indices from a shared atomic cursor. Each worker builds its own
/// `state` once with `init` — reusable scratch such as a
/// [`BfsScratch`](crate::metrics::BfsScratch); pass `|| ()` for none.
/// Every result lands in the slot of its index, so the output never
/// depends on the worker count or on scheduling, provided `task`'s
/// result does not depend on what `state` held before.
pub fn fan_out<S, T: Send>(
    items: usize,
    threads: usize,
    init: impl Fn() -> S + Sync,
    task: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    let threads = threads.clamp(1, MAX_THREADS).min(items);
    if threads <= 1 {
        let mut state = init();
        return (0..items).map(|i| task(&mut state, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items {
                            break;
                        }
                        local.push((i, task(&mut state, i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fan-out worker panicked"))
            .collect()
    });
    // Scatter by index: the cursor hands each index to exactly one
    // worker, so every slot is written exactly once.
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(items).collect();
    for (i, value) in per_worker.into_iter().flatten() {
        out[i] = Some(value);
    }
    out.into_iter()
        .map(|value| value.expect("every index is claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budget the current environment implies outside any scope —
    /// tests assert against this instead of a literal 1, so the suite
    /// passes even when the developer has exported [`THREADS_ENV`].
    fn ambient() -> usize {
        std::env::var(THREADS_ENV)
            .ok()
            .as_deref()
            .and_then(parse_env)
            .unwrap_or(1)
    }

    #[test]
    fn unscoped_budget_matches_the_environment() {
        assert_eq!(thread_budget(), ambient());
    }

    #[test]
    fn scoped_budgets_nest_and_restore() {
        let observed = with_thread_budget(4, || {
            let outer = thread_budget();
            let inner = with_thread_budget(2, thread_budget);
            (outer, thread_budget(), inner)
        });
        assert_eq!(observed, (4, 4, 2));
        assert_eq!(
            thread_budget(),
            ambient(),
            "scope exit restores the ambient default"
        );
    }

    #[test]
    fn zero_budget_is_clamped_to_one() {
        assert_eq!(with_thread_budget(0, thread_budget), 1);
    }

    #[test]
    fn budget_scope_survives_a_panic() {
        let result = std::panic::catch_unwind(|| {
            with_thread_budget(usize::MAX, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(thread_budget(), ambient(), "drop guard restored the budget");
    }

    #[test]
    fn budgets_are_per_thread() {
        with_thread_budget(6, || {
            let other = std::thread::spawn(thread_budget).join().unwrap();
            assert_eq!(other, ambient(), "a fresh thread sees the process default");
            assert_eq!(thread_budget(), 6);
        });
    }

    #[test]
    fn fan_out_keeps_index_order_and_one_state_per_worker() {
        // Each worker's state counts the items it ran: the results keep
        // index order, and no more states start counting than workers.
        let items = 100usize;
        for threads in [0usize, 1, 3, usize::MAX] {
            let out = fan_out(
                items,
                threads,
                || 0usize,
                |ran, i| {
                    *ran += 1;
                    (i * i, *ran)
                },
            );
            let squares: Vec<usize> = out.iter().map(|&(sq, _)| sq).collect();
            assert_eq!(squares, (0..items).map(|i| i * i).collect::<Vec<_>>());
            let firsts = out.iter().filter(|&&(_, ran)| ran == 1).count();
            let workers = threads.clamp(1, MAX_THREADS).min(items);
            assert!(firsts >= 1 && firsts <= workers, "threads={threads}");
        }
        assert!(fan_out(0, 8, || (), |_, i| i).is_empty());
    }

    #[test]
    fn env_values_parse_conservatively() {
        assert_eq!(parse_env("4"), Some(4));
        assert_eq!(parse_env(" 16 "), Some(16));
        assert_eq!(parse_env("0"), None, "zero threads is not a budget");
        assert_eq!(parse_env("auto"), None, "auto is resolved by the CLI");
        assert_eq!(parse_env(""), None);
        assert_eq!(parse_env("-2"), None);
    }
}
