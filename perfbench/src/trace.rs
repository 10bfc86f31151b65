//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program itself carries no tracing. A
//! span has a name, a start and end (nanoseconds since the recorder was
//! created), an optional parent span and a request id (a part
//! fingerprint or a job id). Spans stay in memory until [`Tracer::write`]
//! dumps them at the end of the run.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde_json::Value;

use crate::clock;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: clock::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Nanoseconds since the recorder's origin for an instant taken
    /// elsewhere (observer callbacks, client threads).
    pub fn at_ns(&self, instant: Instant) -> u64 {
        u64::try_from(instant.saturating_duration_since(self.origin).as_nanos())
            .expect("a run lasts less than 584 years")
    }

    /// Records an already-timed span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        request: &str,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            name,
            request: request.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Times `f` as a span; `f` receives the span's id so it can parent
    /// nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        request: &str,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.push(Span {
            id,
            parent,
            name,
            request: request.to_string(),
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.with_named(name, |d| d.iter().sum::<u64>()) as f64 / 1e9
    }

    /// Longest span called `name`, in seconds.
    pub fn max_s(&self, name: &str) -> f64 {
        self.with_named(name, |d| d.iter().copied().max().unwrap_or(0)) as f64 / 1e9
    }

    fn with_named<T>(&self, name: &str, f: impl FnOnce(&[u64]) -> T) -> T {
        let durations: Vec<u64> = self
            .spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        f(&durations)
    }

    /// Self time of every span (its duration minus the union of its
    /// children's intervals), or the first nesting violation: a child
    /// that starts before or ends after its parent would make self time
    /// meaningless.
    pub fn self_times(&self) -> Result<Vec<(Span, u64)>, String> {
        let spans = self.spans();
        let mut children: std::collections::BTreeMap<u64, Vec<(u64, u64)>> = Default::default();
        for span in &spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut out = Vec::with_capacity(spans.len());
        for span in spans {
            let mut intervals = children.remove(&span.id).unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for (start, end) in intervals {
                if start < span.start_ns || end > span.end_ns {
                    return Err(format!(
                        "span {} ({}) has a child outside [{}, {}]: [{start}, {end}]",
                        span.id, span.name, span.start_ns, span.end_ns
                    ));
                }
                let from = start.max(cursor);
                if end > from {
                    covered += end - from;
                    cursor = end;
                }
            }
            let own = span.duration_ns() - covered;
            out.push((span, own));
        }
        if !children.is_empty() {
            return Err(format!(
                "{} span(s) name a parent that was never recorded",
                children.len()
            ));
        }
        Ok(out)
    }

    /// Share of root-span time that no child span covers.
    pub fn unattributed_share(&self) -> Result<f64, String> {
        let (own, total) = self
            .self_times()?
            .iter()
            .filter(|(span, _)| span.parent.is_none())
            .fold((0u64, 0u64), |(own, total), (span, self_ns)| {
                (own + self_ns, total + span.duration_ns())
            });
        Ok(if total == 0 {
            0.0
        } else {
            own as f64 / total as f64
        })
    }

    /// Self time of every root span called `name`, in seconds.
    pub fn root_self_s(&self, name: &str) -> Result<f64, String> {
        Ok(self
            .self_times()?
            .iter()
            .filter(|(span, _)| span.parent.is_none() && span.name == name)
            .map(|(_, own)| *own)
            .sum::<u64>() as f64
            / 1e9)
    }

    /// Writes every span as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = Value::Array(
            self.self_times()
                .unwrap_or_else(|_| self.spans().into_iter().map(|s| (s, 0)).collect())
                .into_iter()
                .map(|(s, own)| {
                    Value::Object(vec![
                        ("id".to_string(), Value::U64(s.id)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Value::Null, Value::U64),
                        ),
                        ("name".to_string(), Value::Str(s.name.to_string())),
                        ("request".to_string(), Value::Str(s.request.clone())),
                        ("start_ns".to_string(), Value::U64(s.start_ns)),
                        ("end_ns".to_string(), Value::U64(s.end_ns)),
                        ("self_ns".to_string(), Value::U64(own)),
                    ])
                })
                .collect(),
        );
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(
            serde_json::to_string(&spans)
                .expect("spans serialize")
                .as_bytes(),
        )?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new();
        let root = t.record("root", "r", None, 0, 100);
        t.record("a", "r", Some(root), 10, 40);
        t.record("b", "r", Some(root), 30, 60);
        let times = t.self_times().unwrap();
        let own = times.iter().find(|(s, _)| s.id == root).unwrap().1;
        assert_eq!(own, 50);
        assert!((t.unattributed_share().unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_child_outside_its_parent_is_reported() {
        let t = Tracer::new();
        let root = t.record("root", "r", None, 10, 20);
        t.record("late", "r", Some(root), 15, 25);
        assert!(t.self_times().is_err());
    }
}
