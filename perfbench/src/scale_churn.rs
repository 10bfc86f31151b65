//! `scale-churn`: the `scale` scenario as one 500 000-node part — ten
//! takedown waves of 5% through the sharded repair path — on the local
//! backend with two threads per item and no cache.

use std::time::Duration;

use onion_graph::budget::with_thread_budget;
use onion_graph::components::largest_component_fraction;
use onion_graph::graph::NodeId;
use onion_graph::metrics::sampled_diameter;
use onionbots_core::shard::{default_shards_for, ShardGrid};
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario_api::{part_seed, ScenarioParams};
use sim::{PartFingerprint, ThreadsPerItem};

use crate::batch::{self, RunTiming, RunnerShape};
use crate::clock;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::Args;

const THREADS: usize = 2;

struct Shape {
    n: usize,
    k: usize,
    waves: usize,
    wave_frac: f64,
    diameter_samples: usize,
}

fn shape(smoke: bool) -> Shape {
    Shape {
        n: if smoke { 20_000 } else { 500_000 },
        k: 10,
        waves: if smoke { 3 } else { 10 },
        wave_frac: 0.05,
        diameter_samples: 16,
    }
}

fn params(args: &Args, s: &Shape) -> ScenarioParams {
    ScenarioParams::with_seed(args.seed)
        .with_override("n", s.n.to_string())
        .with_override("k", s.k.to_string())
        .with_override("waves", s.waves.to_string())
        .with_override("wave-frac", s.wave_frac.to_string())
        .with_override("diameter-samples", s.diameter_samples.to_string())
}

fn runner_shape() -> RunnerShape {
    RunnerShape {
        scenarios: vec!["scale".to_string()],
        jobs: 1,
        threads: ThreadsPerItem::Fixed(THREADS),
    }
}

/// The paper's self-repair claims, checked on one part's reports: the
/// overlay stays whole after every wave, pruning bounds the degree, and
/// cumulative repair work never decreases.
fn check_reports(outcome: &mut Outcome, reports: &[ExperimentReport], s: &Shape) {
    let series = |i: usize| reports.get(i).and_then(|r| r.series.first());
    let (Some(robust), Some(degree), Some(repair)) = (series(0), series(1), series(2)) else {
        outcome.check("scale.reports", false, || {
            format!("expected 3 reports, got {}", reports.len())
        });
        return;
    };
    outcome.check("scale.waves", robust.y.len() == s.waves + 1, || {
        format!("{} samples for {} waves", robust.y.len(), s.waves)
    });
    outcome.check(
        "scale.largest_fraction>=0.99",
        robust.y.iter().all(|&f| f >= 0.99),
        || format!("{:?}", robust.y),
    );
    let d_max = DdsrConfig::for_degree(s.k).d_max as f64;
    outcome.check(
        "scale.max_degree<=d_max",
        degree.y.iter().all(|&d| d <= d_max),
        || format!("d_max {d_max}, got {:?}", degree.y),
    );
    outcome.check(
        "scale.repair_edges_monotone",
        repair.y.windows(2).all(|w| w[0] <= w[1]),
        || format!("{:?}", repair.y),
    );
}

/// Checks `digest` against the one an earlier run of the same seed and
/// size left in this checkout, and records it for later runs.
fn check_stored_digest(outcome: &mut Outcome, key: &str, digest: &str) {
    let dir = std::path::Path::new(crate::procs::WORK_DIR).join("digests");
    let path = dir.join(format!("{key}.sha256"));
    match std::fs::read_to_string(&path) {
        Ok(stored) => outcome.check(
            "digest.matches_earlier_runs",
            stored.trim() == digest,
            || {
                format!(
                    "{key}: earlier runs gave {}, this run {digest}",
                    stored.trim()
                )
            },
        ),
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(&path, digest);
        }
    }
}

/// The Runner and parameters the set-up probe plans.
pub fn probe_inputs(args: &Args) -> (RunnerShape, ScenarioParams) {
    (runner_shape(), params(args, &shape(args.smoke)))
}

pub fn run(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let s = shape(args.smoke);
    let params = params(args, &s);
    let shape = runner_shape();
    if args.trace {
        return traced(args, outcome, &s, &params);
    }
    let setup = batch::setup_median(args, 21, outcome)?;
    outcome.metrics.set("setup_s", setup);
    let budget = Duration::from_secs(args.seconds);
    let rounds = batch::rounds(budget, 4, |_| {
        batch::measure_round(|| {
            let run = batch::run_observed(&shape, params.clone())?;
            match run.summary.outcomes.first() {
                Some(o) => check_reports(outcome, &o.reports, &s),
                None => outcome.check("scale.outcome", false, || "no outcome".to_string()),
            }
            Ok(vec![RunTiming::from(&run)])
        })
    })?;
    batch::batch_metrics(outcome, &rounds);
    let digests: Vec<&str> = rounds.iter().map(|r| r.runs[0].digest.as_str()).collect();
    outcome.check(
        "digest.same_every_round",
        digests.windows(2).all(|w| w[0] == w[1]),
        || format!("{digests:?}"),
    );
    check_stored_digest(
        outcome,
        &format!("scale-churn-n{}-seed{}", s.n, args.seed),
        digests[0],
    );
    outcome.set_success_rate();
    Ok(())
}

/// Span names of one replay, so the single-thread baseline gets its own.
struct Names {
    part: &'static str,
    build: &'static str,
    wave: &'static str,
}

const NAMES_T2: Names = Names {
    part: "scale.part",
    build: "onionbots_core.shard.build",
    wave: "onionbots_core.shard.wave",
};
const NAMES_T1: Names = Names {
    part: "scale.part_t1",
    build: "onionbots_core.shard.build_t1",
    wave: "onionbots_core.shard.wave_t1",
};

/// `ScaleChurn::run_part` rebuilt from the layers' public functions with
/// a span around each call. Returns the reports and the final repair
/// counters.
fn replay(
    s: &Shape,
    rng: &mut StdRng,
    tracer: &Tracer,
    request: &str,
    names: &Names,
) -> (Vec<ExperimentReport>, u64, u64) {
    tracer.span(names.part, request, None, |root| {
        let (n, k, waves, wave_frac) = (s.n, s.k, s.waves, s.wave_frac);
        let label = format!("n={n}");
        let (grid, mut overlay) = tracer.span(names.build, request, Some(root), |_| {
            let grid = ShardGrid::new(n, k, default_shards_for(n));
            let (overlay, _ids) =
                DdsrOverlay::new_regular_sharded(n, k, DdsrConfig::for_degree(k), &grid, rng);
            (grid, overlay)
        });
        let largest = |overlay: &DdsrOverlay| {
            tracer.span(
                "onion_graph.components.largest_fraction",
                request,
                Some(root),
                |_| largest_component_fraction(overlay.graph()),
            )
        };
        let mut x = vec![0.0f64];
        let mut robustness = vec![largest(&overlay)];
        let mut max_degree = vec![overlay.graph().max_degree() as f64];
        let mut repair_edges = vec![0.0f64];
        for wave in 1..=waves {
            let live = overlay.graph().nodes();
            if live.len() <= 1 {
                break;
            }
            let wave_size = ((live.len() as f64 * wave_frac) as usize)
                .max(1)
                .min(live.len() - 1);
            let victims: Vec<NodeId> = live.choose_multiple(rng, wave_size).copied().collect();
            tracer.span(names.wave, request, Some(root), |_| {
                overlay.remove_nodes_sharded(&victims, &grid, rng)
            });
            x.push(wave as f64);
            robustness.push(largest(&overlay));
            max_degree.push(overlay.graph().max_degree() as f64);
            repair_edges.push(overlay.stats().edges_added as f64);
        }

        let mut robustness_report = ExperimentReport::new(
            "scale-robustness",
            "Largest-component fraction under batched takedown waves",
            "wave",
            "largest component fraction",
        );
        robustness_report.push_series(Series::new(label.clone(), x.clone(), robustness));
        let mut degree_report = ExperimentReport::new(
            "scale-degree",
            "Maximum degree under batched takedown waves (pruning discipline)",
            "wave",
            "max degree",
        );
        degree_report.push_series(Series::new(label.clone(), x.clone(), max_degree));
        let mut repair_report = ExperimentReport::new(
            "scale-repair",
            "Cumulative repair edges added by batched waves",
            "wave",
            "edges added",
        );
        repair_report.push_series(Series::new(label.clone(), x, repair_edges));
        let diameter = tracer.span(
            "onion_graph.metrics.sampled_diameter",
            request,
            Some(root),
            |_| sampled_diameter(overlay.graph(), s.diameter_samples, rng),
        );
        let stats = overlay.stats();
        repair_report.push_note(format!(
            "{label}: after {waves} waves of {:.0}% churn: {} nodes live, sampled diameter {:?}, {} edges added, {} pruned",
            wave_frac * 100.0,
            overlay.node_count(),
            diameter,
            stats.edges_added,
            stats.edges_pruned,
        ));
        (
            vec![robustness_report, degree_report, repair_report],
            stats.edges_added,
            stats.edges_pruned,
        )
    })
}

/// The traced run: the untraced `run_part` as reference, then the
/// span-instrumented replay at two threads and at one thread; all three
/// must produce equal reports.
fn traced(
    args: &Args,
    outcome: &mut Outcome,
    s: &Shape,
    params: &ScenarioParams,
) -> Result<(), String> {
    let registry = onionbots_bench::scenarios::registry();
    let scenario = registry.get("scale").ok_or("scale is not registered")?;
    let seed = part_seed(params.seed, scenario.id(), 0);
    let request = PartFingerprint::compute(&*scenario, 0, params)
        .hex()
        .to_string();
    let tracer = Tracer::new();

    let started = clock::now();
    let reference = with_thread_budget(THREADS, || {
        scenario.run_part(0, params, &mut StdRng::seed_from_u64(seed))
    });
    let untraced_s = started.elapsed().as_secs_f64();
    check_reports(outcome, &reference, s);

    let (reports, added, pruned) = with_thread_budget(THREADS, || {
        replay(
            s,
            &mut StdRng::seed_from_u64(seed),
            &tracer,
            &request,
            &NAMES_T2,
        )
    });
    outcome.check("replay.equals_run_part", reports == reference, || {
        "the 2-thread replay diverged from Scenario::run_part".to_string()
    });
    let (reports_t1, _, _) = with_thread_budget(1, || {
        replay(
            s,
            &mut StdRng::seed_from_u64(seed),
            &tracer,
            &request,
            &NAMES_T1,
        )
    });
    outcome.check("replay_t1.equals_run_part", reports_t1 == reference, || {
        "the 1-thread replay diverged from Scenario::run_part".to_string()
    });
    outcome.attempted = 3;

    let m = &mut outcome.metrics;
    m.set(
        "onionbots_core.shard.build_s",
        tracer.total_s(NAMES_T2.build),
    );
    m.set("onionbots_core.shard.wave_s", tracer.total_s(NAMES_T2.wave));
    m.set(
        "onionbots_core.shard.wave_max_s",
        tracer.max_s(NAMES_T2.wave),
    );
    m.set(
        "onionbots_core.shard.build_t1_s",
        tracer.total_s(NAMES_T1.build),
    );
    m.set(
        "onionbots_core.shard.wave_t1_s",
        tracer.total_s(NAMES_T1.wave),
    );
    m.set("onionbots_core.overlay.edges_added", added as f64);
    m.set("onionbots_core.overlay.edges_pruned", pruned as f64);
    m.set(
        "onionbots_core.overlay.repair_keep_ratio",
        (added as f64 - pruned as f64) / (added.max(1) as f64),
    );
    m.set(
        "onion_graph.components.largest_fraction_s",
        tracer.total_s("onion_graph.components.largest_fraction"),
    );
    m.set(
        "onion_graph.metrics.sampled_diameter_s",
        tracer.total_s("onion_graph.metrics.sampled_diameter"),
    );
    m.set("scale.unattributed_s", tracer.root_self_s(NAMES_T2.part)?);
    m.set(
        "trace.overhead_s",
        tracer.total_s(NAMES_T2.part) - untraced_s,
    );
    crate::finish_trace(args, outcome, &tracer)
}
