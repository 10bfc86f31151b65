//! `paper-sweep`: the nine paper scenarios at quick scale over a block
//! of consecutive seeds, on the local backend with two Runner jobs and
//! no cache.

use std::time::Duration;

use mitigation::defenses::{PeeringRateLimiter, PowChallenge};
use mitigation::soap::{SoapAttack, SoapConfig};
use onion_graph::budget::with_thread_budget;
use onion_graph::components::component_count;
use onion_graph::csr::CsrSnapshot;
use onion_graph::graph::NodeId;
use onion_graph::metrics::{
    average_degree_centrality, sampled_average_closeness_centrality_csr, sampled_diameter_csr,
};
use onionbots_bench::Scale;
use onionbots_core::{DdsrConfig, DdsrOverlay};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sim::experiment::{ExperimentReport, Series};
use sim::scenario::{partition_threshold, TakedownMode, TakedownParams, TakedownSample};
use sim::scenario_api::{merge_reports, part_seed, Scenario, ScenarioParams};
use sim::{PartFingerprint, ThreadsPerItem};

use crate::batch::{self, ObservedRun, RunTiming, RunnerShape};
use crate::clock;
use crate::report::Outcome;
use crate::trace::Tracer;
use crate::Args;

/// Every registered id except `scale`, in registry order.
const PAPER_IDS: [&str; 9] = [
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "ablation-non",
    "ablation-soap-defenses",
];

/// The scenarios whose parts the traced run replays layer by layer.
const REPLAYED: [&str; 4] = ["fig4", "fig5", "fig6", "fig7"];

/// The block of consecutive seeds one workload seed stands for; blocks of
/// different workload seeds never overlap.
fn seed_block(seed: u64, smoke: bool) -> Vec<u64> {
    let len: u64 = if smoke { 1 } else { 6 };
    let base = seed.wrapping_mul(1000);
    (0..len).map(|i| base.wrapping_add(i)).collect()
}

fn runner_shape(jobs: usize) -> RunnerShape {
    RunnerShape {
        scenarios: PAPER_IDS.iter().map(|s| s.to_string()).collect(),
        jobs,
        threads: ThreadsPerItem::Auto,
    }
}

fn run_block(shape: &RunnerShape, block: &[u64]) -> Result<Vec<ObservedRun>, String> {
    block
        .iter()
        .map(|&seed| batch::run_observed(shape, ScenarioParams::with_seed(seed)))
        .collect()
}

/// The Runner and parameters the set-up probe plans.
pub fn probe_inputs(args: &Args) -> (RunnerShape, ScenarioParams) {
    let block = seed_block(args.seed, args.smoke);
    (runner_shape(2), ScenarioParams::with_seed(block[0]))
}

pub fn run(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let block = seed_block(args.seed, args.smoke);
    let shape = runner_shape(2);
    if args.trace {
        return traced(args, outcome, &shape, &block);
    }
    let setup = batch::setup_median(args, 21, outcome)?;
    outcome.metrics.set("setup_s", setup);
    let budget = Duration::from_secs(args.seconds);
    let rounds = batch::rounds(budget, 6, |_| {
        batch::measure_round(|| {
            Ok(run_block(&shape, &block)?
                .iter()
                .map(RunTiming::from)
                .collect())
        })
    })?;
    batch::batch_metrics(outcome, &rounds);

    // The determinism contract: the timed 2-job runs equal an untimed
    // sequential run of every seed in the block.
    let reference: Vec<RunTiming> = run_block(&runner_shape(1), &block)?
        .iter()
        .map(RunTiming::from)
        .collect();
    for round in &rounds {
        for (run, expect) in round.runs.iter().zip(&reference) {
            outcome.check(
                "digest.equals_jobs1_run",
                run.digest == expect.digest,
                || {
                    format!(
                        "seed {}: jobs 2 gave {}, jobs 1 {}",
                        run.seed, run.digest, expect.digest
                    )
                },
            );
        }
    }
    outcome.set_success_rate();
    Ok(())
}

/// The traced run: the Runner pipeline observed from outside over the
/// block, then every fig4–fig7 part of the block's first seed replayed
/// layer by layer and compared with `Scenario::run_part`.
fn traced(
    args: &Args,
    outcome: &mut Outcome,
    shape: &RunnerShape,
    block: &[u64],
) -> Result<(), String> {
    let tracer = Tracer::new();
    let runs = run_block(shape, block)?;
    batch::runner_layers(outcome, &tracer, &runs, shape.jobs);

    let registry = onionbots_bench::scenarios::registry();
    let params = ScenarioParams::with_seed(block[0]);
    let mut counters = Counters::default();
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut replayed = 0;
    for id in REPLAYED {
        let scenario = registry
            .get(id)
            .ok_or("a paper scenario is not registered")?;
        let mut merged_replay = Vec::new();
        for part in 0..scenario.parts(&params).max(1) {
            let seed = part_seed(params.seed, id, part);
            let request = PartFingerprint::compute(&*scenario, part, &params)
                .hex()
                .to_string();
            let started = clock::now();
            let reference = with_thread_budget(1, || {
                scenario.run_part(part, &params, &mut StdRng::seed_from_u64(seed))
            });
            untraced_s += started.elapsed().as_secs_f64();
            let started = clock::now();
            let reports = with_thread_budget(1, || {
                let ctx = Ctx {
                    tracer: &tracer,
                    request: &request,
                    counters: &mut counters,
                };
                replay(
                    ctx,
                    &*scenario,
                    part,
                    &params,
                    &mut StdRng::seed_from_u64(seed),
                )
            });
            traced_s += started.elapsed().as_secs_f64();
            replayed += 1;
            outcome.check("replay.equals_run_part", reports == reference, || {
                format!("{id}#{part} replay diverged from Scenario::run_part")
            });
            merge_reports(&mut merged_replay, reports);
        }
        let runner_reports = runs[0]
            .summary
            .outcomes
            .iter()
            .find(|o| o.scenario_id == id)
            .map(|o| &o.reports);
        outcome.check(
            "replay.equals_runner_summary",
            runner_reports == Some(&merged_replay),
            || format!("{id}: merged replay differs from the Runner's summary"),
        );
    }
    outcome.attempted = replayed + runs.iter().map(|r| r.parts().len() as u64).sum::<u64>();

    let m = &mut outcome.metrics;
    let t = |name: &str| tracer.total_s(name);
    m.set(
        "onionbots_core.overlay.repair_s",
        t("onionbots_core.overlay.repair"),
    );
    m.set(
        "onionbots_core.overlay.remove_norepair_s",
        t("onionbots_core.overlay.remove_norepair"),
    );
    m.set("onion_graph.csr.build_s", t("onion_graph.csr.build"));
    m.set("onion_graph.csr.edges_max", counters.edges_max as f64);
    m.set(
        "onion_graph.components.count_s",
        t("onion_graph.components.count"),
    );
    m.set(
        "onion_graph.metrics.closeness_s",
        t("onion_graph.metrics.closeness"),
    );
    m.set(
        "onion_graph.metrics.diameter_s",
        t("onion_graph.metrics.diameter"),
    );
    m.set(
        "onion_graph.metrics.degree_centrality_s",
        t("onion_graph.metrics.degree_centrality"),
    );
    m.set(
        "onion_graph.metrics.bfs_sources",
        counters.bfs_sources as f64,
    );
    m.set(
        "sim.scenario.partition_threshold_s",
        t("sim.scenario.partition_threshold"),
    );
    m.set("mitigation.soap.run_s", t("mitigation.soap.run"));
    m.set("trace.overhead_s", traced_s - untraced_s);
    crate::finish_trace(args, outcome, &tracer)
}

#[derive(Default)]
struct Counters {
    edges_max: usize,
    bfs_sources: usize,
}

/// What one replayed part records into.
struct Ctx<'a> {
    tracer: &'a Tracer,
    request: &'a str,
    counters: &'a mut Counters,
}

fn replay(
    mut ctx: Ctx<'_>,
    scenario: &dyn Scenario,
    part: usize,
    params: &ScenarioParams,
    rng: &mut StdRng,
) -> Vec<ExperimentReport> {
    let tracer = ctx.tracer;
    let request = ctx.request;
    tracer.span("scenario.part", request, None, |root| match scenario.id() {
        "fig4" => fig4(&mut ctx, root, part, params, rng),
        "fig5" => fig5(&mut ctx, root, part, params),
        "fig6" => fig6(&ctx, root, part, params, rng),
        "fig7" => fig7(&ctx, root, params, rng),
        other => unreachable!("no replay for {other}"),
    })
}

fn new_regular(
    ctx: &Ctx<'_>,
    root: u64,
    n: usize,
    k: usize,
    config: DdsrConfig,
    rng: &mut StdRng,
) -> (DdsrOverlay, Vec<NodeId>) {
    ctx.tracer.span(
        "onionbots_core.overlay.new_regular",
        ctx.request,
        Some(root),
        |_| DdsrOverlay::new_regular(n, k, config, rng),
    )
}

/// `sim::scenario::gradual_takedown`, one span per layer call.
fn gradual_takedown(
    ctx: &mut Ctx<'_>,
    root: u64,
    overlay: &mut DdsrOverlay,
    ids: &[NodeId],
    mode: TakedownMode,
    params: TakedownParams,
    rng: &mut StdRng,
) -> Vec<TakedownSample> {
    let (tracer, request) = (ctx.tracer, ctx.request);
    let mut order: Vec<NodeId> = ids.to_vec();
    order.shuffle(rng);
    let deletions = params.deletions.min(order.len());
    let mut samples = vec![sample(ctx, root, overlay, 0, params.metric_samples, rng)];
    for (i, node) in order.into_iter().take(deletions).enumerate() {
        match mode {
            TakedownMode::SelfRepairing => {
                tracer.span("onionbots_core.overlay.repair", request, Some(root), |_| {
                    overlay.remove_node_with_repair(node, rng)
                });
            }
            TakedownMode::Normal => {
                tracer.span(
                    "onionbots_core.overlay.remove_norepair",
                    request,
                    Some(root),
                    |_| overlay.remove_node_without_repair(node),
                );
            }
        }
        let deleted = i + 1;
        if deleted % params.sample_every.max(1) == 0 || deleted == deletions {
            samples.push(sample(
                ctx,
                root,
                overlay,
                deleted,
                params.metric_samples,
                rng,
            ));
        }
    }
    samples
}

fn sample(
    ctx: &mut Ctx<'_>,
    root: u64,
    overlay: &DdsrOverlay,
    nodes_deleted: usize,
    metric_samples: usize,
    rng: &mut StdRng,
) -> TakedownSample {
    let (tracer, request) = (ctx.tracer, ctx.request);
    let graph = overlay.graph();
    let csr = tracer.span("onion_graph.csr.build", request, Some(root), |_| {
        CsrSnapshot::build(graph)
    });
    ctx.counters.edges_max = ctx.counters.edges_max.max(csr.edge_count());
    let sources = if csr.node_count() == 0 {
        0
    } else {
        metric_samples.max(1).min(csr.node_count())
    };
    ctx.counters.bfs_sources += 2 * sources;
    let connected_components =
        tracer.span("onion_graph.components.count", request, Some(root), |_| {
            component_count(&csr)
        });
    let degree_centrality = tracer.span(
        "onion_graph.metrics.degree_centrality",
        request,
        Some(root),
        |_| average_degree_centrality(graph),
    );
    let closeness_centrality =
        tracer.span("onion_graph.metrics.closeness", request, Some(root), |_| {
            sampled_average_closeness_centrality_csr(&csr, metric_samples, rng)
        });
    let diameter = tracer.span("onion_graph.metrics.diameter", request, Some(root), |_| {
        sampled_diameter_csr(&csr, metric_samples, rng)
    });
    TakedownSample {
        nodes_deleted,
        nodes_remaining: graph.node_count(),
        connected_components,
        degree_centrality,
        closeness_centrality,
        diameter,
    }
}

/// `fig4::CentralityUnderTakedown::run_part`.
fn fig4(
    ctx: &mut Ctx<'_>,
    root: u64,
    part: usize,
    params: &ScenarioParams,
    rng: &mut StdRng,
) -> Vec<ExperimentReport> {
    const DEGREES: [usize; 3] = [5, 10, 15];
    let pruning = part >= DEGREES.len();
    let k = DEGREES[part % DEGREES.len()];
    let scale = Scale::from_params(params);
    let n = scale.population(5000);
    let samples = scale.metric_samples();
    let config = if pruning {
        DdsrConfig::for_degree(k)
    } else {
        DdsrConfig::without_pruning(k)
    };
    let (mut overlay, ids) = new_regular(ctx, root, n, k, config, rng);
    let deletions = (n as f64 * 0.3) as usize;
    let takedown = TakedownParams {
        deletions,
        sample_every: (deletions / 15).max(1),
        metric_samples: samples,
    };
    let trace = gradual_takedown(
        ctx,
        root,
        &mut overlay,
        &ids,
        TakedownMode::SelfRepairing,
        takedown,
        rng,
    );
    let x: Vec<f64> = trace.iter().map(|s| s.nodes_deleted as f64).collect();
    let mode = if pruning {
        "with pruning"
    } else {
        "without pruning"
    };
    let (closeness_id, degree_id) = if pruning {
        ("fig4b", "fig4d")
    } else {
        ("fig4a", "fig4c")
    };
    let mut closeness = ExperimentReport::new(
        closeness_id,
        format!("Average closeness centrality ({mode}), n = {n} (paper: 5000)"),
        "nodes deleted",
        "closeness centrality",
    );
    closeness.push_series(Series::new(
        format!("deg = {k}"),
        x.clone(),
        trace.iter().map(|s| s.closeness_centrality).collect(),
    ));
    let mut degree = ExperimentReport::new(
        degree_id,
        format!("Average degree centrality ({mode}), n = {n} (paper: 5000)"),
        "nodes deleted",
        "degree centrality",
    );
    degree.push_series(Series::new(
        format!("deg = {k}"),
        x,
        trace.iter().map(|s| s.degree_centrality).collect(),
    ));
    vec![closeness, degree]
}

/// `fig5::DdsrVersusNormal::run_part` (which ignores the part RNG).
fn fig5(
    ctx: &mut Ctx<'_>,
    root: u64,
    part: usize,
    params: &ScenarioParams,
) -> Vec<ExperimentReport> {
    const SIZES: [(usize, [&str; 3]); 2] = [
        (5000, ["fig5a", "fig5c", "fig5e"]),
        (15000, ["fig5b", "fig5d", "fig5f"]),
    ];
    let (paper_n, report_ids) = SIZES[part / 2];
    let mode = if part.is_multiple_of(2) {
        TakedownMode::SelfRepairing
    } else {
        TakedownMode::Normal
    };
    let label = match mode {
        TakedownMode::SelfRepairing => "DDSR",
        TakedownMode::Normal => "Normal",
    };
    let scale = Scale::from_params(params);
    let n = scale.population(paper_n);
    let samples = scale.metric_samples();
    let mut rng = StdRng::seed_from_u64(part_seed(params.seed, "fig5", part / 2));
    let rng = &mut rng;
    let k = 10usize;
    let (mut overlay, ids) = new_regular(ctx, root, n, k, DdsrConfig::for_degree(k), rng);
    let deletions = n * 96 / 100;
    let takedown = TakedownParams {
        deletions,
        sample_every: (deletions / 20).max(1),
        metric_samples: samples,
    };
    let trace = gradual_takedown(ctx, root, &mut overlay, &ids, mode, takedown, rng);
    let x: Vec<f64> = trace.iter().map(|s| s.nodes_deleted as f64).collect();
    let mut components = ExperimentReport::new(
        report_ids[0],
        format!("Connected components, n = {n} (paper: {paper_n})"),
        "nodes deleted",
        "connected components",
    );
    components.push_series(Series::new(
        label,
        x.clone(),
        trace
            .iter()
            .map(|s| s.connected_components as f64)
            .collect(),
    ));
    let mut degree = ExperimentReport::new(
        report_ids[1],
        format!("Degree centrality, n = {n} (paper: {paper_n})"),
        "nodes deleted",
        "degree centrality",
    );
    degree.push_series(Series::new(
        label,
        x.clone(),
        trace.iter().map(|s| s.degree_centrality).collect(),
    ));
    let mut diameter = ExperimentReport::new(
        report_ids[2],
        format!("Diameter of the largest component, n = {n} (paper: {paper_n})"),
        "nodes deleted",
        "diameter",
    );
    diameter.push_series(Series::new(
        label,
        x,
        trace
            .iter()
            .map(|s| s.diameter.unwrap_or(0) as f64)
            .collect(),
    ));
    vec![components, degree, diameter]
}

/// `fig6::PartitionThreshold::run_part`.
fn fig6(
    ctx: &Ctx<'_>,
    root: u64,
    part: usize,
    params: &ScenarioParams,
    rng: &mut StdRng,
) -> Vec<ExperimentReport> {
    let k = params.override_usize("k", 10);
    let paper_n = (part + 1) * params.override_usize("step-nodes", 1000);
    let n = Scale::from_params(params).population(paper_n);
    let threshold = ctx.tracer.span(
        "sim.scenario.partition_threshold",
        ctx.request,
        Some(root),
        |_| partition_threshold(n, k, (n / 100).max(1), rng),
    );
    let mut report = ExperimentReport::new(
        "fig6",
        format!("Deletions needed to partition ({k}-regular)"),
        "nodes",
        "nodes deleted",
    );
    report.push_series(Series::new(
        "Graph",
        vec![n as f64],
        vec![threshold.deletions_to_partition as f64],
    ));
    report.push_series(Series::new(
        "f(x) = 0.4x",
        vec![n as f64],
        vec![0.4 * n as f64],
    ));
    report.push_note(format!(
        "n = {:>6}: partitioned after {:>6} deletions ({:.1}% of nodes)",
        n,
        threshold.deletions_to_partition,
        threshold.fraction() * 100.0
    ));
    vec![report]
}

/// `fig7::SoapCampaign::run_part`.
fn fig7(
    ctx: &Ctx<'_>,
    root: u64,
    params: &ScenarioParams,
    rng: &mut StdRng,
) -> Vec<ExperimentReport> {
    let n = Scale::from_params(params).population(1000);
    let k = 10usize;
    let (mut overlay, ids) = new_regular(ctx, root, n, k, DdsrConfig::for_degree(k), rng);
    let mut attack = SoapAttack::new(SoapConfig::default(), ids[0]);
    let outcome = ctx
        .tracer
        .span("mitigation.soap.run", ctx.request, Some(root), |_| {
            attack.run(&mut overlay, rng)
        });
    let mut report = ExperimentReport::new(
        "fig7",
        format!("SOAP campaign progress (n = {n}, k = {k})"),
        "iteration",
        "bots",
    );
    let iterations: Vec<f64> = outcome.trace.iter().map(|p| p.iteration as f64).collect();
    report.push_series(Series::new(
        "contained bots",
        iterations.clone(),
        outcome
            .trace
            .iter()
            .map(|p| p.contained_bots as f64)
            .collect(),
    ));
    report.push_series(Series::new(
        "discovered bots",
        iterations.clone(),
        outcome
            .trace
            .iter()
            .map(|p| p.discovered_bots as f64)
            .collect(),
    ));
    report.push_series(Series::new(
        "clones created",
        iterations,
        outcome
            .trace
            .iter()
            .map(|p| p.clones_created as f64)
            .collect(),
    ));
    report.push_note(format!(
        "botnet neutralized: {} (iterations = {}, clones = {})",
        outcome.neutralized, outcome.iterations, outcome.clones_created
    ));
    let limiter = PeeringRateLimiter {
        base_delay_secs: 60,
        per_peer_delay_secs: 300,
    };
    let clones_per_bot = (outcome.clones_created as f64
        / outcome
            .trace
            .last()
            .map_or(1.0, |p| p.discovered_bots.max(1) as f64))
    .ceil() as usize;
    report.push_note(format!(
        "rate limiting: accepting {clones_per_bot} clones at one bot costs {} simulated hours (vs {} hours for its initial {k} rallies)",
        limiter.total_delay(k, clones_per_bot) / 3600,
        limiter.total_delay(0, k) / 3600
    ));
    for difficulty in [8u32, 12, 16] {
        let challenge = PowChallenge {
            challenge: b"peer-with-me".to_vec(),
            difficulty_bits: difficulty,
        };
        let cost = ctx.tracer.span(
            "mitigation.defenses.pow_solve",
            ctx.request,
            Some(root),
            |_| challenge.solve(u64::MAX >> 16).map(|(_, c)| c).unwrap_or(0),
        );
        report.push_note(format!(
            "proof of work at {difficulty} bits: ~{cost} hash evaluations per clone, ~{} per contained bot",
            cost * clones_per_bot as u64
        ));
    }
    vec![report]
}
