//! Runtime benchmark for `adhoc-runtime`.
//!
//! Three workloads drive the runtime's public harness functions:
//!
//! * `theta_static` — the hardened ΘALG protocol on one thread over lossy
//!   links: broadcast-dominated, with a deep event queue;
//! * `theta_static_t2` — the same inputs on two worker threads, which
//!   isolates the shard layer;
//! * `gossip_hostile` — `(T,γ)`-balancing with reliable packet transport,
//!   the Byzantine defense, churn, and equivocating radios: unicast only,
//!   timer-heavy, with a shallow queue.
//!
//! A plain run ([`bench`] with `trace = false`) reports the end-to-end
//! metrics; a traced run reports the per-layer metrics from spans the
//! benchmark records around its own calls, plus two layer probes. The
//! metric names and units are in [`metrics`]; `metrics.json` maps each
//! per-layer metric to the end-to-end metrics it should move.

pub mod metrics;
pub mod probes;
pub mod trace;

use adhoc_core::ThetaAlg;
use adhoc_geom::distributions::NodeDistribution;
use adhoc_geom::Point;
use adhoc_proximity::SpatialGraph;
use adhoc_routing::BalancingConfig;
use adhoc_runtime::{
    run_gossip_balancing_adversarial, run_theta_protocol_sharded, uniform_workload, AdversaryPlan,
    Attack, ChurnKind, ChurnPlan, DefenseConfig, FaultConfig, GossipConfig, GossipRun, NetStats,
    ReliableConfig, ThetaRun, ThetaTiming,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::f64::consts::FRAC_PI_3;
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ΘALG protocol, one thread.
    ThetaStatic,
    /// ΘALG protocol on the same inputs, two worker threads.
    ThetaStaticT2,
    /// Hostile gossip balancing, one thread.
    GossipHostile,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ThetaStatic,
        Workload::ThetaStaticT2,
        Workload::GossipHostile,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ThetaStatic => "theta_static",
            Workload::ThetaStaticT2 => "theta_static_t2",
            Workload::GossipHostile => "gossip_hostile",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the harness call.
    pub fn threads(self) -> usize {
        match self {
            Workload::ThetaStaticT2 => 2,
            Workload::ThetaStatic | Workload::GossipHostile => 1,
        }
    }
}

/// Input sizes of the workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Nodes of the ΘALG workloads.
    pub theta_nodes: usize,
    /// Gossip networks, each one harness call.
    pub gossip_networks: u64,
    /// Nodes of one gossip network, spares included.
    pub gossip_nodes: usize,
    /// Gossip nodes that start outside the network and may join later.
    pub spares: usize,
    /// Routing steps with traffic injection.
    pub inject_steps: u64,
    /// Routing steps after injection stops.
    pub drain_steps: u64,
    /// Packets injected per injection step.
    pub packets_per_step: u32,
    /// Events of each network's random churn plan.
    pub churn_events: usize,
    /// Equivocating (compromised) nodes per network.
    pub byzantine: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        theta_nodes: 1000,
        gossip_networks: 4,
        gossip_nodes: 250,
        spares: 12,
        inject_steps: 300,
        drain_steps: 250,
        packets_per_step: 2,
        churn_events: 5,
        byzantine: 12,
    };

    /// Sizes small enough for unit tests.
    pub const SMALL: Scale = Scale {
        theta_nodes: 150,
        gossip_networks: 2,
        gossip_nodes: 60,
        spares: 5,
        inject_steps: 120,
        drain_steps: 120,
        packets_per_step: 2,
        churn_events: 4,
        byzantine: 4,
    };
}

/// Link loss of every workload.
pub const LOSS: f64 = 0.1;
/// Virtual time at which the equivocators turn.
pub const COMPROMISE_AT: u64 = 50;

/// The link fault model of every workload.
pub fn faults() -> FaultConfig {
    FaultConfig::lossy(LOSS)
}

/// Inputs of one ΘALG harness call.
#[derive(Debug, Clone)]
pub struct ThetaInputs {
    /// Node positions.
    pub points: Vec<Point>,
    /// ΘALG parameters (θ = π/3, default range).
    pub alg: ThetaAlg,
    /// The offline construction the protocol must reproduce.
    pub offline: SpatialGraph,
    /// Seed of the runtime's per-link fault streams.
    pub run_seed: u64,
}

/// Inputs of one gossip harness call.
#[derive(Debug, Clone)]
pub struct GossipInputs {
    /// The offline ΘALG topology packets are routed over.
    pub topology: SpatialGraph,
    /// Traffic destinations: the one sink.
    pub dests: Vec<u32>,
    /// Balancing, reliability and defense settings.
    pub cfg: GossipConfig,
    /// `(step, source, destination)` injections.
    pub traffic: Vec<(u64, u32, u32)>,
    /// Joins, leaves, crashes and drifts (never touching the sink).
    pub churn: ChurnPlan,
    /// The equivocators.
    pub adversary: AdversaryPlan,
    /// Seed of the runtime's per-link fault streams.
    pub run_seed: u64,
}

/// The inputs of one harness call.
#[derive(Debug, Clone)]
pub enum Instance {
    /// ΘALG workloads.
    Theta(ThetaInputs),
    /// The gossip workload.
    Gossip(GossipInputs),
}

impl Instance {
    /// Nodes in the network (spares included).
    pub fn nodes(&self) -> usize {
        match self {
            Instance::Theta(t) => t.points.len(),
            Instance::Gossip(g) => g.topology.len(),
        }
    }
}

fn sample_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    NodeDistribution::unit_square()
        .sample(n, &mut rng)
        .expect("uniform sampling cannot fail")
}

/// Positions and the offline ΘALG topology, with spans `geom.points`
/// and `core.theta_build`.
fn network(n: usize, seed: u64, tr: &mut Tracer) -> (Vec<Point>, ThetaAlg, SpatialGraph) {
    let points = tr.span("geom.points", |_| sample_points(n, seed));
    let alg = ThetaAlg::new(FRAC_PI_3, adhoc_geom::default_max_range(n));
    let offline = tr.span("core.theta_build", |_| alg.build(&points).spatial);
    (points, alg, offline)
}

/// The node nearest the centre of the unit square: the gossip sink, so
/// its neighbourhood does not depend on where the edge of the square is.
fn central_node(points: &[Point]) -> u32 {
    let centre = Point::new(0.5, 0.5);
    (0..points.len() as u32)
        .min_by(|&a, &b| {
            points[a as usize]
                .dist_sq(centre)
                .total_cmp(&points[b as usize].dist_sq(centre))
        })
        .expect("the gossip network has a live node")
}

/// `plan` without any entry for `node` (the node must start alive, so
/// no join of it is dropped).
fn without_node(plan: &ChurnPlan, node: u32) -> ChurnPlan {
    plan.entries()
        .iter()
        .filter(|e| e.node != node)
        .fold(ChurnPlan::new(), |p, e| match e.kind {
            ChurnKind::Join(pos) => p.join(e.at, e.node, pos),
            ChurnKind::Leave => p.leave(e.at, e.node),
            ChurnKind::Crash => p.crash(e.at, e.node),
            ChurnKind::Drift(pos) => p.drift(e.at, e.node, pos),
        })
}

/// Gossip network `k`: positions, topology, sink, churn and equivocators
/// all come from `k` alone, while `seed` draws the traffic and the link
/// fault streams. A network's churn and liars move delivery far more
/// than traffic does, so fixed networks keep the figures steady across
/// seeds, and several of them keep any one from deciding the result.
fn gossip_instance(scale: &Scale, k: u64, seed: u64, tr: &mut Tracer) -> GossipInputs {
    let n = scale.gossip_nodes;
    let alive = n - scale.spares;
    let mut net = ChaCha8Rng::seed_from_u64(k);
    let (points, _, topology) = network(n, net.gen(), tr);
    let sink = central_node(&points[..alive]);
    let dests = vec![sink];
    let cfg = GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        scale.inject_steps + scale.drain_steps,
    )
    .with_reliability(ReliableConfig::default())
    .with_defense(DefenseConfig::default());
    let mut own = ChaCha8Rng::seed_from_u64(seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let (churn_seed, adversary_seed) = (net.gen(), net.gen());
    let (traffic_seed, run_seed) = (own.gen(), own.gen());
    tr.span("runtime.workload", |_| {
        let traffic = uniform_workload(
            alive,
            &dests,
            scale.inject_steps,
            scale.packets_per_step,
            traffic_seed,
        );
        // Churn lands during injection and never touches the sink.
        let churn = ChurnPlan::random(
            alive,
            scale.spares,
            1.0,
            scale.inject_steps * cfg.step_len,
            scale.churn_events,
            churn_seed,
        );
        // Neither the sink nor a spare is compromised, so every liar is in
        // the network when it turns.
        let protect: Vec<u32> = std::iter::once(sink)
            .chain(alive as u32..n as u32)
            .collect();
        let adversary = AdversaryPlan::random(
            n,
            scale.byzantine,
            Attack::Equivocate,
            COMPROMISE_AT,
            &protect,
            adversary_seed,
        );
        GossipInputs {
            topology,
            dests,
            cfg,
            traffic,
            churn: without_node(&churn, sink),
            adversary,
            run_seed,
        }
    })
}

/// Generate a workload's instances from `seed`, with spans `geom.points`,
/// `core.theta_build` and `runtime.workload`.
pub fn setup(w: Workload, scale: &Scale, seed: u64, tr: &mut Tracer) -> Vec<Instance> {
    match w {
        Workload::ThetaStatic | Workload::ThetaStaticT2 => {
            let mut seeds = ChaCha8Rng::seed_from_u64(seed);
            let (points, alg, offline) = network(scale.theta_nodes, seeds.gen(), tr);
            let run_seed = tr.span("runtime.workload", |_| seeds.gen());
            vec![Instance::Theta(ThetaInputs {
                points,
                alg,
                offline,
                run_seed,
            })]
        }
        Workload::GossipHostile => (0..scale.gossip_networks)
            .map(|k| Instance::Gossip(gossip_instance(scale, k, seed, tr)))
            .collect(),
    }
}

/// The result of one harness call.
#[derive(Debug, Clone)]
pub enum RunResult {
    /// From `run_theta_protocol_sharded`.
    Theta(ThetaRun),
    /// From `run_gossip_balancing_adversarial`.
    Gossip(GossipRun),
}

impl RunResult {
    /// Runtime counters.
    pub fn stats(&self) -> &NetStats {
        match self {
            RunResult::Theta(r) => &r.stats,
            RunResult::Gossip(r) => &r.stats,
        }
    }

    /// Replay digest.
    pub fn digest(&self) -> u64 {
        match self {
            RunResult::Theta(r) => r.digest,
            RunResult::Gossip(r) => r.digest,
        }
    }
}

/// Make one harness call on `threads` worker threads.
pub fn run(instance: &Instance, threads: usize) -> RunResult {
    match instance {
        Instance::Theta(t) => RunResult::Theta(run_theta_protocol_sharded(
            &t.points,
            t.alg.sectors(),
            t.alg.range(),
            ThetaTiming::default(),
            faults(),
            t.run_seed,
            threads,
        )),
        Instance::Gossip(g) => RunResult::Gossip(run_gossip_balancing_adversarial(
            &g.topology,
            &g.dests,
            g.cfg,
            &g.traffic,
            faults(),
            g.run_seed,
            &g.churn,
            &g.adversary,
            threads,
        )),
    }
}

/// Operations a harness call attempted and how many of them failed.
///
/// ΘALG: an operation is an edge of the offline construction or of the
/// protocol's result; a missing or extra edge fails. Gossip: an
/// operation is an injected packet; a packet the conservation ledger
/// cannot account for fails (a packet lost to the hostile network is
/// accounted, and shows in the delivery rate instead).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
}

fn edge_set(g: &SpatialGraph) -> BTreeSet<(u32, u32)> {
    g.graph
        .edges()
        .map(|(u, v, _)| (u.min(v), u.max(v)))
        .collect()
}

/// Check one harness result against its instance.
pub fn verify(instance: &Instance, result: &RunResult) -> Verdict {
    match (instance, result) {
        (Instance::Theta(t), RunResult::Theta(r)) => {
            let want = edge_set(&t.offline);
            let got = edge_set(&r.graph);
            Verdict {
                attempted: want.union(&got).count() as u64,
                failed: want.symmetric_difference(&got).count() as u64,
            }
        }
        (Instance::Gossip(_), RunResult::Gossip(r)) => {
            let accounted = r.absorbed
                + r.buffered
                + r.overflow_dropped
                + r.link_lost
                + r.in_flight
                + r.stolen
                + r.blackholed;
            Verdict {
                attempted: r.injected.max(1),
                failed: r.injected.abs_diff(accounted).min(r.injected.max(1)),
            }
        }
        _ => unreachable!("a harness result always matches its instance"),
    }
}

/// Command-line options of one benchmark invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget.
    pub budget: Duration,
    /// Traced run (per-layer metrics) instead of the plain run.
    pub trace: bool,
}

/// The last line a run prints.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations checked, over every harness call.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value)` in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Spans of a traced run, as JSON lines (empty for a plain run).
    pub spans: String,
}

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Harness calls a plain run makes at least, besides one per instance.
pub const MIN_CALLS: usize = 3;

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Wall seconds rescaled to the reference host: `secs` times
/// [`probes::REFERENCE_S`] over the reference kernel's mean time in
/// `kernel` (measured just before and just after).
fn on_reference_host(secs: f64, kernel: (f64, f64)) -> f64 {
    secs * probes::REFERENCE_S / ((kernel.0 + kernel.1) / 2.0)
}

/// Run [`setup`] [`SETUP_REPS`] times; return the median time on the
/// reference host.
fn timed_setup(w: Workload, scale: &Scale, seed: u64, tr: &mut Tracer) -> f64 {
    let before = probes::reference_kernel_on(w.threads());
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        black_box(tr.span("bench.setup", |tr| setup(w, scale, seed, tr)));
        times.push(t0.elapsed().as_secs_f64());
    }
    let kernel = (before, probes::reference_kernel_on(w.threads()));
    on_reference_host(median(&times), kernel)
}

/// Checks over a run's harness calls, and each instance's first result.
struct Checks {
    verdict: Verdict,
    first: Vec<Option<RunResult>>,
    correct: bool,
}

impl Checks {
    fn new(instances: usize) -> Self {
        Checks {
            verdict: Verdict::default(),
            first: vec![None; instances],
            correct: true,
        }
    }

    /// Verify a result of instance `k`; every call on the same instance
    /// must also replay its first call's digest.
    fn add(&mut self, instances: &[Instance], k: usize, result: RunResult) {
        let v = verify(&instances[k], &result);
        self.verdict.attempted += v.attempted;
        self.verdict.failed += v.failed;
        let conserved = match &result {
            RunResult::Gossip(r) => r.conserved(),
            RunResult::Theta(_) => true,
        };
        let digest = result.digest();
        let same_replay = self.first[k].get_or_insert(result).digest() == digest;
        self.correct &= v.failed == 0 && same_replay && conserved;
    }

    /// Each instance's first result.
    fn results(self) -> Vec<RunResult> {
        self.first
            .into_iter()
            .map(|r| r.expect("every instance ran"))
            .collect()
    }
}

/// Time one harness call.
fn timed_run(instance: &Instance, threads: usize) -> (RunResult, f64) {
    let t0 = Instant::now();
    let r = run(instance, threads);
    (r, t0.elapsed().as_secs_f64())
}

/// One benchmark invocation at `scale`.
pub fn bench(opts: &Options, scale: &Scale) -> Report {
    if opts.trace {
        traced(opts, scale)
    } else {
        plain(opts, scale)
    }
}

/// Plain run: end-to-end metrics with tracing off. A first, untimed pass
/// of at least [`MIN_CALLS`] calls warms the process up and sets
/// `peak_rss_mb` (the most memory any of them needed), before
/// repeated calls fragment the allocator's heap and before the reference
/// kernel allocates. Timed calls then cycle through the instances until
/// the budget is spent, with the kernel timed between them; `run_s` is
/// their median on the reference host.
fn plain(opts: &Options, scale: &Scale) -> Report {
    let w = opts.workload;
    let start = Instant::now();
    let mut tr = Tracer::new(false);
    let instances = setup(w, scale, opts.seed, &mut tr);
    let mut checks = Checks::new(instances.len());
    let min_calls = instances.len().max(MIN_CALLS);
    for k in (0..instances.len()).cycle().take(min_calls) {
        checks.add(&instances, k, run(&instances[k], w.threads()));
    }
    let peak_rss_mb = read_peak_rss_mb();
    // The kernel's first run pays its page faults.
    probes::reference_kernel_on(w.threads());
    let setup_s = timed_setup(w, scale, opts.seed, &mut tr);
    let (mut wall, mut times) = (Vec::new(), Vec::new());
    let mut kernel = probes::reference_kernel_on(w.threads());
    loop {
        let k = times.len() % instances.len();
        let (result, secs) = timed_run(&instances[k], w.threads());
        let after = probes::reference_kernel_on(w.threads());
        checks.add(&instances, k, result);
        wall.push(secs);
        times.push(on_reference_host(secs, (kernel, after)));
        eprintln!(
            "runbench: call {k}: {secs:.3} s wall, kernel {kernel:.3}/{after:.3} s, {:.3} s on the reference host",
            times[times.len() - 1]
        );
        kernel = after;
        let next_ends = start.elapsed().as_secs_f64() + median(&wall) + kernel;
        if times.len() >= min_calls && next_ends > opts.budget.as_secs_f64() {
            break;
        }
    }
    let (correct, verdict) = (checks.correct, checks.verdict);
    let results = checks.results();
    Report {
        correct,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: metrics::end_to_end(
            &instances,
            &results,
            metrics::Timings {
                setup_s,
                run_s: median(&times),
                peak_rss_mb,
            },
        ),
        spans: String::new(),
    }
}

/// Traced run: per-layer metrics from spans and probes. Plain and traced
/// calls alternate over the instances while half the budget lasts; the
/// tracing overhead is the difference of their medians. The rest of the
/// budget goes to the shard reference and the probes.
fn traced(opts: &Options, scale: &Scale) -> Report {
    let w = opts.workload;
    let mut tr = Tracer::new(true);
    let start = Instant::now();
    let instances = setup(w, scale, opts.seed, &mut tr);
    timed_setup(w, scale, opts.seed, &mut tr);
    let mut checks = Checks::new(instances.len());
    let mut plain_times = Vec::new();
    let mut traced_calls = Vec::new();
    let before = probes::reference_kernel_on(w.threads());
    tr.span("bench.calls", |tr| loop {
        let k = plain_times.len() % instances.len();
        let (result, secs) = timed_run(&instances[k], w.threads());
        plain_times.push(secs);
        checks.add(&instances, k, result);
        let t0 = Instant::now();
        let result = tr.span("runtime.harness", |_| run(&instances[k], w.threads()));
        traced_calls.push((k, t0.elapsed().as_secs_f64()));
        tr.span("bench.verify", |_| checks.add(&instances, k, result));
        let next_ends = start.elapsed().as_secs_f64() + 2.0 * median(&plain_times);
        if plain_times.len() >= instances.len() && next_ends > opts.budget.as_secs_f64() / 2.0 {
            break;
        }
    });
    let reference_s = (before + probes::reference_kernel_on(w.threads())) / 2.0;
    let (mut correct, verdict) = (checks.correct, checks.verdict);
    let results = checks.results();
    // The shard layer's speedup: the same inputs on one thread, with the
    // digest the multi-threaded calls produced.
    let shard = (w.threads() > 1).then(|| {
        let t0 = Instant::now();
        let reference = tr.span("shard.reference_t1", |_| run(&instances[0], 1));
        (
            t0.elapsed().as_secs_f64(),
            reference.digest() == results[0].digest(),
        )
    });
    // Probes sized from the first instance's own counts.
    let stats = results[0].stats();
    let (depth, events) = (stats.max_queue_depth, metrics::events(stats));
    let event_probe_ns = tr.span("event.probe", |_| match &instances[0] {
        Instance::Theta(_) => {
            probes::event_queue_ns_per_op::<adhoc_runtime::ThetaMsg>(depth, events, opts.seed)
        }
        Instance::Gossip(_) => probes::event_queue_ns_per_op::<
            adhoc_runtime::ReliableMsg<adhoc_runtime::GossipMsg>,
        >(depth, events, opts.seed),
    });
    let fault_probe_ns = tr.span("fault.probe", |_| {
        probes::fault_ns_per_draw(faults(), stats.sent, opts.seed)
    });
    if let Some((_, parity)) = shard {
        correct &= parity;
    }
    let layers = metrics::Layers {
        tracer: &tr,
        plain_run_s: median(&plain_times),
        reference_s,
        traced_calls: &traced_calls,
        event_probe_ns,
        fault_probe_ns,
        shard,
    };
    Report {
        correct,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: metrics::per_layer(&instances, &results, &layers),
        spans: tr.to_jsonl(),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn read_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Render a report as the one-line JSON object the benchmark prints last.
pub fn to_json(report: &Report, table: &[metrics::MetricDef]) -> String {
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|&(name, value)| {
            let unit = table
                .iter()
                .find(|d| d.name == name)
                .map(|d| d.unit)
                .expect("every reported metric is in its table");
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    )
}
