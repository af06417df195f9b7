//! Metric tables and their computation.
//!
//! Every workload reports every metric of a table, so a metric that
//! belongs to one family of workloads has a stated value on the other:
//! a rate over nothing that could fail is 1.0 (the runtime's own
//! `edge_fidelity` convention), and a count of work a layer did not do
//! is 0. `metrics.json` maps each per-layer metric to the end-to-end
//! metrics and workloads it should move.

use crate::trace::Tracer;
use crate::{verify, Instance, RunResult};
use adhoc_runtime::{GossipRun, NetStats};

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Unique name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by the plain run.
pub const END_TO_END: [MetricDef; 8] = [
    m("setup_s", "s", "lower"),
    m("run_s", "s", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("radio_sends_per_node", "sends/node", "lower"),
    m("edge_fidelity", "share", "higher"),
    m("delivery_rate", "share", "higher"),
    m("detection_rate", "share", "higher"),
    m("honest_kept_rate", "share", "higher"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [MetricDef; 49] = [
    m("geom.points_s", "s", "lower"),
    m("core.theta_build_s", "s", "lower"),
    m("runtime.workload_s", "s", "lower"),
    m("runtime.harness_s", "s", "lower"),
    m("runtime.events", "count", "lower"),
    m("runtime.ns_per_event", "ns", "lower"),
    m("runtime.non_neighbor_sends", "count", "lower"),
    m("runtime.broadcasts", "count", "lower"),
    m("runtime.fanout", "copies", "lower"),
    m("event.peak_pending", "count", "lower"),
    m("event.timers_set", "count", "lower"),
    m("event.timers_fired", "count", "lower"),
    m("event.probe_ns_per_op", "ns", "lower"),
    m("fault.sends", "count", "lower"),
    m("fault.drop_rate", "share", "lower"),
    m("fault.duplicated", "count", "lower"),
    m("fault.probe_ns_per_draw", "ns", "lower"),
    m("theta.position_share", "share", "lower"),
    m("theta.sends_per_edge", "sends/edge", "lower"),
    m("theta.converge_ticks", "ticks", "lower"),
    m("shard.speedup", "x", "higher"),
    m("shard.parity", "bool", "higher"),
    m("reliable.retransmits", "count", "lower"),
    m("reliable.acks", "count", "lower"),
    m("reliable.rto_fired", "count", "lower"),
    m("reliable.gave_up", "count", "lower"),
    m("reliable.retransmit_ratio", "share", "lower"),
    m("gossip.heights_sent", "count", "lower"),
    m("gossip.attests_sent", "count", "lower"),
    m("gossip.packets_sent", "count", "lower"),
    m("gossip.stale_dropped", "count", "lower"),
    m("gossip.overflow_dropped", "count", "lower"),
    m("gossip.buffered", "count", "lower"),
    m("gossip.link_lost", "count", "lower"),
    m("gossip.in_flight", "count", "lower"),
    m("gossip.quarantines", "count", "higher"),
    m("gossip.implausible", "count", "higher"),
    m("gossip.equivocations", "count", "higher"),
    m("gossip.false_quarantines", "count", "lower"),
    m("adversary.stolen", "count", "lower"),
    m("adversary.blackholed", "count", "lower"),
    m("churn.reconvergences", "count", "lower"),
    m("churn.link_lost", "count", "lower"),
    m("churn.timers_abandoned", "count", "lower"),
    m("trace.overhead_s", "s", "lower"),
    m("bench.reference_s", "s", "lower"),
    m("bench.verify_s", "s", "lower"),
    m("bench.event_probe_s", "s", "lower"),
    m("bench.fault_probe_s", "s", "lower"),
];

/// Events the runtime popped: deliveries and timer firings, including
/// those addressed to crashed nodes.
pub fn events(s: &NetStats) -> u64 {
    s.delivered + s.timers_fired + s.link_lost + s.timers_abandoned
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Link copies of ΘALG `position` beacons, the protocol's only broadcast.
fn position_sends(s: &NetStats) -> u64 {
    s.per_kind.get("position").map_or(0, |k| k.sent)
}

/// Sum of `f` over a pass's results.
fn sum(results: &[RunResult], f: impl Fn(&RunResult) -> u64) -> f64 {
    results.iter().map(f).sum::<u64>() as f64
}

/// Sum of a runtime counter over a pass's results.
fn stat(results: &[RunResult], f: impl Fn(&NetStats) -> u64) -> f64 {
    sum(results, |r| f(r.stats()))
}

/// Sum of a gossip ledger field over a pass's results (0 for ΘALG).
fn gossip(results: &[RunResult], f: impl Fn(&GossipRun) -> u64) -> f64 {
    sum(results, |r| match r {
        RunResult::Gossip(g) => f(g),
        RunResult::Theta(_) => 0,
    })
}

/// Over a pass: compromised nodes, those some node quarantined, and
/// honest nodes that were quarantined.
fn quarantine_split(instances: &[Instance], results: &[RunResult]) -> (usize, usize, usize) {
    let mut split = (0, 0, 0);
    for (instance, result) in instances.iter().zip(results) {
        if let (Instance::Gossip(g), RunResult::Gossip(r)) = (instance, result) {
            let liars = g.adversary.compromised();
            let caught = r
                .quarantined_nodes
                .iter()
                .filter(|q| liars.binary_search(q).is_ok())
                .count();
            split.0 += liars.len();
            split.1 += caught;
            split.2 += r.quarantined_nodes.len() - caught;
        }
    }
    split
}

/// What a plain run timed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timings {
    /// Median setup time on the reference host.
    pub setup_s: f64,
    /// Median harness call time on the reference host.
    pub run_s: f64,
    /// Peak resident memory after the first pass, MiB.
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics of one plain run, pooled over one result per
/// instance.
pub fn end_to_end(
    instances: &[Instance],
    results: &[RunResult],
    timings: Timings,
) -> Vec<(&'static str, f64)> {
    let nodes: usize = instances.iter().map(Instance::nodes).sum();
    let (mut checked, mut wrong) = (0, 0);
    for (instance, result) in instances.iter().zip(results) {
        let v = verify(instance, result);
        checked += v.attempted;
        wrong += v.failed;
    }
    let theta = results.iter().any(|r| matches!(r, RunResult::Theta(_)));
    let (edge_fidelity, delivery_rate) = if theta {
        // Jaccard overlap of the protocol's edges with the offline ones;
        // delivery of the must-arrive `Connection` notices.
        let awareness: Vec<f64> = results
            .iter()
            .filter_map(|r| match r {
                RunResult::Theta(t) => Some(t.edge_awareness),
                RunResult::Gossip(_) => None,
            })
            .collect();
        (
            1.0 - wrong as f64 / checked.max(1) as f64,
            crate::median(&awareness),
        )
    } else {
        // The gossip runs route over the offline topology itself.
        (
            1.0,
            ratio(
                gossip(results, |r| r.absorbed),
                gossip(results, |r| r.injected),
            ),
        )
    };
    let (liars, caught, wrongly) = quarantine_split(instances, results);
    let detection_rate = if liars == 0 {
        1.0
    } else {
        caught as f64 / liars as f64
    };
    vec![
        ("setup_s", timings.setup_s),
        ("run_s", timings.run_s),
        ("peak_rss_mb", timings.peak_rss_mb),
        (
            "radio_sends_per_node",
            stat(results, |s| s.sent) / nodes as f64,
        ),
        ("edge_fidelity", edge_fidelity),
        ("delivery_rate", delivery_rate),
        ("detection_rate", detection_rate),
        (
            "honest_kept_rate",
            1.0 - wrongly as f64 / (nodes - liars) as f64,
        ),
    ]
}

/// What a traced run measured besides the results themselves.
pub struct Layers<'a> {
    /// The run's spans.
    pub tracer: &'a Tracer,
    /// Median untraced harness time of the same run.
    pub plain_run_s: f64,
    /// Mean reference kernel time around the calls.
    pub reference_s: f64,
    /// `(instance, seconds)` of every traced harness call.
    pub traced_calls: &'a [(usize, f64)],
    /// `event.probe_ns_per_op`.
    pub event_probe_ns: f64,
    /// `fault.probe_ns_per_draw`.
    pub fault_probe_ns: f64,
    /// Multi-threaded workloads: the one-thread reference time and
    /// whether its digest matched.
    pub shard: Option<(f64, bool)>,
}

/// The per-layer metrics of one traced run. Counts are totals over one
/// pass (one result per instance).
pub fn per_layer(
    instances: &[Instance],
    results: &[RunResult],
    layers: &Layers<'_>,
) -> Vec<(&'static str, f64)> {
    let span = |name: &str| crate::median(&layers.tracer.durations(name));
    let call_secs: Vec<f64> = layers.traced_calls.iter().map(|&(_, s)| s).collect();
    let harness_s = crate::median(&call_secs);
    let ns_per_event: Vec<f64> = layers
        .traced_calls
        .iter()
        .map(|&(k, s)| ratio(s * 1e9, events(results[k].stats()) as f64))
        .collect();
    let (speedup, parity) = match layers.shard {
        Some((t1, parity)) => (t1 / harness_s, f64::from(u8::from(parity))),
        // One-thread workloads bypass the shard layer.
        None => (1.0, 1.0),
    };
    let theta_edges: usize = instances
        .iter()
        .map(|i| match i {
            Instance::Theta(t) => t.offline.graph.num_edges(),
            Instance::Gossip(_) => 0,
        })
        .sum();
    let converge_ticks = sum(results, |r| match r {
        RunResult::Theta(t) => t.finished_at,
        RunResult::Gossip(_) => 0,
    });
    let sent = stat(results, |s| s.sent);
    let broadcasts = stat(results, |s| s.broadcasts);
    let retransmits = stat(results, |s| s.retransmits);
    vec![
        ("geom.points_s", span("geom.points")),
        ("core.theta_build_s", span("core.theta_build")),
        ("runtime.workload_s", span("runtime.workload")),
        ("runtime.harness_s", harness_s),
        ("runtime.events", stat(results, events)),
        ("runtime.ns_per_event", crate::median(&ns_per_event)),
        (
            "runtime.non_neighbor_sends",
            stat(results, |s| s.non_neighbor_sends),
        ),
        ("runtime.broadcasts", broadcasts),
        (
            "runtime.fanout",
            ratio(stat(results, position_sends), broadcasts),
        ),
        (
            "event.peak_pending",
            results
                .iter()
                .map(|r| r.stats().max_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        ("event.timers_set", stat(results, |s| s.timers_set)),
        ("event.timers_fired", stat(results, |s| s.timers_fired)),
        ("event.probe_ns_per_op", layers.event_probe_ns),
        ("fault.sends", sent),
        ("fault.drop_rate", ratio(stat(results, |s| s.dropped), sent)),
        ("fault.duplicated", stat(results, |s| s.duplicated)),
        ("fault.probe_ns_per_draw", layers.fault_probe_ns),
        (
            "theta.position_share",
            ratio(stat(results, position_sends), sent),
        ),
        ("theta.sends_per_edge", ratio(sent, theta_edges as f64)),
        ("theta.converge_ticks", converge_ticks),
        ("shard.speedup", speedup),
        ("shard.parity", parity),
        ("reliable.retransmits", retransmits),
        ("reliable.acks", stat(results, |s| s.acks)),
        ("reliable.rto_fired", stat(results, |s| s.rto_fired)),
        ("reliable.gave_up", gossip(results, |r| r.gave_up)),
        (
            "reliable.retransmit_ratio",
            ratio(retransmits, gossip(results, |r| r.packets_sent)),
        ),
        ("gossip.heights_sent", gossip(results, |r| r.gossips_sent)),
        ("gossip.attests_sent", gossip(results, |r| r.attests_sent)),
        ("gossip.packets_sent", gossip(results, |r| r.packets_sent)),
        (
            "gossip.stale_dropped",
            gossip(results, |r| r.stale_gossip_dropped),
        ),
        (
            "gossip.overflow_dropped",
            gossip(results, |r| r.overflow_dropped),
        ),
        ("gossip.buffered", gossip(results, |r| r.buffered)),
        ("gossip.link_lost", gossip(results, |r| r.link_lost)),
        ("gossip.in_flight", gossip(results, |r| r.in_flight)),
        ("gossip.quarantines", gossip(results, |r| r.quarantines)),
        (
            "gossip.implausible",
            gossip(results, |r| r.implausible_gossip),
        ),
        ("gossip.equivocations", gossip(results, |r| r.equivocations)),
        (
            "gossip.false_quarantines",
            quarantine_split(instances, results).2 as f64,
        ),
        ("adversary.stolen", gossip(results, |r| r.stolen)),
        ("adversary.blackholed", gossip(results, |r| r.blackholed)),
        ("churn.reconvergences", stat(results, |s| s.reconvergences)),
        ("churn.link_lost", stat(results, |s| s.link_lost)),
        (
            "churn.timers_abandoned",
            stat(results, |s| s.timers_abandoned),
        ),
        ("trace.overhead_s", harness_s - layers.plain_run_s),
        ("bench.reference_s", layers.reference_s),
        ("bench.verify_s", span("bench.verify")),
        ("bench.event_probe_s", span("event.probe")),
        ("bench.fault_probe_s", span("fault.probe")),
    ]
}
