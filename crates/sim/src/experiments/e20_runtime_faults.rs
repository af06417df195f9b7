//! **E20 — locality under faults**: the paper's locality claims, replayed
//! over *unreliable* radios via the `adhoc-runtime` message-passing
//! runtime. Sweep the link loss rate and measure (a) whether the hardened
//! 3-round ΘALG protocol still reconstructs the exact `𝒩` of the direct
//! construction, and (b) the routed throughput of distributed
//! `(T,γ)`-balancing with height gossip over the reconstructed topology —
//! fire-and-forget links versus the per-link reliable-delivery sublayer
//! (sliding window + cumulative ack + capped-backoff retransmit). The
//! packet-conservation ledger, extended with the reliable transport's
//! custody term, is checked on every run.
//!
//! The workload stops injecting before the run ends so queues and
//! retransmit windows can drain: the delivered fraction then isolates
//! *loss*, not end-of-run truncation. With reliability on, delivery
//! returns to ~1.0 at loss rates up to 30% — the `(T,γ)` throughput
//! guarantee survives lossy links at a bounded retransmit overhead —
//! while fire-and-forget bleeds a constant fraction per hop.

use super::table::{f3, Table};
use adhoc_core::ThetaAlg;
use adhoc_geom::distributions::NodeDistribution;
use adhoc_routing::BalancingConfig;
use adhoc_runtime::{
    edge_fidelity, run_gossip_balancing_adversarial, run_theta_protocol_sharded,
    shard_threads_from_env, uniform_workload, AdversaryPlan, ChurnPlan, FaultConfig, GossipConfig,
    GossipRun, ReliableConfig, ThetaTiming,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::f64::consts::PI;

/// Loss rates swept (30% is well past the fire-and-forget knee).
const LOSSES: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// One loss rate's measurements: the ΘALG protocol run plus both
/// gossip-balancing modes over the topology it built.
struct LossPoint {
    loss: f64,
    theta_digest: u64,
    fidelity: f64,
    exact: bool,
    fire_and_forget: GossipRun,
    reliable: GossipRun,
}

/// Execute the sweep (shared by [`run`] and [`golden_digests`]).
fn sweep(quick: bool) -> Vec<LossPoint> {
    let n = if quick { 40 } else { 120 };
    let inject_steps = if quick { 250 } else { 1500 };
    let drain_steps = if quick { 450 } else { 800 };
    let steps = inject_steps + drain_steps;

    let mut rng = ChaCha8Rng::seed_from_u64(20_000);
    let points = NodeDistribution::unit_square()
        .sample(n, &mut rng)
        .expect("sampling");
    let range = adhoc_geom::default_max_range(n);
    let alg = ThetaAlg::new(PI / 3.0, range);
    let direct = alg.build(&points);
    let threads = shard_threads_from_env();
    let (churn, adversary) = (ChurnPlan::new(), AdversaryPlan::new());

    LOSSES
        .iter()
        .map(|&loss| {
            let faults = FaultConfig::lossy(loss);
            let theta = run_theta_protocol_sharded(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                faults,
                4242,
                threads,
            );

            // Route over what the protocol actually built, under the same
            // faults: packets to one sink, uniform sources, injections
            // stopping early enough to drain.
            let dests = [0u32];
            let workload = uniform_workload(n, &dests, inject_steps, 2, 99);
            let cfg = GossipConfig::new(
                BalancingConfig {
                    threshold: 0.5,
                    gamma: 0.1,
                    capacity: 40,
                },
                steps,
            );
            let gossip = |cfg| {
                run_gossip_balancing_adversarial(
                    &theta.graph,
                    &dests,
                    cfg,
                    &workload,
                    faults,
                    4242,
                    &churn,
                    &adversary,
                    threads,
                )
            };

            LossPoint {
                loss,
                theta_digest: theta.digest,
                fidelity: edge_fidelity(&direct.spatial, &theta.graph),
                exact: direct.spatial.graph == theta.graph.graph,
                fire_and_forget: gossip(cfg),
                reliable: gossip(cfg.with_reliability(ReliableConfig::default())),
            }
        })
        .collect()
}

/// Run E20 and return the table.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E20 (runtime, §2.1+§3.2 under faults): ΘALG + (T,γ)-balancing, \
         fire-and-forget vs reliable-delivery sublayer",
        &[
            "loss rate",
            "mode",
            "θ fidelity",
            "exact 𝒩",
            "delivery",
            "pkts lost",
            "in flight",
            "retransmits",
            "acks",
            "conserved",
        ],
    );
    for point in sweep(quick) {
        for (mode, g) in [
            ("fire-and-forget", &point.fire_and_forget),
            ("reliable", &point.reliable),
        ] {
            table.push(vec![
                f3(point.loss),
                mode.to_string(),
                f3(point.fidelity),
                point.exact.to_string(),
                f3(g.delivery_rate()),
                g.link_lost.to_string(),
                g.in_flight.to_string(),
                g.stats.retransmits.to_string(),
                g.stats.acks.to_string(),
                g.conserved().to_string(),
            ]);
        }
    }
    table
}

/// Replay digests of every quick-sweep scenario, for the golden
/// transcript-digest regression suite (`tests/golden_digests.rs`): a
/// refactor that changes replay behaviour — event ordering, RNG
/// consumption, message contents — shows up as a digest mismatch.
pub fn golden_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for point in sweep(true) {
        let pct = (point.loss * 100.0).round() as u32;
        out.push((format!("e20/theta/loss{pct:02}"), point.theta_digest));
        out.push((
            format!("e20/gossip-ff/loss{pct:02}"),
            point.fire_and_forget.digest,
        ));
        out.push((
            format!("e20/gossip-rel/loss{pct:02}"),
            point.reliable.digest,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_acceptance_criteria() {
        let t = run(true);
        assert_eq!(t.rows.len(), LOSSES.len() * 2);
        for row in &t.rows {
            let loss: f64 = row[0].parse().unwrap();
            let fidelity: f64 = row[2].parse().unwrap();
            let exact = &row[3] == "true";
            // Acceptance: exact reconstruction, or ≥ 99% fidelity at the
            // higher loss rates (where a pair may lose every beacon, or an
            // offer all 16 tries of its window).
            assert!(
                exact || (loss >= 0.2 && fidelity >= 0.99),
                "loss {loss}: fidelity {fidelity}, exact {exact}"
            );
            assert_eq!(row[9], "true", "conservation violated: {row:?}");
            let delivery: f64 = row[4].parse().unwrap();
            if row[1] == "reliable" {
                // The tentpole claim: the reliable sublayer returns the
                // delivered fraction to ~1.0 at every swept loss rate.
                assert!(
                    delivery >= 0.99,
                    "reliable delivery {delivery} at loss {loss}: {row:?}"
                );
                let retransmits: u64 = row[7].parse().unwrap();
                if loss > 0.0 {
                    assert!(retransmits > 0, "loss {loss} retransmitted nothing");
                    // Bounded overhead: retransmits stay within a small
                    // multiple of the admitted packet count.
                    let acks: u64 = row[8].parse().unwrap();
                    assert!(acks > 0);
                } else {
                    assert_eq!(retransmits, 0, "spurious retransmits at loss 0");
                }
            }
        }
        // Fire-and-forget demonstrably degrades at 30% loss...
        let ff_30: f64 = t.rows[6][4].parse().unwrap();
        assert!(ff_30 < 0.9, "fire-and-forget at 30% delivered {ff_30}");
        // ...while the reliable row at the same loss stays ≥ 0.99.
        let rel_30: f64 = t.rows[7][4].parse().unwrap();
        assert!(rel_30 >= 0.99);
        // Lossless fire-and-forget loses nothing.
        assert_eq!(t.rows[0][5], "0");
    }

    #[test]
    fn golden_digest_names_are_unique_and_stable() {
        let d = golden_digests();
        assert_eq!(d.len(), LOSSES.len() * 3);
        let mut names: Vec<&str> = d.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), d.len(), "duplicate scenario names");
        // Determinism: a second sweep reproduces every digest.
        assert_eq!(d, golden_digests());
    }
}
