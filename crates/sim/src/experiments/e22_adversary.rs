//! **E22 — Byzantine adversaries in the balancing plane**: the paper
//! prices faults as lost links, never as lies. This experiment arms a
//! seeded [`AdversaryPlan`] — compromised nodes run the honest `(T,γ)`
//! code, but their *radios* forge traffic — and sweeps attack type ×
//! Byzantine fraction × defense on/off over the ΘALG topology:
//!
//! * **deflate** — advertise empty buffers, attract traffic, let the
//!   honest buffer overflow; **blackhole** — same lure, but eat every
//!   attracted packet;
//! * **inflate** — advertise full buffers, repel traffic off the edge;
//! * **replay** — freeze and re-gossip the height frame captured at
//!   compromise time, starving the gradient of fresh information;
//! * **drop** — forward gossip faithfully, silently discard `Packet`s
//!   from targeted sources;
//! * **equivocate** — tell even neighbors "empty" and odd ones "full".
//!
//! The defense layer ([`DefenseConfig`]) runs three local detectors —
//! height plausibility, starvation probing, and cross-neighbor
//! attestation — whose suspicion score quarantines a peer exactly as
//! churn erodes a departed neighbor. Detected nodes are then fed to the
//! ΘALG churn engine as crashes, measuring re-convergence around the
//! excised liars. Every cell reports the delivered fraction, the
//! `stolen`/`blackholed` custody classes, and the conservation ledger,
//! which must balance *exactly* even while packets are being eaten.

use super::table::{f3, Table};
use adhoc_core::ThetaAlg;
use adhoc_geom::distributions::NodeDistribution;
use adhoc_geom::Point;
use adhoc_routing::BalancingConfig;
use adhoc_runtime::{
    run_gossip_balancing_adversarial, run_theta_churn, shard_threads_from_env, uniform_workload,
    AdversaryPlan, Attack, ChurnPlan, DefenseConfig, DelayDist, FaultConfig, GossipConfig,
    GossipRun, ReliableConfig, ThetaTiming,
};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::f64::consts::PI;

/// The attack menu (label, behavior).
fn attacks(n: usize) -> Vec<(&'static str, Attack)> {
    // The selective dropper targets the even half of the network.
    let evens: Vec<u32> = (0..n as u32).step_by(2).collect();
    vec![
        ("deflate", Attack::Deflate { blackhole: false }),
        ("blackhole", Attack::Deflate { blackhole: true }),
        ("inflate", Attack::Inflate),
        ("replay", Attack::Replay),
        ("drop", Attack::SelectiveDrop { sources: evens }),
        ("equivocate", Attack::Equivocate),
    ]
}

/// Compromise takes effect shortly after start-up, once honest gossip
/// has primed every cache (a lie needs an audience).
const COMPROMISE_AT: u64 = 50;

/// One sweep cell.
struct AdvPoint {
    attack: &'static str,
    fraction: f64,
    defended: bool,
    compromised: usize,
    detected: usize,
    /// Quarantined nodes that were never compromised.
    false_quarantined: usize,
    gossip: GossipRun,
    /// ΘALG re-convergence around the detected nodes (defense-on cells
    /// with at least one detection).
    reconvergences: Option<u64>,
}

/// Execute the sweep (shared by [`run`] and the acceptance test).
fn sweep(quick: bool) -> Vec<AdvPoint> {
    let n = if quick { 40 } else { 120 };
    let inject_steps = if quick { 250 } else { 1500 };
    let drain_steps = if quick { 450 } else { 800 };
    let steps = inject_steps + drain_steps;
    let fractions: &[f64] = if quick {
        &[0.0, 0.15]
    } else {
        &[0.0, 0.05, 0.1, 0.2]
    };

    let mut rng = ChaCha8Rng::seed_from_u64(20_000);
    let points = NodeDistribution::unit_square()
        .sample(n, &mut rng)
        .expect("sampling");
    let range = adhoc_geom::default_max_range(n);
    let alg = ThetaAlg::new(PI / 3.0, range);
    let direct = alg.build(&points);
    let threads = shard_threads_from_env();

    let dests = [0u32];
    let workload = uniform_workload(n, &dests, inject_steps, 2, 99);
    let base_cfg = GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        steps,
    );

    let mut out = Vec::new();
    for (label, attack) in attacks(n) {
        for &fraction in fractions {
            let count = (fraction * n as f64).round() as usize;
            let adversary = if count == 0 {
                AdversaryPlan::default()
            } else {
                // Node 0 is the sink: compromising the destination is a
                // different (trivially lost) game.
                AdversaryPlan::random(n, count, attack.clone(), COMPROMISE_AT, &[0], 31_000)
            };
            for defended in [false, true] {
                let cfg = if defended {
                    base_cfg.with_defense(DefenseConfig::default())
                } else {
                    base_cfg
                };
                let gossip = run_gossip_balancing_adversarial(
                    &direct.spatial,
                    &dests,
                    cfg,
                    &workload,
                    FaultConfig::ideal(),
                    4242,
                    &ChurnPlan::default(),
                    &adversary,
                    threads,
                );
                let compromised = adversary.compromised();
                let detected = gossip
                    .quarantined_nodes
                    .iter()
                    .filter(|q| compromised.contains(q))
                    .count();
                let false_quarantined = gossip.quarantined_nodes.len() - detected;
                // Excise the detected liars from the topology layer:
                // each becomes a crash the ΘALG churn engine must
                // re-converge around, exactly like E21's failures.
                let reconvergences = if defended && detected > 0 {
                    let mut plan = ChurnPlan::new();
                    for (i, &node) in gossip
                        .quarantined_nodes
                        .iter()
                        .filter(|q| compromised.contains(q))
                        .enumerate()
                    {
                        plan = plan.crash(200 * (i as u64 + 1), node);
                    }
                    let theta = run_theta_churn(
                        &points,
                        alg.sectors(),
                        range,
                        ThetaTiming::default(),
                        FaultConfig::ideal(),
                        4242,
                        &plan,
                        threads,
                    );
                    assert!(
                        (theta.fidelity - 1.0).abs() < f64::EPSILON,
                        "lossless re-convergence around excised nodes must be exact"
                    );
                    Some(theta.run.stats.reconvergences)
                } else {
                    None
                };
                out.push(AdvPoint {
                    attack: label,
                    fraction,
                    defended,
                    compromised: compromised.len(),
                    detected,
                    false_quarantined,
                    gossip,
                    reconvergences,
                });
            }
        }
    }
    out
}

/// Run E22 and return the table.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "E22 (Byzantine balancers, §3 model violation): lying height \
         gossip vs the plausibility/probe/attestation defense, with \
         detected nodes excised via ΘALG re-convergence",
        &[
            "attack",
            "byz frac",
            "defense",
            "delivered",
            "stolen",
            "blackholed",
            "overflow",
            "quarantines",
            "detected",
            "false q",
            "θ reconv",
            "conserved",
        ],
    );
    for p in sweep(quick) {
        table.push(vec![
            p.attack.to_string(),
            f3(p.fraction),
            if p.defended { "on" } else { "off" }.to_string(),
            f3(p.gossip.delivery_rate()),
            p.gossip.stolen.to_string(),
            p.gossip.blackholed.to_string(),
            p.gossip.overflow_dropped.to_string(),
            p.gossip.quarantines.to_string(),
            format!("{}/{}", p.detected, p.compromised),
            p.false_quarantined.to_string(),
            p.reconvergences
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            p.gossip.conserved().to_string(),
        ]);
    }
    table
}

/// Replay digests pinning adversarial behaviour for the golden
/// transcript-digest suite (`tests/golden_digests.rs`), all under loss,
/// duplication, and jittered delays:
///
/// * every attack shape × defense off ("raw") / on ("def") × 2 seeds on
///   fire-and-forget links over a static network (the blackhole, inflate
///   and equivocate rows first, then deflate, replay and drop);
/// * every attack shape × defense off/on on reliable links under a churn
///   plan of a crash, a graceful leave and a drift (`…-rel-churn` rows).
///
/// The CI thread matrix reruns these at 1 and 4 worker threads against
/// the same fixture, so the digests also pin that adversarial runs are
/// identical at every thread count.
pub fn golden_digests() -> Vec<(String, u64)> {
    let n = 40;
    let mut rng = ChaCha8Rng::seed_from_u64(20_000);
    let points = NodeDistribution::unit_square()
        .sample(n, &mut rng)
        .expect("sampling");
    let range = adhoc_geom::default_max_range(n);
    let alg = ThetaAlg::new(PI / 3.0, range);
    let direct = alg.build(&points);
    let faults = FaultConfig {
        drop_prob: 0.1,
        duplicate_prob: 0.05,
        delay: DelayDist::Uniform { min: 1, max: 4 },
    };
    let threads = shard_threads_from_env();
    let dests = [0u32];
    let workload = uniform_workload(n, &dests, 150, 2, 99);
    let base_cfg = GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        400,
    );
    // Mid-injection churn among nodes other than the sink.
    let churn = ChurnPlan::new()
        .crash(300, 5)
        .leave(600, 11)
        .drift(900, 17, Point::new(0.3, 0.7));
    let menu = attacks(n);

    let mut out = Vec::new();
    let mut cell = |label: &str, links: &str, cfg: GossipConfig, attack: &Attack, seed, plan| {
        let adversary =
            AdversaryPlan::random(n, 5, attack.clone(), COMPROMISE_AT, &[0], 31_000 + seed);
        for (mode, cfg) in [
            ("raw", cfg),
            ("def", cfg.with_defense(DefenseConfig::default())),
        ] {
            let name = format!("e22/{label}/{mode}{links}/s{seed}");
            let run = run_gossip_balancing_adversarial(
                &direct.spatial,
                &dests,
                cfg,
                &workload,
                faults,
                seed,
                plan,
                &adversary,
                threads,
            );
            assert!(run.conserved(), "{name}: {run:?}");
            out.push((name, run.digest));
        }
    };
    let static_net = ChurnPlan::default();
    for group in [
        ["blackhole", "inflate", "equivocate"],
        ["deflate", "replay", "drop"],
    ] {
        for seed in [1u64, 2] {
            for (label, attack) in menu.iter().filter(|(l, _)| group.contains(l)) {
                cell(label, "", base_cfg, attack, seed, &static_net);
            }
        }
    }
    let reliable = base_cfg.with_reliability(ReliableConfig::default());
    for (label, attack) in &menu {
        cell(label, "-rel-churn", reliable, attack, 1, &churn);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_acceptance_criteria() {
        let points = sweep(true);
        assert_eq!(points.len(), 6 * 2 * 2);
        for p in &points {
            // The ledger balances exactly in every cell — stolen and
            // blackholed packets are booked, not leaked.
            assert!(
                p.gossip.conserved(),
                "{}/{}: {:?}",
                p.attack,
                p.fraction,
                p.gossip
            );
            // Honest safety: the defense never quarantines an honest
            // node, whatever share of its neighbors lie.
            assert_eq!(
                p.false_quarantined, 0,
                "{}/{}: honest nodes quarantined",
                p.attack, p.fraction
            );
            if p.fraction == 0.0 {
                // An honest network convicts no one and loses nothing.
                assert_eq!(p.gossip.quarantines, 0, "{}: false positives", p.attack);
                assert_eq!(p.gossip.stolen + p.gossip.blackholed, 0);
            }
        }
        let find = |attack: &str, fraction: f64, defended: bool| {
            points
                .iter()
                .find(|p| p.attack == attack && p.fraction == fraction && p.defended == defended)
                .unwrap()
        };
        // The headline gap: at 15% Byzantine blackholes, the defense
        // must measurably recover delivery.
        let off = find("blackhole", 0.15, false);
        let on = find("blackhole", 0.15, true);
        assert!(off.gossip.stolen > 0, "blackholes stole nothing");
        assert!(
            on.gossip.delivery_rate() > off.gossip.delivery_rate(),
            "defense gained nothing: {} on vs {} off",
            on.gossip.delivery_rate(),
            off.gossip.delivery_rate()
        );
        assert!(on.detected > 0, "no blackhole detected");
        assert!(
            on.reconvergences.unwrap_or(0) > 0,
            "excision must trigger ΘALG re-convergence"
        );
        // Inflation is implausible on sight.
        let inf = find("inflate", 0.15, true);
        assert!(inf.gossip.implausible_gossip > 0);
        assert!(inf.detected > 0, "no inflator detected");
        // Undefended runs never quarantine.
        assert!(points
            .iter()
            .filter(|p| !p.defended)
            .all(|p| p.gossip.quarantines == 0));
    }

    #[test]
    fn golden_digest_names_are_unique_and_stable() {
        let d = golden_digests();
        assert_eq!(d.len(), 36);
        let mut names: Vec<&str> = d.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), d.len(), "duplicate scenario names");
        assert_eq!(d, golden_digests());
    }
}
