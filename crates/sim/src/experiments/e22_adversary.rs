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
use adhoc_routing::BalancingConfig;
use adhoc_runtime::{
    run_gossip_balancing_adversarial, run_theta_churn, shard_threads_from_env, uniform_workload,
    AdversaryPlan, Attack, ChurnPlan, DefenseConfig, DelayDist, FaultConfig, GossipConfig,
    GossipRun, ThetaTiming,
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
            p.reconvergences
                .map_or_else(|| "-".to_string(), |r| r.to_string()),
            p.gossip.conserved().to_string(),
        ]);
    }
    table
}

/// Replay digests pinning adversarial behaviour for the golden
/// transcript-digest suite (`tests/golden_digests.rs`): three attack
/// shapes × defense off ("raw") / on ("def") × 2 seeds, under loss,
/// duplication, and jittered delays. The CI thread matrix reruns these
/// at 1 and 4 worker threads against the same fixture, so the digests
/// also pin the interposer's executor equivalence.
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

    let shapes = [
        ("blackhole", Attack::Deflate { blackhole: true }),
        ("inflate", Attack::Inflate),
        ("equivocate", Attack::Equivocate),
    ];
    let mut out = Vec::new();
    for seed in [1u64, 2] {
        for (label, attack) in &shapes {
            let adversary =
                AdversaryPlan::random(n, 5, attack.clone(), COMPROMISE_AT, &[0], 31_000 + seed);
            for (mode, cfg) in [
                ("raw", base_cfg),
                ("def", base_cfg.with_defense(DefenseConfig::default())),
            ] {
                let run = run_gossip_balancing_adversarial(
                    &direct.spatial,
                    &dests,
                    cfg,
                    &workload,
                    faults,
                    seed,
                    &ChurnPlan::default(),
                    &adversary,
                    threads,
                );
                assert!(run.conserved(), "e22/{label}/{mode}/s{seed}: {run:?}");
                out.push((format!("e22/{label}/{mode}/s{seed}"), run.digest));
            }
        }
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
            if p.fraction == 0.0 {
                // Honest-safety: the defense never convicts an honest
                // network.
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
        assert_eq!(d.len(), 12);
        let mut names: Vec<&str> = d.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), d.len(), "duplicate scenario names");
        assert_eq!(d, golden_digests());
    }
}
