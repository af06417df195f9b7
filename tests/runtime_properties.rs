//! Property-based tests on the adhoc-runtime subsystem: determinism
//! (identical seeds ⇒ identical replay transcripts) and exactness (the
//! hardened ΘALG protocol over lossy links reconstructs the direct
//! construction's `𝒩` whenever the loss rate is within the retransmit
//! budget).

use adhoc_net::prelude::*;
use adhoc_net::runtime::GossipRun;
use proptest::prelude::*;

/// The gossip harness on a static, honest network (no churn, no
/// adversary) on `threads` worker threads.
fn gossip(
    graph: &SpatialGraph,
    dests: &[u32],
    cfg: GossipConfig,
    wl: &[(u64, u32, u32)],
    faults: FaultConfig,
    seed: u64,
    threads: usize,
) -> GossipRun {
    let (churn, adversary) = (ChurnPlan::new(), AdversaryPlan::new());
    run_gossip_balancing_adversarial(
        graph, dests, cfg, wl, faults, seed, &churn, &adversary, threads,
    )
}

fn dedup_points(raw: &[(f64, f64)]) -> Vec<Point> {
    // Coincident points would make nearest-per-sector ties depend on ids
    // alone, which is fine, but keep the geometry in general position by
    // nudging exact duplicates apart deterministically.
    let mut pts: Vec<Point> = Vec::with_capacity(raw.len());
    for (i, &(x, y)) in raw.iter().enumerate() {
        let mut p = Point::new(x, y);
        if pts.iter().any(|q| q.x == p.x && q.y == p.y) {
            p = Point::new(x + (i as f64 + 1.0) * 1e-9, y);
        }
        pts.push(p);
    }
    pts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed ⇒ bit-identical replay: equal transcript digests, equal
    /// stats, equal graphs — for both ported protocols.
    #[test]
    fn same_seed_same_transcript(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..30),
        loss in 0.0f64..0.4,
        seed in 0u64..1_000_000
    ) {
        let points = dedup_points(&raw);
        let range = default_max_range(points.len());
        let sectors = SectorPartition::with_max_angle(std::f64::consts::FRAC_PI_3);
        let faults = FaultConfig::lossy(loss);
        let threads = shard_threads_from_env();
        let go = || {
            run_theta_protocol_sharded(
                &points, sectors, range, ThetaTiming::default(), faults, seed, threads,
            )
        };

        let (a, b) = (go(), go());
        prop_assert_eq!(a.digest, b.digest);
        prop_assert_eq!(&a.stats, &b.stats);
        prop_assert_eq!(&a.graph.graph, &b.graph.graph);

        let dests = [0u32];
        let wl = uniform_workload(points.len(), &dests, 50, 1, seed);
        let cfg = GossipConfig::new(
            BalancingConfig { threshold: 0.5, gamma: 0.1, capacity: 20 },
            50,
        );
        let ga = gossip(&a.graph, &dests, cfg, &wl, faults, seed, threads);
        let gb = gossip(&b.graph, &dests, cfg, &wl, faults, seed, threads);
        prop_assert_eq!(ga.digest, gb.digest);
        prop_assert_eq!(ga.absorbed, gb.absorbed);
        prop_assert!(ga.conserved());
    }

    /// Threaded shards are a drop-in replacement for the inline core: for
    /// random geometry, fault mix, and thread counts, one-shard and
    /// threaded runs produce identical digests, stats, and protocol
    /// outcomes for both ΘALG and the gossip balancer. The reference run
    /// is always the inline core (`threads = 1`), whatever thread count
    /// the environment selects.
    #[test]
    fn sharded_execution_is_digest_identical(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..30),
        drop_prob in 0.0f64..0.3,
        duplicate_prob in 0.0f64..0.2,
        threads in 2usize..9,
        seed in 0u64..1_000_000
    ) {
        let points = dedup_points(&raw);
        let range = default_max_range(points.len());
        let sectors = SectorPartition::with_max_angle(std::f64::consts::FRAC_PI_3);
        let faults = FaultConfig {
            drop_prob,
            duplicate_prob,
            delay: DelayDist::Uniform { min: 1, max: 6 },
        };

        let go = |threads| {
            run_theta_protocol_sharded(
                &points, sectors, range, ThetaTiming::default(), faults, seed, threads,
            )
        };
        let (seq, par) = (go(1), go(threads));
        prop_assert_eq!(seq.digest, par.digest, "theta digest diverged at {} threads", threads);
        prop_assert_eq!(&seq.stats, &par.stats);
        prop_assert_eq!(&seq.graph.graph, &par.graph.graph);
        prop_assert_eq!(seq.finished_at, par.finished_at);
        prop_assert_eq!(seq.edge_awareness, par.edge_awareness);

        let dests = [0u32];
        let wl = uniform_workload(points.len(), &dests, 40, 1, seed ^ 1);
        let base = GossipConfig::new(
            BalancingConfig { threshold: 0.5, gamma: 0.1, capacity: 20 },
            60,
        );
        for cfg in [base, base.with_reliability(ReliableConfig::default())] {
            let gs = gossip(&seq.graph, &dests, cfg, &wl, faults, seed, 1);
            let gp = gossip(&seq.graph, &dests, cfg, &wl, faults, seed, threads);
            prop_assert_eq!(
                gs.digest, gp.digest,
                "gossip digest diverged (reliable={}, threads={})",
                cfg.reliability.is_some(), threads
            );
            prop_assert_eq!(&gs.stats, &gp.stats);
            prop_assert_eq!(gs.absorbed, gp.absorbed);
            prop_assert_eq!(gs.buffered, gp.buffered);
            prop_assert_eq!(gs.in_flight, gp.in_flight);
            prop_assert_eq!(gs.gave_up, gp.gave_up);
            prop_assert!(gp.conserved());
        }
    }

    /// Churn is part of the determinism contract: for a random churn
    /// plan (joins, leaves, crashes, drift), random geometry, and random
    /// fault mix, the inline one-shard core and the threaded shards at 2
    /// and 4 threads produce bit-identical digests, stats, protocol
    /// outcomes, and conservation ledgers — for both ported protocols.
    #[test]
    fn churn_execution_is_digest_identical(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..30),
        drop_prob in 0.0f64..0.3,
        duplicate_prob in 0.0f64..0.2,
        events in 1usize..8,
        seed in 0u64..1_000_000
    ) {
        let points = dedup_points(&raw);
        let n = points.len();
        let range = default_max_range(n);
        let sectors = SectorPartition::with_max_angle(std::f64::consts::FRAC_PI_3);
        let faults = FaultConfig {
            drop_prob,
            duplicate_prob,
            delay: DelayDist::Uniform { min: 1, max: 6 },
        };
        let spares = n / 5;
        let plan = ChurnPlan::random(n - spares, spares, 1.0, 600, events, seed ^ 0xabcd);

        let seq = run_theta_churn(
            &points, sectors, range, ThetaTiming::default(), faults, seed, &plan, 1,
        );
        for threads in [2usize, 4] {
            let par = run_theta_churn(
                &points, sectors, range, ThetaTiming::default(), faults, seed, &plan, threads,
            );
            prop_assert_eq!(seq.run.digest, par.run.digest, "theta churn digest diverged at {} threads", threads);
            prop_assert_eq!(&seq.run.stats, &par.run.stats);
            prop_assert_eq!(&seq.run.graph.graph, &par.run.graph.graph);
            prop_assert_eq!(&seq.live, &par.live);
            prop_assert_eq!(seq.fidelity, par.fidelity);
            prop_assert_eq!(seq.repair_latency, par.repair_latency);
            prop_assert_eq!(seq.run.finished_at, par.run.finished_at);
            prop_assert_eq!(seq.run.edge_awareness, par.run.edge_awareness);
        }

        let graph = unit_disk_graph(&points, range);
        let dests = [0u32];
        let wl = uniform_workload(n, &dests, 40, 1, seed ^ 1);
        let base = GossipConfig::new(
            BalancingConfig { threshold: 0.5, gamma: 0.1, capacity: 20 },
            60,
        );
        let honest = AdversaryPlan::new();
        for cfg in [base, base.with_reliability(ReliableConfig::default())] {
            let go = |threads| {
                run_gossip_balancing_adversarial(
                    &graph, &dests, cfg, &wl, faults, seed, &plan, &honest, threads,
                )
            };
            let gs = go(1);
            prop_assert!(
                gs.conserved(),
                "churn ledger out of balance (reliable={}): {:?}",
                cfg.reliability.is_some(),
                gs
            );
            for threads in [2usize, 4] {
                let gp = go(threads);
                prop_assert_eq!(
                    &gs, &gp,
                    "gossip churn run diverged (reliable={}, threads={})",
                    cfg.reliability.is_some(), threads
                );
            }
        }
    }

    /// Lying nodes are part of the determinism contract too: for a random
    /// adversary plan (attack shape, compromised count, defense on/off),
    /// random geometry, and random fault mix, the inline one-shard core and
    /// the threaded shards at 2 and 4 threads produce bit-identical run
    /// records in both delivery modes — and the extended conservation
    /// ledger balances exactly even while packets are being stolen and
    /// blackholed.
    #[test]
    fn adversarial_execution_is_digest_identical_and_conserved(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..30),
        drop_prob in 0.0f64..0.3,
        duplicate_prob in 0.0f64..0.2,
        count in 1usize..5,
        attack_idx in 0usize..6,
        defended in any::<bool>(),
        seed in 0u64..1_000_000
    ) {
        let points = dedup_points(&raw);
        let n = points.len();
        let graph = unit_disk_graph(&points, default_max_range(n));
        let faults = FaultConfig {
            drop_prob,
            duplicate_prob,
            delay: DelayDist::Uniform { min: 1, max: 6 },
        };
        let attack = match attack_idx {
            0 => Attack::Deflate { blackhole: false },
            1 => Attack::Deflate { blackhole: true },
            2 => Attack::Inflate,
            3 => Attack::Replay,
            4 => Attack::SelectiveDrop {
                sources: (0..n as u32).step_by(2).collect(),
            },
            _ => Attack::Equivocate,
        };
        let count = count.min(n - 1);
        let adversary = AdversaryPlan::random(n, count, attack, 30, &[0], seed ^ 0x5a5a);

        let dests = [0u32];
        let wl = uniform_workload(n, &dests, 40, 1, seed ^ 1);
        let mut base = GossipConfig::new(
            BalancingConfig { threshold: 0.5, gamma: 0.1, capacity: 20 },
            60,
        );
        if defended {
            base = base.with_defense(DefenseConfig::default());
        }
        for cfg in [base, base.with_reliability(ReliableConfig::default())] {
            let gs = run_gossip_balancing_adversarial(
                &graph, &dests, cfg, &wl, faults, seed, &ChurnPlan::default(), &adversary, 1,
            );
            prop_assert!(
                gs.conserved(),
                "adversarial ledger out of balance (reliable={}, defended={}): {:?}",
                cfg.reliability.is_some(),
                defended,
                gs
            );
            for threads in [2usize, 4] {
                let gp = run_gossip_balancing_adversarial(
                    &graph, &dests, cfg, &wl, faults, seed, &ChurnPlan::default(), &adversary,
                    threads,
                );
                prop_assert_eq!(
                    &gs, &gp,
                    "adversarial run diverged (reliable={}, defended={}, threads={})",
                    cfg.reliability.is_some(), defended, threads
                );
            }
        }
    }

    /// Whenever loss stays within the retransmit budget (16 tries per
    /// message at the default timing), the protocol's `𝒩` equals the
    /// direct `ThetaAlg::build` graph *exactly* — the paper's 3-round
    /// locality claim survives unreliable radios.
    #[test]
    fn lossy_theta_equals_direct_construction(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8..28),
        loss in 0.0f64..0.25,
        seed in 0u64..1_000_000
    ) {
        let points = dedup_points(&raw);
        let range = default_max_range(points.len());
        let alg = ThetaAlg::new(std::f64::consts::FRAC_PI_3, range);
        let direct = alg.build(&points);
        let run = run_theta_protocol_sharded(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            FaultConfig::lossy(loss),
            seed,
            shard_threads_from_env(),
        );
        prop_assert_eq!(
            &direct.spatial.graph,
            &run.graph.graph,
            "loss {} within budget must reconstruct exactly",
            loss
        );
        prop_assert_eq!(edge_fidelity(&direct.spatial, &run.graph), 1.0);
    }

    /// Chaos mode: reordering-heavy delays (max delay > step length) plus
    /// drops plus duplication. In both delivery modes the extended
    /// conservation ledger must balance exactly, and the same seed must
    /// replay to the same transcript digest.
    #[test]
    fn ledger_balances_and_replays_under_chaos_in_both_modes(
        raw in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 10..24),
        drop_prob in 0.0f64..0.45,
        duplicate_prob in 0.0f64..0.3,
        seed in 0u64..1_000_000
    ) {
        let points = dedup_points(&raw);
        let graph = unit_disk_graph(&points, default_max_range(points.len()));
        let faults = FaultConfig {
            drop_prob,
            duplicate_prob,
            // Step length defaults to 8 ticks, so delays up to 12 make
            // consecutive sends overtake each other across step
            // boundaries.
            delay: DelayDist::Uniform { min: 1, max: 12 },
        };
        let dests = [0u32];
        let inject_steps = 40;
        let wl = uniform_workload(points.len(), &dests, inject_steps, 1, seed ^ 1);
        let base = GossipConfig::new(
            BalancingConfig { threshold: 0.5, gamma: 0.1, capacity: 20 },
            inject_steps + 40,
        );
        let threads = shard_threads_from_env();
        for cfg in [base, base.with_reliability(ReliableConfig::default())] {
            let a = gossip(&graph, &dests, cfg, &wl, faults, seed, threads);
            let b = gossip(&graph, &dests, cfg, &wl, faults, seed, threads);
            prop_assert!(
                a.conserved(),
                "ledger out of balance (reliable={}): {:?}",
                cfg.reliability.is_some(),
                a
            );
            prop_assert_eq!(a.digest, b.digest);
            prop_assert_eq!(a.absorbed, b.absorbed);
            prop_assert_eq!(a.stats.retransmits, b.stats.retransmits);
            prop_assert_eq!(a.stats.acks, b.stats.acks);
        }
    }
}
