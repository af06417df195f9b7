//! Integration test: the full paper pipeline over unreliable radios —
//! sample points, build `𝒩` with the runtime's hardened ΘALG protocol,
//! then route packets over the reconstructed topology with distributed
//! `(T,γ)`-balancing and gossiped heights, and check delivery plus the
//! conservation ledger.

use adhoc_net::prelude::*;
use rand::rngs::StdRng;

#[test]
fn points_to_topology_to_routing_under_loss() {
    let n = 80;
    let mut rng = StdRng::seed_from_u64(2024);
    let points = NodeDistribution::unit_square().sample(n, &mut rng).unwrap();
    let range = default_max_range(n);
    let alg = ThetaAlg::new(std::f64::consts::FRAC_PI_3, range);
    let faults = FaultConfig::lossy(0.1);
    let threads = shard_threads_from_env();
    let theta = || {
        run_theta_protocol_sharded(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            faults,
            5,
            threads,
        )
    };

    // Topology control over 10%-lossy links...
    let run = theta();
    // ...reconstructs the exact direct 𝒩 (retransmit budget ≫ loss)...
    let direct = alg.build(&points);
    assert_eq!(direct.spatial.graph, run.graph.graph);
    // ...which satisfies Lemma 2.1 on this connected instance.
    assert!(is_connected(&run.graph.graph));

    // Route a many-to-one workload over the same faulty links.
    let dests = [0u32];
    let steps = 1500;
    let workload = uniform_workload(n, &dests, steps, 1, 77);
    let cfg = GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        steps,
    );
    let (churn, adversary) = (ChurnPlan::new(), AdversaryPlan::new());
    let route = |graph: &SpatialGraph| {
        run_gossip_balancing_adversarial(
            graph, &dests, cfg, &workload, faults, 5, &churn, &adversary, threads,
        )
    };
    let routed = route(&run.graph);
    assert!(routed.conserved(), "ledger must balance: {routed:?}");
    assert!(
        routed.absorbed > 50,
        "expected meaningful delivery, got {}",
        routed.absorbed
    );
    assert!(routed.link_lost > 0, "10% loss should cost some packets");

    // The whole pipeline is replayable: same seeds, same outcome.
    let run2 = theta();
    let routed2 = route(&run2.graph);
    assert_eq!(run.digest, run2.digest);
    assert_eq!(routed.digest, routed2.digest);
    assert_eq!(routed.absorbed, routed2.absorbed);
}
