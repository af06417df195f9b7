//! Faulty-network demo — topology control and routing over lossy radios.
//!
//! Builds an ad hoc network whose links drop 10% of all transmissions,
//! runs the hardened 3-round ΘALG actor protocol (retransmit + ack) to
//! construct `𝒩`, verifies the result against the direct construction,
//! then routes a uniform workload over the reconstructed topology with
//! distributed `(T,γ)`-balancing and gossiped buffer heights — first
//! fire-and-forget, then with packet traffic on the per-link
//! reliable-delivery sublayer — all bit-for-bit replayable from the seed.
//!
//! ```text
//! cargo run --release --example faulty_network [n] [seed] [loss] [threads]
//! ```
//!
//! `threads > 1` runs both protocols on the sharded parallel executor;
//! the replay digests are bit-identical to the sequential run — try it.

use adhoc_net::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(100);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let loss: f64 = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.10_f64)
        .clamp(0.0, 1.0);
    let threads: usize = args
        .next()
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(adhoc_net::runtime::shard_threads_from_env)
        .max(1);

    println!(
        "== ΘALG + (T,γ)-balancing over links with {:.0}% loss ({}) ==\n",
        loss * 100.0,
        if threads > 1 {
            format!("sharded, {threads} threads")
        } else {
            "sequential".to_string()
        }
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let points = NodeDistribution::unit_square().sample(n, &mut rng).unwrap();
    let range = default_max_range(n);
    let alg = ThetaAlg::new(std::f64::consts::FRAC_PI_3, range);
    let faults = FaultConfig::lossy(loss);

    // -- Topology control under loss ------------------------------------
    let direct = alg.build(&points);
    let run = run_theta_protocol_sharded(
        &points,
        alg.sectors(),
        range,
        ThetaTiming::default(),
        faults,
        seed,
        threads,
    );
    let fidelity = edge_fidelity(&direct.spatial, &run.graph);
    println!("ΘALG protocol over {n} nodes:");
    println!("  messages sent       {:>8}", run.stats.sent);
    println!(
        "  dropped by links    {:>8}  ({:.1}%)",
        run.stats.dropped,
        run.stats.loss_rate() * 100.0
    );
    println!("  edges built         {:>8}", run.graph.graph.num_edges());
    println!("  fidelity vs direct  {:>8.3}", fidelity);
    println!(
        "  exact match         {:>8}",
        direct.spatial.graph == run.graph.graph
    );
    println!("  edge awareness      {:>8.3}", run.edge_awareness);
    println!("  replay digest       {:>#8x}\n", run.digest);

    // -- Routing over the reconstructed topology, same faulty links ------
    // Injections stop early so queues and retransmit windows can drain;
    // the delivered fraction then measures loss, not truncation.
    let dests = [0u32];
    let inject_steps = 1500;
    let steps = inject_steps + 500;
    let workload = uniform_workload(n, &dests, inject_steps, 2, seed ^ 0x9e37);
    let cfg = GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        steps,
    );
    for (mode, cfg) in [
        ("fire-and-forget", cfg),
        (
            "reliable sublayer",
            cfg.with_reliability(ReliableConfig::default()),
        ),
    ] {
        let routed = run_gossip_balancing_adversarial(
            &run.graph,
            &dests,
            cfg,
            &workload,
            faults,
            seed,
            &ChurnPlan::new(),
            &AdversaryPlan::new(),
            threads,
        );
        println!("(T,γ)-balancing with height gossip, {steps} steps, {mode}:");
        println!("  packets injected    {:>8}", routed.injected);
        println!(
            "  delivered           {:>8}  ({:.1}%)",
            routed.absorbed,
            routed.delivery_rate() * 100.0
        );
        println!("  lost on the wire    {:>8}", routed.link_lost);
        println!("  still buffered      {:>8}", routed.buffered);
        println!("  in transport custody{:>8}", routed.in_flight);
        println!("  retransmissions     {:>8}", routed.stats.retransmits);
        println!("  acks sent           {:>8}", routed.stats.acks);
        println!("  gossip messages     {:>8}", routed.gossips_sent);
        println!("  ledger conserved    {:>8}\n", routed.conserved());
        assert!(routed.conserved(), "conservation ledger must balance");
    }
}
