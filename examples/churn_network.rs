//! Churn-network demo — topology repair and routing while the network
//! changes under your feet.
//!
//! Builds an ad hoc network on lossy radios, schedules a seeded churn
//! plan (joins, graceful leaves, crashes, waypoint drift), and runs the
//! hardened ΘALG actor protocol through it: every perturbation triggers
//! local re-convergence in the one-hop neighborhoods that can see it.
//! The result is scored against the direct offline construction on the
//! final live positions, and the same plan is then replayed under
//! reliable `(T,γ)`-balancing to show the packet-conservation ledger
//! surviving dead buffers and abandoned custody. Everything is
//! bit-for-bit replayable: the sequential and sharded executors produce
//! the same digest, asserted below.
//!
//! ```text
//! cargo run --release --example churn_network [n] [seed] [loss] [threads]
//! ```

use adhoc_net::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(60);
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
        "== ΘALG re-convergence under churn, {:.0}% loss ({}) ==\n",
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

    // A random but seeded churn plan: the last n/10 nodes start outside
    // the network and may join; live nodes leave, crash, and drift.
    let spares = n / 10;
    let alive = n - spares;
    let events = (n / 6).max(4);
    let plan = ChurnPlan::random(alive, spares, 1.0, 2_000, events, seed ^ 0xc0ffee);
    println!(
        "churn plan: {} events over 2000 ticks ({spares} spare joiners)\n",
        plan.len()
    );

    // -- Topology repair under churn -------------------------------------
    let theta = run_theta_churn(
        &points,
        alg.sectors(),
        range,
        ThetaTiming::default(),
        faults,
        seed,
        &plan,
        threads,
    );
    println!("ΘALG protocol over {n} nodes under churn:");
    println!("  joins               {:>8}", theta.run.stats.joins);
    println!("  graceful leaves     {:>8}", theta.run.stats.leaves);
    println!("  crashes             {:>8}", theta.run.stats.crashes);
    println!("  drifts              {:>8}", theta.run.stats.drifts);
    println!(
        "  local re-convergences{:>7}",
        theta.run.stats.reconvergences
    );
    println!("  live nodes at end   {:>8}", theta.live.len());
    println!("  messages sent       {:>8}", theta.run.stats.sent);
    println!("  in-flight to dead   {:>8}", theta.run.stats.link_lost);
    println!("  fidelity vs offline {:>8.3}", theta.fidelity);
    println!("  repair latency      {:>8}", theta.repair_latency);
    println!("  replay digest       {:>#8x}\n", theta.run.digest);

    // The digest must be identical on the other executor — replaying the
    // same churn sequentially and sharded is the determinism contract.
    let other_threads = if threads > 1 { 1 } else { 4 };
    let replay = run_theta_churn(
        &points,
        alg.sectors(),
        range,
        ThetaTiming::default(),
        faults,
        seed,
        &plan,
        other_threads,
    );
    assert_eq!(
        replay.run.digest, theta.run.digest,
        "sequential and sharded churn replays diverged"
    );
    println!("digest parity vs {other_threads}-thread executor: ok\n");

    // -- Routing through the same churn ----------------------------------
    let direct = alg.build(&points);
    let dests = [0u32];
    let inject_steps = 200;
    let steps = inject_steps + 300;
    let workload = uniform_workload(n, &dests, inject_steps, 2, seed ^ 0x9e37);
    let cfg = GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        steps,
    )
    .with_reliability(ReliableConfig::default());
    let routed = run_gossip_balancing_adversarial(
        &direct.spatial,
        &dests,
        cfg,
        &workload,
        faults,
        seed,
        &plan,
        &AdversaryPlan::new(),
        threads,
    );
    println!("reliable (T,γ)-balancing through the same churn, {steps} steps:");
    println!("  packets injected    {:>8}", routed.injected);
    println!(
        "  delivered           {:>8}  ({:.1}%)",
        routed.absorbed,
        routed.delivery_rate() * 100.0
    );
    println!("  lost on the wire    {:>8}", routed.link_lost);
    println!("  still buffered      {:>8}", routed.buffered);
    println!("  in transport custody{:>8}", routed.in_flight);
    println!("  custody abandoned   {:>8}", routed.gave_up);
    println!("  ledger conserved    {:>8}", routed.conserved());
    assert!(
        routed.conserved(),
        "conservation ledger must balance under churn"
    );
}
