//! Runtime bench (E20): the hardened ΘALG protocol and gossip-balancing
//! over lossy links, at increasing loss rates — the cost of fault
//! tolerance in retransmissions per run. Table rows: `report -- e20`.
//! Thread scaling of the ΘALG run: `examples/shard_scaling.rs` (E20b).

use adhoc_bench::uniform_points;
use adhoc_core::ThetaAlg;
use adhoc_routing::BalancingConfig;
use adhoc_runtime::{
    run_gossip_balancing_adversarial, run_theta_churn, run_theta_protocol_sharded,
    uniform_workload, AdversaryPlan, ChurnPlan, FaultConfig, GossipConfig, ReliableConfig,
    ThetaTiming,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::f64::consts::FRAC_PI_3;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("runtime_faults");
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.sample_size(10);

    let n = 120;
    let points = uniform_points(n, 23);
    let range = adhoc_geom::default_max_range(n);
    let alg = ThetaAlg::new(FRAC_PI_3, range);

    for loss in [0.0f64, 0.1, 0.2] {
        g.bench_with_input(
            BenchmarkId::new("theta_protocol", format!("loss={loss}")),
            &loss,
            |b, &loss| {
                b.iter(|| {
                    black_box(run_theta_protocol_sharded(
                        &points,
                        alg.sectors(),
                        range,
                        ThetaTiming::default(),
                        FaultConfig::lossy(loss),
                        7,
                        1,
                    ))
                });
            },
        );
    }

    let topo = alg.build(&points);
    let dests = [0u32];
    let steps = 500u64;
    let workload = uniform_workload(n, &dests, steps, 2, 31);
    let cfg = GossipConfig::new(
        BalancingConfig {
            threshold: 0.5,
            gamma: 0.1,
            capacity: 40,
        },
        steps,
    );
    let (churn, adversary) = (ChurnPlan::new(), AdversaryPlan::new());
    let gossip = |cfg, loss| {
        run_gossip_balancing_adversarial(
            &topo.spatial,
            &dests,
            cfg,
            &workload,
            FaultConfig::lossy(loss),
            7,
            &churn,
            &adversary,
            1,
        )
    };
    for loss in [0.0f64, 0.2] {
        g.bench_with_input(
            BenchmarkId::new("gossip_balancing", format!("loss={loss}")),
            &loss,
            |b, &loss| {
                b.iter(|| black_box(gossip(cfg, loss)));
            },
        );
        // Same runs with packet traffic on the reliable sublayer: the
        // marginal cost of windows, acks, and retransmit timers.
        g.bench_with_input(
            BenchmarkId::new("gossip_balancing_reliable", format!("loss={loss}")),
            &loss,
            |b, &loss| {
                let reliable = cfg.with_reliability(ReliableConfig::default());
                b.iter(|| black_box(gossip(reliable, loss)));
            },
        );
    }
    // The churn engine's overhead on the same geometry: a seeded mixed
    // plan (joins, leaves, crashes, drift) through the ΘALG protocol,
    // including every local re-convergence it triggers. Compare with the
    // static theta_protocol arms above. Table rows: `report -- e21`.
    let spares = n / 10;
    let plan = ChurnPlan::random(n - spares, spares, 1.0, 2_000, 12, 29);
    for loss in [0.0f64, 0.1] {
        g.bench_with_input(
            BenchmarkId::new("theta_churn", format!("loss={loss}")),
            &loss,
            |b, &loss| {
                b.iter(|| {
                    black_box(run_theta_churn(
                        &points,
                        alg.sectors(),
                        range,
                        ThetaTiming::default(),
                        FaultConfig::lossy(loss),
                        7,
                        &plan,
                        1,
                    ))
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
