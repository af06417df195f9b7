//! # adhoc-net
//!
//! A production-quality Rust reproduction of
//!
//! > Lujun Jia, Rajmohan Rajaraman, Christian Scheideler.
//! > *On Local Algorithms for Topology Control and Routing in Ad Hoc
//! > Networks.* SPAA 2003.
//!
//! This facade crate re-exports the whole workspace. The layering mirrors
//! the paper:
//!
//! * [`geom`] — plane geometry, sectors, the honeycomb tiling, spatial
//!   index, synthetic node distributions (substrate).
//! * [`graph`] — CSR graphs, Dijkstra/BFS, MST, stretch kernels
//!   (substrate).
//! * [`proximity`] — the transmission graph `G*` and the classic
//!   baselines: Yao graph, Gabriel graph, RNG, kNN, Euclidean MST.
//! * [`core`] — **the paper's contribution**: the ΘALG two-phase local
//!   topology control algorithm (§2), its 3-round message-passing
//!   formulation, stretch analyses, and the θ-path replacement of
//!   Theorem 2.8.
//! * [`interference`] — the pairwise guard-zone model (§2.4),
//!   interference sets/numbers, the randomized symmetry-breaking MAC
//!   (§3.3), and the honeycomb MAC (§3.4).
//! * [`routing`] — the `(T,γ)`-balancing algorithm (§3.2), the
//!   `(T,γ,I)` interference-aware variant (§3.3), the honeycomb router
//!   (§3.4), and baselines.
//! * [`runtime`] — deterministic message-passing node runtime with fault
//!   injection: ΘALG and `(T,γ)`-balancing replayed as actor protocols
//!   over lossy, delaying, duplicating links, with an optional per-link
//!   reliable-delivery sublayer (sliding window + cumulative ack +
//!   capped-backoff retransmit) under the balancing packet traffic, a
//!   seeded churn/mobility engine (joins, graceful leaves, crashes,
//!   waypoint drift) under which ΘALG re-converges locally, and a
//!   Byzantine adversary subsystem (lying height gossip, blackholes,
//!   equivocation) countered by a local plausibility/probe/attestation
//!   defense that quarantines detected liars.
//! * [`sim`] — OPT-by-construction adversaries, workloads, mobility, and
//!   the experiment runners E1–E22 (`cargo run -p adhoc-sim --bin
//!   report`).
//!
//! ## Quickstart
//!
//! ```
//! use adhoc_net::prelude::*;
//!
//! // 200 uniform nodes in the unit square.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let points = NodeDistribution::unit_square().sample(200, &mut rng).unwrap();
//! let range = default_max_range(points.len());
//!
//! // The transmission graph G* and the ΘALG topology 𝒩.
//! let gstar = unit_disk_graph(&points, range);
//! let topo = ThetaAlg::new(std::f64::consts::FRAC_PI_3, range).build(&points);
//!
//! // Lemma 2.1: connected, degree ≤ 4π/θ = 12.
//! let report = verify_lemma_2_1(&topo);
//! assert!(report.holds());
//!
//! // Theorem 2.2: O(1) energy-stretch.
//! let stretch = energy_stretch(&topo.spatial, &gstar, 2.0);
//! assert!(stretch.max < 4.0);
//! ```

pub use adhoc_core as core;
pub use adhoc_geom as geom;
pub use adhoc_graph as graph;
pub use adhoc_interference as interference;
pub use adhoc_proximity as proximity;
pub use adhoc_routing as routing;
pub use adhoc_runtime as runtime;
pub use adhoc_sim as sim;

/// Everything needed for typical use, one import away.
pub mod prelude {
    pub use adhoc_core::{
        distance_stretch, energy_stretch, greedy_spanner, prune_spanner, replace_edge,
        theta_path_congestion, verify_lemma_2_1, ThetaAlg, ThetaTopology,
    };
    pub use adhoc_geom::distributions::NodeDistribution;
    pub use adhoc_geom::{default_max_range, HexGrid, Point, SectorPartition};
    pub use adhoc_graph::{
        dijkstra, is_connected, min_cut_undirected, multi_source_min_cut, pairwise_stretch, Graph,
        GraphBuilder,
    };
    pub use adhoc_interference::{
        interference_number, tdma_schedule, ActivationRule, HoneycombMac, InterferenceModel,
        RandomizedMac, SinrModel,
    };
    pub use adhoc_proximity::{
        beta_skeleton, delaunay_graph, euclidean_mst, gabriel_graph, knn_graph,
        relative_neighborhood_graph, restricted_delaunay_graph, unit_disk_graph, yao_graph,
        SpatialGraph,
    };
    pub use adhoc_routing::{
        ActiveEdge, AnycastRouter, BalancingConfig, BalancingRouter, GreedyRouter, HoneycombConfig,
        HoneycombRouter, InterferenceRouter, StaleBalancingRouter, TracedRouter,
    };
    pub use adhoc_runtime::{
        edge_fidelity, run_gossip_balancing_adversarial, run_theta_churn,
        run_theta_protocol_sharded, shard_threads_from_env, uniform_workload, AdversaryPlan,
        Attack, ChurnPlan, DefenseConfig, DelayDist, FaultConfig, GossipConfig, MemberState,
        ReliableConfig, Runtime, ThetaTiming,
    };
    pub use adhoc_sim::{build_schedule, run_balancing_on_schedule, ScenarioConfig, Workload};
    pub use rand::SeedableRng;
}
