//! # adhoc-runtime — deterministic message-passing node runtime
//!
//! The rest of the workspace implements the paper's algorithms as direct
//! computations: `run_local_protocol` delivers every broadcast, the
//! `(T,γ)`-balancing router reads true buffer heights. Real radios drop,
//! delay, and duplicate. This crate closes that gap with a discrete-event
//! runtime in which each node is an [`Actor`] — a local state machine
//! with a mailbox and timers — and every link-level transmission passes
//! through a configurable [`FaultConfig`].
//!
//! Determinism is the design invariant: every directed link draws its
//! fault decisions from its own seeded RNG stream, events are ordered by
//! the canonical `(time, EventKey)` key, and a rolling [`Transcript`]
//! digest witnesses replay equality — the same seed reproduces the same
//! run bit for bit, whether its one event loop runs inline
//! ([`Runtime::run`]) or sharded over worker threads
//! ([`Runtime::run_sharded`]), asserted by tests.
//!
//! Two protocols from the paper are ported onto the runtime:
//!
//! * [`theta`] — ΘALG's 3-round topology-control protocol, hardened with
//!   confirmed beaconing (a node beacons until every neighbor it heard
//!   has heard it) and per-round retransmission windows with acks, so it
//!   reconstructs the exact `𝒩` of the direct construction as long as
//!   the windows outlast the loss rate ([`run_theta_protocol_sharded`];
//!   [`run_theta_churn`] adds churn and mobility);
//! * [`gossip`] — the `(T,γ)`-balancing router with explicit height
//!   gossip ([`run_gossip_balancing_adversarial`], which also takes churn
//!   and adversary plans); the `StaleBalancingRouter` ablation's refresh
//!   period becomes real, droppable control traffic, and packet
//!   conservation is tracked as a ledger that stays exact under loss and
//!   duplication.
//!
//! Between them sits [`reliable`] — a reusable per-link
//! reliable-delivery sublayer ([`ReliableActor`] wraps any [`Actor`]):
//! sliding-window sequence numbers, cumulative acks, and
//! capped-exponential-backoff retransmission restore exactly-once
//! unicast delivery over lossy links; the gossip balancer routes its
//! `Packet` traffic through it via
//! [`GossipConfig::with_reliability`](gossip::GossipConfig::with_reliability)
//! while heights gossip stays best-effort.
//!
//! Faults can also *lie*: [`adversary`] compromises a seeded subset of
//! nodes with a schedulable [`AdversaryPlan`] — height deflation and
//! inflation, stale-frame replay, selective packet drop, equivocation —
//! applied by an interposer that is each gossip node's radio layer (and
//! the one place that refuses duplicate packet copies),
//! while the node itself keeps running the honest code. The gossip
//! balancer's defense layer
//! ([`GossipConfig::with_defense`](gossip::GossipConfig::with_defense))
//! answers with local plausibility checks, starvation probes, and
//! cross-neighbor attestation that quarantine lying peers, and the
//! conservation ledger gains `stolen`/`blackholed` custody classes so
//! it balances exactly even while packets are being eaten.
//!
//! Experiment **E20** (`adhoc-sim`) sweeps loss rates over both
//! protocols, **E21** adds churn and mobility, **E22** the Byzantine
//! sweep; `examples/faulty_network.rs` is a minimal end-to-end tour.
//!
//! ```
//! use adhoc_geom::{Point, SectorPartition};
//! use adhoc_runtime::{run_theta_protocol_sharded, FaultConfig, ThetaTiming};
//!
//! let points: Vec<Point> = (0..20)
//!     .map(|i| Point::new((i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2))
//!     .collect();
//! let sectors = SectorPartition::with_max_angle(std::f64::consts::FRAC_PI_3);
//! let run = run_theta_protocol_sharded(
//!     &points, sectors, 0.5, ThetaTiming::default(),
//!     FaultConfig::lossy(0.1), 42, 1, // seed 42, one thread
//! );
//! assert!(run.graph.graph.num_edges() > 0);
//! assert!(run.stats.sent > 0);
//! ```

pub mod adversary;
pub mod churn;
pub mod event;
pub mod fault;
pub mod gossip;
pub mod node;
pub mod reliable;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod theta;

pub use adversary::{AdversaryEntry, AdversaryPlan, Attack};
pub use churn::{ChurnEntry, ChurnKind, ChurnPlan, MemberState};
pub use event::{Event, EventKey, EventKind, EventQueue, Payload};
pub use fault::{DelayDist, FaultConfig, TransmitOutcome};
pub use gossip::{
    run_gossip_balancing_adversarial, uniform_workload, DefenseConfig, GossipConfig, GossipMsg,
    GossipNode, GossipRun,
};
pub use node::{Actor, Ctx, Message};
pub use reliable::{
    LinkCounters, ReliableActor, ReliableConfig, ReliableMsg, Transport, RELIABLE_TIMER,
};
pub use runtime::{shard_threads_from_env, Runtime};
pub use stats::{DigestWriter, KindCounts, NetStats, Transcript};
pub use theta::{
    edge_fidelity, run_theta_churn, run_theta_protocol_sharded, Beacon, ThetaChurnRun, ThetaMsg,
    ThetaNode, ThetaRun, ThetaTiming,
};
