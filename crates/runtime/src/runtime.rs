//! The runtime driver: the coordinator of a run over the event loop in
//! [`crate::shard`], so that every run is bit-for-bit replayable from
//! `(nodes, positions, faults, seed)` at any thread count.
//!
//! # One event loop
//!
//! A [`Runtime`] keeps the coordinator state — master positions,
//! membership and radio rows, the churn schedule, the transcript and the
//! stats — and, between runs, one core that owns every node.
//! [`Runtime::run`] and [`Runtime::run_with_limit`] drive that core
//! inline; [`Runtime::run_sharded`] splits it into one core per worker
//! thread and merges them back at the end. Both go through the same
//! epoch loop: find the earliest pending event, apply any due churn
//! batch, advance every core to the end of the lookahead window, fold.
//!
//! # Determinism under sharding
//!
//! Three mechanisms make the replay digest independent of how many cores
//! share the nodes:
//!
//! 1. **Per-directed-link RNG streams.** Every link `u → v` owns a
//!    `ChaCha8Rng` seeded from `splitmix64(seed, u, v)`; a transmission's
//!    fate (drop/delay/duplicate) depends only on the sender's
//!    deterministic emission order on that link, never on global
//!    scheduling history or thread interleaving.
//! 2. **Canonical event order.** Events tie-break by [`EventKey`]
//!    `(node, class, src, link/arm seq)` instead of global insertion
//!    order, so per-node event streams are layout-invariant (see
//!    [`crate::event`]).
//! 3. **Windowed digest folds.** Event records accumulate in per-node
//!    sub-digests and fold into the global digest in node-id order at
//!    each lookahead-window boundary (`stats::WindowNotes`).
//!
//! [`EventKey`]: crate::event::EventKey

use crate::churn::{plan_churn, ChurnDelta, ChurnKind, ChurnSchedule, Radio};
use crate::fault::FaultConfig;
use crate::node::Actor;
use crate::shard::Shard;
use crate::stats::{NetStats, Transcript, WindowFolds};
use crate::{ChurnPlan, MemberState};
use adhoc_geom::Point;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation used to
/// derive independent per-link seeds from `(run seed, from, to)`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-directed-link transmission state: the link's private RNG stream
/// and its copy counter (feeds [`EventKey::deliver`] sequence numbers;
/// fault-layer duplicates take consecutive values).
///
/// [`EventKey::deliver`]: crate::event::EventKey::deliver
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    pub(crate) rng: ChaCha8Rng,
    pub(crate) copies: u64,
}

impl LinkState {
    pub(crate) fn new(seed: u64, from: u32, to: u32) -> Self {
        let key = ((from as u64) << 32) | to as u64;
        LinkState {
            rng: ChaCha8Rng::seed_from_u64(splitmix64(seed ^ splitmix64(key))),
            copies: 0,
        }
    }
}

/// The links one node has transmitted on: targets sorted, each with its
/// [`LinkState`]. Rows are indexed by sending node, so a shard owns
/// exactly the rows of its nodes.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkRow {
    to: Vec<u32>,
    state: Vec<LinkState>,
}

impl LinkRow {
    /// The state of link `from → to` (this row belongs to `from`),
    /// created on first use.
    pub(crate) fn link(&mut self, seed: u64, from: u32, to: u32) -> &mut LinkState {
        let i = match self.to.binary_search(&to) {
            Ok(i) => i,
            Err(i) => {
                self.to.insert(i, to);
                self.state.insert(i, LinkState::new(seed, from, to));
                i
            }
        };
        &mut self.state[i]
    }
}

/// Thread count requested via the `ADHOC_SHARD_THREADS` environment
/// variable (default 1 = the inline one-shard core).
pub fn shard_threads_from_env() -> usize {
    std::env::var("ADHOC_SHARD_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t: &usize| t >= 1)
        .unwrap_or(1)
}

/// Deterministic discrete-event runtime over a set of node actors placed
/// in the plane. Radio broadcasts reach every node within `range`
/// (the paper's `G*` neighborhood); each link-level copy independently
/// passes through the [`FaultConfig`] on its own RNG stream.
#[derive(Debug)]
pub struct Runtime<A: Actor> {
    pub(crate) coord: Coordinator,
    /// Between runs, the one core that owns every node.
    pub(crate) core: Shard<A>,
}

/// The coordinator state of a run: everything but the nodes, their
/// pending events and their links, which live in the cores.
#[derive(Debug)]
pub(crate) struct Coordinator {
    /// Node positions (reflecting any drifts applied so far).
    pub(crate) positions: Vec<Point>,
    /// Radio range (spatial shard cell side).
    pub(crate) range: f64,
    /// The conservative lookahead: no transmission can arrive sooner than
    /// this many ticks after it was sent, so cores advanced in windows of
    /// this width only exchange messages at window boundaries.
    lookahead: u64,
    /// Membership and neighbor rows, shared with the cores.
    radio: Arc<Radio>,
    /// Pending churn batches, sorted by (lookahead-aligned) time.
    churn: ChurnSchedule,
    /// Time of the last scheduled perturbation (0 without churn).
    last_churn: u64,
    /// Set by [`Runtime::start`]; churn plans must be installed before it.
    started: bool,
    pub(crate) stats: NetStats,
    trace: Transcript,
    /// Latest virtual time reached: an event handled or a churn batch.
    pub(crate) now: u64,
}

/// The cores one epoch loop drives: the runtime's own core inline, or
/// the worker threads of [`Runtime::run_sharded`].
pub(crate) trait Cores<M> {
    /// Firing time of the earliest pending event in any core, counting
    /// deliveries not yet handed to their core.
    fn next_time(&self) -> Option<u64>;

    /// Run one epoch in every core: apply `churn`, then handle events
    /// before `until`, at most `budget` of them. Appends the epoch's
    /// records to `folds`; returns the number of events still pending
    /// and the latest event time handled.
    fn epoch(
        &mut self,
        until: u64,
        churn: Option<&ChurnDelta>,
        budget: &mut u64,
        folds: &mut WindowFolds,
    ) -> (usize, u64);
}

impl Coordinator {
    /// The epoch loop. Each epoch is the lookahead window holding the
    /// earliest pending event, or opens at a churn batch due no later
    /// than that event (batch times are lookahead-aligned, so a batch
    /// always lands on an epoch barrier). Returns true iff the run went
    /// quiescent; false when `budget` events were handled first.
    pub(crate) fn drive<M>(&mut self, cores: &mut impl Cores<M>, mut budget: u64) -> bool {
        let mut folds = WindowFolds::default();
        loop {
            let next = cores.next_time();
            let due = self
                .churn
                .peek_time()
                .filter(|&tc| next.is_none_or(|t| tc <= t));
            let until = match (due, next) {
                (None, None) => return true,
                _ if budget == 0 => return false,
                (Some(tc), _) => tc + self.lookahead,
                (None, Some(t)) => (t / self.lookahead + 1) * self.lookahead,
            };
            let delta = due.map(|tc| {
                self.now = self.now.max(tc);
                self.apply_churn_batch()
            });
            let (pending, latest) = cores.epoch(until, delta.as_ref(), &mut budget, &mut folds);
            self.now = self.now.max(latest);
            self.fold(pending, &mut folds);
        }
    }

    /// End a window: sample the pending-event count and fold the
    /// window's records into the transcript.
    fn fold(&mut self, pending: usize, folds: &mut WindowFolds) {
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(pending);
        self.trace.fold_window(folds);
    }

    /// Apply the next due churn batch to the positions and build the new
    /// membership and neighbor rows, and compute the [`ChurnDelta`] every
    /// core must apply: the new [`Radio`] plus the live nodes whose
    /// one-hop world changed (new/lost neighbor rows, neighbors that
    /// drifted, or being a perturbation subject).
    fn apply_churn_batch(&mut self) -> ChurnDelta {
        let (time, entries) = self.churn.take_batch();
        let mut membership = self.radio.membership.clone();
        let mut drifted: Vec<u32> = Vec::new();
        for e in &entries {
            match e.kind {
                ChurnKind::Join(pos) => {
                    self.positions[e.node as usize] = pos;
                    membership[e.node as usize] = MemberState::Alive;
                    self.stats.joins += 1;
                }
                ChurnKind::Leave => {
                    membership[e.node as usize] = MemberState::Draining;
                    self.stats.leaves += 1;
                }
                ChurnKind::Crash => {
                    membership[e.node as usize] = MemberState::Dead;
                    self.stats.crashes += 1;
                }
                ChurnKind::Drift(pos) => {
                    self.positions[e.node as usize] = pos;
                    self.stats.drifts += 1;
                    drifted.push(e.node);
                }
            }
        }
        drifted.sort_unstable();
        let radio = Radio::new(&self.positions, membership, self.range);
        let mut affected = BTreeSet::new();
        for (u, new_row) in radio.neighbors.iter().enumerate() {
            if *new_row != self.radio.neighbors[u] {
                affected.insert(u as u32);
            } else if !drifted.is_empty()
                && radio.membership[u] == MemberState::Alive
                && new_row.iter().any(|v| drifted.binary_search(v).is_ok())
            {
                // Row unchanged, but a neighbor moved within range: the
                // node's geometric one-hop world still changed.
                affected.insert(u as u32);
            }
        }
        for e in &entries {
            // Crash subjects are dead; everyone else re-converges (a
            // graceful leaver gets one final callback with an empty row).
            if !matches!(e.kind, ChurnKind::Crash) {
                affected.insert(e.node);
            }
        }
        affected.retain(|&u| radio.membership[u as usize].processes_events());
        self.radio = radio;
        self.stats.reconvergences += affected.len() as u64;
        let affected = affected
            .into_iter()
            .map(|u| (u, self.positions[u as usize]))
            .collect();
        ChurnDelta {
            time,
            entries,
            radio: Arc::clone(&self.radio),
            affected,
        }
    }
}

impl<A: Actor> Runtime<A> {
    /// Build a runtime over `nodes` at the given positions; node `i` sits
    /// at `positions[i]` and its broadcasts reach every node within
    /// `range`.
    pub fn new(
        nodes: Vec<A>,
        positions: &[Point],
        range: f64,
        faults: FaultConfig,
        seed: u64,
    ) -> Self {
        assert_eq!(nodes.len(), positions.len(), "one position per node");
        assert!(range.is_finite() && range > 0.0, "range must be positive");
        faults.validate();
        let radio = Radio::new(positions, vec![MemberState::Alive; nodes.len()], range);
        Runtime {
            core: Shard::new(nodes, Arc::clone(&radio), faults, seed),
            coord: Coordinator {
                positions: positions.to_vec(),
                range,
                lookahead: faults.min_delay(),
                radio,
                churn: ChurnSchedule::default(),
                last_churn: 0,
                started: false,
                stats: NetStats::default(),
                trace: Transcript::new(false),
                now: 0,
            },
        }
    }

    /// Keep the full human-readable event log (off by default; the digest
    /// is always maintained). Entries appear grouped by node within each
    /// lookahead window — the canonical fold order.
    pub fn record_trace(&mut self, record: bool) {
        self.coord.trace = Transcript::new(record);
        self.core.record_trace(record);
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.coord.now
    }

    /// Counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.coord.stats
    }

    /// The replay transcript.
    pub fn transcript(&self) -> &Transcript {
        &self.coord.trace
    }

    /// Immutable view of a node's actor state.
    pub fn node(&self, id: u32) -> &A {
        &self.core.nodes[id as usize]
    }

    /// All node actors, in id order.
    pub fn nodes(&self) -> &[A] {
        &self.core.nodes
    }

    /// The radio neighbors of `id` (sorted).
    pub fn radio_neighbors(&self, id: u32) -> &[u32] {
        &self.coord.radio.neighbors[id as usize]
    }

    /// Current membership state of `id`.
    pub fn member_state(&self, id: u32) -> MemberState {
        self.coord.radio.membership[id as usize]
    }

    /// Current node positions (reflecting any drifts applied so far).
    pub fn positions(&self) -> &[Point] {
        &self.coord.positions
    }

    /// Virtual time of the last scheduled perturbation; 0 without churn.
    pub fn last_churn_time(&self) -> u64 {
        self.coord.last_churn
    }

    /// Install a churn/mobility plan. Must be called before
    /// [`Self::start`]; entry times snap up to lookahead-window
    /// boundaries so perturbations land exactly at epoch barriers (digest
    /// stability at any thread count). Panics on an inconsistent plan —
    /// see [`ChurnPlan`].
    pub fn set_churn_plan(&mut self, plan: &ChurnPlan) {
        let c = &mut self.coord;
        assert!(!c.started, "set_churn_plan must be called before start()");
        let planned = plan_churn(plan, c.positions.len(), c.lookahead);
        // Joiners sit at their spawn position from t = 0: the spatial
        // shard partition (and hence worker assignment) is fixed up front.
        for &(node, pos) in &planned.spawn_positions {
            c.positions[node as usize] = pos;
        }
        c.radio = Radio::new(&c.positions, planned.membership, c.range);
        c.last_churn = planned.schedule.last_time();
        c.churn = planned.schedule;
        self.core.radio = Arc::clone(&c.radio);
    }

    /// Deliver `on_start` to every live node (in id order) at time 0,
    /// then fold any records it produced (drops of time-0 sends) as a
    /// pseudo-window of their own.
    pub fn start(&mut self) {
        self.coord.started = true;
        let mut folds = WindowFolds::default();
        let pending = self.core.start(&mut folds);
        self.coord.fold(pending, &mut folds);
        self.settle();
    }

    /// Process events until the run goes quiescent or `max_events` have
    /// been handled; returns true iff the run went quiescent. Protocols
    /// are responsible for termination (bounded timer schedules); the cap
    /// is a backstop against runaway retransmit loops.
    ///
    /// A capped run folds whatever partial window is open when the cap
    /// strikes, so a capped digest only matches another identically
    /// capped run.
    pub fn run_with_limit(&mut self, max_events: u64) -> bool {
        let quiescent = self.coord.drive(&mut self.core, max_events);
        self.settle();
        quiescent
    }

    /// Run to quiescence on the inline one-shard core (see
    /// [`Self::run_with_limit`]); returns the final virtual time.
    pub fn run(&mut self) -> u64 {
        self.run_with_limit(u64::MAX);
        self.coord.now
    }

    /// Move the core's counters into the run's stats.
    pub(crate) fn settle(&mut self) {
        self.coord
            .stats
            .absorb(&std::mem::take(&mut self.core.stats));
    }
}

/// The common body of the protocol harnesses: build a runtime over
/// `nodes`, install `plan` (if any), start it, and run it to quiescence
/// on `threads` worker threads.
pub(crate) fn run_to_quiescence<A>(
    nodes: Vec<A>,
    positions: &[Point],
    range: f64,
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    threads: usize,
) -> Runtime<A>
where
    A: Actor + Send,
    A::Msg: Send + Sync,
{
    let mut rt = Runtime::new(nodes, positions, range, faults, seed);
    if !plan.is_empty() {
        rt.set_churn_plan(plan);
    }
    rt.start();
    rt.run_sharded(threads);
    rt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;
    use crate::node::{Ctx, Message};

    /// A toy flood protocol: node 0 starts a token; every node forwards
    /// the first copy it sees to all radio neighbors.
    #[derive(Debug, Clone)]
    struct Flood {
        id: u32,
        seen: bool,
    }

    #[derive(Debug, Clone)]
    struct Token;

    impl Message for Token {
        fn kind(&self) -> &'static str {
            "token"
        }

        fn digest_into(&self, _w: &mut crate::DigestWriter) {}
    }

    impl Actor for Flood {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            if self.id == 0 {
                self.seen = true;
                ctx.broadcast(Token);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {
            if !self.seen {
                self.seen = true;
                ctx.broadcast(Token);
            }
        }
    }

    fn line(n: usize) -> Vec<Point> {
        (0..n).map(|i| Point::new(i as f64, 0.0)).collect()
    }

    fn flood(n: usize, faults: FaultConfig, seed: u64) -> Runtime<Flood> {
        let nodes = (0..n as u32).map(|id| Flood { id, seen: false }).collect();
        Runtime::new(nodes, &line(n), 1.5, faults, seed)
    }

    #[test]
    fn flood_reaches_everyone_on_ideal_links() {
        let mut rt = flood(10, FaultConfig::ideal(), 1);
        rt.start();
        rt.run();
        assert!(rt.nodes().iter().all(|f| f.seen));
        // Each node broadcasts exactly once.
        assert_eq!(rt.stats().broadcasts, 10);
        assert_eq!(rt.stats().per_kind["token"].dropped, 0);
    }

    #[test]
    fn same_seed_identical_transcripts() {
        let faults = FaultConfig {
            drop_prob: 0.3,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 5 },
        };
        let run = |seed| {
            let mut rt = flood(12, faults, seed);
            rt.record_trace(true);
            rt.start();
            rt.run();
            (
                rt.transcript().digest(),
                rt.transcript().entries().unwrap().to_vec(),
            )
        };
        let (d1, t1) = run(7);
        let (d2, t2) = run(7);
        assert_eq!(d1, d2);
        assert_eq!(t1, t2);
        let (d3, _) = run(8);
        assert_ne!(d1, d3, "different seeds should diverge");
    }

    /// Link streams are independent: the fate of traffic on one link must
    /// not depend on how much traffic other links carried first.
    #[test]
    fn link_rng_streams_are_independent_of_other_links() {
        let f = FaultConfig {
            drop_prob: 0.5,
            duplicate_prob: 0.2,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let fates = |prior_traffic: u64| {
            let mut link = LinkState::new(99, 3, 4);
            let mut other = LinkState::new(99, 1, 2);
            for _ in 0..prior_traffic {
                f.transmit(&mut other.rng);
            }
            (0..50)
                .map(|_| f.transmit(&mut link.rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(fates(0), fates(1000));
        // Directions are distinct streams.
        use rand::RngCore;
        let mut a = LinkState::new(99, 3, 4);
        let mut b = LinkState::new(99, 4, 3);
        assert_ne!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn total_loss_stops_the_flood() {
        let mut rt = flood(5, FaultConfig::lossy(1.0), 3);
        rt.start();
        rt.run();
        assert!(rt.node(0).seen);
        assert!(!rt.nodes()[1..].iter().any(|f| f.seen));
        assert_eq!(rt.stats().delivered, 0);
        assert_eq!(rt.stats().sent, rt.stats().dropped);
    }

    #[test]
    fn run_with_limit_caps_events() {
        let mut rt = flood(30, FaultConfig::ideal(), 4);
        rt.start();
        let quiescent = rt.run_with_limit(3);
        assert!(!quiescent);
    }

    /// The cap counts handled events exactly, capped runs replay
    /// identically, and an unlimited cap is a plain `run()`.
    #[test]
    fn run_with_limit_handles_exactly_the_budget() {
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 3 },
        };
        let handled =
            |s: &NetStats| s.delivered + s.timers_fired + s.link_lost + s.timers_abandoned;
        let capped = |cap: u64| {
            let mut rt = Runtime::new(pingers(6), &line(6), 1.5, faults, 17);
            rt.set_churn_plan(&ChurnPlan::new().crash(12, 1));
            rt.start();
            let quiescent = rt.run_with_limit(cap);
            (quiescent, handled(rt.stats()), rt.transcript().digest())
        };
        let mut full = Runtime::new(pingers(6), &line(6), 1.5, faults, 17);
        full.set_churn_plan(&ChurnPlan::new().crash(12, 1));
        full.start();
        full.run();
        let total = handled(full.stats());
        assert!(total > 30, "run too short: {total} events");
        for cap in [1, 7, total / 2, total - 1] {
            let (quiescent, events, digest) = capped(cap);
            assert!(!quiescent);
            assert_eq!(events, cap, "cap {cap}");
            assert_eq!(capped(cap).2, digest, "capped runs diverged at {cap}");
        }
        let (quiescent, events, digest) = capped(u64::MAX);
        assert!(quiescent);
        assert_eq!(events, total);
        assert_eq!(digest, full.transcript().digest());
    }

    #[test]
    fn radio_neighbors_respect_range() {
        let rt = flood(4, FaultConfig::ideal(), 5);
        assert_eq!(rt.radio_neighbors(0), &[1]);
        assert_eq!(rt.radio_neighbors(1), &[0, 2]);
    }

    /// An actor that unicasts once to an arbitrary (possibly bogus)
    /// target, for exercising the locality validation in `transmit`.
    #[derive(Debug, Clone)]
    struct SendTo {
        id: u32,
        target: Option<u32>,
    }

    impl Actor for SendTo {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            if self.id == 0 {
                if let Some(to) = self.target {
                    ctx.send(to, Token);
                }
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {}
    }

    fn send_to(n: usize, target: Option<u32>) -> Runtime<SendTo> {
        let nodes = (0..n as u32).map(|id| SendTo { id, target }).collect();
        Runtime::new(nodes, &line(n), 1.5, FaultConfig::ideal(), 9)
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn unicast_to_nonexistent_node_panics_clearly() {
        let mut rt = send_to(3, Some(99));
        rt.start();
        rt.run();
    }

    #[test]
    fn out_of_range_unicast_is_dropped_and_counted() {
        // Node 3 is 3 units from node 0 — in the plane, out of radio
        // range (1.5). The copy must never be delivered, and it must not
        // perturb the link-level sent/dropped ledger.
        let mut rt = send_to(4, Some(3));
        rt.start();
        rt.run();
        assert_eq!(rt.stats().non_neighbor_sends, 1);
        assert_eq!(rt.stats().sent, 0);
        assert_eq!(rt.stats().delivered, 0);
        assert_eq!(rt.stats().dropped, 0);
    }

    #[test]
    fn self_send_is_a_non_neighbor_send() {
        let mut rt = send_to(2, Some(0));
        rt.start();
        rt.run();
        assert_eq!(rt.stats().non_neighbor_sends, 1);
        assert_eq!(rt.stats().delivered, 0);
    }

    #[test]
    fn in_range_unicast_still_delivers() {
        let mut rt = send_to(2, Some(1));
        rt.start();
        rt.run();
        assert_eq!(rt.stats().non_neighbor_sends, 0);
        assert_eq!(rt.stats().delivered, 1);
    }

    /// Node 0 streams a unicast per tick at node 1 and logs every
    /// reception time; exercises the in-flight-to-a-crashed-node path.
    #[derive(Debug, Clone)]
    struct Pinger {
        id: u32,
        sent: u32,
        received: Vec<u64>,
    }

    impl Actor for Pinger {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            if self.id == 0 {
                ctx.set_timer(1, 0);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {
            self.received.push(ctx.now());
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Token>, _timer: u32) {
            if self.sent < 20 {
                self.sent += 1;
                ctx.send(1, Token);
                ctx.set_timer(1, 0);
            }
        }
    }

    fn pingers(n: usize) -> Vec<Pinger> {
        (0..n as u32)
            .map(|id| Pinger {
                id,
                sent: 0,
                received: Vec::new(),
            })
            .collect()
    }

    /// Regression (pre-churn the runtime had no peer-death path at all):
    /// a packet in flight to a node that crash-leaves must be accounted
    /// as `link_lost` — never delivered to the dead actor — and the run
    /// must still drain to quiescence.
    #[test]
    fn in_flight_packet_to_crashed_node_is_link_lost_not_delivered() {
        let mut rt = Runtime::new(pingers(2), &line(2), 1.5, FaultConfig::ideal(), 11);
        rt.set_churn_plan(&ChurnPlan::new().crash(10, 1));
        rt.start();
        assert!(rt.run_with_limit(u64::MAX), "run must go quiescent");
        // The packet sent at t=9 was in flight at the crash boundary
        // (arrival t=10): lost, not delivered.
        assert_eq!(rt.stats().link_lost, 1);
        assert_eq!(rt.member_state(1), MemberState::Dead);
        // The dead actor saw nothing at or after the crash time.
        assert!(rt.node(1).received.iter().all(|&t| t < 10));
        assert_eq!(rt.stats().delivered, rt.node(1).received.len() as u64);
        // Post-crash sends fail the locality check (node 1 left every
        // neighbor row) instead of entering the link layer.
        assert!(rt.stats().non_neighbor_sends > 0);
        assert_eq!(rt.stats().crashes, 1);
        // Node 0 was notified exactly once (its row changed).
        assert_eq!(rt.stats().reconvergences, 1);
    }

    /// A graceful leaver keeps processing what is already queued for it.
    #[test]
    fn graceful_leaver_drains_in_flight_packets() {
        let mut rt = Runtime::new(pingers(2), &line(2), 1.5, FaultConfig::ideal(), 11);
        rt.set_churn_plan(&ChurnPlan::new().leave(10, 1));
        rt.start();
        assert!(rt.run_with_limit(u64::MAX));
        // The in-flight packet (sent t=9, due t=10) is still delivered.
        assert_eq!(rt.stats().link_lost, 0);
        assert_eq!(rt.member_state(1), MemberState::Draining);
        assert!(rt.node(1).received.contains(&10));
        assert!(rt.node(1).received.iter().all(|&t| t <= 10));
    }

    /// Greets its radio neighborhood whenever it changes.
    #[derive(Debug, Clone)]
    struct Greeter;

    impl Actor for Greeter {
        type Msg = Token;

        fn on_message(&mut self, _ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {}

        fn on_neighborhood_change(&mut self, ctx: &mut Ctx<Token>, _nbrs: &[u32], _pos: Point) {
            ctx.broadcast(Token);
        }
    }

    /// A re-convergence callback's broadcast fans out over the node's
    /// new row: the joiner reaches node 1, and node 1 reaches both of
    /// its neighbors.
    #[test]
    fn reconvergence_broadcast_reaches_the_new_row() {
        let nodes = vec![Greeter; 3];
        let mut rt = Runtime::new(nodes, &line(3), 1.5, FaultConfig::ideal(), 3);
        rt.set_churn_plan(&ChurnPlan::new().join(5, 2, Point::new(2.0, 0.0)));
        rt.start();
        rt.run();
        assert_eq!(rt.stats().reconvergences, 2);
        assert_eq!(rt.stats().broadcasts, 2);
        assert_eq!(rt.stats().sent, 3);
        assert_eq!(rt.stats().delivered, 3);
    }

    /// Same seed + same churn plan ⇒ identical digests; and a plan with
    /// churn diverges from the no-churn digest.
    #[test]
    fn churn_runs_replay_deterministically() {
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let plan = ChurnPlan::new()
            .drift(6, 2, Point::new(0.5, 0.9))
            .crash(12, 4)
            .drift(12, 0, Point::new(1.2, 0.3));
        let run = |with_churn: bool| {
            let mut rt = Runtime::new(pingers(6), &line(6), 1.5, faults, 21);
            if with_churn {
                rt.set_churn_plan(&plan);
            }
            rt.start();
            rt.run();
            rt.transcript().digest()
        };
        assert_eq!(run(true), run(true));
        assert_ne!(run(true), run(false));
    }

    /// A pending joiner is invisible (no on_start, absent from rows)
    /// until its join boundary, after which it participates normally.
    #[test]
    fn joiner_is_invisible_until_join_time() {
        let mut rt = Runtime::new(pingers(3), &line(3), 1.5, FaultConfig::ideal(), 13);
        // Node 2 starts pending far away and joins next to node 1.
        rt.set_churn_plan(&ChurnPlan::new().join(5, 2, Point::new(2.0, 0.0)));
        assert_eq!(rt.member_state(2), MemberState::Pending);
        assert_eq!(rt.radio_neighbors(1), &[0], "pending node not in rows");
        rt.start();
        assert!(rt.run_with_limit(u64::MAX));
        assert_eq!(rt.member_state(2), MemberState::Alive);
        assert_eq!(rt.radio_neighbors(1), &[0, 2]);
        assert_eq!(rt.stats().joins, 1);
        // Joiner + node 1 (changed row) re-converged; node 0 unaffected.
        assert_eq!(rt.stats().reconvergences, 2);
    }
}
