//! The runtime driver: the coordinator of a run over the event loop in
//! [`crate::shard`], so that every run is bit-for-bit replayable from
//! `(nodes, positions, faults, seed)` at any thread count.
//!
//! # One event loop
//!
//! A [`Runtime`] keeps the coordinator state — master positions,
//! membership and radio rows, the churn schedule, the transcript and the
//! stats — and, between runs, one core that owns every node.
//! [`Runtime::run`] on one thread and [`Runtime::run_with_limit`] drive
//! that core inline; [`Runtime::run`] on more threads splits it into one
//! core per worker thread and merges them back at the end. Both go
//! through the same epoch loop: find the earliest pending event, apply
//! any due churn batch, advance every core to the end of the lookahead
//! window, fold.
//!
//! # Determinism under sharding
//!
//! Three mechanisms make the replay digest independent of how many cores
//! share the nodes:
//!
//! 1. **Per-node fault draws.** Each node numbers its timers and
//!    transmissions with one counter, and a transmission's fate
//!    (drop/delay/duplicate) comes from a SplitMix64 stream keyed by
//!    `(seed, sender, event number)` (`fault::Draws`). It depends only
//!    on the sender's deterministic local event order, never on global
//!    scheduling history or thread interleaving, and no link keeps any
//!    state.
//! 2. **Canonical event order.** Events tie-break by [`EventKey`]
//!    `(node, class, src, seq)` instead of global insertion order, so
//!    per-node event streams are layout-invariant (see
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
use std::collections::BTreeSet;
use std::sync::Arc;

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
/// (the paper's `G*` neighborhood); each link-level transmission
/// independently passes through the [`FaultConfig`], on draws keyed by
/// its sender and that sender's event number.
#[derive(Debug)]
pub struct Runtime<A: Actor> {
    pub(crate) coord: Coordinator,
    /// Between runs, the one core that owns every node.
    pub(crate) core: Shard<A>,
}

/// The coordinator state of a run: everything but the nodes, their
/// pending events and their event counters, which live in the cores.
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
    /// Set once [`Runtime::start`] has run.
    started: bool,
    pub(crate) stats: NetStats,
    trace: Transcript,
    /// Latest virtual time reached: an event handled or a churn batch.
    pub(crate) now: u64,
}

/// The cores one epoch loop drives: the runtime's own core inline, or
/// the worker threads of a threaded [`Runtime::run`].
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
    /// Build a runtime over `nodes` at the given positions under the
    /// churn/mobility `plan` (`&ChurnPlan::new()` for a static network);
    /// node `i` sits at `positions[i]` and its broadcasts reach every node
    /// within `range`. Plan entry times snap up to lookahead-window
    /// boundaries so perturbations land exactly at epoch barriers (digest
    /// stability at any thread count). Panics on an inconsistent plan —
    /// see [`ChurnPlan`].
    pub fn new(
        nodes: Vec<A>,
        positions: &[Point],
        range: f64,
        faults: FaultConfig,
        seed: u64,
        plan: &ChurnPlan,
    ) -> Self {
        assert_eq!(nodes.len(), positions.len(), "one position per node");
        assert!(range.is_finite() && range > 0.0, "range must be positive");
        faults.validate();
        let lookahead = faults.min_delay();
        let planned = plan_churn(plan, nodes.len(), lookahead);
        // Joiners sit at their spawn position from t = 0: the spatial
        // shard partition (and hence worker assignment) is fixed up front.
        let mut positions = positions.to_vec();
        for &(node, pos) in &planned.spawn_positions {
            positions[node as usize] = pos;
        }
        let radio = Radio::new(&positions, planned.membership, range);
        Runtime {
            core: Shard::new(nodes, Arc::clone(&radio), faults, seed),
            coord: Coordinator {
                positions,
                range,
                lookahead,
                radio,
                last_churn: planned.schedule.last_time(),
                churn: planned.schedule,
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

    /// Deliver `on_start` to every live node (in id order) at time 0,
    /// then fold any records it produced (drops of time-0 sends) as a
    /// pseudo-window of their own. Runs once: [`Self::run`] and
    /// [`Self::run_with_limit`] call it, and later calls do nothing.
    pub fn start(&mut self) {
        if std::mem::replace(&mut self.coord.started, true) {
            return;
        }
        let mut folds = WindowFolds::default();
        let pending = self.core.start(&mut folds);
        self.coord.fold(pending, &mut folds);
        self.settle();
    }

    /// Start the run if needed, then process events on the inline
    /// one-shard core until the run goes quiescent or `max_events` have
    /// been handled; returns true iff the run went quiescent. Protocols
    /// are responsible for termination (bounded timer schedules); the cap
    /// is a backstop against runaway retransmit loops.
    ///
    /// A capped run folds whatever partial window is open when the cap
    /// strikes, so a capped digest only matches another identically
    /// capped run.
    pub fn run_with_limit(&mut self, max_events: u64) -> bool {
        self.start();
        let quiescent = self.coord.drive(&mut self.core, max_events);
        self.settle();
        quiescent
    }

    /// Move the core's counters into the run's stats.
    pub(crate) fn settle(&mut self) {
        self.coord
            .stats
            .absorb(&std::mem::take(&mut self.core.stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DelayDist, Draws, TransmitOutcome};
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
        Runtime::new(nodes, &line(n), 1.5, faults, seed, &ChurnPlan::new())
    }

    #[test]
    fn flood_reaches_everyone_on_ideal_links() {
        let mut rt = flood(10, FaultConfig::ideal(), 1);
        rt.run(1);
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
            rt.run(1);
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

    /// Sends `left` unicasts to `to`, one per tick, and ignores what it
    /// receives; silent when `to` is `None`.
    #[derive(Debug, Clone)]
    struct Streamer {
        to: Option<u32>,
        left: u32,
    }

    impl Actor for Streamer {
        type Msg = Token;

        fn on_start(&mut self, ctx: &mut Ctx<Token>) {
            if self.to.is_some() {
                ctx.set_timer(1, 0);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Token>, _from: u32, _msg: Token) {}

        fn on_timer(&mut self, ctx: &mut Ctx<Token>, _timer: u32) {
            if let (Some(to), 1..) = (self.to, self.left) {
                self.left -= 1;
                ctx.send(to, Token);
                ctx.set_timer(1, 0);
            }
        }
    }

    /// A node's fault fates are a pure function of (seed, node, event
    /// number): node 0's drops and arrivals follow from `Draws` at the
    /// numbers its own events took (its start timer took 0; each tick
    /// then takes two for the send and one for the next timer), and
    /// neighbours streaming at it and past it change none of them.
    #[test]
    fn fault_fates_are_a_pure_function_of_seed_node_and_event_number() {
        let f = FaultConfig {
            drop_prob: 0.3,
            duplicate_prob: 0.2,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let node0_records = |others: bool| {
            let to = |id: u32| match id {
                0 => Some(1),
                _ if others => Some(id - 1),
                _ => None,
            };
            let nodes = (0..4).map(|id| Streamer {
                to: to(id),
                left: 30,
            });
            let mut rt = Runtime::new(nodes.collect(), &line(4), 1.5, f, 5, &ChurnPlan::new());
            rt.record_trace(true);
            rt.run(1);
            let entries = rt.transcript().entries().unwrap();
            let mut mine: Vec<String> = entries
                .iter()
                .filter(|e| e.contains(" 0->1 "))
                .cloned()
                .collect();
            mine.sort();
            (mine, entries.len())
        };
        let mut expected = Vec::new();
        for k in 0..30u64 {
            let t = k + 1;
            match f.transmit(&mut Draws::new(5, 0, 1 + 3 * k)) {
                TransmitOutcome::Dropped => expected.push(format!("X t={t} 0->1 Token")),
                TransmitOutcome::Delivered(d) => expected.push(format!("D t={} 0->1 Token", t + d)),
                TransmitOutcome::Duplicated(d1, d2) => {
                    expected.push(format!("D t={} 0->1 Token", t + d1));
                    expected.push(format!("D t={} 0->1 Token", t + d2));
                }
            }
        }
        expected.sort();
        let (alone, quiet_len) = node0_records(false);
        let (busy, busy_len) = node0_records(true);
        assert_eq!(alone, expected);
        assert_eq!(busy, expected);
        assert!(busy_len > 3 * quiet_len, "the neighbours must be busy");
    }

    /// Draws are independent across a node's event numbers and across
    /// nodes: over 50 000 transmissions, a transmission and the node's
    /// next one (two numbers on), and the same number at nodes `n` and
    /// `n + 1`, are both dropped with frequency `p²` within sampling
    /// error.
    #[test]
    fn fault_draws_are_independent_across_event_numbers_and_nodes() {
        let p = 0.3;
        let f = FaultConfig::lossy(p);
        let dropped = |node: u32, seq: u64| {
            f.transmit(&mut Draws::new(11, node, seq)) == TransmitOutcome::Dropped
        };
        let n = 50_000u32;
        let (mut single, mut next_number, mut next_node) = (0, 0, 0);
        for i in 0..n {
            let (node, seq) = (i % 1000, u64::from(i / 1000) * 2);
            let here = dropped(node, seq);
            single += u32::from(here);
            next_number += u32::from(here && dropped(node, seq + 2));
            next_node += u32::from(here && dropped(node + 1, seq));
        }
        let freq = |c: u32| f64::from(c) / f64::from(n);
        // Five standard deviations of a frequency near p² over n trials.
        let tol = 5.0 * (p * p * (1.0 - p * p) / f64::from(n)).sqrt();
        for (what, c) in [
            ("event numbers k, k+2", next_number),
            ("nodes n, n+1", next_node),
        ] {
            assert!(
                (freq(c) - p * p).abs() < tol,
                "{what}: joint drop frequency {}, expected {} ± {tol}",
                freq(c),
                p * p
            );
        }
        assert!(
            (freq(single) - p).abs() < 0.01,
            "drop rate {}",
            freq(single)
        );
    }

    #[test]
    fn total_loss_stops_the_flood() {
        let mut rt = flood(5, FaultConfig::lossy(1.0), 3);
        rt.run(1);
        assert!(rt.node(0).seen);
        assert!(!rt.nodes()[1..].iter().any(|f| f.seen));
        assert_eq!(rt.stats().delivered, 0);
        assert_eq!(rt.stats().sent, rt.stats().dropped);
    }

    /// `run` starts the run itself, once: an explicit `start` before it
    /// changes nothing.
    #[test]
    fn run_starts_the_run_once() {
        let run = |start_first: bool| {
            let mut rt = flood(10, FaultConfig::lossy(0.2), 6);
            if start_first {
                rt.start();
            }
            rt.run(1);
            (rt.transcript().digest(), rt.stats().clone())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn run_with_limit_caps_events() {
        let mut rt = flood(30, FaultConfig::ideal(), 4);
        let quiescent = rt.run_with_limit(3);
        assert!(!quiescent);
    }

    /// The cap counts handled events exactly, capped runs replay
    /// identically, and an unlimited cap is a plain `run()`. Nodes stream
    /// at each other in pairs (0 and 1, 2 and 3, 4 and 5) while node 1
    /// crashes mid-stream, so the run has in-flight losses and abandoned
    /// timers as well as deliveries and firings.
    #[test]
    fn run_with_limit_handles_exactly_the_budget() {
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 3 },
        };
        let handled =
            |s: &NetStats| s.delivered + s.timers_fired + s.link_lost + s.timers_abandoned;
        let build = || {
            let nodes = (0..6).map(|id| Streamer {
                to: Some(id ^ 1),
                left: 20,
            });
            let plan = ChurnPlan::new().crash(12, 1);
            Runtime::new(nodes.collect(), &line(6), 1.5, faults, 17, &plan)
        };
        let capped = |cap: u64| {
            let mut rt = build();
            let quiescent = rt.run_with_limit(cap);
            (quiescent, handled(rt.stats()), rt.transcript().digest())
        };
        let mut full = build();
        full.run(1);
        let total = handled(full.stats());
        assert!(total > 100, "run too short: {total} events");
        assert!(full.stats().link_lost > 0 && full.stats().timers_abandoned > 0);
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
        Runtime::new(
            nodes,
            &line(n),
            1.5,
            FaultConfig::ideal(),
            9,
            &ChurnPlan::new(),
        )
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn unicast_to_nonexistent_node_panics_clearly() {
        let mut rt = send_to(3, Some(99));
        rt.run(1);
    }

    #[test]
    fn out_of_range_unicast_is_dropped_and_counted() {
        // Node 3 is 3 units from node 0 — in the plane, out of radio
        // range (1.5). The copy must never be delivered, and it must not
        // perturb the link-level sent/dropped ledger.
        let mut rt = send_to(4, Some(3));
        rt.run(1);
        assert_eq!(rt.stats().non_neighbor_sends, 1);
        assert_eq!(rt.stats().sent, 0);
        assert_eq!(rt.stats().delivered, 0);
        assert_eq!(rt.stats().dropped, 0);
    }

    #[test]
    fn self_send_is_a_non_neighbor_send() {
        let mut rt = send_to(2, Some(0));
        rt.run(1);
        assert_eq!(rt.stats().non_neighbor_sends, 1);
        assert_eq!(rt.stats().delivered, 0);
    }

    #[test]
    fn in_range_unicast_still_delivers() {
        let mut rt = send_to(2, Some(1));
        rt.run(1);
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
        let mut rt = Runtime::new(
            pingers(2),
            &line(2),
            1.5,
            FaultConfig::ideal(),
            11,
            &ChurnPlan::new().crash(10, 1),
        );
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
        let mut rt = Runtime::new(
            pingers(2),
            &line(2),
            1.5,
            FaultConfig::ideal(),
            11,
            &ChurnPlan::new().leave(10, 1),
        );
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
        let mut rt = Runtime::new(
            nodes,
            &line(3),
            1.5,
            FaultConfig::ideal(),
            3,
            &ChurnPlan::new().join(5, 2, Point::new(2.0, 0.0)),
        );
        rt.run(1);
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
        let run = |plan: &ChurnPlan| {
            let mut rt = Runtime::new(pingers(6), &line(6), 1.5, faults, 21, plan);
            rt.run(1);
            rt.transcript().digest()
        };
        assert_eq!(run(&plan), run(&plan));
        assert_ne!(run(&plan), run(&ChurnPlan::new()));
    }

    /// A pending joiner is invisible (no on_start, absent from rows)
    /// until its join boundary, after which it participates normally.
    #[test]
    fn joiner_is_invisible_until_join_time() {
        // Node 2 starts pending far away and joins next to node 1.
        let plan = ChurnPlan::new().join(5, 2, Point::new(2.0, 0.0));
        let mut rt = Runtime::new(pingers(3), &line(3), 1.5, FaultConfig::ideal(), 13, &plan);
        assert_eq!(rt.member_state(2), MemberState::Pending);
        assert_eq!(rt.radio_neighbors(1), &[0], "pending node not in rows");
        assert!(rt.run_with_limit(u64::MAX));
        assert_eq!(rt.member_state(2), MemberState::Alive);
        assert_eq!(rt.radio_neighbors(1), &[0, 2]);
        assert_eq!(rt.stats().joins, 1);
        // Joiner + node 1 (changed row) re-converged; node 0 unaffected.
        assert_eq!(rt.stats().reconvergences, 2);
    }
}
