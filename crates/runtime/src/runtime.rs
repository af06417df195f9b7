//! The runtime driver: owns the nodes, the event queue, the fault model,
//! and per-link RNG streams — so every run is bit-for-bit replayable from
//! `(nodes, positions, faults, seed)` on any execution layout.
//!
//! # Determinism under sharding
//!
//! Three mechanisms make the sequential executor and the sharded executor
//! ([`Runtime::run_sharded`]) produce identical replay digests:
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
//!    each lookahead-window boundary ([`crate::stats::WindowNotes`]).

use crate::churn::{plan_churn, rebuild_neighbors, ChurnDelta, ChurnKind, ChurnSchedule};
use crate::event::{EventKey, EventKind, EventQueue, Payload};
use crate::fault::{FaultConfig, TransmitOutcome};
use crate::node::{Actor, Ctx, Message};
use crate::stats::{KindTable, NetStats, Tag, Transcript, WindowNotes};
use crate::{ChurnPlan, MemberState};
use adhoc_geom::{GridIndex, Point};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

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
/// variable (default 1 = sequential).
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
    pub(crate) nodes: Vec<A>,
    /// Radio neighbors (indices within `range`), per node.
    pub(crate) neighbors: Vec<Vec<u32>>,
    /// Node positions (kept for spatial shard partitioning).
    pub(crate) positions: Vec<Point>,
    /// Radio range (spatial shard cell side).
    pub(crate) range: f64,
    pub(crate) queue: EventQueue<A::Msg>,
    pub(crate) faults: FaultConfig,
    pub(crate) seed: u64,
    /// Per-directed-link RNG streams and copy counters, one row per
    /// sending node, created lazily.
    pub(crate) links: Vec<LinkRow>,
    /// Per-node timer arm counters (feed [`EventKey::timer`] seqs).
    pub(crate) arm_seq: Vec<u64>,
    pub(crate) now: u64,
    /// Index of the lookahead window currently being processed.
    cur_window: u64,
    /// Membership state per node (all `Alive` without a churn plan).
    pub(crate) membership: Vec<MemberState>,
    /// Pending churn batches, sorted by (lookahead-aligned) time.
    pub(crate) churn: ChurnSchedule,
    /// Time of the last scheduled perturbation (0 without churn).
    last_churn: u64,
    /// Set by [`Self::start`]; churn plans must be installed before it.
    started: bool,
    pub(crate) stats: NetStats,
    /// Per-kind counts of the current window.
    kinds: KindTable,
    pub(crate) trace: Transcript,
    /// Per-node sub-digests for the current window.
    pub(crate) notes: WindowNotes,
    /// Reused effect buffer: one `Ctx` serves every callback so the
    /// per-event hot path performs no allocations (the vectors keep their
    /// capacity across events).
    scratch: Ctx<A::Msg>,
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
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        if n > 0 {
            let grid = GridIndex::build(positions, range);
            for u in 0..n as u32 {
                grid.for_each_within(positions[u as usize], range, |v| {
                    if v != u {
                        neighbors[u as usize].push(v);
                    }
                });
                // for_each_within order is grid-cell dependent; sort for a
                // stable broadcast fan-out order.
                neighbors[u as usize].sort_unstable();
            }
        }
        Runtime {
            nodes,
            neighbors,
            positions: positions.to_vec(),
            range,
            queue: EventQueue::new(),
            faults,
            seed,
            links: vec![LinkRow::default(); n],
            arm_seq: vec![0; n],
            now: 0,
            cur_window: 0,
            membership: vec![MemberState::Alive; n],
            churn: ChurnSchedule::default(),
            last_churn: 0,
            started: false,
            stats: NetStats::default(),
            kinds: KindTable::default(),
            trace: Transcript::new(false),
            notes: WindowNotes::new(n, false),
            scratch: Ctx::default(),
        }
    }

    /// Keep the full human-readable event log (off by default; the digest
    /// is always maintained). Entries appear grouped by node within each
    /// lookahead window — the canonical fold order.
    pub fn record_trace(&mut self, record: bool) {
        self.trace = Transcript::new(record);
        self.notes = WindowNotes::new(self.nodes.len(), record);
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// The replay transcript.
    pub fn transcript(&self) -> &Transcript {
        &self.trace
    }

    /// Immutable view of a node's actor state.
    pub fn node(&self, id: u32) -> &A {
        &self.nodes[id as usize]
    }

    /// All node actors, in id order.
    pub fn nodes(&self) -> &[A] {
        &self.nodes
    }

    /// The radio neighbors of `id` (sorted).
    pub fn radio_neighbors(&self, id: u32) -> &[u32] {
        &self.neighbors[id as usize]
    }

    /// Current membership state of `id`.
    pub fn member_state(&self, id: u32) -> MemberState {
        self.membership[id as usize]
    }

    /// Current node positions (reflecting any drifts applied so far).
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Virtual time of the last scheduled perturbation; 0 without churn.
    pub fn last_churn_time(&self) -> u64 {
        self.last_churn
    }

    /// Install a churn/mobility plan. Must be called before
    /// [`Self::start`]; entry times snap up to lookahead-window
    /// boundaries so perturbations land exactly at sharded epoch barriers
    /// (digest stability across executors). Panics on an inconsistent
    /// plan — see [`ChurnPlan`].
    pub fn set_churn_plan(&mut self, plan: &ChurnPlan) {
        assert!(
            !self.started,
            "set_churn_plan must be called before start()"
        );
        let planned = plan_churn(plan, self.nodes.len(), self.lookahead());
        // Joiners sit at their spawn position from t = 0: the spatial
        // shard partition (and hence worker assignment) is fixed up front.
        for &(node, pos) in &planned.spawn_positions {
            self.positions[node as usize] = pos;
        }
        self.membership = planned.membership;
        self.last_churn = planned.schedule.last_time();
        self.churn = planned.schedule;
        self.neighbors = rebuild_neighbors(&self.positions, &self.membership, self.range);
    }

    /// The conservative lookahead: no transmission can arrive sooner than
    /// this many ticks after it was sent, so shards advanced in windows
    /// of this width only exchange messages at window boundaries.
    pub(crate) fn lookahead(&self) -> u64 {
        self.faults.min_delay()
    }

    /// End the current digest window: sample the pending-event count,
    /// fold per-node sub-digests into the transcript in node-id order,
    /// and fold the window's per-kind counts into the stats.
    fn fold_window(&mut self) {
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len());
        self.notes.fold_into(&mut self.trace);
        self.kinds.fold_into(&mut self.stats);
    }

    /// Deliver `on_start` to every node (in id order) at time 0, then
    /// fold any records it produced (drops of time-0 sends) as a
    /// pseudo-window of their own.
    pub fn start(&mut self) {
        self.started = true;
        for id in 0..self.nodes.len() as u32 {
            // Pending joiners get no `on_start`; their bootstrap is the
            // `on_neighborhood_change` at their join boundary.
            if self.membership[id as usize] != MemberState::Alive {
                continue;
            }
            let mut ctx = std::mem::take(&mut self.scratch);
            ctx.reset(id, self.now);
            self.nodes[id as usize].on_start(&mut ctx);
            self.flush(&mut ctx);
            self.scratch = ctx;
        }
        self.fold_window();
    }

    /// Process events until the queue is empty or `max_events` have been
    /// handled; returns true iff the run went quiescent. Protocols are
    /// responsible for termination (bounded timer schedules); the cap is a
    /// backstop against runaway retransmit loops.
    ///
    /// Capped runs stay on the sequential executor and fold whatever
    /// partial window is open when the cap strikes, so a capped digest
    /// only matches another identically-capped run.
    pub fn run_with_limit(&mut self, max_events: u64) -> bool {
        let lookahead = self.lookahead();
        let mut remaining = max_events;
        loop {
            let next_event = self.queue.peek_time();
            // A churn batch due at `tc` applies before any event at `tc`:
            // perturbation times are lookahead-aligned, so this is
            // exactly the sharded executor's epoch-barrier cut.
            if let Some(tc) = self.churn.peek_time() {
                if next_event.is_none_or(|t| tc <= t) {
                    // Every earlier event is processed; close its window.
                    self.fold_window();
                    self.cur_window = tc / lookahead;
                    debug_assert!(tc >= self.now, "churn time must be monotone");
                    // `flush` in the re-convergence callbacks stamps
                    // records with `self.now`.
                    self.now = tc;
                    let delta = self.apply_churn_batch();
                    self.apply_churn_local(&delta);
                    continue;
                }
            }
            let Some(t) = next_event else {
                self.fold_window();
                return true;
            };
            if remaining == 0 {
                break;
            }
            remaining -= 1;
            let window = t / lookahead;
            if window > self.cur_window {
                self.fold_window();
                self.cur_window = window;
            }
            let ev = self.queue.pop().expect("peeked event vanished");
            debug_assert!(ev.time >= self.now, "time must be monotone");
            self.now = ev.time;
            let node = ev.key.node;
            // Events addressed to a crashed node are accounted, not run.
            if self.membership[node as usize] == MemberState::Dead {
                match ev.kind {
                    EventKind::Deliver { msg } => {
                        self.stats.link_lost += 1;
                        self.notes
                            .note_msg(Tag::Lost, self.now, ev.key.src, node, msg.get());
                    }
                    EventKind::Timer { timer } => {
                        self.stats.timers_abandoned += 1;
                        self.notes.note_timer(Tag::Abandoned, self.now, node, timer);
                    }
                }
                continue;
            }
            match ev.kind {
                EventKind::Deliver { msg } => {
                    let from = ev.key.src;
                    self.stats.delivered += 1;
                    self.kinds.get(msg.get().kind()).delivered += 1;
                    self.notes
                        .note_msg(Tag::Deliver, self.now, from, node, msg.get());
                    let mut ctx = std::mem::take(&mut self.scratch);
                    ctx.reset(node, self.now);
                    self.nodes[node as usize].on_message(&mut ctx, from, msg.into_msg());
                    self.flush(&mut ctx);
                    self.scratch = ctx;
                }
                EventKind::Timer { timer } => {
                    self.stats.timers_fired += 1;
                    self.notes.note_timer(Tag::Timer, self.now, node, timer);
                    let mut ctx = std::mem::take(&mut self.scratch);
                    ctx.reset(node, self.now);
                    self.nodes[node as usize].on_timer(&mut ctx, timer);
                    self.flush(&mut ctx);
                    self.scratch = ctx;
                }
            }
        }
        self.fold_window();
        self.queue.is_empty() && self.churn.peek_time().is_none()
    }

    /// Apply the next due churn batch to the coordinating runtime's
    /// membership, positions, and neighbor rows, and compute the
    /// [`ChurnDelta`] every executor must apply: changed rows plus the
    /// live nodes whose one-hop world changed (new/lost neighbor rows,
    /// neighbors that drifted, or being a perturbation subject).
    pub(crate) fn apply_churn_batch(&mut self) -> ChurnDelta {
        let (time, entries) = self.churn.take_batch();
        let mut drifted: Vec<u32> = Vec::new();
        for e in &entries {
            match e.kind {
                ChurnKind::Join(pos) => {
                    self.positions[e.node as usize] = pos;
                    self.membership[e.node as usize] = MemberState::Alive;
                    self.stats.joins += 1;
                }
                ChurnKind::Leave => {
                    self.membership[e.node as usize] = MemberState::Draining;
                    self.stats.leaves += 1;
                }
                ChurnKind::Crash => {
                    self.membership[e.node as usize] = MemberState::Dead;
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
        let new_rows = rebuild_neighbors(&self.positions, &self.membership, self.range);
        let mut rows = Vec::new();
        let mut affected = BTreeSet::new();
        for (u, new_row) in new_rows.iter().enumerate() {
            if *new_row != self.neighbors[u] {
                rows.push((u as u32, new_row.clone()));
                affected.insert(u as u32);
            } else if !drifted.is_empty()
                && self.membership[u] == MemberState::Alive
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
        affected.retain(|&u| self.membership[u as usize].processes_events());
        self.neighbors = new_rows;
        self.stats.reconvergences += affected.len() as u64;
        let affected = affected
            .into_iter()
            .map(|u| (u, self.positions[u as usize]))
            .collect();
        ChurnDelta {
            time,
            entries,
            rows,
            affected,
        }
    }

    /// Apply one churn batch's local effects: note the perturbation
    /// records (plan order) and run the re-convergence callbacks of the
    /// affected nodes this executor owns (all of them, sequentially).
    /// Requires `self.now == delta.time` and `self.neighbors` /
    /// `self.membership` already updated by [`Self::apply_churn_batch`].
    pub(crate) fn apply_churn_local(&mut self, delta: &ChurnDelta) {
        for e in &delta.entries {
            self.notes.note_churn(delta.time, e.node, &e.kind);
        }
        for &(node, pos) in &delta.affected {
            let mut ctx = std::mem::take(&mut self.scratch);
            ctx.reset(node, delta.time);
            let row = std::mem::take(&mut self.neighbors[node as usize]);
            self.nodes[node as usize].on_neighborhood_change(&mut ctx, &row, pos);
            self.neighbors[node as usize] = row;
            self.flush(&mut ctx);
            self.scratch = ctx;
        }
    }

    /// Run to quiescence on the sequential executor (see
    /// [`Self::run_with_limit`]).
    pub fn run(&mut self) -> u64 {
        self.run_with_limit(u64::MAX);
        self.now
    }

    /// Drain one callback's effect buffer, applying link faults to every
    /// outgoing copy in emission order. The buffer is drained in place so
    /// its capacity is reused by the next callback.
    fn flush(&mut self, ctx: &mut Ctx<A::Msg>) {
        let node = ctx.node;
        for (to, msg) in ctx.sends.drain(..) {
            self.transmit(node, to, msg);
        }
        for msg in ctx.broadcasts.drain(..) {
            self.stats.broadcasts += 1;
            // One shared payload for the whole fan-out; fan-out order is
            // the sorted neighbor list. Targets come straight from that
            // list, so the per-unicast locality check in `transmit` is
            // skipped here.
            let shared = std::sync::Arc::new(msg);
            let nbrs = std::mem::take(&mut self.neighbors[node as usize]);
            for &to in &nbrs {
                self.transmit_link(node, to, Payload::Shared(shared.clone()));
            }
            self.neighbors[node as usize] = nbrs;
        }
        for (at, timer) in ctx.timers.drain(..) {
            self.stats.timers_set += 1;
            let seq = self.arm_seq[node as usize];
            self.arm_seq[node as usize] += 1;
            self.queue
                .push(at, EventKey::timer(node, seq), EventKind::Timer { timer });
        }
    }

    /// Validate a unicast against the `G*` locality discipline, then hand
    /// it to the link layer. A nonexistent target is a programming error
    /// (panic with a clear message); an in-plane but out-of-range target
    /// is physically unreachable — the copy is discarded and counted in
    /// [`NetStats::non_neighbor_sends`].
    fn transmit(&mut self, from: u32, to: u32, msg: A::Msg) {
        let n = self.nodes.len() as u32;
        assert!(
            to < n,
            "node {from} sent {:?} to nonexistent node {to} (only {n} nodes exist)",
            msg
        );
        if from == to || self.neighbors[from as usize].binary_search(&to).is_err() {
            self.stats.non_neighbor_sends += 1;
            self.notes
                .note_msg(Tag::NonNeighbor, self.now, from, to, &msg);
            return;
        }
        self.transmit_link(from, to, Payload::Own(msg));
    }

    /// Push one copy across a radio link, applying the fault model on the
    /// link's private RNG stream.
    fn transmit_link(&mut self, from: u32, to: u32, msg: Payload<A::Msg>) {
        self.stats.sent += 1;
        let counts = self.kinds.get(msg.get().kind());
        counts.sent += 1;
        let link = self.links[from as usize].link(self.seed, from, to);
        match self.faults.transmit(&mut link.rng) {
            TransmitOutcome::Dropped => {
                self.stats.dropped += 1;
                counts.dropped += 1;
                self.notes
                    .note_msg(Tag::Drop, self.now, from, to, msg.get());
            }
            TransmitOutcome::Delivered(d) => {
                let seq = link.copies;
                link.copies += 1;
                self.queue.push(
                    self.now + d,
                    EventKey::deliver(from, to, seq),
                    EventKind::Deliver { msg },
                );
            }
            TransmitOutcome::Duplicated(d1, d2) => {
                self.stats.duplicated += 1;
                let seq = link.copies;
                link.copies += 2;
                self.queue.push(
                    self.now + d1,
                    EventKey::deliver(from, to, seq),
                    EventKind::Deliver { msg: msg.clone() },
                );
                self.queue.push(
                    self.now + d2,
                    EventKey::deliver(from, to, seq + 1),
                    EventKind::Deliver { msg },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;

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
