//! The event loop: one `Shard` core per set of nodes, and the threaded
//! driver that runs several of them under conservative lookahead with
//! bit-identical replay digests.
//!
//! # Design
//!
//! A core owns its nodes, their pending events, and the RNG streams of
//! every directed link *originating* at one of its nodes. It is the
//! runtime's only event loop. Between runs a [`Runtime`] holds one core
//! that owns every node and drives it inline. [`Runtime::run_sharded`]
//! partitions nodes into spatial shards by grid cell (cell side = the
//! radio range, the same cell notion as `adhoc_geom::GridIndex`), splits
//! the core into one core per shard on worker threads (vendored
//! `rayon::scope`, real OS threads), and merges them back at the end.
//! Either way the coordinator advances the cores through **epochs**:
//! half-open windows `[k·L, (k+1)·L)` where `L` is the fault model's
//! minimum link delay (≥ 1 tick). Because every transmission takes at
//! least `L` ticks, a message sent during epoch `k` cannot arrive before
//! epoch `k+1` — so within an epoch each core is causally independent,
//! and cross-shard messages are exchanged at the barrier between epochs.
//! Timers are node-local and may fire intra-epoch; they never cross
//! shards.
//!
//! # Why the digest is stable
//!
//! * Each directed link's fault fates come from its own RNG stream,
//!   advanced in the sender's deterministic emission order — identical
//!   whether the sender's core runs first, last, or alone.
//! * Events tie-break by the canonical [`EventKey`], so each node
//!   processes its events in the same order under any layout.
//! * Event records accumulate in per-node sub-digests and are folded
//!   into the global digest in node-id order at each epoch barrier,
//!   whatever the number of cores.
//!
//! The result: `run()`, `run_sharded(1)`, and `run_sharded(8)` produce
//! bit-identical transcripts, stats, and actor states.

use crate::churn::{ChurnDelta, Radio};
use crate::event::{Event, EventKey, EventKind, EventQueue, Payload};
use crate::fault::{FaultConfig, TransmitOutcome};
use crate::node::{Actor, Ctx, Message};
use crate::runtime::{Cores, LinkRow, Runtime};
use crate::stats::{KindTable, NetStats, Tag, WindowFolds, WindowNotes};
use crate::MemberState;
use adhoc_geom::Point;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// Assign each node to a shard: nodes sharing a grid cell (side =
/// `range`) stay together, distinct cells round-robin over at most
/// `threads` shards. Returns `(shard_of_node, shard_count)`.
fn partition(positions: &[Point], range: f64, threads: usize) -> (Vec<u32>, usize) {
    let cell = |p: &Point| ((p.x / range).floor() as i64, (p.y / range).floor() as i64);
    let mut cells: Vec<(i64, i64)> = positions.iter().map(cell).collect();
    let mut distinct = cells.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let shards = threads.min(distinct.len()).max(1);
    let shard_of = cells
        .drain(..)
        .map(|c| {
            let idx = distinct.binary_search(&c).expect("cell must be present");
            (idx % shards) as u32
        })
        .collect();
    (shard_of, shards)
}

/// [`Shard::slot`] of a node another core owns.
const FOREIGN: u32 = u32::MAX;

/// One core of the event loop: a self-contained slice of the runtime
/// state. Per-node tables are full length and indexed by node id; only
/// the entries of owned nodes are used.
#[derive(Debug)]
pub(crate) struct Shard<A: Actor> {
    /// The actors this core owns, in node-id order.
    pub(crate) nodes: Vec<A>,
    /// Index into `nodes` per node id, [`FOREIGN`] for other cores'
    /// nodes.
    slot: Vec<u32>,
    queue: EventQueue<A::Msg>,
    /// The RNG streams of directed links originating at owned nodes.
    links: Vec<LinkRow>,
    /// Timer arm counters (feed [`EventKey::timer`] seqs).
    arm_seq: Vec<u64>,
    /// The coordinator's membership and neighbor rows, swapped for the
    /// new ones at each churn batch ([`ChurnDelta::radio`]).
    pub(crate) radio: Arc<Radio>,
    faults: FaultConfig,
    seed: u64,
    /// Counters since the coordinator last took them.
    pub(crate) stats: NetStats,
    /// Per-kind counts of the current epoch.
    kinds: KindTable,
    /// Per-node sub-digests of the current epoch.
    notes: WindowNotes,
    /// Reused effect buffer: one `Ctx` serves every callback so the
    /// per-event hot path performs no allocations (the vectors keep their
    /// capacity across events).
    scratch: Ctx<A::Msg>,
    /// Deliveries bound for other cores, handed over at the epoch barrier.
    outbox: Vec<Event<A::Msg>>,
    /// Time of the last event handled.
    now: u64,
}

impl<A: Actor> Shard<A> {
    /// The core that owns every node of a run: `nodes` in id order, one
    /// per neighbor row.
    pub(crate) fn new(nodes: Vec<A>, radio: Arc<Radio>, faults: FaultConfig, seed: u64) -> Self {
        let n = radio.neighbors.len();
        Shard {
            slot: (0..n as u32).collect(),
            nodes,
            queue: EventQueue::new(),
            links: vec![LinkRow::default(); n],
            arm_seq: vec![0; n],
            radio,
            faults,
            seed,
            stats: NetStats::default(),
            kinds: KindTable::default(),
            notes: WindowNotes::new(n, false),
            scratch: Ctx::default(),
            outbox: Vec::new(),
            now: 0,
        }
    }

    /// Render event records as text too (see [`Runtime::record_trace`]).
    pub(crate) fn record_trace(&mut self, record: bool) {
        self.notes = WindowNotes::new(self.slot.len(), record);
    }

    fn owns(&self, node: u32) -> bool {
        self.slot[node as usize] != FOREIGN
    }

    /// Deliver `on_start` to every live node in id order, then end the
    /// pseudo-window it opened; returns the events now pending.
    pub(crate) fn start(&mut self, folds: &mut WindowFolds) -> usize {
        let now = self.now;
        for node in 0..self.slot.len() as u32 {
            // Pending joiners get no `on_start`; their bootstrap is the
            // `on_neighborhood_change` at their join boundary.
            if self.radio.membership[node as usize] == MemberState::Alive {
                self.callback(node, now, |a, ctx| a.on_start(ctx));
            }
        }
        self.end_epoch(folds);
        self.queue.len()
    }

    /// Handle every queued event before `until`, at most `budget` of them.
    fn advance(&mut self, until: u64, budget: &mut u64) {
        while let Some(t) = self.queue.peek_time() {
            if t >= until || *budget == 0 {
                break;
            }
            *budget -= 1;
            let ev = self.queue.pop().expect("peeked event vanished");
            debug_assert!(ev.time >= self.now, "time must be monotone");
            let (now, node) = (ev.time, ev.key.node);
            self.now = now;
            // Events addressed to a crashed node are accounted, not run.
            if self.radio.membership[node as usize] == MemberState::Dead {
                match ev.kind {
                    EventKind::Deliver { msg } => {
                        self.stats.link_lost += 1;
                        self.notes.note_msg(Tag::Lost, now, ev.key.src, node, &msg);
                    }
                    EventKind::Timer { timer } => {
                        self.stats.timers_abandoned += 1;
                        self.notes.note_timer(Tag::Abandoned, now, node, timer);
                    }
                }
                continue;
            }
            match ev.kind {
                EventKind::Deliver { msg } => {
                    let from = ev.key.src;
                    self.stats.delivered += 1;
                    self.kinds.get(msg.get().kind()).delivered += 1;
                    self.notes.note_msg(Tag::Deliver, now, from, node, &msg);
                    self.callback(node, now, |a, ctx| a.on_message(ctx, from, msg.into_msg()));
                }
                EventKind::Timer { timer } => {
                    self.stats.timers_fired += 1;
                    self.notes.note_timer(Tag::Timer, now, node, timer);
                    self.callback(node, now, |a, ctx| a.on_timer(ctx, timer));
                }
            }
        }
    }

    /// Run one callback of owned `node` at `now` and transmit its effects.
    fn callback(&mut self, node: u32, now: u64, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) {
        let mut ctx = std::mem::take(&mut self.scratch);
        ctx.reset(node, now);
        f(&mut self.nodes[self.slot[node as usize] as usize], &mut ctx);
        self.flush(&mut ctx);
        self.scratch = ctx;
    }

    /// Drain one callback's effect buffer, applying link faults to every
    /// outgoing copy in emission order. The buffer is drained in place so
    /// its capacity is reused by the next callback.
    fn flush(&mut self, ctx: &mut Ctx<A::Msg>) {
        let (node, now) = (ctx.node, ctx.now());
        let total = self.slot.len() as u32;
        for (to, msg) in ctx.sends.drain(..) {
            let msg = Payload::Own(msg);
            // The `G*` locality discipline: a nonexistent target is a
            // programming error; an in-plane but out-of-range one is
            // physically unreachable, so the copy is discarded and
            // counted in `non_neighbor_sends`.
            assert!(
                to < total,
                "node {node} sent {msg:?} to nonexistent node {to} (only {total} nodes exist)"
            );
            let in_range = self.radio.neighbors[node as usize].binary_search(&to);
            if node == to || in_range.is_err() {
                self.stats.non_neighbor_sends += 1;
                self.notes.note_msg(Tag::NonNeighbor, now, node, to, &msg);
                continue;
            }
            self.transmit_link(now, node, to, msg);
        }
        for msg in ctx.broadcasts.drain(..) {
            self.stats.broadcasts += 1;
            // One shared payload, digested once, for the whole fan-out;
            // fan-out order is the sorted neighbor list, so no locality
            // check is needed. The row is indexed, not borrowed, because
            // `transmit_link` takes the whole core.
            let shared = Payload::shared(msg);
            for i in 0..self.radio.neighbors[node as usize].len() {
                let to = self.radio.neighbors[node as usize][i];
                self.transmit_link(now, node, to, shared.clone());
            }
        }
        for (at, timer) in ctx.timers.drain(..) {
            self.stats.timers_set += 1;
            let seq = self.arm_seq[node as usize];
            self.arm_seq[node as usize] += 1;
            self.queue
                .push(at, EventKey::timer(node, seq), EventKind::Timer { timer });
        }
    }

    /// Push one copy across a radio link, applying the fault model on the
    /// link's private RNG stream.
    fn transmit_link(&mut self, now: u64, from: u32, to: u32, msg: Payload<A::Msg>) {
        self.stats.sent += 1;
        let counts = self.kinds.get(msg.get().kind());
        counts.sent += 1;
        let link = self.links[from as usize].link(self.seed, from, to);
        match self.faults.transmit(&mut link.rng) {
            TransmitOutcome::Dropped => {
                self.stats.dropped += 1;
                counts.dropped += 1;
                self.notes.note_msg(Tag::Drop, now, from, to, &msg);
            }
            TransmitOutcome::Delivered(d) => {
                let seq = link.copies;
                link.copies += 1;
                self.route(now + d, EventKey::deliver(from, to, seq), msg);
            }
            TransmitOutcome::Duplicated(d1, d2) => {
                self.stats.duplicated += 1;
                let seq = link.copies;
                link.copies += 2;
                self.route(now + d1, EventKey::deliver(from, to, seq), msg.clone());
                self.route(now + d2, EventKey::deliver(from, to, seq + 1), msg);
            }
        }
    }

    /// Queue a delivery here if this core owns the receiver, else in the
    /// outbox for the epoch barrier.
    fn route(&mut self, time: u64, key: EventKey, msg: Payload<A::Msg>) {
        let ev = Event {
            time,
            key,
            kind: EventKind::Deliver { msg },
        };
        if self.owns(key.node) {
            self.queue.insert(ev);
        } else {
            self.outbox.push(ev);
        }
    }

    /// Apply one churn batch at an epoch barrier: take the coordinator's
    /// new membership and rows, note the perturbation records of owned
    /// entry nodes (plan order), and run the re-convergence callbacks of
    /// owned affected nodes.
    fn apply_churn(&mut self, delta: &ChurnDelta) {
        self.radio = Arc::clone(&delta.radio);
        for e in &delta.entries {
            if self.owns(e.node) {
                self.notes.note_churn(delta.time, e.node, &e.kind);
            }
        }
        for &(node, pos) in &delta.affected {
            if self.owns(node) {
                let radio = Arc::clone(&self.radio);
                let row = &radio.neighbors[node as usize];
                self.callback(node, delta.time, |a, ctx| {
                    a.on_neighborhood_change(ctx, row, pos)
                });
            }
        }
    }

    /// End the current epoch: fold the per-kind counts into the stats
    /// and move the epoch's records into `folds`.
    fn end_epoch(&mut self, folds: &mut WindowFolds) {
        self.kinds.fold_into(&mut self.stats);
        self.notes.take_folds(folds);
    }

    /// Split this core, which owns every node, into `shards` cores by
    /// `shard_of`. It keeps no nodes or events until [`Self::merge`].
    fn split(&mut self, shard_of: &[u32], shards: usize) -> Vec<Shard<A>> {
        let n = self.slot.len();
        let mut parts: Vec<Shard<A>> = (0..shards)
            .map(|_| Shard {
                slot: vec![FOREIGN; n],
                arm_seq: self.arm_seq.clone(),
                notes: WindowNotes::new(n, self.notes.recording()),
                now: self.now,
                ..Shard::new(Vec::new(), Arc::clone(&self.radio), self.faults, self.seed)
            })
            .collect();
        for (id, node) in std::mem::take(&mut self.nodes).into_iter().enumerate() {
            let part = &mut parts[shard_of[id] as usize];
            part.slot[id] = part.nodes.len() as u32;
            part.nodes.push(node);
        }
        while let Some(ev) = self.queue.pop() {
            parts[shard_of[ev.key.node as usize] as usize]
                .queue
                .insert(ev);
        }
        for (from, row) in self.links.iter_mut().enumerate() {
            parts[shard_of[from] as usize].links[from] = std::mem::take(row);
        }
        parts
    }

    /// Take back every node, link row, arm counter and counter, and the
    /// latest radio, from the quiescent cores [`Self::split`] made. This
    /// core's slot table stayed the identity throughout.
    fn merge(&mut self, mut parts: Vec<Shard<A>>, shard_of: &[u32]) {
        let mut owned: Vec<_> = parts
            .iter_mut()
            .map(|p| std::mem::take(&mut p.nodes).into_iter())
            .collect();
        self.nodes = shard_of
            .iter()
            .map(|&s| owned[s as usize].next().expect("node lost in resharding"))
            .collect();
        for (id, &s) in shard_of.iter().enumerate() {
            let part = &mut parts[s as usize];
            self.arm_seq[id] = part.arm_seq[id];
            self.links[id] = std::mem::take(&mut part.links[id]);
        }
        self.radio = Arc::clone(&parts[0].radio);
        for part in &parts {
            debug_assert!(part.queue.is_empty() && part.outbox.is_empty());
            self.stats.absorb(&part.stats);
            self.now = self.now.max(part.now);
        }
    }
}

/// The inline executor: a core that owns every node is its own epoch.
impl<A: Actor> Cores<A::Msg> for Shard<A> {
    fn next_time(&self) -> Option<u64> {
        self.queue.peek_time()
    }

    fn epoch(
        &mut self,
        until: u64,
        churn: Option<&ChurnDelta>,
        budget: &mut u64,
        folds: &mut WindowFolds,
    ) -> (usize, u64) {
        if let Some(delta) = churn {
            self.apply_churn(delta);
        }
        self.advance(until, budget);
        self.end_epoch(folds);
        (self.queue.len() + self.outbox.len(), self.now)
    }
}

/// Coordinator → worker: run one epoch after merging `inbox`.
struct Advance<M> {
    until: u64,
    inbox: Vec<Event<M>>,
    churn: Option<ChurnDelta>,
}

/// Worker → coordinator epoch report.
struct EpochReport<M> {
    /// Cross-shard deliveries produced this epoch.
    outbox: Vec<Event<M>>,
    /// This core's records of the epoch.
    folds: WindowFolds,
    /// Events still pending in this core, outbox included.
    pending: usize,
    /// Firing time of the core's next queued event.
    next_time: Option<u64>,
    /// Latest event time handled so far.
    now: u64,
}

/// Run epochs on shard `id`'s core until the coordinator hangs up, then
/// hand the core back through `done`.
fn worker_loop<A: Actor>(
    id: usize,
    mut core: Shard<A>,
    cmds: Receiver<Advance<A::Msg>>,
    reports: Sender<EpochReport<A::Msg>>,
    done: Sender<(usize, Shard<A>)>,
) {
    let mut unlimited = u64::MAX;
    while let Ok(Advance {
        until,
        inbox,
        churn,
    }) = cmds.recv()
    {
        for ev in inbox {
            core.queue.insert(ev);
        }
        let mut folds = WindowFolds::default();
        let (pending, now) = core.epoch(until, churn.as_ref(), &mut unlimited, &mut folds);
        let report = EpochReport {
            outbox: std::mem::take(&mut core.outbox),
            folds,
            pending,
            next_time: core.queue.peek_time(),
            now,
        };
        if reports.send(report).is_err() {
            break;
        }
    }
    let _ = done.send((id, core));
}

/// The coordinator's end of one worker thread, plus the cross-shard
/// deliveries waiting for the worker's next epoch.
struct Worker<A: Actor> {
    cmds: Sender<Advance<A::Msg>>,
    reports: Receiver<EpochReport<A::Msg>>,
    inbox: Vec<Event<A::Msg>>,
    next_time: Option<u64>,
}

/// The threaded executor: one worker per core, indexed by shard. Each
/// core stays on its worker for the whole run; passing the cores to
/// their workers and back every epoch raised the two-thread ΘALG peak
/// RSS (n = 1000) from a median of ~26 to ~30 MiB, up to 37.
struct Threaded<'a, A: Actor> {
    workers: Vec<Worker<A>>,
    shard_of: &'a [u32],
}

impl<A: Actor> Cores<A::Msg> for Threaded<'_, A> {
    fn next_time(&self) -> Option<u64> {
        self.workers
            .iter()
            .flat_map(|w| {
                w.next_time
                    .into_iter()
                    .chain(w.inbox.iter().map(|ev| ev.time))
            })
            .min()
    }

    fn epoch(
        &mut self,
        until: u64,
        churn: Option<&ChurnDelta>,
        budget: &mut u64,
        folds: &mut WindowFolds,
    ) -> (usize, u64) {
        debug_assert_eq!(*budget, u64::MAX, "threaded runs are never capped");
        for w in &mut self.workers {
            let inbox = std::mem::take(&mut w.inbox);
            let churn = churn.cloned();
            w.cmds
                .send(Advance {
                    until,
                    inbox,
                    churn,
                })
                .expect("worker died");
        }
        let (mut pending, mut latest) = (0, 0);
        for i in 0..self.workers.len() {
            let mut r = self.workers[i]
                .reports
                .recv()
                .expect("worker died mid-epoch");
            pending += r.pending;
            latest = latest.max(r.now);
            self.workers[i].next_time = r.next_time;
            folds.append(&mut r.folds);
            for ev in r.outbox {
                self.workers[self.shard_of[ev.key.node as usize] as usize]
                    .inbox
                    .push(ev);
            }
        }
        (pending, latest)
    }
}

impl<A: Actor> Runtime<A>
where
    A: Send,
    A::Msg: Send + Sync,
{
    /// Run to quiescence on up to `threads` worker threads, sharding
    /// nodes by spatial cell; with one thread, or nodes in one cell, the
    /// core runs inline. Produces **bit-identical** transcripts, stats,
    /// and actor states to [`Runtime::run`] — any divergence is a bug
    /// (pinned by the digest-parity tests).
    ///
    /// Call after [`Runtime::start`], exactly like `run()`.
    pub fn run_sharded(&mut self, threads: usize) -> u64 {
        let (shard_of, shards) = partition(&self.coord.positions, self.coord.range, threads);
        if shards <= 1 {
            return self.run();
        }
        let parts = self.core.split(&shard_of, shards);
        let coord = &mut self.coord;
        let (done_tx, done_rx) = channel();
        rayon::scope(|scope| {
            let mut threaded = Threaded::<A> {
                workers: Vec::with_capacity(shards),
                shard_of: &shard_of,
            };
            for (id, core) in parts.into_iter().enumerate() {
                let (cmd_tx, cmd_rx) = channel();
                let (report_tx, report_rx) = channel();
                threaded.workers.push(Worker {
                    cmds: cmd_tx,
                    reports: report_rx,
                    inbox: Vec::new(),
                    next_time: core.queue.peek_time(),
                });
                let done_tx = done_tx.clone();
                scope.spawn(move || worker_loop(id, core, cmd_rx, report_tx, done_tx));
            }
            drop(done_tx);
            coord.drive(&mut threaded, u64::MAX);
            // Dropping `threaded` hangs up on every worker, which hands
            // its core back and exits.
        });
        let mut done: Vec<(usize, Shard<A>)> = done_rx.iter().collect();
        done.sort_unstable_by_key(|&(id, _)| id);
        self.core
            .merge(done.into_iter().map(|(_, core)| core).collect(), &shard_of);
        self.settle();
        self.coord.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;

    /// A mesh gossip protocol exercising broadcasts, unicasts, timers,
    /// and multi-hop chatter — enough surface to catch ordering bugs.
    #[derive(Debug, Clone, PartialEq)]
    struct Chatter {
        id: u32,
        rounds_left: u32,
        heard: Vec<(u32, u32)>,
    }

    #[derive(Debug, Clone)]
    struct Word(u32);

    impl Message for Word {
        fn kind(&self) -> &'static str {
            "word"
        }

        fn digest_into(&self, w: &mut crate::DigestWriter) {
            w.u32(self.0);
        }
    }

    impl Actor for Chatter {
        type Msg = Word;

        fn on_start(&mut self, ctx: &mut Ctx<Word>) {
            ctx.set_timer(1 + (self.id as u64 % 3), 0);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Word>, from: u32, msg: Word) {
            self.heard.push((from, msg.0));
            if msg.0 > 0 && self.heard.len().is_multiple_of(2) {
                ctx.send(from, Word(msg.0 - 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Word>, _timer: u32) {
            ctx.broadcast(Word(self.id % 4 + 1));
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.set_timer(2, 0);
            }
        }

        fn on_neighborhood_change(&mut self, ctx: &mut Ctx<Word>, neighbors: &[u32], _pos: Point) {
            // React to churn: record the new degree and re-announce, so
            // parity tests exercise sends/timers out of this callback.
            self.heard.push((u32::MAX, neighbors.len() as u32));
            if !neighbors.is_empty() {
                ctx.broadcast(Word(2));
                ctx.set_timer(1, 7);
            }
        }
    }

    fn grid_points(side: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for y in 0..side {
            for x in 0..side {
                pts.push(Point::new(x as f64 * 0.9, y as f64 * 0.9));
            }
        }
        pts
    }

    fn build(faults: FaultConfig, seed: u64) -> Runtime<Chatter> {
        let pts = grid_points(5);
        let nodes = (0..pts.len() as u32)
            .map(|id| Chatter {
                id,
                rounds_left: 4,
                heard: Vec::new(),
            })
            .collect();
        Runtime::new(nodes, &pts, 1.0, faults, seed)
    }

    /// The headline guarantee: the inline core and threaded shards
    /// (several thread counts) agree on digest, stats, final actor state,
    /// and virtual end time.
    #[test]
    fn sharded_run_matches_sequential_bit_for_bit() {
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let mut seq = build(faults, 42);
        seq.record_trace(true);
        seq.start();
        let seq_now = seq.run();
        for threads in [2, 4, 8] {
            let mut sh = build(faults, 42);
            sh.record_trace(true);
            sh.start();
            let sh_now = sh.run_sharded(threads);
            assert_eq!(
                seq.transcript().digest(),
                sh.transcript().digest(),
                "digest diverged at {threads} threads"
            );
            assert_eq!(seq.transcript().entries(), sh.transcript().entries());
            assert_eq!(
                seq.stats(),
                sh.stats(),
                "stats diverged at {threads} threads"
            );
            assert_eq!(seq.nodes(), sh.nodes(), "actor state diverged");
            assert_eq!(seq_now, sh_now, "virtual end time diverged");
        }
    }

    /// Lookahead > 1 (minimum link delay 3) exercises multi-tick epochs
    /// with intra-epoch timers.
    #[test]
    fn sharded_parity_with_wide_lookahead() {
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 3, max: 7 },
        };
        let mut seq = build(faults, 7);
        seq.start();
        seq.run();
        let mut sh = build(faults, 7);
        sh.start();
        sh.run_sharded(4);
        assert_eq!(seq.transcript().digest(), sh.transcript().digest());
        assert_eq!(seq.stats(), sh.stats());
        assert_eq!(seq.nodes(), sh.nodes());
    }

    /// Churn parity: joins, graceful/crash leaves, and drifts land at
    /// epoch barriers, so digests, stats (including `link_lost` /
    /// `timers_abandoned`), actor states, and end times stay bit-identical
    /// at every thread count.
    #[test]
    fn churn_runs_match_sequential_bit_for_bit() {
        use crate::ChurnPlan;
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let plan = ChurnPlan::new()
            .join(3, 24, Point::new(1.3, 1.3))
            .drift(5, 7, Point::new(3.1, 0.2))
            .crash(8, 12)
            .leave(8, 18)
            .drift(11, 3, Point::new(0.1, 3.4));
        let run = |threads: usize| {
            let pts = grid_points(5);
            let nodes = (0..pts.len() as u32)
                .map(|id| Chatter {
                    id,
                    rounds_left: 4,
                    heard: Vec::new(),
                })
                .collect();
            let mut rt = Runtime::new(nodes, &pts, 1.0, faults, 42);
            rt.set_churn_plan(&plan);
            rt.record_trace(true);
            rt.start();
            let now = if threads == 0 {
                rt.run()
            } else {
                rt.run_sharded(threads)
            };
            (now, rt)
        };
        let (seq_now, seq) = run(0);
        assert!(seq.stats().crashes == 1 && seq.stats().joins == 1);
        for threads in [1, 4, 8] {
            let (sh_now, sh) = run(threads);
            assert_eq!(
                seq.transcript().digest(),
                sh.transcript().digest(),
                "churn digest diverged at {threads} threads"
            );
            assert_eq!(seq.transcript().entries(), sh.transcript().entries());
            assert_eq!(seq.stats(), sh.stats(), "stats diverged at {threads}");
            assert_eq!(seq.nodes(), sh.nodes(), "actor state diverged");
            assert_eq!(seq_now, sh_now, "virtual end time diverged");
        }
    }

    /// One shard (or one thread) runs the inline core.
    #[test]
    fn single_thread_sharded_is_sequential() {
        let mut a = build(FaultConfig::lossy(0.1), 5);
        a.start();
        a.run();
        let mut b = build(FaultConfig::lossy(0.1), 5);
        b.start();
        b.run_sharded(1);
        assert_eq!(a.transcript().digest(), b.transcript().digest());
        assert_eq!(a.stats(), b.stats());
    }

    /// A broadcast's payload is digested once when it leaves its sender,
    /// not once per delivered copy.
    #[test]
    fn broadcast_payload_is_digested_once() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static DIGESTS: AtomicU64 = AtomicU64::new(0);

        #[derive(Debug, Clone)]
        struct Counted;

        impl Message for Counted {
            fn digest_into(&self, _w: &mut crate::DigestWriter) {
                DIGESTS.fetch_add(1, Ordering::Relaxed);
            }
        }

        /// Node 0 broadcasts `BROADCASTS` times at start; the rest listen.
        struct Shout(u32);

        impl Actor for Shout {
            type Msg = Counted;

            fn on_start(&mut self, ctx: &mut Ctx<Counted>) {
                if self.0 == 0 {
                    for _ in 0..BROADCASTS {
                        ctx.broadcast(Counted);
                    }
                }
            }

            fn on_message(&mut self, _ctx: &mut Ctx<Counted>, _from: u32, _msg: Counted) {}
        }

        const BROADCASTS: u64 = 3;
        let k = 8u32;
        let pts: Vec<Point> = (0..=k)
            .map(|i| Point::new(0.01 * f64::from(i), 0.0))
            .collect();
        let nodes = (0..=k).map(Shout).collect();
        let mut rt = Runtime::new(nodes, &pts, 1.0, FaultConfig::ideal(), 3);
        rt.start();
        rt.run();
        assert_eq!(rt.stats().delivered, BROADCASTS * u64::from(k));
        assert_eq!(DIGESTS.load(Ordering::Relaxed), BROADCASTS);
    }

    #[test]
    fn partition_keeps_cells_together_and_bounds_shards() {
        let pts = grid_points(4);
        let (shard_of, shards) = partition(&pts, 1.0, 3);
        assert!(shards <= 3);
        assert_eq!(shard_of.len(), pts.len());
        // Nodes in the same cell share a shard.
        for (i, a) in pts.iter().enumerate() {
            for (j, b) in pts.iter().enumerate() {
                let cell = |p: &Point| ((p.x).floor() as i64, (p.y).floor() as i64);
                if cell(a) == cell(b) {
                    assert_eq!(shard_of[i], shard_of[j]);
                }
            }
        }
    }
}
