//! Sharded parallel execution of the runtime under conservative
//! lookahead, with bit-identical replay digests.
//!
//! # Design
//!
//! Nodes are partitioned into spatial shards by grid cell (cell side =
//! the radio range, the same cell notion as `adhoc_geom::GridIndex`);
//! each shard owns its nodes, their pending events, and the RNG streams
//! of every directed link *originating* at one of its nodes. Shards
//! advance concurrently on worker threads (vendored `rayon::scope`, real
//! OS threads) through **epochs**: half-open windows `[k·L, (k+1)·L)`
//! where `L` is the fault model's minimum link delay (≥ 1 tick). Because
//! every transmission takes at least `L` ticks, a message sent during
//! epoch `k` cannot arrive before epoch `k+1` — so within an epoch each
//! shard is causally independent, and cross-shard messages are exchanged
//! at the barrier between epochs. Timers are node-local and may fire
//! intra-epoch; they never cross shards.
//!
//! # Why the digest is stable
//!
//! * Each directed link's fault fates come from its own RNG stream,
//!   advanced in the sender's deterministic emission order — identical
//!   whether the sender's shard runs first, last, or alone.
//! * Events tie-break by the canonical [`EventKey`], so each node
//!   processes its events in the same order under any layout.
//! * Event records accumulate in per-node sub-digests and are folded
//!   into the global digest in node-id order at each epoch barrier —
//!   exactly where the sequential executor folds its window boundaries.
//!
//! The result: `run()`, `run_sharded(1)`, and `run_sharded(8)` produce
//! bit-identical transcripts, stats, and actor states.

use crate::churn::{ChurnDelta, ChurnKind};
use crate::event::{Event, EventKind, EventQueue, Payload};
use crate::fault::{FaultConfig, TransmitOutcome};
use crate::node::{Actor, Ctx, Message};
use crate::runtime::{shard_threads_from_env, LinkRow, Runtime};
use crate::stats::{KindTable, NetStats, Tag, WindowNotes};
use crate::MemberState;
use adhoc_geom::Point;
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};

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

/// One shard: a self-contained slice of the runtime state.
struct Shard<A: Actor> {
    id: u32,
    nodes: BTreeMap<u32, A>,
    queue: EventQueue<A::Msg>,
    /// Link rows (full length; only own nodes' rows used): the RNG
    /// streams of directed links originating in this shard.
    links: Vec<LinkRow>,
    /// Timer arm counters (full length; only own nodes' entries used).
    arm_seq: Vec<u64>,
    /// This shard's copy of every node's neighbor row (full length;
    /// senders need target rows for locality checks and broadcast
    /// fan-out). Kept in lockstep via [`ChurnDelta::rows`].
    neighbors: Vec<Vec<u32>>,
    /// This shard's copy of the membership vector, updated from churn
    /// batch entries at epoch barriers.
    membership: Vec<MemberState>,
    faults: FaultConfig,
    seed: u64,
    stats: NetStats,
    /// Per-kind counts of the current epoch.
    kinds: KindTable,
    notes: WindowNotes,
    scratch: Ctx<A::Msg>,
    /// Deliveries bound for other shards, flushed at the epoch barrier.
    outbox: Vec<Event<A::Msg>>,
    /// Time of the last event processed.
    last_time: u64,
}

impl<A: Actor> Shard<A> {
    /// Process every owned event with `time < until` (one epoch). This
    /// mirrors `Runtime::run_with_limit`'s event loop exactly — the
    /// digest-parity tests pin the two implementations together.
    fn advance(&mut self, until: u64, shard_of: &[u32], total_nodes: u32) {
        while let Some(t) = self.queue.peek_time() {
            if t >= until {
                break;
            }
            let ev = self.queue.pop().expect("peeked event vanished");
            self.last_time = self.last_time.max(ev.time);
            let node = ev.key.node;
            let now = ev.time;
            // Events addressed to a crashed node are accounted, not run —
            // identical to the sequential executor's dead-node path.
            if self.membership[node as usize] == MemberState::Dead {
                match ev.kind {
                    EventKind::Deliver { msg } => {
                        self.stats.link_lost += 1;
                        self.notes
                            .note_msg(Tag::Lost, now, ev.key.src, node, msg.get());
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
                    self.notes
                        .note_msg(Tag::Deliver, now, from, node, msg.get());
                    let mut ctx = std::mem::take(&mut self.scratch);
                    ctx.reset(node, now);
                    self.nodes
                        .get_mut(&node)
                        .expect("event routed to wrong shard")
                        .on_message(&mut ctx, from, msg.into_msg());
                    self.flush(&mut ctx, shard_of, total_nodes);
                    self.scratch = ctx;
                }
                EventKind::Timer { timer } => {
                    self.stats.timers_fired += 1;
                    self.notes.note_timer(Tag::Timer, now, node, timer);
                    let mut ctx = std::mem::take(&mut self.scratch);
                    ctx.reset(node, now);
                    self.nodes
                        .get_mut(&node)
                        .expect("event routed to wrong shard")
                        .on_timer(&mut ctx, timer);
                    self.flush(&mut ctx, shard_of, total_nodes);
                    self.scratch = ctx;
                }
            }
        }
    }

    fn flush(&mut self, ctx: &mut Ctx<A::Msg>, shard_of: &[u32], total_nodes: u32) {
        let node = ctx.node;
        let now = ctx.now();
        for (to, msg) in ctx.sends.drain(..) {
            assert!(
                to < total_nodes,
                "node {node} sent {:?} to nonexistent node {to} (only {total_nodes} nodes exist)",
                msg
            );
            if node == to || self.neighbors[node as usize].binary_search(&to).is_err() {
                self.stats.non_neighbor_sends += 1;
                self.notes.note_msg(Tag::NonNeighbor, now, node, to, &msg);
                continue;
            }
            self.transmit_link(now, node, to, Payload::Own(msg), shard_of);
        }
        for msg in ctx.broadcasts.drain(..) {
            self.stats.broadcasts += 1;
            // One shared payload per broadcast — mirrors `Runtime::flush`.
            let shared = std::sync::Arc::new(msg);
            let nbrs = std::mem::take(&mut self.neighbors[node as usize]);
            for &to in &nbrs {
                self.transmit_link(now, node, to, Payload::Shared(shared.clone()), shard_of);
            }
            self.neighbors[node as usize] = nbrs;
        }
        for (at, timer) in ctx.timers.drain(..) {
            self.stats.timers_set += 1;
            let seq = self.arm_seq[node as usize];
            self.arm_seq[node as usize] += 1;
            self.queue.push(
                at,
                crate::event::EventKey::timer(node, seq),
                EventKind::Timer { timer },
            );
        }
    }

    fn transmit_link(
        &mut self,
        now: u64,
        from: u32,
        to: u32,
        msg: Payload<A::Msg>,
        shard_of: &[u32],
    ) {
        self.stats.sent += 1;
        let counts = self.kinds.get(msg.get().kind());
        counts.sent += 1;
        let link = self.links[from as usize].link(self.seed, from, to);
        match self.faults.transmit(&mut link.rng) {
            TransmitOutcome::Dropped => {
                self.stats.dropped += 1;
                counts.dropped += 1;
                self.notes.note_msg(Tag::Drop, now, from, to, msg.get());
            }
            TransmitOutcome::Delivered(d) => {
                let seq = link.copies;
                link.copies += 1;
                self.route(
                    Event {
                        time: now + d,
                        key: crate::event::EventKey::deliver(from, to, seq),
                        kind: EventKind::Deliver { msg },
                    },
                    shard_of,
                );
            }
            TransmitOutcome::Duplicated(d1, d2) => {
                self.stats.duplicated += 1;
                let seq = link.copies;
                link.copies += 2;
                self.route(
                    Event {
                        time: now + d1,
                        key: crate::event::EventKey::deliver(from, to, seq),
                        kind: EventKind::Deliver { msg: msg.clone() },
                    },
                    shard_of,
                );
                self.route(
                    Event {
                        time: now + d2,
                        key: crate::event::EventKey::deliver(from, to, seq + 1),
                        kind: EventKind::Deliver { msg },
                    },
                    shard_of,
                );
            }
        }
    }

    fn route(&mut self, ev: Event<A::Msg>, shard_of: &[u32]) {
        if shard_of[ev.key.node as usize] == self.id {
            self.queue.insert(ev);
        } else {
            self.outbox.push(ev);
        }
    }

    /// Apply one churn batch at an epoch barrier: sync membership and the
    /// changed neighbor rows from the coordinator's [`ChurnDelta`], note
    /// the perturbation records of owned entry nodes (plan order), and
    /// run the re-convergence callbacks of owned affected nodes — the
    /// shard-local half of `Runtime::apply_churn_local`.
    fn apply_churn(&mut self, delta: &ChurnDelta, shard_of: &[u32], total_nodes: u32) {
        for e in &delta.entries {
            match e.kind {
                ChurnKind::Join(_) => self.membership[e.node as usize] = MemberState::Alive,
                ChurnKind::Leave => self.membership[e.node as usize] = MemberState::Draining,
                ChurnKind::Crash => self.membership[e.node as usize] = MemberState::Dead,
                ChurnKind::Drift(_) => {}
            }
        }
        for (node, row) in &delta.rows {
            self.neighbors[*node as usize] = row.clone();
        }
        for e in &delta.entries {
            if shard_of[e.node as usize] == self.id {
                self.notes.note_churn(delta.time, e.node, &e.kind);
            }
        }
        for &(node, pos) in &delta.affected {
            if shard_of[node as usize] != self.id {
                continue;
            }
            let mut ctx = std::mem::take(&mut self.scratch);
            ctx.reset(node, delta.time);
            let row = std::mem::take(&mut self.neighbors[node as usize]);
            self.nodes
                .get_mut(&node)
                .expect("affected node routed to wrong shard")
                .on_neighborhood_change(&mut ctx, &row, pos);
            self.neighbors[node as usize] = row;
            self.flush(&mut ctx, shard_of, total_nodes);
            self.scratch = ctx;
        }
    }
}

/// Coordinator → worker command.
enum Cmd<M> {
    /// Process one epoch: merge `inbox`, apply `churn` (if the epoch
    /// starts at a churn boundary), then run events `< until`.
    Advance {
        until: u64,
        inbox: Vec<Event<M>>,
        churn: Option<ChurnDelta>,
    },
    /// Ship the shard state back and exit.
    Finish,
}

/// Worker → coordinator epoch report.
struct EpochReport<M> {
    shard: u32,
    /// Cross-shard deliveries produced this epoch.
    outbox: Vec<Event<M>>,
    /// Dirty `(node, sub-digest)` pairs, sorted by node.
    folds: Vec<(u32, u64)>,
    /// Rendered records (recording mode only), sorted by node.
    logs: Vec<(u32, String)>,
    /// Events still queued after the epoch.
    queue_len: usize,
    /// Firing time of the shard's next queued event.
    next_time: Option<u64>,
    /// Latest event time processed so far.
    last_time: u64,
}

enum Report<A: Actor> {
    Epoch(EpochReport<A::Msg>),
    Done(u32, Box<Shard<A>>),
}

fn worker_loop<A: Actor>(
    mut shard: Shard<A>,
    cmds: Receiver<Cmd<A::Msg>>,
    reports: Sender<Report<A>>,
    shard_of: &[u32],
) {
    let total_nodes = shard_of.len() as u32;
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            Cmd::Advance {
                until,
                inbox,
                churn,
            } => {
                for ev in inbox {
                    shard.queue.insert(ev);
                }
                if let Some(delta) = &churn {
                    shard.apply_churn(delta, shard_of, total_nodes);
                }
                shard.advance(until, shard_of, total_nodes);
                shard.kinds.fold_into(&mut shard.stats);
                let (folds, logs) = shard.notes.take_folds();
                let report = EpochReport {
                    shard: shard.id,
                    outbox: std::mem::take(&mut shard.outbox),
                    folds,
                    logs,
                    queue_len: shard.queue.len(),
                    next_time: shard.queue.peek_time(),
                    last_time: shard.last_time,
                };
                if reports.send(Report::Epoch(report)).is_err() {
                    return;
                }
            }
            Cmd::Finish => {
                let id = shard.id;
                let _ = reports.send(Report::Done(id, Box::new(shard)));
                return;
            }
        }
    }
}

impl<A: Actor> Runtime<A>
where
    A: Send,
    A::Msg: Send + Sync,
{
    /// Run to quiescence on up to `threads` worker threads, sharding
    /// nodes by spatial cell. Produces **bit-identical** transcripts,
    /// stats, and actor states to the sequential [`Runtime::run`] — any
    /// divergence is a bug (pinned by the digest-parity tests).
    ///
    /// Call after [`Runtime::start`], exactly like `run()`.
    pub fn run_sharded(&mut self, threads: usize) -> u64 {
        let (shard_of, shards) = partition(&self.positions, self.range, threads);
        if shards <= 1 {
            return self.run();
        }
        let lookahead = self.faults.min_delay();
        let n = self.nodes.len();
        let recording = self.trace.recording();

        // Split runtime state into per-shard slices.
        let mut per: Vec<Shard<A>> = (0..shards as u32)
            .map(|id| Shard {
                id,
                nodes: BTreeMap::new(),
                queue: EventQueue::new(),
                links: vec![LinkRow::default(); n],
                arm_seq: self.arm_seq.clone(),
                neighbors: self.neighbors.clone(),
                membership: self.membership.clone(),
                faults: self.faults,
                seed: self.seed,
                stats: NetStats::default(),
                kinds: KindTable::default(),
                notes: WindowNotes::new(n, recording),
                scratch: Ctx::default(),
                outbox: Vec::new(),
                last_time: self.now,
            })
            .collect();
        for (id, node) in std::mem::take(&mut self.nodes).into_iter().enumerate() {
            per[shard_of[id] as usize].nodes.insert(id as u32, node);
        }
        while let Some(ev) = self.queue.pop() {
            per[shard_of[ev.key.node as usize] as usize]
                .queue
                .insert(ev);
        }
        for (from, row) in self.links.iter_mut().enumerate() {
            per[shard_of[from] as usize].links[from] = std::mem::take(row);
        }

        // Coordinator-side per-shard bookkeeping.
        let mut inboxes: Vec<Vec<Event<A::Msg>>> = (0..shards).map(|_| Vec::new()).collect();
        let mut next_times: Vec<Option<u64>> = per.iter().map(|s| s.queue.peek_time()).collect();

        let shard_of_ref = &shard_of;
        let (report_tx, report_rx) = channel::<Report<A>>();
        let mut cmd_txs: Vec<Sender<Cmd<A::Msg>>> = Vec::with_capacity(shards);

        let (final_now, mut done) = rayon::scope(|scope| {
            for shard in per.drain(..) {
                let (cmd_tx, cmd_rx) = channel::<Cmd<A::Msg>>();
                cmd_txs.push(cmd_tx);
                let tx = report_tx.clone();
                scope.spawn(move || worker_loop(shard, cmd_rx, tx, shard_of_ref));
            }
            drop(report_tx);

            let mut now = self.now;
            loop {
                // Earliest pending event anywhere (queues or unrouted
                // inboxes); quiescent when none and no churn remains.
                let pending_min = next_times
                    .iter()
                    .flatten()
                    .copied()
                    .chain(inboxes.iter().flat_map(|ib| ib.iter().map(|ev| ev.time)))
                    .min();
                // A churn batch due at `tc` (always lookahead-aligned)
                // opens the epoch `[tc, tc + L)`: the coordinator applies
                // it to the master state and ships the delta to every
                // worker — the exact cut the sequential executor makes.
                let due_churn = self
                    .churn
                    .peek_time()
                    .filter(|&tc| pending_min.is_none_or(|t| tc <= t));
                let (until, churn) = if let Some(tc) = due_churn {
                    now = now.max(tc);
                    (tc + lookahead, Some(self.apply_churn_batch()))
                } else if let Some(t) = pending_min {
                    // One epoch: the lookahead window containing `t`.
                    ((t / lookahead + 1) * lookahead, None)
                } else {
                    break;
                };
                for (tx, inbox) in cmd_txs.iter().zip(inboxes.iter_mut()) {
                    tx.send(Cmd::Advance {
                        until,
                        inbox: std::mem::take(inbox),
                        churn: churn.clone(),
                    })
                    .expect("worker died");
                }
                let mut pending_total = 0usize;
                let mut folds: Vec<(u32, u64)> = Vec::new();
                let mut logs: Vec<(u32, String)> = Vec::new();
                for _ in 0..shards {
                    let Ok(Report::Epoch(r)) = report_rx.recv() else {
                        panic!("worker died mid-epoch");
                    };
                    pending_total += r.queue_len + r.outbox.len();
                    next_times[r.shard as usize] = r.next_time;
                    now = now.max(r.last_time);
                    folds.extend(r.folds);
                    logs.extend(r.logs);
                    for ev in r.outbox {
                        inboxes[shard_of[ev.key.node as usize] as usize].push(ev);
                    }
                }
                // Barrier: fold this epoch's sub-digests in node-id
                // order — node sets are disjoint across shards, so a
                // global sort reproduces the sequential fold exactly.
                folds.sort_unstable_by_key(|&(node, _)| node);
                for (node, sub) in folds {
                    self.trace.fold_node(node, sub);
                }
                logs.sort_by_key(|&(node, _)| node);
                for (_, entry) in logs {
                    self.trace.push_entry(entry);
                }
                self.stats.max_queue_depth = self.stats.max_queue_depth.max(pending_total);
            }

            for tx in &cmd_txs {
                tx.send(Cmd::Finish).expect("worker died");
            }
            let mut done: Vec<Option<Box<Shard<A>>>> = (0..shards).map(|_| None).collect();
            for _ in 0..shards {
                let Ok(Report::Done(id, state)) = report_rx.recv() else {
                    panic!("worker died at finish");
                };
                done[id as usize] = Some(state);
            }
            (now, done)
        });

        // Reassemble the runtime: nodes in id order, links and arm
        // counters merged, per-shard stats summed.
        let mut nodes: Vec<Option<A>> = (0..n).map(|_| None).collect();
        for shard in done.iter_mut().map(|s| s.take().expect("missing shard")) {
            let mut shard = *shard;
            for (id, node) in shard.nodes {
                nodes[id as usize] = Some(node);
            }
            for (id, &owner) in shard_of.iter().enumerate() {
                if owner == shard.id {
                    self.arm_seq[id] = shard.arm_seq[id];
                    self.links[id] = std::mem::take(&mut shard.links[id]);
                }
            }
            self.stats.absorb(&shard.stats);
        }
        self.nodes = nodes
            .into_iter()
            .map(|n| n.expect("node lost in resharding"))
            .collect();
        self.now = final_now;
        self.now
    }

    /// Run to quiescence on the executor selected by the
    /// `ADHOC_SHARD_THREADS` environment variable: sequential when unset
    /// or `1`, sharded otherwise. Digests are identical either way.
    pub fn run_auto(&mut self) -> u64 {
        match shard_threads_from_env() {
            0 | 1 => self.run(),
            t => self.run_sharded(t),
        }
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

    /// The headline guarantee: sequential and sharded runs (several
    /// thread counts) agree on digest, stats, final actor state, and
    /// virtual end time.
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
    /// across executors and thread counts.
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

    /// One shard (or one thread) falls back to the sequential path.
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
