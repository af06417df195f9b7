//! Deterministic discrete-event queue with a canonical, layout-invariant
//! event order.
//!
//! Events are ordered by `(time, key)` where [`EventKey`] is derived
//! entirely from *who* the event belongs to and per-node event
//! counters — never from global insertion order. Two runs that schedule
//! the same events therefore pop them in the same order **regardless of
//! how the queue is physically laid out**: one global queue, or one queue
//! per spatial shard with cross-shard events merged at epoch barriers.
//! That invariance is what lets a run split over several cores reproduce
//! the one-core replay digest bit for bit.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Canonical tie-break key for events scheduled at the same tick.
///
/// Ordering is lexicographic `(node, class, src, seq)`:
///
/// * `node` — the owning node: the receiver of a delivery, the arming
///   node of a timer. All of one node's same-tick events are adjacent,
///   so per-node event streams are identical across execution layouts.
/// * `class` — [`CLASS_TIMER`] before [`CLASS_DELIVER`]: a node's timers
///   fire before its same-tick mailbox is drained.
/// * `src` — the sending node for deliveries (0 for timers): same-tick
///   arrivals are drained in sender order.
/// * `seq` — the event number the sender (deliveries) or the arming node
///   (timers) drew from its one per-node counter: a timer takes one
///   number, a transmission two, one for each copy it may produce, so a
///   fault-layer duplicate gets the number after its original's. The
///   counter advances in the node's deterministic local order, so the
///   key never depends on global scheduling history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Owning node (delivery receiver / timer owner).
    pub node: u32,
    /// Event class: [`CLASS_TIMER`] or [`CLASS_DELIVER`].
    pub class: u8,
    /// Sending node for deliveries, 0 for timers.
    pub src: u32,
    /// Event number from the sender's (deliveries) or the arming node's
    /// (timers) per-node counter.
    pub seq: u64,
}

/// [`EventKey::class`] of timer firings (sorts before deliveries).
pub const CLASS_TIMER: u8 = 0;
/// [`EventKey::class`] of message deliveries.
pub const CLASS_DELIVER: u8 = 1;

impl EventKey {
    /// Key for a timer armed by `node` under its event number `seq`.
    pub fn timer(node: u32, seq: u64) -> Self {
        EventKey {
            node,
            class: CLASS_TIMER,
            src: 0,
            seq,
        }
    }

    /// Key for a copy sent on the link `from → to` under `from`'s event
    /// number `seq`.
    pub fn deliver(from: u32, to: u32, seq: u64) -> Self {
        EventKey {
            node: to,
            class: CLASS_DELIVER,
            src: from,
            seq,
        }
    }
}

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// A message arrives at the owner's mailbox (sender in
    /// [`EventKey::src`]).
    Deliver {
        /// The message; each copy of a broadcast is its own clone.
        msg: M,
    },
    /// A timer set by the owner fires.
    Timer {
        /// Node-chosen timer id, passed back to
        /// [`Actor::on_timer`](crate::Actor::on_timer).
        timer: u32,
    },
}

/// A scheduled event: virtual time plus its canonical key.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Virtual firing time (ticks).
    pub time: u64,
    /// Canonical tie-break key.
    pub key: EventKey,
    /// The event itself.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.key).cmp(&(other.time, other.key))
    }
}

/// Ticks covered by the calendar ring. Link delays and protocol timers
/// are short, so nearly every event lands in the ring; the rest wait in
/// the overflow heap.
const HORIZON: u64 = 256;
const SLOT_MASK: u64 = HORIZON - 1;
const WORDS: usize = (HORIZON / 64) as usize;

/// Capacity a drained bucket may keep for reuse. Larger buffers are freed
/// so that every ring slot does not end up holding the run's busiest tick.
const BUCKET_KEEP: usize = 64;

/// Smallest front that may be indexed instead of sorted in place; a
/// front whose node ids span more than twice its length is sorted too,
/// since its counting pass would walk mostly empty counts. Replaying the
/// benchmark workloads' queue operations gave the same queue time for
/// cuts anywhere from 16 to 256 events and from 1 to 8 times the length,
/// while indexing the queue probe's sparse fronts (ids spanning 16 to 128
/// times their length) made it over twice as slow.
const DENSE_MIN: usize = 64;

/// Calendar queue of events ordered by `(time, key)`.
///
/// * `front` holds every event at time `now`, the earliest pending time.
///   It is ordered lazily, on the first `pop` after it changed, in one of
///   two ways. A *dense* front (at least `DENSE_MIN` events whose node
///   ids span at most twice their count, as in a broadcast round where
///   most nodes act at once) gets a thin `index` of slots: one counting
///   pass groups the slots by node, then each node's short run is sorted
///   by key. Pops walk the index and leave the events in place, taking
///   each one's kind and leaving a timer placeholder behind. Any other
///   front is sorted by key in descending order, so `pop` takes the last
///   element.
/// * `ring[t % HORIZON]` holds the events of one tick `t` in
///   `(now, now + HORIZON)`, unsorted; `occupied` marks non-empty slots.
/// * `far` is a heap of events scheduled at or past the horizon when they
///   were pushed; they join the front when their tick comes up.
///
/// An event earlier than `now` (a cross-shard delivery merged at an epoch
/// barrier can precede a shard's next local event) rewinds the front.
/// An indexed front drops its popped placeholders before it rewinds or
/// takes a same-tick insert.
#[derive(Debug, Clone)]
pub struct EventQueue<M> {
    now: u64,
    front: Vec<Event<M>>,
    sorted: bool,
    /// Pop order of an indexed front: slots of `front`, ascending by key.
    /// Empty unless the front is indexed.
    index: Vec<u32>,
    /// Next position in `index`.
    cursor: usize,
    /// Per-node slot counts of the index's counting pass (scratch).
    counts: Vec<u32>,
    ring: Vec<Vec<Event<M>>>,
    occupied: [u64; WORDS],
    far: BinaryHeap<Reverse<Event<M>>>,
    len: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            now: 0,
            front: Vec::new(),
            sorted: true,
            index: Vec::new(),
            cursor: 0,
            counts: Vec::new(),
            ring: (0..HORIZON).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            far: BinaryHeap::new(),
            len: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute virtual time `time` under `key`.
    pub fn push(&mut self, time: u64, key: EventKey, kind: EventKind<M>) {
        self.insert(Event { time, key, kind });
    }

    /// Insert an already-built event (cross-shard routing).
    pub fn insert(&mut self, ev: Event<M>) {
        if self.len == 0 {
            self.now = ev.time;
        } else if ev.time < self.now {
            self.rewind(ev.time);
        }
        self.len += 1;
        if ev.time == self.now {
            self.compact();
            self.front.push(ev);
            self.sorted = false;
        } else if ev.time - self.now < HORIZON {
            let slot = (ev.time & SLOT_MASK) as usize;
            self.ring[slot].push(ev);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.far.push(Reverse(ev));
        }
    }

    /// The earliest event, or `None` when quiescent.
    pub fn pop(&mut self) -> Option<Event<M>> {
        if !self.sorted {
            self.order_front();
        }
        let ev = if self.index.is_empty() {
            self.front.pop()?
        } else {
            let e = &mut self.front[self.index[self.cursor] as usize];
            self.cursor += 1;
            let kind = std::mem::replace(&mut e.kind, EventKind::Timer { timer: 0 });
            let ev = Event {
                time: e.time,
                key: e.key,
                kind,
            };
            if self.cursor == self.index.len() {
                self.front.clear();
                self.index.clear();
                self.cursor = 0;
                release(&mut self.index, BUCKET_KEEP);
                release(&mut self.counts, BUCKET_KEEP);
            }
            ev
        };
        self.len -= 1;
        if self.front.is_empty() {
            release(&mut self.front, BUCKET_KEEP);
            if self.len > 0 {
                self.advance();
            }
        }
        Some(ev)
    }

    /// Order an unsorted front for popping: index it when dense, sort it
    /// in place otherwise.
    fn order_front(&mut self) {
        self.sorted = true;
        let Some((lo, span)) = dense_span(&self.front) else {
            self.front.sort_unstable_by_key(|e| Reverse(e.key));
            return;
        };
        let front = &self.front;
        // Counting sort by node: `counts[k]` becomes the first index
        // position of node `lo + k`, then, after placing, its end.
        self.counts.clear();
        self.counts.resize(span + 1, 0);
        for e in front {
            self.counts[(e.key.node - lo) as usize + 1] += 1;
        }
        for k in 1..=span {
            self.counts[k] += self.counts[k - 1];
        }
        self.index.clear();
        self.index.resize(front.len(), 0);
        for (slot, e) in front.iter().enumerate() {
            let at = &mut self.counts[(e.key.node - lo) as usize];
            self.index[*at as usize] = slot as u32;
            *at += 1;
        }
        let mut start = 0;
        for &end in &self.counts[..span] {
            let run = &mut self.index[start..end as usize];
            if run.len() > 1 {
                run.sort_unstable_by_key(|&slot| front[slot as usize].key);
            }
            start = end as usize;
        }
    }

    /// Drop the popped placeholders of an indexed front, keeping the
    /// pending events (unordered) so the front can change.
    fn compact(&mut self) {
        if self.index.is_empty() {
            return;
        }
        let pending = &mut self.index[self.cursor..];
        pending.sort_unstable();
        for (to, &slot) in pending.iter().enumerate() {
            self.front.swap(to, slot as usize);
        }
        self.front.truncate(pending.len());
        self.index.clear();
        self.cursor = 0;
        self.sorted = false;
    }

    /// Firing time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        (self.len > 0).then_some(self.now)
    }

    /// Events currently scheduled.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Move the front to the earliest pending tick. Requires an empty
    /// front and at least one pending event.
    fn advance(&mut self) {
        let from = self.now + 1;
        let ring_next = self.next_occupied(from);
        let far_next = self.far.peek().map(|Reverse(e)| e.time);
        let next = match (ring_next, far_next) {
            (Some(r), Some(f)) => r.min(f),
            (r, f) => r.or(f).expect("advance needs a pending event"),
        };
        self.now = next;
        if ring_next == Some(next) {
            let slot = (next & SLOT_MASK) as usize;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            // The drained front's buffer becomes the slot's buffer.
            std::mem::swap(&mut self.front, &mut self.ring[slot]);
        }
        while self.far.peek().is_some_and(|Reverse(e)| e.time == next) {
            let Reverse(ev) = self.far.pop().expect("peeked event vanished");
            self.front.push(ev);
        }
        self.sorted = false;
    }

    /// Time of the first occupied ring slot at or after tick `from`,
    /// searching one horizon ahead.
    fn next_occupied(&self, from: u64) -> Option<u64> {
        let start = (from & SLOT_MASK) as usize;
        let mut slot = start;
        let mut remaining = HORIZON as usize;
        loop {
            let bits = self.occupied[slot / 64] >> (slot % 64);
            if bits != 0 {
                let found = slot + bits.trailing_zeros() as usize;
                let dist = (found + HORIZON as usize - start) & SLOT_MASK as usize;
                return Some(from + dist as u64);
            }
            let step = 64 - slot % 64;
            if step >= remaining {
                return None;
            }
            remaining -= step;
            slot = (slot + step) & SLOT_MASK as usize;
        }
    }

    /// Make `time < now` the front tick. Ring events that would fall past
    /// the new horizon move to the overflow heap, and the old front
    /// becomes an ordinary pending tick.
    fn rewind(&mut self, time: u64) {
        self.compact();
        let back = self.now - time;
        // Ring ticks are in (now, now + HORIZON); those at or past
        // time + HORIZON sit in the slots of ticks [time, now).
        for d in 0..back.min(HORIZON) {
            let slot = ((time + d) & SLOT_MASK) as usize;
            if self.occupied[slot / 64] & (1 << (slot % 64)) != 0 {
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                self.far.extend(self.ring[slot].drain(..).map(Reverse));
                release(&mut self.ring[slot], BUCKET_KEEP);
            }
        }
        if back < HORIZON {
            let slot = (self.now & SLOT_MASK) as usize;
            std::mem::swap(&mut self.front, &mut self.ring[slot]);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.far.extend(self.front.drain(..).map(Reverse));
            release(&mut self.front, BUCKET_KEEP);
        }
        self.now = time;
        self.sorted = true;
    }
}

/// `(lowest node id, node-id span)` of a dense front; `None` for a front
/// smaller than [`DENSE_MIN`] or whose ids span more than twice its
/// length, found as soon as the ids seen so far span that much.
fn dense_span<M>(front: &[Event<M>]) -> Option<(u32, usize)> {
    if front.len() < DENSE_MIN {
        return None;
    }
    let (mut lo, mut hi) = (u32::MAX, 0);
    for e in front {
        lo = lo.min(e.key.node);
        hi = hi.max(e.key.node);
        if (hi - lo) as usize >= 2 * front.len() {
            return None;
        }
    }
    Some((lo, (hi - lo) as usize + 1))
}

/// Free a drained buffer if it grew past `keep` entries ([`BUCKET_KEEP`]
/// for the queue's own buffers).
pub(crate) fn release<T>(buffer: &mut Vec<T>, keep: usize) {
    if buffer.capacity() > keep {
        *buffer = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_canonical_key() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(5, EventKey::timer(0, 0), EventKind::Timer { timer: 0 });
        q.push(3, EventKey::deliver(0, 2, 0), EventKind::Deliver { msg: 9 });
        q.push(3, EventKey::timer(1, 0), EventKind::Timer { timer: 0 });
        q.push(1, EventKey::timer(3, 0), EventKind::Timer { timer: 0 });
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.key.node))
            .collect();
        assert_eq!(order, vec![(1, 3), (3, 1), (3, 2), (5, 0)]);
    }

    /// Same-tick events for one node: timers fire before deliveries,
    /// deliveries drain in `(sender, link seq)` order.
    #[test]
    fn same_tick_same_node_is_timer_then_sender_then_link_seq() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.push(4, EventKey::deliver(7, 2, 1), EventKind::Deliver { msg: 3 });
        q.push(4, EventKey::deliver(5, 2, 0), EventKind::Deliver { msg: 1 });
        q.push(4, EventKey::timer(2, 9), EventKind::Timer { timer: 1 });
        q.push(4, EventKey::deliver(7, 2, 0), EventKind::Deliver { msg: 2 });
        let keys: Vec<EventKey> = std::iter::from_fn(|| q.pop()).map(|e| e.key).collect();
        assert_eq!(
            keys,
            vec![
                EventKey::timer(2, 9),
                EventKey::deliver(5, 2, 0),
                EventKey::deliver(7, 2, 0),
                EventKey::deliver(7, 2, 1),
            ]
        );
    }

    /// The order is a pure function of `(time, key)` — pushing the same
    /// events in any permutation pops them identically. This is the
    /// property the digest's stability across core counts rests on.
    #[test]
    fn pop_order_is_insertion_invariant() {
        let events = [
            (2, EventKey::deliver(0, 1, 0)),
            (2, EventKey::deliver(1, 0, 0)),
            (1, EventKey::timer(1, 4)),
            (3, EventKey::deliver(0, 1, 1)),
            (2, EventKey::timer(0, 0)),
        ];
        let drain = |idx: &[usize]| {
            let mut q: EventQueue<()> = EventQueue::new();
            for &i in idx {
                let (t, k) = events[i];
                q.push(t, k, EventKind::Timer { timer: 0 });
            }
            std::iter::from_fn(|| q.pop())
                .map(|e| (e.time, e.key))
                .collect::<Vec<_>>()
        };
        let a = drain(&[0, 1, 2, 3, 4]);
        let b = drain(&[4, 3, 2, 1, 0]);
        let c = drain(&[2, 4, 0, 3, 1]);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    /// Random interleavings of `push`, `insert` and `pop` pop exactly in
    /// the `(time, key)` order of a `BinaryHeap`, including timers past
    /// the horizon, same-tick arrivals, and inserts earlier than the
    /// current front (a shard merging its inbox at an epoch barrier).
    #[test]
    fn calendar_queue_matches_binary_heap_reference() {
        use rand::{Rng, SeedableRng};
        for seed in 0..64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(u64, EventKey)>> = BinaryHeap::new();
            let mut last = 0u64;
            let mut popped = 0usize;
            for seq in 0..3000u64 {
                let key = EventKey {
                    node: rng.gen_range(0..16),
                    class: rng.gen_range(0..2),
                    src: rng.gen_range(0..16),
                    seq,
                };
                let front = q.peek_time();
                let time = match rng.gen_range(0..16) {
                    0..=5 => last + rng.gen_range(1..8u64),
                    6 => last,
                    7 => last + rng.gen_range(HORIZON - 8..3 * HORIZON),
                    8 => front.map_or(last, |f| rng.gen_range(last.min(f)..=f)),
                    9 => rng.gen_range(last.saturating_sub(2 * HORIZON)..=last),
                    _ => {
                        let got = q.pop().map(|e| (e.time, e.key));
                        let want = reference.pop().map(|Reverse(e)| e);
                        assert_eq!(got, want, "seed {seed}, pop {popped}");
                        popped += 1;
                        if let Some((t, _)) = got {
                            last = t;
                        }
                        continue;
                    }
                };
                if seq % 2 == 0 {
                    q.push(time, key, EventKind::Timer { timer: 0 });
                } else {
                    q.insert(Event {
                        time,
                        key,
                        kind: EventKind::Deliver { msg: seq },
                    });
                }
                reference.push(Reverse((time, key)));
                assert_eq!(q.len(), reference.len());
                assert_eq!(
                    q.peek_time(),
                    reference.peek().map(|Reverse((t, _))| *t),
                    "seed {seed}"
                );
            }
            let rest: Vec<_> = std::iter::from_fn(|| q.pop())
                .map(|e| (e.time, e.key))
                .collect();
            let want: Vec<_> = std::iter::from_fn(|| reference.pop().map(|Reverse(e)| e)).collect();
            assert_eq!(rest, want, "seed {seed}, drain");
            assert!(q.is_empty() && q.peek_time().is_none());
        }
    }

    /// Fronts large enough to be indexed pop in the `(time, key)` order of
    /// a `BinaryHeap` too: dense bursts (≥ `DENSE_MIN` same-tick events
    /// over at most 32 node ids) and sparse ones (ids up to 10 000), with
    /// same-tick inserts and inserts earlier than the front (rewinds)
    /// landing after some of an indexed front has been popped.
    #[test]
    fn indexed_fronts_match_binary_heap_reference() {
        use rand::{Rng, SeedableRng};
        type Rng8 = rand_chacha::ChaCha8Rng;
        type Reference = BinaryHeap<Reverse<(u64, EventKey)>>;
        let (mut indexed, mut same_tick, mut rewound) = (0, 0, 0);
        for seed in 0..32 {
            let mut rng = Rng8::seed_from_u64(seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut reference = Reference::new();
            let mut seq = 0u64;
            let mut push =
                |q: &mut EventQueue<u64>, r: &mut Reference, rng: &mut Rng8, time, ids| {
                    let key = EventKey {
                        node: rng.gen_range(0..ids),
                        class: rng.gen_range(0..2),
                        src: rng.gen_range(0..4),
                        seq,
                    };
                    q.insert(Event {
                        time,
                        key,
                        kind: EventKind::Deliver { msg: seq },
                    });
                    r.push(Reverse((time, key)));
                    seq += 1;
                };
            let pops = |q: &mut EventQueue<u64>, r: &mut Reference, k| {
                for _ in 0..k {
                    let got = q.pop().map(|e| {
                        // The payload left with its own event, not a placeholder.
                        let EventKind::Deliver { msg } = &e.kind else {
                            panic!("seed {seed}: popped a placeholder");
                        };
                        assert_eq!(*msg, e.key.seq, "seed {seed}");
                        (e.time, e.key)
                    });
                    assert_eq!(got, r.pop().map(|Reverse(e)| e), "seed {seed}");
                }
            };
            let mut last = 0;
            for round in 0..24 {
                let time = last + rng.gen_range(0..4u64);
                let ids = if round % 3 == 2 { 10_000 } else { 32 };
                for _ in 0..rng.gen_range(DENSE_MIN..4 * DENSE_MIN) {
                    push(&mut q, &mut reference, &mut rng, time, ids);
                }
                // Pop part of the front, so it is ordered (indexed when dense).
                let front = q.peek_time().expect("pending");
                pops(&mut q, &mut reference, rng.gen_range(1..DENSE_MIN));
                if !q.index.is_empty() {
                    indexed += 1;
                    let now = q.peek_time().expect("an indexed front is not drained");
                    if rng.gen_bool(0.5) {
                        same_tick += 1;
                        push(&mut q, &mut reference, &mut rng, now, ids);
                    } else if now > 0 {
                        rewound += 1;
                        let back = rng.gen_range(now.saturating_sub(2 * HORIZON)..now);
                        push(&mut q, &mut reference, &mut rng, back, ids);
                    }
                }
                assert_eq!(q.len(), reference.len(), "seed {seed}");
                pops(&mut q, &mut reference, rng.gen_range(0..2 * DENSE_MIN));
                last = q.peek_time().unwrap_or(front);
            }
            let rest = reference.len();
            pops(&mut q, &mut reference, rest);
            assert!(q.is_empty() && q.pop().is_none(), "seed {seed}");
        }
        assert!(indexed > 100, "only {indexed} indexed fronts");
        assert!(
            same_tick > 50 && rewound > 50,
            "{same_tick} same-tick inserts, {rewound} rewinds"
        );
    }

    /// Drained buckets return oversized buffers instead of recycling them:
    /// one busy tick per ring slot must not leave every slot holding a
    /// buffer the size of that tick.
    #[test]
    fn drained_buckets_do_not_keep_their_peak_capacity() {
        let mut q: EventQueue<()> = EventQueue::new();
        let busy = 8 * BUCKET_KEEP as u32;
        for round in 0..3 {
            for t in 0..HORIZON {
                for node in 0..busy {
                    q.push(
                        round * HORIZON + t,
                        EventKey::timer(node, t),
                        EventKind::Timer { timer: 0 },
                    );
                }
            }
            // Keep the queue non-empty through every bucket switch.
            q.push(
                (round + 1) * HORIZON,
                EventKey::timer(busy, 0),
                EventKind::Timer { timer: 0 },
            );
            for _ in 0..HORIZON as u32 * busy {
                q.pop().expect("pending");
            }
        }
        let retained: usize = q.front.capacity() + q.ring.iter().map(Vec::capacity).sum::<usize>();
        assert!(
            retained <= (HORIZON as usize + 1) * BUCKET_KEEP,
            "buckets retain {retained} slots after draining"
        );
        // Every busy tick was dense, so it was indexed; its index and
        // count buffers are dropped with it.
        while q.pop().is_some() {}
        let (index, counts) = (q.index.capacity(), q.counts.capacity());
        assert!(
            index <= BUCKET_KEEP && counts <= BUCKET_KEEP,
            "the index keeps {index} slots and the counts {counts} after draining"
        );
    }
}
