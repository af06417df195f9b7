//! Runtime instrumentation: message counters and the replay transcript.

use crate::churn::ChurnKind;
use crate::node::Message;
use std::collections::BTreeMap;

/// Counters for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Link-level transmissions attempted (each broadcast counts once per
    /// receiver).
    pub sent: u64,
    /// Copies actually delivered (duplicates included).
    pub delivered: u64,
    /// Transmissions lost to the fault model.
    pub dropped: u64,
}

/// Aggregate counters for one run, overall and per message kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Link-level transmissions attempted.
    pub sent: u64,
    /// Copies delivered (duplicates included).
    pub delivered: u64,
    /// Transmissions lost.
    pub dropped: u64,
    /// Extra copies created by duplication faults.
    pub duplicated: u64,
    /// Radio broadcasts requested (before per-receiver fan-out).
    pub broadcasts: u64,
    /// Timers armed.
    pub timers_set: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Data retransmissions by the reliable-delivery sublayer. Folded in
    /// by the harnesses that run it (`run_gossip_balancing_adversarial`
    /// with reliability enabled); zero for best-effort-only runs.
    pub retransmits: u64,
    /// Standalone cumulative acks sent by the reliable sublayer (acks
    /// riding data or a best-effort message are not counted here).
    pub acks: u64,
    /// Firings of the reliable sublayer's own retransmit timer (deadlines
    /// checked on the wrapped actor's timers are not counted).
    pub rto_fired: u64,
    /// Unicasts to an in-plane node outside the sender's radio range.
    /// The paper's `G*` locality discipline means such a send can never
    /// leave the radio: the copy is discarded before the fault model and
    /// counted here (not in `sent`/`dropped`, so link-level ledgers stay
    /// conserved).
    pub non_neighbor_sends: u64,
    /// In-flight copies whose receiver crash-left before arrival: the
    /// link transmission survived the fault model, but the node was
    /// [`MemberState::Dead`](crate::MemberState::Dead) when the copy came
    /// due, so it is accounted here instead of `delivered`.
    pub link_lost: u64,
    /// Timers that fired on a crashed node and were discarded.
    pub timers_abandoned: u64,
    /// Churn joins applied.
    pub joins: u64,
    /// Churn graceful leaves applied.
    pub leaves: u64,
    /// Churn crash leaves applied.
    pub crashes: u64,
    /// Churn waypoint drifts applied.
    pub drifts: u64,
    /// `on_neighborhood_change` notifications issued: live nodes whose
    /// one-hop world changed at a churn boundary and were told to
    /// re-converge.
    pub reconvergences: u64,
    /// High-water mark of the event queue.
    pub max_queue_depth: usize,
    /// Per-kind breakdown, keyed by [`Message::kind`].
    pub per_kind: BTreeMap<&'static str, KindCounts>,
}

impl NetStats {
    /// Fraction of transmissions lost (0 when nothing was sent).
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.dropped as f64 / self.sent as f64
        }
    }

    /// Fold another stats block into this one (a core's counters into the
    /// run's). The destructuring names every field, so a counter added
    /// without merging it here fails to compile.
    pub(crate) fn absorb(&mut self, other: &NetStats) {
        let NetStats {
            sent,
            delivered,
            dropped,
            duplicated,
            broadcasts,
            timers_set,
            timers_fired,
            retransmits,
            acks,
            rto_fired,
            non_neighbor_sends,
            link_lost,
            timers_abandoned,
            joins,
            leaves,
            crashes,
            drifts,
            reconvergences,
            // Not merged: the coordinator samples the pending-event count
            // across all cores at every window fold.
            max_queue_depth: _,
            per_kind,
        } = other;
        self.sent += sent;
        self.delivered += delivered;
        self.dropped += dropped;
        self.duplicated += duplicated;
        self.broadcasts += broadcasts;
        self.timers_set += timers_set;
        self.timers_fired += timers_fired;
        self.retransmits += retransmits;
        self.acks += acks;
        self.rto_fired += rto_fired;
        self.non_neighbor_sends += non_neighbor_sends;
        self.link_lost += link_lost;
        self.timers_abandoned += timers_abandoned;
        self.joins += joins;
        self.leaves += leaves;
        self.crashes += crashes;
        self.drifts += drifts;
        self.reconvergences += reconvergences;
        for (k, c) in per_kind {
            self.per_kind.entry(k).or_default().add(c);
        }
    }
}

impl KindCounts {
    fn add(&mut self, other: &KindCounts) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
    }
}

/// Per-kind counters of the event loop: a few entries keyed by the kind
/// label's address, so a count costs a pointer compare instead of a
/// string-keyed map lookup. Each core folds it into
/// [`NetStats::per_kind`], by label, at every window boundary.
#[derive(Debug, Clone, Default)]
pub(crate) struct KindTable {
    entries: Vec<(&'static str, KindCounts)>,
}

impl KindTable {
    /// The counters of `kind` since the last fold.
    pub(crate) fn get(&mut self, kind: &'static str) -> &mut KindCounts {
        let i = match self
            .entries
            .iter()
            .position(|&(k, _)| std::ptr::eq(k, kind))
        {
            Some(i) => i,
            None => {
                self.entries.push((kind, KindCounts::default()));
                self.entries.len() - 1
            }
        };
        &mut self.entries[i].1
    }

    /// Add the counts since the last fold into `stats.per_kind` and reset
    /// them. Kinds with nothing counted create no entry.
    pub(crate) fn fold_into(&mut self, stats: &mut NetStats) {
        for (kind, counts) in &mut self.entries {
            if *counts != KindCounts::default() {
                stats.per_kind.entry(kind).or_default().add(counts);
                *counts = KindCounts::default();
            }
        }
    }
}

/// A replay transcript: a rolling word-wise FNV-1a digest (see
/// [`DigestWriter`]) over every event the runtime processes (deliveries, drops, timer firings), plus optionally
/// the full event log. Two runs are *replay-identical* iff their digests
/// match; [`crate::Runtime::record_trace`] additionally keeps the
/// human-readable entries so tests can diff them.
///
/// The digest is folded **canonically**: event records accumulate in
/// per-node sub-digests (`WindowNotes`) for the duration of one
/// lookahead window, and at each window boundary the dirty `(node,
/// sub-digest)` pairs are folded into the global digest in node-id
/// order. A node's events happen in a deterministic local order no
/// matter how many cores share the nodes, so a run's digest is the same
/// at every thread count.
#[derive(Debug, Clone)]
pub struct Transcript {
    digest: u64,
    entries: Option<Vec<String>>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Transcript {
    fn default() -> Self {
        Transcript {
            digest: FNV_OFFSET,
            entries: None,
        }
    }
}

/// Streams a binary encoding into a rolling FNV-1a-style state folded one
/// `u64` word per field: each field (an integer widened to 64 bits, an
/// `f64` bit pattern, a sequence length) is xored into the state, which
/// is then multiplied by the FNV prime. Transcript records, and the
/// messages inside them ([`Message::digest_into`]), are written through
/// it, so digesting an event costs one multiply per field, no formatting
/// and no allocation. Every record and message opens with a tag and
/// prefixes its sequences with their lengths, so fields of different
/// widths need no width marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestWriter {
    state: u64,
}

impl DigestWriter {
    /// A writer at the FNV offset basis.
    pub(crate) fn new() -> Self {
        DigestWriter { state: FNV_OFFSET }
    }

    /// The digest of everything written so far.
    pub(crate) fn finish(&self) -> u64 {
        self.state
    }

    /// Fold one field, widened to a word: one xor and one multiply.
    fn word(&mut self, x: u64) {
        self.state = (self.state ^ x).wrapping_mul(FNV_PRIME);
    }

    /// Write one byte (a variant tag, a flag).
    pub fn u8(&mut self, x: u8) {
        self.word(u64::from(x));
    }

    /// Write a `u32`.
    pub fn u32(&mut self, x: u32) {
        self.word(u64::from(x));
    }

    /// Write a `u64`.
    pub fn u64(&mut self, x: u64) {
        self.word(x);
    }

    /// Write an `f64` by its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// Write the length of a sequence whose elements follow, so that
    /// adjacent sequences cannot trade elements.
    pub fn len_prefix(&mut self, len: usize) {
        self.u64(len as u64);
    }
}

impl Transcript {
    /// A fresh transcript; pass `record = true` to keep full entries.
    pub fn new(record: bool) -> Self {
        Transcript {
            digest: FNV_OFFSET,
            entries: if record { Some(Vec::new()) } else { None },
        }
    }

    /// Fold one window into the digest: every core's `(node, sub-digest)`
    /// pairs in node-id order, then the rendered records grouped by node.
    /// Cores own disjoint nodes, so sorting the pairs gives the same fold
    /// whatever the number of cores. Drains `w` but keeps its capacity, so
    /// a run that reuses one `WindowFolds` folds without allocating.
    pub(crate) fn fold_window(&mut self, w: &mut WindowFolds) {
        w.subs.sort_unstable_by_key(|&(node, _)| node);
        for (node, sub) in w.subs.drain(..) {
            let mut d = DigestWriter { state: self.digest };
            d.u32(node);
            d.u64(sub);
            self.digest = d.state;
        }
        // Stable by node; per-node emission order preserved.
        w.logs.sort_by_key(|&(node, _)| node);
        let entries = w.logs.drain(..).map(|(_, entry)| entry);
        if let Some(log) = &mut self.entries {
            log.extend(entries);
        }
    }

    /// The rolling digest over all events so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The full event log, if recording was enabled.
    pub fn entries(&self) -> Option<&[String]> {
        self.entries.as_deref()
    }
}

/// One window's records from one or more cores, ready for
/// [`Transcript::fold_window`]: the dirty `(node, sub-digest)` pairs and,
/// when recording, the rendered `(node, record)` pairs.
#[derive(Debug, Default)]
pub(crate) struct WindowFolds {
    subs: Vec<(u32, u64)>,
    logs: Vec<(u32, String)>,
}

impl WindowFolds {
    /// Move another core's records for the same window to the end of
    /// this one.
    pub(crate) fn append(&mut self, other: &mut WindowFolds) {
        self.subs.append(&mut other.subs);
        self.logs.append(&mut other.logs);
    }
}

/// The one-byte tag that opens every transcript record and fixes the
/// layout of the rest of it:
///
/// * message records `D X K L`: `tag, time: u64, from: u32, to: u32`,
///   then the message's [`Message::digest_into`] encoding;
/// * timer records `T A`: `tag, time: u64, node: u32, timer: u32`;
/// * churn records `J M` (`tag, time: u64, node: u32, x: f64, y: f64`) and
///   `G C` (`tag, time: u64, node: u32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Tag {
    /// A copy delivered to its receiver.
    Deliver = b'D',
    /// A copy dropped by the fault model.
    Drop = b'X',
    /// A copy that came due at a crashed receiver.
    Lost = b'K',
    /// A unicast refused because the target is out of radio range.
    NonNeighbor = b'L',
    /// A timer fired.
    Timer = b'T',
    /// A timer discarded on a crashed node.
    Abandoned = b'A',
    /// A node joined.
    Join = b'J',
    /// A node drifted.
    Drift = b'M',
    /// A node left gracefully.
    Leave = b'G',
    /// A node crashed.
    Crash = b'C',
}

impl Tag {
    /// Every tag, for tests.
    #[cfg(test)]
    pub(crate) const ALL: [Tag; 10] = [
        Tag::Deliver,
        Tag::Drop,
        Tag::Lost,
        Tag::NonNeighbor,
        Tag::Timer,
        Tag::Abandoned,
        Tag::Join,
        Tag::Drift,
        Tag::Leave,
        Tag::Crash,
    ];

    /// The letter that opens the record's rendered text.
    fn letter(self) -> char {
        self as u8 as char
    }
}

/// Per-node event-record accumulator for one lookahead window.
///
/// Every record is written in binary ([`Tag`] gives the layouts) into the
/// sub-digest of the node it belongs to: the receiver for deliveries and
/// losses, the sender for drops and refused unicasts, the owner for
/// timers, the subject of a churn entry. All of a node's records are
/// produced while processing that node's own events, which occur in a
/// canonical order regardless of how execution is sharded; folding the
/// dirty sub-digests in node-id order at each window boundary therefore
/// yields a layout-invariant global digest. Records are rendered as text
/// only when the transcript is recording.
#[derive(Debug, Clone)]
pub(crate) struct WindowNotes {
    /// Sub-digest per node; `FNV_OFFSET` when clean this window.
    subs: Vec<u64>,
    /// Nodes touched this window (possibly with duplicates; deduped at
    /// drain). Capacity is retained across windows, so steady-state
    /// noting and folding never allocate.
    dirty: Vec<u32>,
    /// Rendered records `(node, entry)` in emission order, kept only when
    /// full-entry recording is on.
    logs: Option<Vec<(u32, String)>>,
}

impl WindowNotes {
    pub(crate) fn new(n: usize, record: bool) -> Self {
        WindowNotes {
            subs: vec![FNV_OFFSET; n],
            dirty: Vec::new(),
            logs: if record { Some(Vec::new()) } else { None },
        }
    }

    /// Note a message record (`tag` is `Deliver`, `Drop`, `Lost` or
    /// `NonNeighbor`) for the copy `from → to` at `time`. Deliveries and
    /// losses belong to the receiver, drops and refusals to the sender.
    pub(crate) fn note_msg<M: Message>(
        &mut self,
        tag: Tag,
        time: u64,
        from: u32,
        to: u32,
        msg: &M,
    ) {
        let owner = match tag {
            Tag::Deliver | Tag::Lost => to,
            _ => from,
        };
        self.note(
            owner,
            |w| {
                w.u8(tag as u8);
                w.u64(time);
                w.u32(from);
                w.u32(to);
                msg.digest_into(w);
            },
            || format!("{} t={time} {from}->{to} {msg:?}", tag.letter()),
        );
    }

    /// Note a timer record (`tag` is `Timer` or `Abandoned`).
    pub(crate) fn note_timer(&mut self, tag: Tag, time: u64, node: u32, timer: u32) {
        self.note(
            node,
            |w| {
                w.u8(tag as u8);
                w.u64(time);
                w.u32(node);
                w.u32(timer);
            },
            || format!("{} t={time} n={node} id={timer}", tag.letter()),
        );
    }

    /// Note the churn entry `kind` applied to `node` at `time`.
    pub(crate) fn note_churn(&mut self, time: u64, node: u32, kind: &ChurnKind) {
        let (tag, pos) = match *kind {
            ChurnKind::Join(p) => (Tag::Join, Some(p)),
            ChurnKind::Drift(p) => (Tag::Drift, Some(p)),
            ChurnKind::Leave => (Tag::Leave, None),
            ChurnKind::Crash => (Tag::Crash, None),
        };
        self.note(
            node,
            |w| {
                w.u8(tag as u8);
                w.u64(time);
                w.u32(node);
                if let Some(p) = pos {
                    w.f64(p.x);
                    w.f64(p.y);
                }
            },
            || match pos {
                Some(p) => format!("{} t={time} n={node} p=({:?},{:?})", tag.letter(), p.x, p.y),
                None => format!("{} t={time} n={node}", tag.letter()),
            },
        );
    }

    /// Write one record into `node`'s sub-digest for the current window;
    /// `render` runs only when recording, so the hot path never formats
    /// or allocates here.
    fn note(
        &mut self,
        node: u32,
        encode: impl FnOnce(&mut DigestWriter),
        render: impl FnOnce() -> String,
    ) {
        let sub = &mut self.subs[node as usize];
        if *sub == FNV_OFFSET {
            self.dirty.push(node);
        }
        let mut w = DigestWriter { state: *sub };
        encode(&mut w);
        *sub = w.state;
        if let Some(log) = &mut self.logs {
            log.push((node, render()));
        }
    }

    /// Whether records are rendered as text too.
    pub(crate) fn recording(&self) -> bool {
        self.logs.is_some()
    }

    /// End the current window: move the dirty `(node, sub-digest)` pairs,
    /// sorted by node id, and any rendered records into `out`, and reset
    /// for the next window. Allocation-free when not recording and `out`
    /// has capacity.
    pub(crate) fn take_folds(&mut self, out: &mut WindowFolds) {
        self.dirty.sort_unstable();
        self.dirty.dedup();
        out.subs.reserve(self.dirty.len());
        for &node in &self.dirty {
            let sub = std::mem::replace(&mut self.subs[node as usize], FNV_OFFSET);
            out.subs.push((node, sub));
        }
        self.dirty.clear();
        if let Some(log) = &mut self.logs {
            out.logs.append(log);
        }
    }
}

/// The digest of `msg`'s encoding alone, for tests that compare
/// encodings.
#[cfg(test)]
pub(crate) fn message_digest<M: Message>(msg: &M) -> u64 {
    let mut w = DigestWriter::new();
    msg.digest_into(&mut w);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adhoc_geom::Point;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    struct Word(u32);

    impl Message for Word {
        fn digest_into(&self, w: &mut DigestWriter) {
            w.u32(self.0);
        }
    }

    /// End `w`'s window and fold it into `t`, as a one-core run does.
    fn fold(w: &mut WindowNotes, t: &mut Transcript) {
        let mut folds = WindowFolds::default();
        w.take_folds(&mut folds);
        t.fold_window(&mut folds);
    }

    /// Digest of timer records `(node, timer id)` noted in one window.
    fn digest_of(notes: &[(u32, u32)], record: bool) -> (u64, Option<Vec<String>>) {
        let mut t = Transcript::new(record);
        let mut w = WindowNotes::new(8, record);
        for &(node, id) in notes {
            w.note_timer(Tag::Timer, 5, node, id);
        }
        fold(&mut w, &mut t);
        (t.digest(), t.entries().map(|e| e.to_vec()))
    }

    #[test]
    fn digest_is_order_sensitive_per_node() {
        let (a, _) = digest_of(&[(0, 1), (0, 2)], false);
        let (b, _) = digest_of(&[(0, 2), (0, 1)], false);
        assert_ne!(a, b);
    }

    /// Notes to *different* nodes in one window fold in node-id order, so
    /// the interleaving of distinct nodes' records doesn't matter — the
    /// layout-invariance sharded runs rely on.
    #[test]
    fn cross_node_interleaving_is_canonicalized() {
        let (a, _) = digest_of(&[(2, 1), (1, 2), (2, 3)], false);
        let (b, _) = digest_of(&[(1, 2), (2, 1), (2, 3)], false);
        assert_eq!(a, b);
    }

    /// Splitting the same notes across window folds changes the digest
    /// (fold boundaries are part of the canonical record).
    #[test]
    fn window_boundaries_are_significant() {
        let mut t1 = Transcript::new(false);
        let mut w = WindowNotes::new(2, false);
        w.note_timer(Tag::Timer, 1, 0, 1);
        w.note_timer(Tag::Timer, 1, 0, 2);
        fold(&mut w, &mut t1);
        let mut t2 = Transcript::new(false);
        let mut w = WindowNotes::new(2, false);
        w.note_timer(Tag::Timer, 1, 0, 1);
        fold(&mut w, &mut t2);
        w.note_timer(Tag::Timer, 1, 0, 2);
        fold(&mut w, &mut t2);
        assert_ne!(t1.digest(), t2.digest());
    }

    #[test]
    fn digest_ignores_recording_flag() {
        let notes = [(1, 1), (0, 2), (1, 3)];
        let (a, entries_a) = digest_of(&notes, false);
        let (b, entries_b) = digest_of(&notes, true);
        assert_eq!(a, b);
        assert!(entries_a.is_none());
        // Entries flush grouped by node, emission order within a node.
        assert_eq!(
            entries_b.unwrap(),
            vec!["T t=5 n=0 id=2", "T t=5 n=1 id=1", "T t=5 n=1 id=3"]
        );
    }

    /// Sequences are length-prefixed, so adjacent sequences cannot trade
    /// elements and still write the same bytes.
    #[test]
    fn length_prefixes_prevent_concatenation_collisions() {
        let seqs = |parts: &[&[u32]]| {
            let mut w = DigestWriter::new();
            for part in parts {
                w.len_prefix(part.len());
                for &x in *part {
                    w.u32(x);
                }
            }
            w.finish()
        };
        assert_ne!(seqs(&[&[1, 2], &[3]]), seqs(&[&[1], &[2, 3]]));
        assert_ne!(seqs(&[&[], &[7]]), seqs(&[&[7], &[]]));
    }

    /// Every record opens with its own tag byte, so two records with the
    /// same fields but different tags digest differently.
    #[test]
    fn record_tags_are_distinct() {
        let bytes: BTreeSet<u8> = Tag::ALL.iter().map(|&t| t as u8).collect();
        assert_eq!(bytes.len(), Tag::ALL.len());
        let p = Point::new(0.25, 0.75);
        let digests: BTreeSet<u64> = Tag::ALL
            .iter()
            .map(|&tag| {
                let mut w = WindowNotes::new(1, false);
                match tag {
                    Tag::Deliver | Tag::Drop | Tag::Lost | Tag::NonNeighbor => {
                        w.note_msg(tag, 3, 0, 0, &Word(1))
                    }
                    Tag::Timer | Tag::Abandoned => w.note_timer(tag, 3, 0, 1),
                    Tag::Join => w.note_churn(3, 0, &ChurnKind::Join(p)),
                    Tag::Drift => w.note_churn(3, 0, &ChurnKind::Drift(p)),
                    Tag::Leave => w.note_churn(3, 0, &ChurnKind::Leave),
                    Tag::Crash => w.note_churn(3, 0, &ChurnKind::Crash),
                }
                w.subs[0]
            })
            .collect();
        assert_eq!(digests.len(), Tag::ALL.len());
    }

    /// Records split over two cores (disjoint node sets) and reported in
    /// either order fold exactly as one core holding every node does.
    #[test]
    fn worker_folds_match_sequential_folds() {
        let notes = [(3, 1), (1, 2), (3, 3), (0, 4)];
        let (one_core, _) = digest_of(&notes, false);
        let (mut a, mut b) = (WindowNotes::new(8, false), WindowNotes::new(8, false));
        for &(node, id) in &notes {
            let core = if node == 1 { &mut b } else { &mut a };
            core.note_timer(Tag::Timer, 5, node, id);
        }
        let mut folds = WindowFolds::default();
        a.take_folds(&mut folds);
        assert_eq!(
            folds.subs.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            [0, 3]
        );
        let mut report = WindowFolds::default();
        b.take_folds(&mut report);
        folds.append(&mut report);
        assert!(folds.logs.is_empty());
        let mut t = Transcript::new(false);
        t.fold_window(&mut folds);
        assert_eq!(t.digest(), one_core);
    }

    /// Recording renders text next to the binary records but must not
    /// change what is digested, for every record family.
    #[test]
    fn streamed_digest_equals_rendered_digest() {
        let play = |w: &mut WindowNotes| {
            for i in 0..50u32 {
                let node = i % 4;
                let t = u64::from(i);
                w.note_msg(Tag::Deliver, t, (node + 1) % 4, node, &Word(i));
                w.note_msg(Tag::Drop, t, node, (node + 1) % 4, &Word(i));
                w.note_timer(Tag::Timer, t, node, i);
                w.note_churn(t, node, &ChurnKind::Drift(Point::new(f64::from(i), 0.5)));
            }
        };
        let mut streamed = WindowNotes::new(4, false);
        let mut rendered = WindowNotes::new(4, true);
        play(&mut streamed);
        play(&mut rendered);
        let (mut a, mut b) = (Transcript::new(false), Transcript::new(true));
        fold(&mut streamed, &mut a);
        fold(&mut rendered, &mut b);
        assert_eq!(a.digest(), b.digest());
        assert!(a.entries().is_none());
        let entries = b.entries().unwrap();
        assert_eq!(entries.len(), 200);
        assert_eq!(
            &entries[..4],
            [
                "D t=0 1->0 Word(0)",
                "X t=0 0->1 Word(0)",
                "T t=0 n=0 id=0",
                "M t=0 n=0 p=(0.0,0.5)"
            ]
        );
    }

    /// Absorbing a block into empty stats reproduces every counter and
    /// per-kind entry; only `max_queue_depth` is left to the coordinator.
    #[test]
    fn absorb_merges_every_counter() {
        let mut block = NetStats {
            sent: 1,
            delivered: 2,
            dropped: 3,
            duplicated: 4,
            broadcasts: 5,
            timers_set: 6,
            timers_fired: 7,
            retransmits: 8,
            acks: 9,
            rto_fired: 10,
            non_neighbor_sends: 11,
            link_lost: 12,
            timers_abandoned: 13,
            joins: 14,
            leaves: 15,
            crashes: 16,
            drifts: 17,
            reconvergences: 18,
            max_queue_depth: 19,
            per_kind: BTreeMap::from([(
                "word",
                KindCounts {
                    sent: 20,
                    delivered: 21,
                    dropped: 22,
                },
            )]),
        };
        let mut merged = NetStats::default();
        merged.absorb(&block);
        block.max_queue_depth = 0;
        assert_eq!(merged, block);
    }
}
