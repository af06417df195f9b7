//! Per-link reliable delivery: sliding windows, cumulative acks, and
//! retransmission with capped exponential backoff.
//!
//! The runtime's links drop, delay, and duplicate ([`crate::fault`]); a
//! fire-and-forget protocol therefore bleeds throughput on every loss.
//! This module restores delivery guarantees *locally*, per link — in the
//! spirit of the paper, no global coordination is introduced:
//!
//! * every unicast message selected for reliability is stamped with a
//!   per-`(link, direction)` sequence number and kept by the sender until
//!   cumulatively acknowledged;
//! * receivers acknowledge the longest in-order prefix (`ack` = lowest
//!   sequence number not yet received), piggybacked on data flowing the
//!   other way or as standalone [`ReliableMsg::Ack`]s;
//! * unacknowledged data is retransmitted on a timer whose per-packet
//!   deadline backs off exponentially (`rto · 2^retries`, capped at
//!   `rto_max`) until [`ReliableConfig::max_retries`] is exhausted, at
//!   which point the sender abandons the packet and advertises the new
//!   window base (`lo`) so the receiver's cumulative ack can skip the
//!   hole instead of stalling the link forever.
//!
//! Delivery to the application is **exactly-once but unordered**: a
//! payload is handed up the moment its first copy arrives (duplicates —
//! whether fault-layer copies or retransmissions — are discarded by
//! sequence number), while the cumulative ack tracks the in-order prefix
//! purely for window accounting. Datagram protocols like the gossip
//! balancer need idempotence, not ordering, and immediate delivery avoids
//! head-of-line blocking on lossy links.
//!
//! [`ReliableActor`] wraps any [`Actor`] whose traffic should ride this
//! layer: a per-message predicate routes each unicast send through the
//! transport or straight to the wire ([`ReliableMsg::Raw`]). Broadcasts
//! always stay best-effort — radio-neighborhood fan-out has no single
//! return path to ack on, and the protocols using it (position beacons,
//! height gossip) are freshness-driven: a retransmitted stale value is
//! worth less than the next periodic refresh.

use crate::node::{Actor, Ctx, Message};
use crate::stats::DigestWriter;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Timer id reserved for the transport's retransmit clock. Inner actors
/// wrapped by [`ReliableActor`] must not arm timers with this id.
pub const RELIABLE_TIMER: u32 = u32::MAX;

/// Tuning knobs of the reliable sublayer (per node, applied to every
/// outgoing link direction independently).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliableConfig {
    /// Maximum unacknowledged data messages in flight per link direction;
    /// further sends queue in a backlog until the window slides.
    pub window: usize,
    /// Initial retransmit timeout in virtual ticks.
    pub rto: u64,
    /// Cap on the backed-off retransmit timeout.
    pub rto_max: u64,
    /// Retransmissions attempted per message before the sender gives up
    /// and abandons it (counted in [`LinkCounters::gave_up`]).
    pub max_retries: u32,
}

impl Default for ReliableConfig {
    /// Defaults sized for the gossip balancer's 8-tick steps and delay
    /// distributions up to ~8 ticks: a 32-message window, 16-tick initial
    /// RTO backing off to at most 256 ticks, 12 tries per message
    /// (residual loss ≈ `p^13`, ~1.6·10⁻⁷ at 30% link loss).
    fn default() -> Self {
        ReliableConfig {
            window: 32,
            rto: 16,
            rto_max: 256,
            max_retries: 12,
        }
    }
}

impl ReliableConfig {
    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.window >= 1, "window must be ≥ 1");
        assert!(self.rto >= 1, "rto must be ≥ 1");
        assert!(self.rto_max >= self.rto, "rto_max must be ≥ rto");
    }

    /// Deadline distance after `retries` retransmissions:
    /// `rto · 2^retries` capped at `rto_max`.
    fn backoff(&self, retries: u32) -> u64 {
        self.rto
            .saturating_mul(1u64 << retries.min(16))
            .min(self.rto_max)
    }
}

/// Envelope carried on the wire by a reliability-wrapped protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ReliableMsg<M> {
    /// A sequenced payload. `ack` piggybacks the sender's cumulative ack
    /// for the *reverse* direction; `lo` advertises the sender's lowest
    /// outstanding sequence number so receivers can skip abandoned holes.
    Data {
        /// Per-(link, direction) sequence number.
        seq: u64,
        /// Piggybacked cumulative ack: every reverse-direction sequence
        /// number `< ack` has been received.
        ack: u64,
        /// Sender's window base; sequence numbers `< lo` are settled or
        /// abandoned and will never be (re)transmitted.
        lo: u64,
        /// The wrapped protocol message.
        payload: M,
    },
    /// Standalone cumulative ack (sent when no reverse data is flowing).
    Ack {
        /// Every sequence number `< ack` has been received.
        ack: u64,
    },
    /// Best-effort passthrough: broadcasts and unicasts the wrapper's
    /// predicate left unprotected.
    Raw(M),
}

impl<M: Message> Message for ReliableMsg<M> {
    /// Data and raw envelopes keep the payload's kind so per-kind
    /// counters (and the retransmit overhead they reveal) stay
    /// comparable with fire-and-forget runs; standalone acks get their
    /// own bucket.
    fn kind(&self) -> &'static str {
        match self {
            ReliableMsg::Data { payload, .. } | ReliableMsg::Raw(payload) => payload.kind(),
            ReliableMsg::Ack { .. } => "ack",
        }
    }

    fn digest_into(&self, w: &mut DigestWriter) {
        match self {
            ReliableMsg::Data {
                seq,
                ack,
                lo,
                payload,
            } => {
                w.u8(0);
                w.u64(*seq);
                w.u64(*ack);
                w.u64(*lo);
                payload.digest_into(w);
            }
            ReliableMsg::Ack { ack } => {
                w.u8(1);
                w.u64(*ack);
            }
            ReliableMsg::Raw(payload) => {
                w.u8(2);
                payload.digest_into(w);
            }
        }
    }
}

/// Transport-layer counters of one node (sum over its link directions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Data retransmissions emitted.
    pub retransmits: u64,
    /// Standalone acks emitted (piggybacked acks are free).
    pub acks_sent: u64,
    /// Retransmit-timer firings handled.
    pub rto_fired: u64,
    /// Messages abandoned after `max_retries` unacknowledged tries.
    pub gave_up: u64,
}

/// One in-flight (transmitted, unacked) message.
#[derive(Debug, Clone)]
struct Flight<M> {
    payload: M,
    retries: u32,
    deadline: u64,
}

/// Sender half of one link direction.
#[derive(Debug, Clone)]
struct SendState<M> {
    next_seq: u64,
    /// Transmitted and unacknowledged, keyed by sequence number.
    flights: BTreeMap<u64, Flight<M>>,
    /// Queued behind a full window, sequence numbers pre-assigned.
    backlog: VecDeque<(u64, M)>,
}

impl<M> Default for SendState<M> {
    fn default() -> Self {
        SendState {
            next_seq: 0,
            flights: BTreeMap::new(),
            backlog: VecDeque::new(),
        }
    }
}

impl<M> SendState<M> {
    /// Lowest outstanding sequence number (the advertised window base).
    fn lo(&self) -> u64 {
        self.flights
            .keys()
            .next()
            .copied()
            .or_else(|| self.backlog.front().map(|&(s, _)| s))
            .unwrap_or(self.next_seq)
    }
}

/// Receiver half of one link direction.
#[derive(Debug, Clone, Default)]
struct RecvState {
    /// Cumulative ack value: every sequence number `< expected` settled.
    expected: u64,
    /// Received out of order, above `expected` (bounded by the sender's
    /// window plus abandoned holes, which `lo` advances past).
    ooo: BTreeSet<u64>,
    /// An ack is owed since the last flush.
    ack_due: bool,
}

impl RecvState {
    fn advance_past_holes(&mut self, lo: u64) {
        if lo > self.expected {
            self.expected = lo;
            self.ooo = self.ooo.split_off(&lo);
        }
        while self.ooo.remove(&self.expected) {
            self.expected += 1;
        }
    }
}

/// The per-node reliable transport: sender and receiver state for every
/// peer this node exchanges protected traffic with. All maps are ordered
/// so flush emission order — and therefore the replay digest — is a pure
/// function of the protocol's behaviour.
#[derive(Debug, Clone)]
pub(crate) struct Transport<M> {
    cfg: ReliableConfig,
    send: BTreeMap<u32, SendState<M>>,
    recv: BTreeMap<u32, RecvState>,
    /// `(peer, seq)` pairs due for retransmission at the next flush.
    pending_retx: Vec<(u32, u64)>,
    /// Fire times of armed (uncancellable) retransmit timers.
    armed: BTreeSet<u64>,
    /// Link state changed since the last flush.
    changed: bool,
    counters: LinkCounters,
}

impl<M: Message> Transport<M> {
    /// A fresh transport.
    pub fn new(cfg: ReliableConfig) -> Self {
        cfg.validate();
        Transport {
            cfg,
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            pending_retx: Vec::new(),
            armed: BTreeSet::new(),
            changed: false,
            counters: LinkCounters::default(),
        }
    }

    /// Counters so far.
    pub fn counters(&self) -> LinkCounters {
        self.counters
    }

    /// Messages currently in transport custody (in flight or backlogged),
    /// i.e. accepted from the application but not yet known-delivered.
    pub fn pending_count(&self) -> u64 {
        self.send
            .values()
            .map(|s| (s.flights.len() + s.backlog.len()) as u64)
            .sum()
    }

    /// Accept one payload for reliable delivery to `to`. Transmitted at
    /// the next [`Transport::flush`], window permitting.
    pub fn queue(&mut self, to: u32, payload: M) {
        self.changed = true;
        let ss = self.send.entry(to).or_default();
        let seq = ss.next_seq;
        ss.next_seq += 1;
        ss.backlog.push_back((seq, payload));
    }

    /// Process a cumulative ack from `peer` (standalone or piggybacked):
    /// settle every flight with sequence number below `ack`.
    pub fn on_ack(&mut self, peer: u32, ack: u64) {
        self.changed = true;
        if let Some(ss) = self.send.get_mut(&peer) {
            ss.flights = ss.flights.split_off(&ack);
        }
    }

    /// Process an incoming data envelope from `peer`. Returns the payload
    /// exactly once per sequence number; duplicates yield `None` (but
    /// still owe the peer an ack, so lost acks get repaired).
    pub fn on_data(&mut self, peer: u32, seq: u64, lo: u64, payload: M) -> Option<M> {
        self.changed = true;
        let rs = self.recv.entry(peer).or_default();
        rs.ack_due = true;
        rs.advance_past_holes(lo);
        if seq < rs.expected || rs.ooo.contains(&seq) {
            return None; // duplicate (fault-layer copy or retransmission)
        }
        if seq == rs.expected {
            rs.expected += 1;
            while rs.ooo.remove(&rs.expected) {
                rs.expected += 1;
            }
        } else {
            rs.ooo.insert(seq);
        }
        Some(payload)
    }

    /// Handle a [`RELIABLE_TIMER`] firing at virtual time `now`: mark
    /// every overdue flight for retransmission (or abandon it once the
    /// retry budget is spent), backing its deadline off exponentially.
    pub fn on_timer(&mut self, now: u64) {
        self.changed = true;
        self.counters.rto_fired += 1;
        self.armed.remove(&now);
        let Transport {
            cfg,
            send,
            pending_retx,
            counters,
            ..
        } = self;
        for (&peer, ss) in send.iter_mut() {
            ss.flights.retain(|&seq, f| {
                if f.deadline > now {
                    return true;
                }
                if f.retries >= cfg.max_retries {
                    counters.gave_up += 1;
                    return false;
                }
                f.retries += 1;
                f.deadline = now + cfg.backoff(f.retries);
                counters.retransmits += 1;
                pending_retx.push((peer, seq));
                true
            });
        }
    }

    /// Drop all link state toward peers *not* in `peers` (sorted): a
    /// departed node will never ack, so its in-flight and backlogged
    /// custody is abandoned (counted in [`LinkCounters::gave_up`]) instead
    /// of burning the whole retry budget against a dead link. Already
    /// armed retransmit timers stay armed — they are uncancellable — and
    /// fire as no-ops when no flights remain.
    pub fn retain_peers(&mut self, peers: &[u32]) {
        debug_assert!(peers.is_sorted());
        self.changed = true;
        self.send.retain(|peer, ss| {
            if peers.binary_search(peer).is_ok() {
                return true;
            }
            self.counters.gave_up += (ss.flights.len() + ss.backlog.len()) as u64;
            false
        });
        // Receive-side state is deliberately kept: a retransmitted copy of
        // an already-delivered segment can still be in flight when the
        // peer vanishes, and dropping the recv window would hand it to the
        // actor a second time (exactly-once broken). Eroded routing never
        // re-adds the link, so stale windows stay inert, O(1) each.
        self.pending_retx
            .retain(|(peer, _)| peers.binary_search(peer).is_ok());
    }

    /// Emit everything owed to the wire: retransmissions, fresh data up
    /// to the window, standalone acks for peers with no reverse data, and
    /// the retransmit timer for the earliest outstanding deadline.
    ///
    /// A flush does work only after a state change: unless
    /// [`queue`](Self::queue), [`on_ack`](Self::on_ack),
    /// [`on_data`](Self::on_data), [`on_timer`](Self::on_timer) or
    /// [`retain_peers`](Self::retain_peers) ran since the last flush, it
    /// returns at once: the last flush left nothing owed and a timer armed
    /// no later than the earliest deadline, so another would emit and arm
    /// nothing.
    pub fn flush(&mut self, ctx: &mut Ctx<ReliableMsg<M>>) {
        if !std::mem::take(&mut self.changed) {
            return;
        }
        let now = ctx.now();
        // Retransmissions (with refreshed piggyback acks).
        for (peer, seq) in std::mem::take(&mut self.pending_retx) {
            let Some(ss) = self.send.get(&peer) else {
                continue;
            };
            if let Some(f) = ss.flights.get(&seq) {
                let ack = self.recv.get(&peer).map_or(0, |r| r.expected);
                ctx.send(
                    peer,
                    ReliableMsg::Data {
                        seq,
                        ack,
                        lo: ss.lo(),
                        payload: f.payload.clone(),
                    },
                );
                if let Some(rs) = self.recv.get_mut(&peer) {
                    rs.ack_due = false;
                }
            }
        }
        // Slide backlog into freed window space and transmit.
        for (&peer, ss) in self.send.iter_mut() {
            let mut sent_any = false;
            while ss.flights.len() < self.cfg.window {
                let Some((seq, payload)) = ss.backlog.pop_front() else {
                    break;
                };
                let ack = self.recv.get(&peer).map_or(0, |r| r.expected);
                ctx.send(
                    peer,
                    ReliableMsg::Data {
                        seq,
                        ack,
                        lo: ss.flights.keys().next().copied().unwrap_or(seq),
                        payload: payload.clone(),
                    },
                );
                ss.flights.insert(
                    seq,
                    Flight {
                        payload,
                        retries: 0,
                        deadline: now + self.cfg.rto,
                    },
                );
                sent_any = true;
            }
            if sent_any {
                if let Some(rs) = self.recv.get_mut(&peer) {
                    rs.ack_due = false;
                }
            }
        }
        // Standalone acks for peers that got no piggyback this flush.
        for (&peer, rs) in self.recv.iter_mut() {
            if rs.ack_due {
                rs.ack_due = false;
                self.counters.acks_sent += 1;
                ctx.send(peer, ReliableMsg::Ack { ack: rs.expected });
            }
        }
        // Arm the retransmit clock for the earliest deadline, unless an
        // already-armed (uncancellable) timer fires no later than it.
        let earliest = self
            .send
            .values()
            .flat_map(|s| s.flights.values().map(|f| f.deadline))
            .min();
        if let Some(e) = earliest {
            if self.armed.first().is_none_or(|&a| a > e) {
                let delay = e.saturating_sub(now).max(1);
                ctx.set_timer(delay, RELIABLE_TIMER);
                self.armed.insert(now + delay);
            }
        }
    }
}

/// Wraps an inner [`Actor`] so that unicast sends selected by the
/// predicate ride the reliable transport, everything else goes out
/// best-effort as [`ReliableMsg::Raw`]. The wrapper owns timer id
/// [`RELIABLE_TIMER`]; all other timers pass through untouched.
pub struct ReliableActor<A: Actor, F> {
    inner: A,
    transport: Transport<A::Msg>,
    select: F,
    /// Effect buffer of the inner actor, drained (and released) after
    /// every callback.
    ic: Ctx<A::Msg>,
}

impl<A, F> ReliableActor<A, F>
where
    A: Actor,
    F: Fn(&A::Msg) -> bool,
{
    /// Wrap `inner`; `select` returns true for messages that must be
    /// delivered reliably.
    pub fn new(inner: A, cfg: ReliableConfig, select: F) -> Self {
        ReliableActor {
            inner,
            transport: Transport::new(cfg),
            select,
            ic: Ctx::default(),
        }
    }

    /// The wrapped protocol actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// The transport's counters.
    pub fn counters(&self) -> LinkCounters {
        self.transport.counters()
    }

    /// Messages still in transport custody (in flight or backlogged).
    pub fn pending_count(&self) -> u64 {
        self.transport.pending_count()
    }

    /// Run one inner-actor callback and route its effects: selected
    /// unicasts into the transport, the rest (and all broadcasts) to the
    /// wire as raw envelopes, timers passed through.
    fn deliver(
        &mut self,
        ctx: &mut Ctx<ReliableMsg<A::Msg>>,
        f: impl FnOnce(&mut A, &mut Ctx<A::Msg>),
    ) {
        self.ic.reset(ctx.id(), ctx.now());
        f(&mut self.inner, &mut self.ic);
        for (to, m) in self.ic.sends.drain(..) {
            if (self.select)(&m) {
                self.transport.queue(to, m);
            } else {
                ctx.send(to, ReliableMsg::Raw(m));
            }
        }
        for m in self.ic.broadcasts.drain(..) {
            ctx.broadcast(ReliableMsg::Raw(m));
        }
        for (at, id) in self.ic.timers.drain(..) {
            assert_ne!(
                id, RELIABLE_TIMER,
                "timer id u32::MAX is reserved by the reliable transport"
            );
            ctx.set_timer(at.saturating_sub(ctx.now()), id);
        }
        self.ic.release();
    }
}

impl<A, F> fmt::Debug for ReliableActor<A, F>
where
    A: Actor + fmt::Debug,
    A::Msg: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReliableActor")
            .field("inner", &self.inner)
            .field("transport", &self.transport)
            .finish_non_exhaustive()
    }
}

impl<A, F> Actor for ReliableActor<A, F>
where
    A: Actor,
    F: Fn(&A::Msg) -> bool,
{
    type Msg = ReliableMsg<A::Msg>;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        self.deliver(ctx, |a, ic| a.on_start(ic));
        self.transport.flush(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: u32, msg: Self::Msg) {
        match msg {
            ReliableMsg::Raw(m) => self.deliver(ctx, |a, ic| a.on_message(ic, from, m)),
            ReliableMsg::Data {
                seq,
                ack,
                lo,
                payload,
            } => {
                self.transport.on_ack(from, ack);
                if let Some(m) = self.transport.on_data(from, seq, lo, payload) {
                    self.deliver(ctx, |a, ic| a.on_message(ic, from, m));
                }
            }
            ReliableMsg::Ack { ack } => self.transport.on_ack(from, ack),
        }
        self.transport.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, timer: u32) {
        if timer == RELIABLE_TIMER {
            self.transport.on_timer(ctx.now());
        } else {
            self.deliver(ctx, |a, ic| a.on_timer(ic, timer));
        }
        self.transport.flush(ctx);
    }

    fn on_neighborhood_change(
        &mut self,
        ctx: &mut Ctx<Self::Msg>,
        neighbors: &[u32],
        pos: adhoc_geom::Point,
    ) {
        // Prune link state toward vanished peers *before* the inner
        // protocol reacts, so custody abandoned by churn is settled by the
        // time the application inspects its transport.
        self.transport.retain_peers(neighbors);
        self.deliver(ctx, |a, ic| a.on_neighborhood_change(ic, neighbors, pos));
        self.transport.flush(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DelayDist, FaultConfig};
    use crate::runtime::Runtime;
    use crate::{ChurnPlan, MemberState};
    use adhoc_geom::Point;

    /// Every envelope variant and field, the payload included, changes
    /// the digest encoding.
    #[test]
    fn digest_encoding_separates_variants_and_fields() {
        use crate::stats::message_digest;
        let data = |seq, ack, lo, p| ReliableMsg::Data {
            seq,
            ack,
            lo,
            payload: Num(p),
        };
        let msgs = [
            data(1, 2, 3, 4),
            data(9, 2, 3, 4),
            data(1, 9, 3, 4),
            data(1, 2, 9, 4),
            data(1, 2, 3, 9),
            ReliableMsg::Ack { ack: 1 },
            ReliableMsg::Ack { ack: 2 },
            ReliableMsg::Raw(Num(1)),
            ReliableMsg::Raw(Num(2)),
        ];
        let digests: BTreeSet<u64> = msgs.iter().map(message_digest).collect();
        assert_eq!(digests.len(), msgs.len());
    }

    /// A minimal source→sink protocol: node 0 emits `total` numbered
    /// payloads, one per tick; node 1 records what it receives.
    #[derive(Debug, Clone)]
    struct Pump {
        id: u32,
        total: u32,
        emitted: u32,
        got: Vec<u32>,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Num(u32);

    impl Message for Num {
        fn kind(&self) -> &'static str {
            "num"
        }

        fn digest_into(&self, w: &mut DigestWriter) {
            w.u32(self.0);
        }
    }

    impl Actor for Pump {
        type Msg = Num;

        fn on_start(&mut self, ctx: &mut Ctx<Num>) {
            if self.id == 0 && self.total > 0 {
                ctx.set_timer(1, 0);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Num>, _from: u32, msg: Num) {
            self.got.push(msg.0);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Num>, _timer: u32) {
            ctx.send(1, Num(self.emitted));
            self.emitted += 1;
            if self.emitted < self.total {
                ctx.set_timer(1, 0);
            }
        }
    }

    type Wrapped = ReliableActor<Pump, fn(&Num) -> bool>;

    fn always(_: &Num) -> bool {
        true
    }

    fn pump_pair(
        total: u32,
        cfg: ReliableConfig,
        faults: FaultConfig,
        seed: u64,
        plan: &ChurnPlan,
    ) -> Runtime<Wrapped> {
        let nodes: Vec<Wrapped> = (0..2)
            .map(|id| {
                ReliableActor::new(
                    Pump {
                        id,
                        total,
                        emitted: 0,
                        got: Vec::new(),
                    },
                    cfg,
                    always as fn(&Num) -> bool,
                )
            })
            .collect();
        let positions = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        Runtime::new(nodes, &positions, 1.5, faults, seed, plan)
    }

    #[test]
    fn lossless_links_deliver_everything_without_retransmits() {
        let mut rt = pump_pair(
            50,
            ReliableConfig::default(),
            FaultConfig::ideal(),
            1,
            &ChurnPlan::new(),
        );
        rt.run(1);
        let sink = rt.node(1);
        assert_eq!(sink.inner().got.len(), 50);
        let src = rt.node(0);
        assert_eq!(src.counters().retransmits, 0);
        assert_eq!(src.counters().gave_up, 0);
        assert_eq!(src.pending_count(), 0);
    }

    #[test]
    fn heavy_loss_still_delivers_exactly_once() {
        let faults = FaultConfig {
            drop_prob: 0.4,
            duplicate_prob: 0.2,
            delay: DelayDist::Uniform { min: 1, max: 6 },
        };
        let mut rt = pump_pair(80, ReliableConfig::default(), faults, 7, &ChurnPlan::new());
        let quiescent = rt.run_with_limit(2_000_000);
        assert!(quiescent, "retransmit schedule must terminate");
        let src_counters = rt.node(0).counters();
        assert!(src_counters.retransmits > 0, "40% loss needs retransmits");
        let mut got = rt.node(1).inner().got.clone();
        got.sort_unstable();
        got.dedup();
        // Exactly-once: no duplicates survived dedup...
        assert_eq!(got.len(), rt.node(1).inner().got.len());
        // ...and everything not abandoned arrived.
        let gave_up = src_counters.gave_up as usize + rt.node(0).pending_count() as usize;
        assert_eq!(got.len() + gave_up, 80);
        assert_eq!(gave_up, 0, "retry budget outlasts 40% loss");
    }

    #[test]
    fn total_loss_gives_up_and_terminates() {
        let cfg = ReliableConfig {
            max_retries: 3,
            ..ReliableConfig::default()
        };
        let mut rt = pump_pair(5, cfg, FaultConfig::lossy(1.0), 3, &ChurnPlan::new());
        let quiescent = rt.run_with_limit(1_000_000);
        assert!(quiescent, "give-up cap must bound the retransmit schedule");
        assert_eq!(rt.node(1).inner().got.len(), 0);
        assert_eq!(rt.node(0).counters().gave_up, 5);
        assert_eq!(rt.node(0).pending_count(), 0);
        // 5 messages × (1 try + 3 retries) all dropped.
        assert_eq!(rt.stats().per_kind["num"].dropped, 20);
    }

    #[test]
    fn abandoned_holes_do_not_stall_the_window() {
        // Drop everything for a while, then heal the link: the `lo`
        // advertisement lets the receiver skip abandoned sequence numbers
        // and later traffic still flows.
        let cfg = ReliableConfig {
            window: 4,
            rto: 4,
            rto_max: 8,
            max_retries: 2,
        };
        let faults = FaultConfig {
            drop_prob: 0.55,
            duplicate_prob: 0.0,
            delay: DelayDist::Fixed(1),
        };
        let mut rt = pump_pair(120, cfg, faults, 11, &ChurnPlan::new());
        assert!(rt.run_with_limit(2_000_000));
        let gave_up = rt.node(0).counters().gave_up;
        assert!(gave_up > 0, "tight retry budget at 55% loss must abandon");
        let got = rt.node(1).inner().got.len() as u64;
        // Abandonment over-counts losses: a message whose acks were all
        // dropped is delivered *and* given up, so `gave_up` upper-bounds
        // the true losses rather than partitioning them.
        assert!(got + gave_up + rt.node(0).pending_count() >= 120);
        assert!(got <= 120);
        // The link kept making progress past every hole.
        assert!(got > 50, "only {got} of 120 delivered");
    }

    #[test]
    fn peer_crash_mid_window_drains_custody_within_retry_budget() {
        // Node 1 crash-leaves while node 0 still has a full window of
        // unacked flights plus backlog. The neighborhood-change callback
        // must abandon that custody immediately (retain_peers), later
        // sends to the vanished peer must die as non-neighbor sends, and
        // the whole schedule must quiesce — no retransmit loop may keep
        // chasing a dead link.
        let cfg = ReliableConfig {
            window: 4,
            rto: 4,
            rto_max: 16,
            max_retries: 3,
        };
        // Minimum delay 2: any copy transmitted in the two ticks before
        // the crash is still airborne when node 1 dies, so `link_lost`
        // is exercised structurally rather than by seed luck.
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.0,
            delay: DelayDist::Uniform { min: 2, max: 5 },
        };
        let mut rt = pump_pair(40, cfg, faults, 13, &ChurnPlan::new().crash(12, 1));
        assert!(
            rt.run_with_limit(1_000_000),
            "dead-peer retries must exhaust, not spin"
        );
        assert_eq!(rt.member_state(1), MemberState::Dead);
        let src = rt.node(0);
        assert_eq!(src.pending_count(), 0, "custody ledger must drain");
        assert!(
            src.counters().gave_up > 0,
            "flights toward the dead peer must be abandoned"
        );
        // Only messages emitted before the crash ever reached node 1, and
        // each at most once.
        let mut got = rt.node(1).inner().got.clone();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), rt.node(1).inner().got.len());
        assert!(got.len() < 40, "the crash must cut delivery short");
        // Copies in flight at the crash were charged to link_lost, not
        // delivered to the dead actor; post-crash sends died at the
        // non-neighbor check.
        assert!(rt.stats().link_lost > 0);
        assert!(rt.stats().non_neighbor_sends > 0);
        assert_eq!(rt.stats().crashes, 1);
    }

    #[test]
    fn retain_peers_counts_abandoned_custody() {
        let mut t: Transport<Num> = Transport::new(ReliableConfig::default());
        t.queue(1, Num(0));
        t.queue(1, Num(1));
        t.queue(2, Num(2));
        let mut ctx = Ctx::new(0, 0);
        t.flush(&mut ctx); // backlog becomes flights
        ctx.sends.clear();
        ctx.timers.clear();
        t.queue(1, Num(3)); // backlogged, never transmitted
        assert_eq!(t.pending_count(), 4);
        t.retain_peers(&[2]);
        assert_eq!(t.pending_count(), 1, "peer 2's flight survives");
        assert_eq!(t.counters().gave_up, 3, "peer 1: 2 flights + 1 backlog");
    }

    /// The invariant `flush`'s early return rests on: right after a flush,
    /// and until the next state change or retransmit timer, a flush has
    /// nothing to emit and nothing to arm. Random `queue` / `on_data` /
    /// `on_ack` / `on_timer` / `retain_peers` sequences, each followed by a
    /// flush; a clone with the change flag forced on then flushes again at
    /// a time before the next armed timer, and must stay silent.
    #[test]
    fn a_flush_after_a_flush_emits_nothing() {
        use rand::{Rng, SeedableRng};
        let cfg = ReliableConfig {
            window: 3,
            rto: 4,
            rto_max: 16,
            max_retries: 2,
        };
        let (mut sent, mut armed, mut retransmits) = (0, 0, 0);
        for seed in 0..64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut t: Transport<Num> = Transport::new(cfg);
            let mut timers = BTreeSet::new();
            let mut now = 0;
            for step in 0..400 {
                let at = now + rng.gen_range(0..3u64);
                let peer = rng.gen_range(1..5);
                match timers.first() {
                    // The runtime fires a node's timers before its deliveries.
                    Some(&fire) if fire <= at => {
                        timers.pop_first();
                        now = fire;
                        t.on_timer(now);
                    }
                    _ => {
                        now = at;
                        match rng.gen_range(0..4) {
                            0 => t.queue(peer, Num(step)),
                            1 => {
                                let seq = rng.gen_range(0..24);
                                let lo = rng.gen_range(0..=seq);
                                t.on_data(peer, seq, lo, Num(step));
                            }
                            2 => t.on_ack(peer, rng.gen_range(0..24)),
                            _ => {
                                let keep: Vec<u32> = (1..5).filter(|_| rng.gen_bool(0.8)).collect();
                                t.retain_peers(&keep);
                            }
                        }
                    }
                }
                let mut ctx = Ctx::new(0, now);
                t.flush(&mut ctx);
                sent += ctx.sends.len();
                armed += ctx.timers.len();
                timers.extend(ctx.timers.iter().map(|&(at, _)| at));
                let until = timers.first().map_or(now + 8, |&fire| fire - 1);
                let mut witness = t.clone();
                witness.changed = true;
                let mut ctx = Ctx::new(0, rng.gen_range(now..=until));
                witness.flush(&mut ctx);
                assert!(
                    ctx.sends.is_empty() && ctx.timers.is_empty(),
                    "seed {seed}, step {step}: a repeated flush emitted {:?}, armed {:?}",
                    ctx.sends,
                    ctx.timers
                );
            }
            retransmits += t.counters().retransmits;
        }
        assert!(
            sent > 10_000 && armed > 1_000 && retransmits > 1_000,
            "{sent} sends, {armed} timers, {retransmits} retransmits"
        );
    }

    #[test]
    fn same_seed_same_replay() {
        let faults = FaultConfig {
            drop_prob: 0.3,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 5 },
        };
        let run = |seed| {
            let mut rt = pump_pair(
                60,
                ReliableConfig::default(),
                faults,
                seed,
                &ChurnPlan::new(),
            );
            rt.run(1);
            (rt.transcript().digest(), rt.stats().clone())
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).0, run(10).0);
    }

    #[test]
    fn backoff_is_capped() {
        let cfg = ReliableConfig {
            rto: 16,
            rto_max: 100,
            ..ReliableConfig::default()
        };
        assert_eq!(cfg.backoff(0), 16);
        assert_eq!(cfg.backoff(1), 32);
        assert_eq!(cfg.backoff(2), 64);
        assert_eq!(cfg.backoff(3), 100);
        assert_eq!(cfg.backoff(60), 100);
    }

    #[test]
    fn ack_messages_are_bucketed_separately() {
        let mut rt = pump_pair(
            10,
            ReliableConfig::default(),
            FaultConfig::ideal(),
            2,
            &ChurnPlan::new(),
        );
        rt.run(1);
        assert!(rt.stats().per_kind["ack"].sent > 0);
        assert_eq!(rt.stats().per_kind["num"].sent, 10);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn inner_timer_colliding_with_reserved_id_panics() {
        #[derive(Debug)]
        struct Bad;
        impl Actor for Bad {
            type Msg = Num;
            fn on_start(&mut self, ctx: &mut Ctx<Num>) {
                ctx.set_timer(1, RELIABLE_TIMER);
            }
            fn on_message(&mut self, _: &mut Ctx<Num>, _: u32, _: Num) {}
        }
        let nodes = vec![ReliableActor::new(
            Bad,
            ReliableConfig::default(),
            always as fn(&Num) -> bool,
        )];
        let mut rt = Runtime::new(
            nodes,
            &[Point::new(0.0, 0.0)],
            1.0,
            FaultConfig::ideal(),
            1,
            &ChurnPlan::new(),
        );
        rt.start();
    }
}
