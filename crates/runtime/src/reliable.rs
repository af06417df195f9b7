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
//!   other way or on a [`ReliableMsg::Ack`], which rides a best-effort
//!   message to the same peer or, with nothing to ride, goes alone;
//! * unacknowledged data is retransmitted once its per-packet deadline
//!   passes; the deadline backs off exponentially (`rto · 2^retries`,
//!   capped at `rto_max`) until [`ReliableConfig::max_retries`] is
//!   exhausted, at which point the sender abandons the packet and
//!   advertises the new window base (`lo`) so the receiver's cumulative
//!   ack can skip the hole instead of stalling the link forever.
//!
//! The transport borrows the wrapped actor's clock: that actor's timers
//! are the transport's *ticks* ([`ReliableActor`] records when the next
//! one is due), and on every tick:
//!
//! * every owed ack leaves, riding the best-effort unicast the tick sends
//!   to its peer (a gossip node's height frame) or alone. Between ticks an
//!   ack owed after a delivery is held if the next tick is at most
//!   `rto / 2` away; otherwise, or with no tick pending, it leaves in the
//!   same callback;
//! * flight deadlines are checked. The transport arms its own
//!   [`RELIABLE_TIMER`] only when no tick is due by the earliest deadline,
//!   and a stale firing of it (before that deadline) is skipped in O(1).
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
//! worth less than the next periodic refresh. The wrapper is the outer
//! layer, so the acks a message carries are always the node's own, even
//! on a frame the gossip node's radio forged.

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
    /// A cumulative ack owed after a delivery and carried by no reverse
    /// data. It rides the next best-effort unicast to its peer (`payload`),
    /// which leaves at the sender's next tick if that is at most `rto / 2`
    /// away, or goes standalone (`payload: None`) when that tick sends the
    /// peer nothing or no tick is near.
    Ack {
        /// Every sequence number `< ack` has been received.
        ack: u64,
        /// The best-effort message the ack rides, delivered like
        /// [`ReliableMsg::Raw`].
        payload: Option<M>,
    },
    /// Best-effort passthrough: broadcasts and unicasts the wrapper's
    /// predicate left unprotected.
    Raw(M),
}

impl<M: Message> Message for ReliableMsg<M> {
    /// Envelopes with a payload keep its kind so per-kind counters (and
    /// the retransmit overhead they reveal) stay comparable with
    /// fire-and-forget runs; standalone acks get their own bucket.
    fn kind(&self) -> &'static str {
        match self {
            ReliableMsg::Data { payload, .. }
            | ReliableMsg::Ack {
                payload: Some(payload),
                ..
            }
            | ReliableMsg::Raw(payload) => payload.kind(),
            ReliableMsg::Ack { payload: None, .. } => "ack",
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
            ReliableMsg::Ack { ack, payload } => {
                w.u8(1);
                w.u64(*ack);
                w.u8(u8::from(payload.is_some()));
                if let Some(payload) = payload {
                    payload.digest_into(w);
                }
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
    /// Standalone acks emitted (acks that ride data or a best-effort
    /// message are free).
    pub acks_sent: u64,
    /// Firings of the transport's own [`RELIABLE_TIMER`], stale ones
    /// included. Deadlines checked on the wrapped actor's ticks are not
    /// counted: the timer is armed only when no tick comes by the earliest
    /// deadline.
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
    /// An ack is owed: data arrived since an ack to this peer last left.
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
    /// When a pending tick of the wrapped actor fires (`u64::MAX` if none
    /// is known): the earliest armed since the transport last knew none.
    /// Its firing clears it, so a tick armed before it is forgotten; that
    /// only makes acks leave sooner and the transport arm its own timer.
    /// An actor that re-arms one timer per tick, as gossip does, is
    /// tracked exactly.
    next_tick: u64,
    /// The earliest flight deadline as of the last flush (`u64::MAX`
    /// without flights). No flight is due before it: every change to the
    /// flights marks the state changed, and the next flush recomputes it.
    next_deadline: u64,
    /// Some peer may be owed an ack ([`RecvState::ack_due`]).
    acks_owed: bool,
    /// A tick fired since the last flush, which releases every owed ack.
    ticked: bool,
    /// Send-side state changed since the last flush.
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
            next_tick: u64::MAX,
            next_deadline: u64::MAX,
            acks_owed: false,
            ticked: false,
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

    /// Process a cumulative ack from `peer` (standalone, riding, or
    /// piggybacked on data): settle every flight with sequence number
    /// below `ack`. An ack that settles nothing changes nothing.
    pub fn on_ack(&mut self, peer: u32, ack: u64) {
        if let Some(ss) = self.send.get_mut(&peer) {
            if ss
                .flights
                .first_key_value()
                .is_some_and(|(&seq, _)| seq < ack)
            {
                ss.flights = ss.flights.split_off(&ack);
                self.changed = true;
            }
        }
    }

    /// Process an incoming data envelope from `peer`. Returns the payload
    /// exactly once per sequence number; duplicates yield `None` (but
    /// still owe the peer an ack, so lost acks get repaired).
    pub fn on_data(&mut self, peer: u32, seq: u64, lo: u64, payload: M) -> Option<M> {
        self.acks_owed = true;
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

    /// The ack owed to `to`, if any, now leaving on a best-effort message
    /// there.
    pub fn take_ack(&mut self, to: u32) -> Option<u64> {
        if !self.acks_owed {
            return None;
        }
        let rs = self.recv.get_mut(&to).filter(|rs| rs.ack_due)?;
        rs.ack_due = false;
        Some(rs.expected)
    }

    /// The wrapped actor armed a timer due at `at`: a tick.
    pub fn tick_armed(&mut self, at: u64) {
        self.next_tick = self.next_tick.min(at);
    }

    /// The wrapped actor's timer due at `now` fired: check the flight
    /// deadlines, and have the next flush release every owed ack.
    pub fn on_tick(&mut self, now: u64) {
        if self.next_tick == now {
            self.next_tick = u64::MAX;
        }
        self.ticked = true;
        self.check_deadlines(now);
    }

    /// Handle a [`RELIABLE_TIMER`] firing at virtual time `now`.
    pub fn on_timer(&mut self, now: u64) {
        self.counters.rto_fired += 1;
        self.armed.remove(&now);
        self.check_deadlines(now);
    }

    /// Mark every overdue flight for retransmission (or abandon it once
    /// the retry budget is spent), backing its deadline off exponentially.
    /// Before the earliest deadline this returns at once.
    fn check_deadlines(&mut self, now: u64) {
        if now < self.next_deadline {
            return;
        }
        self.changed = true;
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
    /// of burning the whole retry budget against a dead link, and an ack
    /// still owed to it is dropped, since it could only die as a
    /// non-neighbor send. An armed retransmit timer stays armed — timers
    /// are uncancellable — and its firing is skipped in O(1) when no
    /// flight is due.
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
        for (peer, rs) in self.recv.iter_mut() {
            rs.ack_due &= peers.binary_search(peer).is_ok();
        }
        self.pending_retx
            .retain(|(peer, _)| peers.binary_search(peer).is_ok());
    }

    /// Emit everything owed to the wire, in three stages:
    ///
    /// 1. after a send-side change, retransmissions and fresh data up to
    ///    the window, then the earliest flight deadline is recomputed;
    /// 2. owed acks, standalone: at a tick all of them (those that rode a
    ///    best-effort message are no longer owed), otherwise only if no
    ///    tick comes within `rto / 2`, which would carry them;
    /// 3. the retransmit timer for the earliest deadline, unless a tick or
    ///    an already-armed (uncancellable) timer fires no later than it.
    ///
    /// Stages 2 and 3 cost O(1) when they emit nothing, and stage 1 runs
    /// only after [`queue`](Self::queue), a settling
    /// [`on_ack`](Self::on_ack), a due deadline or
    /// [`retain_peers`](Self::retain_peers). So a flush right after a
    /// flush, before the next tick or timer, emits and arms nothing.
    pub fn flush(&mut self, ctx: &mut Ctx<ReliableMsg<M>>) {
        let now = ctx.now();
        if std::mem::take(&mut self.changed) {
            self.transmit(ctx);
        }
        if std::mem::take(&mut self.ticked) || self.next_tick > now + self.cfg.rto / 2 {
            self.send_owed_acks(ctx);
        }
        let e = self.next_deadline;
        if e < u64::MAX && self.next_tick > e && self.armed.first().is_none_or(|&a| a > e) {
            let delay = e.saturating_sub(now).max(1);
            ctx.set_timer(delay, RELIABLE_TIMER);
            self.armed.insert(now + delay);
        }
    }

    /// Stage 1 of [`flush`](Self::flush): retransmissions (with refreshed
    /// piggyback acks), then the backlog slid into freed window space.
    fn transmit(&mut self, ctx: &mut Ctx<ReliableMsg<M>>) {
        let now = ctx.now();
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
        self.next_deadline = self
            .send
            .values()
            .flat_map(|s| s.flights.values().map(|f| f.deadline))
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Stage 2 of [`flush`](Self::flush): a standalone ack for every peer
    /// still owed one.
    fn send_owed_acks(&mut self, ctx: &mut Ctx<ReliableMsg<M>>) {
        if !std::mem::take(&mut self.acks_owed) {
            return;
        }
        for (&peer, rs) in self.recv.iter_mut() {
            if rs.ack_due {
                rs.ack_due = false;
                self.counters.acks_sent += 1;
                ctx.send(
                    peer,
                    ReliableMsg::Ack {
                        ack: rs.expected,
                        payload: None,
                    },
                );
            }
        }
    }
}

/// Wraps an inner [`Actor`] so that unicast sends selected by the
/// predicate ride the reliable transport, everything else goes out
/// best-effort as [`ReliableMsg::Raw`], or as a [`ReliableMsg::Ack`] when
/// an ack is owed to its peer. The wrapper owns timer id
/// [`RELIABLE_TIMER`]; all other timers pass through untouched, and their
/// firings are the transport's ticks.
pub struct ReliableActor<A: Actor> {
    inner: A,
    transport: Transport<A::Msg>,
    select: fn(&A::Msg) -> bool,
    /// Effect buffer of the inner actor, drained (and released) after
    /// every callback.
    ic: Ctx<A::Msg>,
}

impl<A: Actor> ReliableActor<A> {
    /// Wrap `inner`; `select` returns true for messages that must be
    /// delivered reliably.
    pub fn new(inner: A, cfg: ReliableConfig, select: fn(&A::Msg) -> bool) -> Self {
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
    /// wire, each unicast carrying the ack owed to its peer if there is
    /// one, and timers passed through and recorded as ticks.
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
            } else if let Some(ack) = self.transport.take_ack(to) {
                let payload = Some(m);
                ctx.send(to, ReliableMsg::Ack { ack, payload });
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
            self.transport.tick_armed(at);
            ctx.set_timer(at.saturating_sub(ctx.now()), id);
        }
        self.ic.release();
    }
}

impl<A> fmt::Debug for ReliableActor<A>
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

impl<A: Actor> Actor for ReliableActor<A> {
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
            ReliableMsg::Ack { ack, payload } => {
                self.transport.on_ack(from, ack);
                if let Some(m) = payload {
                    self.deliver(ctx, |a, ic| a.on_message(ic, from, m));
                }
            }
        }
        self.transport.flush(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, timer: u32) {
        if timer == RELIABLE_TIMER {
            self.transport.on_timer(ctx.now());
        } else {
            self.transport.on_tick(ctx.now());
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
        let ack = |ack, p: Option<u32>| ReliableMsg::Ack {
            ack,
            payload: p.map(Num),
        };
        let msgs = [
            data(1, 2, 3, 4),
            data(9, 2, 3, 4),
            data(1, 9, 3, 4),
            data(1, 2, 9, 4),
            data(1, 2, 3, 9),
            ack(1, None),
            ack(2, None),
            ack(1, Some(0)),
            ack(1, Some(1)),
            ack(2, Some(1)),
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

    type Wrapped = ReliableActor<Pump>;

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
                    always,
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
        t.on_data(1, 0, 0, Num(4)); // owes peer 1 an ack
        assert_eq!(t.pending_count(), 4);
        t.retain_peers(&[2]);
        assert_eq!(t.pending_count(), 1, "peer 2's flight survives");
        assert_eq!(t.counters().gave_up, 3, "peer 1: 2 flights + 1 backlog");
        t.flush(&mut ctx);
        assert!(ctx.sends.is_empty(), "no ack to a vanished peer");
    }

    /// The invariant `flush`'s cheap path rests on: right after a flush,
    /// and until the next state change, tick or retransmit timer, a flush
    /// has nothing to emit and nothing to arm. Random `queue` / `on_data` /
    /// `on_ack` / `retain_peers` sequences, interleaved with ticks (each
    /// arming the next until the actor stops ticking, and some taking owed
    /// acks onto a best-effort unicast) and retransmit timers, each
    /// followed by a flush; a clone with the change flag forced on then
    /// flushes again at a time before the next tick or timer, and must
    /// stay silent.
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
        let (mut held, mut rode) = (0, 0);
        for seed in 0..64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut t: Transport<Num> = Transport::new(cfg);
            let mut timers = BTreeSet::new();
            let stop_ticking = rng.gen_range(0..600u64);
            let mut tick = Some(1);
            t.tick_armed(1);
            let mut now = 0;
            for step in 0..400 {
                let at = now + rng.gen_range(0..3u64);
                let peer = rng.gen_range(1..5);
                let timer = timers.first().copied().filter(|&fire| fire <= at);
                let tick_due = tick.filter(|&fire| fire <= at && timer.is_none_or(|t| fire <= t));
                // The runtime fires a node's timers, ticks included,
                // before its deliveries.
                if let Some(fire) = tick_due {
                    now = fire;
                    t.on_tick(now);
                    for peer in 1..5 {
                        if rng.gen_bool(0.5) && t.take_ack(peer).is_some() {
                            rode += 1;
                        }
                    }
                    tick = (now < stop_ticking).then(|| now + rng.gen_range(1..6u64));
                    if let Some(next) = tick {
                        t.tick_armed(next);
                    }
                } else if let Some(fire) = timer {
                    timers.pop_first();
                    now = fire;
                    t.on_timer(now);
                } else {
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
                let mut ctx = Ctx::new(0, now);
                t.flush(&mut ctx);
                sent += ctx.sends.len();
                armed += ctx.timers.len();
                timers.extend(ctx.timers.iter().map(|&(at, _)| at));
                assert_eq!(
                    t.next_tick,
                    tick.unwrap_or(u64::MAX),
                    "seed {seed}, step {step}"
                );
                if t.recv.values().any(|r| r.ack_due) {
                    held += 1;
                }
                let next = timers.first().into_iter().chain(&tick).min();
                let until = next.map_or(now + 8, |&fire| fire - 1);
                if until < now {
                    continue; // a timer and a tick at the same instant
                }
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
            sent > 10_000 && armed > 1_000 && retransmits > 1_000 && held > 1_000 && rode > 500,
            "{sent} sends, {armed} timers, {retransmits} retransmits, {held} held, {rode} rode"
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

    /// Payload of the best-effort beats [`Beat`] sends.
    const BEAT: u32 = u32::MAX;

    /// Two nodes that tick every `period` ticks, `ticks` times: at each
    /// tick node 0 sends node 1 the next of `total` reliable payloads, and
    /// a node with `beats` set sends the other a best-effort beat. Node 1
    /// records the payloads it receives.
    #[derive(Debug, Clone)]
    struct Beat {
        id: u32,
        period: u64,
        ticks: u32,
        beats: bool,
        total: u32,
        emitted: u32,
        got: Vec<u32>,
    }

    impl Actor for Beat {
        type Msg = Num;

        fn on_start(&mut self, ctx: &mut Ctx<Num>) {
            if self.ticks > 0 {
                ctx.set_timer(self.period, 0);
            }
        }

        fn on_message(&mut self, _ctx: &mut Ctx<Num>, _from: u32, msg: Num) {
            if msg.0 != BEAT {
                self.got.push(msg.0);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Num>, _timer: u32) {
            let peer = 1 - self.id;
            if self.id == 0 && self.emitted < self.total {
                ctx.send(peer, Num(self.emitted));
                self.emitted += 1;
            }
            if self.beats {
                ctx.send(peer, Num(BEAT));
            }
            self.ticks -= 1;
            if self.ticks > 0 {
                ctx.set_timer(self.period, 0);
            }
        }
    }

    fn not_beat(n: &Num) -> bool {
        n.0 != BEAT
    }

    /// A [`Beat`] node behind the reliable wrapper, watched from outside:
    /// its ticks, when each ack became owed (a data envelope arrived) and
    /// when it left (an envelope carrying an ack went to that peer).
    #[derive(Debug)]
    struct Watch {
        node: ReliableActor<Beat>,
        rto: u64,
        /// Fire times of the node's pending ticks.
        ticks: Vec<u64>,
        /// Peer → when its oldest unsent ack became owed.
        owed: BTreeMap<u32, u64>,
        /// Longest time an ack stayed owed.
        longest_wait: u64,
        /// Callbacks that ended with an ack owed and no tick pending.
        stranded: u32,
        /// Standalone acks sent although the node beat its peer at a tick
        /// that was at most `rto / 2` away, or at this very tick.
        needless: u32,
    }

    impl Watch {
        fn after(&mut self, ctx: &Ctx<ReliableMsg<Num>>, at_tick: bool) {
            let now = ctx.now();
            let ticks = ctx.timers.iter().filter(|&&(_, id)| id != RELIABLE_TIMER);
            self.ticks.extend(ticks.map(|&(at, _)| at));
            let next_tick = self.ticks.iter().min().copied();
            let could_ride = self.node.inner().beats
                && (at_tick || next_tick.is_some_and(|t| t <= now + self.rto / 2));
            for (to, m) in &ctx.sends {
                if let ReliableMsg::Data { .. } | ReliableMsg::Ack { .. } = m {
                    if let Some(since) = self.owed.remove(to) {
                        self.longest_wait = self.longest_wait.max(now - since);
                    }
                }
                if m.kind() == "ack" && could_ride {
                    self.needless += 1;
                }
            }
            if !self.owed.is_empty() && self.ticks.is_empty() {
                self.stranded += 1;
            }
        }
    }

    impl Actor for Watch {
        type Msg = ReliableMsg<Num>;

        fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
            self.node.on_start(ctx);
            self.after(ctx, false);
        }

        fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: u32, msg: Self::Msg) {
            if let ReliableMsg::Data { .. } = msg {
                self.owed.entry(from).or_insert(ctx.now());
            }
            self.node.on_message(ctx, from, msg);
            self.after(ctx, false);
        }

        fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, timer: u32) {
            let tick = timer != RELIABLE_TIMER;
            if tick {
                let i = self.ticks.iter().position(|&t| t == ctx.now());
                self.ticks
                    .swap_remove(i.expect("a tick fires when it is due"));
            }
            self.node.on_timer(ctx, timer);
            self.after(ctx, tick);
        }
    }

    /// One beat per tick per node for `ticks` ticks, node 0 sending one of
    /// `total` reliable payloads per tick; node 1 ticks `ticks1` times.
    #[allow(clippy::too_many_arguments)]
    fn beat_pair(
        period: u64,
        ticks: u32,
        ticks1: u32,
        beats: [bool; 2],
        total: u32,
        cfg: ReliableConfig,
        faults: FaultConfig,
        seed: u64,
    ) -> Runtime<Watch> {
        let nodes: Vec<Watch> = (0..2)
            .map(|id| Watch {
                node: ReliableActor::new(
                    Beat {
                        id,
                        period,
                        ticks: if id == 0 { ticks } else { ticks1 },
                        beats: beats[id as usize],
                        total,
                        emitted: 0,
                        got: Vec::new(),
                    },
                    cfg,
                    not_beat,
                ),
                rto: cfg.rto,
                ticks: Vec::new(),
                owed: BTreeMap::new(),
                longest_wait: 0,
                stranded: 0,
                needless: 0,
            })
            .collect();
        let positions = [Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        Runtime::new(nodes, &positions, 1.5, faults, seed, &ChurnPlan::new())
    }

    /// Two ticking nodes on ideal links, one carrying reliable data and
    /// both beating each other every tick: every ack rides a beat, and no
    /// standalone ack leaves either node.
    #[test]
    fn acks_ride_best_effort_unicasts() {
        let cfg = ReliableConfig::default();
        for period in [1, 4, 8] {
            let mut rt = beat_pair(period, 45, 50, [true; 2], 40, cfg, FaultConfig::ideal(), 1);
            rt.run(1);
            assert_eq!(rt.node(1).node.inner().got.len(), 40);
            for id in 0..2 {
                assert_eq!(rt.node(id).node.counters().acks_sent, 0, "period {period}");
                assert_eq!(rt.node(id).node.pending_count(), 0, "period {period}");
            }
            assert!(!rt.stats().per_kind.contains_key("ack"), "period {period}");
        }
    }

    /// A sender whose ticks stop (a `Pump` after its `total`) still
    /// retransmits on the transport's own timer, and the run quiesces.
    #[test]
    fn retransmits_outlive_the_last_tick() {
        let cfg = ReliableConfig {
            max_retries: 3,
            ..ReliableConfig::default()
        };
        let mut rt = pump_pair(1, cfg, FaultConfig::lossy(1.0), 5, &ChurnPlan::new());
        assert!(rt.run_with_limit(100_000));
        let c = rt.node(0).counters();
        assert_eq!((c.retransmits, c.gave_up), (3, 1));
        assert!(c.rto_fired >= 3, "{c:?}");
        for seed in 0..20 {
            let faults = FaultConfig::lossy(0.6);
            let mut rt = pump_pair(
                3,
                ReliableConfig::default(),
                faults,
                seed,
                &ChurnPlan::new(),
            );
            assert!(rt.run_with_limit(100_000), "seed {seed}");
            assert_eq!(rt.node(1).inner().got.len(), 3, "seed {seed}");
            assert_eq!(rt.node(0).pending_count(), 0, "seed {seed}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Over random delays, loss, duplication, tick periods (1 tick
        /// included) and retransmit timeouts: every owed ack leaves within
        /// `rto / 2`; a node with no tick pending acks in the same
        /// callback; an ack never leaves standalone when a beat to its
        /// peer was at most `rto / 2` away; and delivery is exactly-once.
        #[test]
        fn owed_acks_leave_within_half_an_rto(
            period in 1..=10u64,
            rto in 1..=24u64,
            loss in 0.0..0.3f64,
            dup in 0.0..0.2f64,
            delay in (1..=4u64, 0..=6u64),
            total in 1..=40u32,
            extra in 0..=20u32,
            ticks1 in 0..=80u32,
            beats in (0..2u8, 0..2u8),
            seed in 0..1_000_000u64,
        ) {
            let cfg = ReliableConfig {
                rto,
                rto_max: 8 * rto,
                ..ReliableConfig::default()
            };
            let faults = FaultConfig {
                drop_prob: loss,
                duplicate_prob: dup,
                delay: DelayDist::Uniform { min: delay.0, max: delay.0 + delay.1 },
            };
            let beats = [beats.0 == 1, beats.1 == 1];
            let mut rt = beat_pair(period, total + extra, ticks1, beats, total, cfg, faults, seed);
            proptest::prop_assert!(rt.run_with_limit(1_000_000));
            for id in 0..2 {
                let w = rt.node(id);
                proptest::prop_assert!(w.owed.is_empty(), "node {id}: {:?} still owed", w.owed);
                proptest::prop_assert!(w.longest_wait <= rto / 2, "node {id}: {}", w.longest_wait);
                proptest::prop_assert_eq!(w.stranded, 0, "node {id}");
                proptest::prop_assert_eq!(w.needless, 0, "node {id}");
            }
            let mut got = rt.node(1).node.inner().got.clone();
            got.sort_unstable();
            got.dedup();
            proptest::prop_assert_eq!(got.len(), rt.node(1).node.inner().got.len());
            let gave_up = rt.node(0).node.counters().gave_up;
            proptest::prop_assert!(got.len() as u64 + gave_up >= u64::from(total));
            proptest::prop_assert_eq!(rt.node(0).node.pending_count(), 0);
        }
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
        let nodes = vec![ReliableActor::new(Bad, ReliableConfig::default(), always)];
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
