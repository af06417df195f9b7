//! The node-actor abstraction: local state machines driven by messages
//! and timers.
//!
//! An [`Actor`] sees only its own state plus whatever arrives in its
//! mailbox — the locality discipline of the paper made structural: a
//! protocol implemented against this trait *cannot* read another node's
//! state, so whatever topology or routing behaviour emerges is provably
//! the product of local computation and received messages.

use crate::event::release;
use crate::stats::DigestWriter;
use adhoc_geom::Point;
use std::fmt::Debug;

/// A message type usable by the runtime. `kind` labels the message for
/// per-kind counters ([`NetStats`](crate::NetStats)); `digest_into`
/// writes its binary encoding into the replay digest, so two runs with
/// equal digests exchanged identical message sequences. The `Debug`
/// rendering appears only in recorded transcripts
/// ([`Runtime::record_trace`](crate::Runtime::record_trace)).
pub trait Message: Clone + Debug {
    /// A short static label for stats bucketing (e.g. `"position"`).
    fn kind(&self) -> &'static str {
        "msg"
    }

    /// Write this message into the replay digest: a variant tag (for
    /// enums), then every field, with sequences length-prefixed
    /// ([`DigestWriter::len_prefix`]), so that distinct messages never
    /// write the same bytes. A message whose copies share a large body
    /// keeps it behind an `Arc` with its encoding digest, taken once when
    /// the body is built, and writes that `u64` (ΘALG's
    /// [`Beacon`](crate::Beacon), gossip's [`HeightFrame`](crate::HeightFrame)).
    fn digest_into(&self, w: &mut DigestWriter);
}

/// A node's local state machine. All methods receive a [`Ctx`] through
/// which the node may send messages, broadcast to its radio neighborhood,
/// and arm timers; everything else is private state.
pub trait Actor {
    /// The protocol's message alphabet.
    type Msg: Message;

    /// Called once at virtual time 0, before any delivery.
    fn on_start(&mut self, _ctx: &mut Ctx<Self::Msg>) {}

    /// A message from `from` arrives in this node's mailbox.
    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: u32, msg: Self::Msg);

    /// A previously armed timer fires. `timer` is the id passed to
    /// [`Ctx::set_timer`].
    fn on_timer(&mut self, _ctx: &mut Ctx<Self::Msg>, _timer: u32) {}

    /// This node's one-hop world changed at a churn boundary: a neighbor
    /// joined, left, or drifted, or the node itself joined, drifted, or
    /// gracefully left. `neighbors` is the node's new radio-neighbor row
    /// (sorted; empty for a node that just left) and `pos` its current
    /// position. Joining nodes get *no* `on_start` — this callback is
    /// their bootstrap. Default: ignore churn.
    fn on_neighborhood_change(
        &mut self,
        _ctx: &mut Ctx<Self::Msg>,
        _neighbors: &[u32],
        _pos: Point,
    ) {
    }
}

/// Most entries each effect vector of a kept [`Ctx`] holds on to once
/// drained (see [`Ctx::release`]). Four is what a `Vec` of these entries
/// first allocates, so a node that emits a message or two per callback
/// allocates its buffers once; each doubling past it raised the gossip
/// benchmark's peak memory by about 1 %.
const CTX_KEEP: usize = 4;

/// Effect buffer handed to actor callbacks: the runtime drains it after
/// each callback, applying link faults to every outgoing message in
/// emission order.
#[derive(Debug)]
pub struct Ctx<M> {
    pub(crate) node: u32,
    now: u64,
    pub(crate) sends: Vec<(u32, M)>,
    pub(crate) broadcasts: Vec<M>,
    pub(crate) timers: Vec<(u64, u32)>,
}

impl<M> Default for Ctx<M> {
    fn default() -> Self {
        Ctx::new(0, 0)
    }
}

impl<M> Ctx<M> {
    pub(crate) fn new(node: u32, now: u64) -> Self {
        Ctx {
            node,
            now,
            sends: Vec::new(),
            broadcasts: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Re-aim a drained buffer at another callback. The runtime reuses one
    /// `Ctx` across all callbacks so the per-event hot path never
    /// allocates; the effect vectors keep their capacity between events.
    pub(crate) fn reset(&mut self, node: u32, now: u64) {
        debug_assert!(
            self.sends.is_empty() && self.broadcasts.is_empty() && self.timers.is_empty(),
            "Ctx reset before being drained"
        );
        self.node = node;
        self.now = now;
    }

    /// Free each drained effect vector that grew past [`CTX_KEEP`]. A
    /// wrapper that keeps an inner `Ctx` per node calls this after every
    /// drain, so that one busy callback (a gossip round to every neighbor)
    /// does not leave each node holding a buffer of that size.
    pub(crate) fn release(&mut self) {
        release(&mut self.sends, CTX_KEEP);
        release(&mut self.broadcasts, CTX_KEEP);
        release(&mut self.timers, CTX_KEEP);
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.node
    }

    /// Current virtual time (ticks).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Unicast `msg` to node `to` (subject to link faults).
    pub fn send(&mut self, to: u32, msg: M) {
        self.sends.push((to, msg));
    }

    /// Broadcast `msg` to every node within radio range: each neighbor
    /// gets a clone, which traverses its link independently (faults are
    /// per-receiver), so a large body belongs behind an `Arc`.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcasts.push(msg);
    }

    /// Arm a timer to fire `delay` ticks from now (minimum 1), passing
    /// `timer` back to [`Actor::on_timer`].
    pub fn set_timer(&mut self, delay: u64, timer: u32) {
        self.timers.push((self.now + delay.max(1), timer));
    }
}
