//! Byzantine adversary subsystem: seeded plans of lying, stealing, and
//! equivocating nodes, run through a digest-stable interposer.
//!
//! Theorem 3.1 proves `(T, γ)`-balancing competitive under fully
//! adversarial edge activations, costs, and injections — but it silently
//! assumes every node *reports its buffer heights honestly*. A node that
//! lies can invert the potential-function argument: advertising height 0
//! attracts every neighbor's packets (then steals or overflows them),
//! advertising ∞ repels all traffic and starves links, and telling
//! different neighbors different things corrupts the gradient itself.
//! This module makes those attacks first-class and measurable:
//!
//! * an [`AdversaryPlan`] (mirroring [`crate::ChurnPlan`]) schedules
//!   which nodes turn Byzantine, when, and with which composable
//!   [`Attack`] behaviors;
//! * [`AdversarialActor`] wraps any protocol actor whose message type
//!   implements [`AdversaryTarget`] and applies the node's active
//!   attacks to its *wire interface* — outgoing frames are forged,
//!   targeted incoming data frames are consumed — while the inner actor
//!   runs unmodified (a compromised node still executes the honest
//!   protocol; the adversary owns its radio, not its code);
//! * consumed packets are booked as [`Custody::Stolen`] /
//!   [`Custody::Blackholed`] so the conservation ledger stays exact:
//!   stolen traffic is *visible*, never silently vanished.
//!
//! Every behavior is a pure function of `(node, time, message, sender)`
//! over deterministic local state — no RNG, no wall clock — so
//! adversarial runs replay bit-identically at every shard-thread count,
//! exactly like honest ones. With an empty plan the interposer hands the
//! inner actor the runtime's own effect buffer, making the wrapper a
//! true no-op: byte-identical transcripts, pinned by the golden-fixture
//! regression suite.
//!
//! The matching defense layer (height plausibility, starvation probing,
//! and cross-neighbor attestation feeding a quarantine score) lives in
//! the protocol itself — see [`crate::gossip::DefenseConfig`] — because
//! defending is a *protocol* concern: the runtime only makes attacking
//! reproducible.

use crate::gossip::DedupWindow;
use crate::node::{Actor, Ctx, Message};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::fmt;

/// One composable Byzantine behavior. Attacks forge the node's *wire*
/// traffic; the inner protocol actor keeps running honestly and never
/// learns it is compromised.
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// Height deflation: every outgoing control frame advertises height
    /// 0 for every destination, attracting neighbors' packets. With
    /// `blackhole`, incoming data frames are eaten before the inner
    /// actor sees them ([`Custody::Stolen`]); without it they pile into
    /// the honest buffer until it genuinely overflows.
    Deflate {
        /// Steal attracted packets instead of letting them overflow.
        blackhole: bool,
    },
    /// Height inflation: advertise `u32::MAX` everywhere, repelling all
    /// traffic and starving the node's links. Caught by the defense's
    /// capacity plausibility check — honest heights never exceed the
    /// configured buffer capacity.
    Inflate,
    /// Stale replay: freeze the first control frame emitted after
    /// activation and re-gossip its contents forever, re-stamped with
    /// the current step so the receiver's step-stamp ordering check
    /// (which only refuses *older* stamps) is defeated from within its
    /// tolerance.
    Replay,
    /// Selective drop: control traffic passes through untouched, but
    /// data frames arriving from the listed link-level senders are eaten
    /// ([`Custody::Blackholed`]). The stealthiest attack: the node's
    /// advertised heights stay honest.
    SelectiveDrop {
        /// Link-level senders whose data frames are dropped.
        sources: Vec<u32>,
    },
    /// Equivocation: tell different neighbors different heights (zeros
    /// to even node ids, `u32::MAX` to odd ones), corrupting the
    /// gradient inconsistently. Only unicast control frames are
    /// differentiated — a radio broadcast is one transmission and
    /// cannot per-receiver equivocate. Caught by signed-digest
    /// attestation among common neighbors.
    Equivocate,
}

/// One scheduled compromise: `node` activates `attack` at virtual time
/// `at` (and keeps it forever — Byzantine nodes do not repent).
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryEntry {
    /// Virtual activation time.
    pub at: u64,
    /// The compromised node.
    pub node: u32,
    /// The behavior it activates.
    pub attack: Attack,
}

/// A declarative schedule of compromises, mirroring
/// [`crate::ChurnPlan`]: build with the chainable constructors or
/// [`AdversaryPlan::random`], then hand it to
/// [`crate::gossip::run_gossip_balancing_adversarial`]. Multiple
/// attacks on one node compose in activation order. Unlike churn
/// entries, activation times need no lookahead snapping: an attack is a
/// pure function of `(time, message, sender)`, so it applies identically
/// at every thread count wherever the time falls.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AdversaryPlan {
    entries: Vec<AdversaryEntry>,
}

impl AdversaryPlan {
    /// An empty plan (every node honest).
    pub fn new() -> Self {
        AdversaryPlan::default()
    }

    /// Schedule `node` to start deflating at `at`.
    pub fn deflate(mut self, at: u64, node: u32, blackhole: bool) -> Self {
        self.entries.push(AdversaryEntry {
            at,
            node,
            attack: Attack::Deflate { blackhole },
        });
        self
    }

    /// Schedule `node` to start inflating at `at`.
    pub fn inflate(mut self, at: u64, node: u32) -> Self {
        self.entries.push(AdversaryEntry {
            at,
            node,
            attack: Attack::Inflate,
        });
        self
    }

    /// Schedule `node` to start replaying stale control frames at `at`.
    pub fn replay(mut self, at: u64, node: u32) -> Self {
        self.entries.push(AdversaryEntry {
            at,
            node,
            attack: Attack::Replay,
        });
        self
    }

    /// Schedule `node` to start dropping data from `sources` at `at`.
    pub fn selective_drop(mut self, at: u64, node: u32, sources: Vec<u32>) -> Self {
        self.entries.push(AdversaryEntry {
            at,
            node,
            attack: Attack::SelectiveDrop { sources },
        });
        self
    }

    /// Schedule `node` to start equivocating at `at`.
    pub fn equivocate(mut self, at: u64, node: u32) -> Self {
        self.entries.push(AdversaryEntry {
            at,
            node,
            attack: Attack::Equivocate,
        });
        self
    }

    /// The scheduled entries, in insertion order.
    pub fn entries(&self) -> &[AdversaryEntry] {
        &self.entries
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of scheduled entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The distinct compromised nodes, sorted.
    pub fn compromised(&self) -> Vec<u32> {
        let mut nodes: Vec<u32> = self.entries.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Panics if any entry references a node outside `0..n`.
    pub fn validate(&self, n: usize) {
        for e in &self.entries {
            assert!(
                (e.node as usize) < n,
                "adversary plan references node {} but only {n} nodes exist",
                e.node
            );
        }
    }

    /// This node's attack schedule, `(activation time, attack)` sorted
    /// by time (stable: simultaneous attacks compose in plan order).
    pub fn for_node(&self, node: u32) -> Vec<(u64, Attack)> {
        let mut attacks: Vec<(u64, Attack)> = self
            .entries
            .iter()
            .filter(|e| e.node == node)
            .map(|e| (e.at, e.attack.clone()))
            .collect();
        attacks.sort_by_key(|&(at, _)| at);
        attacks
    }

    /// A seeded plan compromising `count` distinct nodes of `0..n`
    /// (never one listed in `protect` — e.g. the traffic sink), each
    /// activating a clone of `attack` at time `at`. The same seed always
    /// yields the same plan.
    pub fn random(
        n: usize,
        count: usize,
        attack: Attack,
        at: u64,
        protect: &[u32],
        seed: u64,
    ) -> Self {
        let mut pool: Vec<u32> = (0..n as u32).filter(|v| !protect.contains(v)).collect();
        assert!(
            count <= pool.len(),
            "cannot compromise {count} of {} eligible nodes",
            pool.len()
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut plan = AdversaryPlan::new();
        for i in 0..count {
            let j = rng.gen_range(i..pool.len());
            pool.swap(i, j);
            plan.entries.push(AdversaryEntry {
                at,
                node: pool[i],
                attack: attack.clone(),
            });
        }
        plan
    }
}

/// How a consumed (never-delivered) data frame is booked in the
/// conservation ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Custody {
    /// Eaten by a deflating blackhole that *attracted* the packet.
    Stolen,
    /// Dropped by a selective forwarder the packet merely passed.
    Blackholed,
}

/// The protocol-side hook [`AdversarialActor`] needs to attack a message
/// alphabet: which frames are control vs. data, and how each [`Attack`]
/// forges or consumes them. Implemented by the protocol (see the
/// [`crate::gossip::GossipMsg`] impl) so the interposer itself stays
/// message-agnostic.
pub trait AdversaryTarget: Message {
    /// True for control-plane frames (state advertisements) — the forge
    /// and replay targets.
    fn is_control(&self) -> bool;

    /// True for data-plane frames — the theft targets.
    fn is_data(&self) -> bool;

    /// Data frames' per-sender sequence number, used by the interposer
    /// to refuse duplicate fault-layer copies before booking a theft
    /// (exactly mirroring the honest receiver's dedup, so `stolen` never
    /// double-counts).
    fn data_seq(&self) -> Option<u32>;

    /// The forged replacement this attack emits instead of `self` toward
    /// receiver `to` (`u32::MAX` for broadcasts), or `None` when the
    /// attack leaves this frame untouched.
    fn forged(&self, attack: &Attack, to: u32) -> Option<Self>;

    /// Rebuild `self` with the *contents* of the `frozen` capture but
    /// `self`'s own freshness stamp ([`Attack::Replay`]).
    fn restamped(&self, frozen: &Self) -> Self;

    /// `Some(custody)` when this attack eats an incoming frame from
    /// link-level sender `from` instead of delivering it.
    fn consumed(&self, attack: &Attack, from: u32) -> Option<Custody>;
}

/// Interposer between the runtime and a protocol actor, applying a
/// node's scheduled [`Attack`]s to its wire traffic. With no attacks
/// scheduled the inner actor runs against the runtime's own effect
/// buffer — a true zero-cost, byte-identical pass-through.
pub struct AdversarialActor<A: Actor> {
    inner: A,
    /// `(activation time, attack)`, sorted by time.
    attacks: Vec<(u64, Attack)>,
    /// [`Attack::Replay`]'s captured control frame.
    frozen: Option<A::Msg>,
    /// Refuse duplicate data copies before booking a theft (set for
    /// fire-and-forget runs, where the fault layer can duplicate; a
    /// reliable transport below us already delivers exactly-once).
    dedup: bool,
    /// Per-sender dedup windows (tracking *all* inbound data from
    /// activation-capable senders, so a copy first seen honest can't be
    /// re-booked as stolen after activation).
    seen: BTreeMap<u32, DedupWindow>,
    stolen: u64,
    blackholed: u64,
}

impl<A> AdversarialActor<A>
where
    A: Actor,
    A::Msg: AdversaryTarget,
{
    /// Wrap `inner` with an attack schedule (from
    /// [`AdversaryPlan::for_node`]); `dedup` must be true iff duplicate
    /// link-layer copies can reach this actor (fire-and-forget faults).
    pub fn new(inner: A, mut attacks: Vec<(u64, Attack)>, dedup: bool) -> Self {
        attacks.sort_by_key(|&(at, _)| at);
        AdversarialActor {
            inner,
            attacks,
            frozen: None,
            dedup,
            seen: BTreeMap::new(),
            stolen: 0,
            blackholed: 0,
        }
    }

    /// The wrapped protocol actor.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// True if this node has any attack scheduled (now or later).
    pub fn compromised(&self) -> bool {
        !self.attacks.is_empty()
    }

    /// Data frames eaten as [`Custody::Stolen`] so far.
    pub fn stolen(&self) -> u64 {
        self.stolen
    }

    /// Data frames eaten as [`Custody::Blackholed`] so far.
    pub fn blackholed(&self) -> u64 {
        self.blackholed
    }

    /// Pass one outgoing frame through every active attack, in
    /// activation order.
    fn forge(&mut self, now: u64, to: u32, msg: A::Msg) -> A::Msg {
        let AdversarialActor {
            attacks, frozen, ..
        } = self;
        let mut m = msg;
        for (at, attack) in attacks.iter() {
            if *at > now {
                break; // sorted: nothing later is active either
            }
            if matches!(attack, Attack::Replay) {
                if m.is_control() {
                    let f = frozen.get_or_insert_with(|| m.clone());
                    m = m.restamped(f);
                }
            } else if let Some(f) = m.forged(attack, to) {
                m = f;
            }
        }
        m
    }

    /// Run one inner callback. Honest nodes use the runtime's own effect
    /// buffer (exact pass-through); compromised ones get a private
    /// buffer whose effects are forged on the way out.
    fn deliver(&mut self, ctx: &mut Ctx<A::Msg>, f: impl FnOnce(&mut A, &mut Ctx<A::Msg>)) {
        if self.attacks.is_empty() {
            f(&mut self.inner, ctx);
            return;
        }
        let now = ctx.now();
        let mut ic = Ctx::new(ctx.id(), now);
        f(&mut self.inner, &mut ic);
        let Ctx {
            sends,
            broadcasts,
            timers,
            ..
        } = ic;
        for (to, m) in sends {
            let m = self.forge(now, to, m);
            ctx.send(to, m);
        }
        for m in broadcasts {
            let m = self.forge(now, u32::MAX, m);
            ctx.broadcast(m);
        }
        for (at, id) in timers {
            ctx.set_timer(at.saturating_sub(now), id);
        }
    }
}

impl<A> fmt::Debug for AdversarialActor<A>
where
    A: Actor + fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdversarialActor")
            .field("inner", &self.inner)
            .field("attacks", &self.attacks)
            .field("stolen", &self.stolen)
            .field("blackholed", &self.blackholed)
            .finish_non_exhaustive()
    }
}

impl<A> Actor for AdversarialActor<A>
where
    A: Actor,
    A::Msg: AdversaryTarget,
{
    type Msg = A::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Msg>) {
        self.deliver(ctx, |a, ic| a.on_start(ic));
    }

    fn on_message(&mut self, ctx: &mut Ctx<Self::Msg>, from: u32, msg: Self::Msg) {
        if !self.attacks.is_empty() && msg.is_data() {
            // Dedup *before* consumption, from t = 0: a duplicate of a
            // copy that passed through honestly before activation must
            // be silently refused (as the inner dedup would), not booked
            // as a theft.
            if self.dedup {
                if let Some(seq) = msg.data_seq() {
                    if !self.seen.entry(from).or_default().accept(seq) {
                        return;
                    }
                }
            }
            let now = ctx.now();
            for (at, attack) in &self.attacks {
                if *at > now {
                    break;
                }
                if let Some(custody) = msg.consumed(attack, from) {
                    match custody {
                        Custody::Stolen => self.stolen += 1,
                        Custody::Blackholed => self.blackholed += 1,
                    }
                    return; // eaten: the inner actor never sees it
                }
            }
        }
        self.deliver(ctx, |a, ic| a.on_message(ic, from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Self::Msg>, timer: u32) {
        self.deliver(ctx, |a, ic| a.on_timer(ic, timer));
    }

    fn on_neighborhood_change(
        &mut self,
        ctx: &mut Ctx<Self::Msg>,
        neighbors: &[u32],
        pos: adhoc_geom::Point,
    ) {
        self.deliver(ctx, |a, ic| a.on_neighborhood_change(ic, neighbors, pos));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_for_node_sort_by_activation_time() {
        let plan = AdversaryPlan::new()
            .inflate(50, 2)
            .deflate(10, 2, true)
            .equivocate(20, 1)
            .replay(10, 2);
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.compromised(), vec![1, 2]);
        let n2 = plan.for_node(2);
        assert_eq!(n2.len(), 3);
        assert_eq!(n2[0], (10, Attack::Deflate { blackhole: true }));
        // Stable at equal times: plan order preserved.
        assert_eq!(n2[1], (10, Attack::Replay));
        assert_eq!(n2[2], (50, Attack::Inflate));
        assert!(plan.for_node(0).is_empty());
    }

    #[test]
    fn random_plans_are_reproducible_and_respect_protection() {
        for seed in 0..20 {
            let plan = AdversaryPlan::random(30, 6, Attack::Inflate, 100, &[0, 5], seed);
            assert_eq!(
                plan,
                AdversaryPlan::random(30, 6, Attack::Inflate, 100, &[0, 5], seed)
            );
            let nodes = plan.compromised();
            assert_eq!(nodes.len(), 6, "distinct nodes");
            assert!(!nodes.contains(&0) && !nodes.contains(&5));
            plan.validate(30);
        }
        assert_ne!(
            AdversaryPlan::random(30, 6, Attack::Inflate, 100, &[], 1),
            AdversaryPlan::random(30, 6, Attack::Inflate, 100, &[], 2)
        );
    }

    #[test]
    #[should_panic(expected = "only 3 nodes exist")]
    fn out_of_range_node_is_rejected() {
        AdversaryPlan::new().inflate(1, 7).validate(3);
    }

    #[test]
    #[should_panic(expected = "cannot compromise")]
    fn random_rejects_overfull_counts() {
        AdversaryPlan::random(4, 4, Attack::Inflate, 1, &[0], 1);
    }
}
