//! Byzantine adversary subsystem: seeded plans of lying, stealing, and
//! equivocating nodes, carried out by each gossip node's radio.
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
//! * every gossip node holds a radio (`Wire`) that applies the node's
//!   active attacks at its two *wire points* — each outgoing height
//!   frame copy, alone or riding a packet, is forged as it leaves, and
//!   targeted incoming `Packet`s are consumed as they arrive, after the
//!   node took in any frame riding them — while the node's protocol
//!   code stays honest (a compromised node still executes the honest
//!   protocol; the adversary owns its radio, not its code);
//! * consumed packets are booked as
//!   [`GossipRun::stolen`](crate::GossipRun::stolen) /
//!   [`GossipRun::blackholed`](crate::GossipRun::blackholed) so the
//!   conservation ledger stays exact: stolen traffic is *visible*, never
//!   silently vanished;
//! * on fire-and-forget links the same radio refuses every
//!   duplicate `Packet` copy, for every node, before any attack sees
//!   it, so no copy is ever received or booked as theft twice.
//!
//! Every behavior is a pure function of `(node, time, message, sender)`
//! over deterministic local state — no RNG, no wall clock — so
//! adversarial runs replay bit-identically at every shard-thread count,
//! exactly like honest ones. Only the frame copies of a node with an
//! active attack are rewritten, so with an empty plan the radio only
//! refuses duplicates, as an honest node must: byte-identical
//! transcripts, pinned by the golden-fixture regression suite.
//!
//! The matching defense layer (height plausibility, starvation probing,
//! and cross-neighbor attestation feeding a quarantine score) lives in
//! the protocol itself — see [`crate::gossip::DefenseConfig`] — because
//! defending is a *protocol* concern: the runtime only makes attacking
//! reproducible.

use crate::gossip::HeightFrame;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One composable Byzantine behavior. Attacks forge the node's *wire*
/// traffic; the node's protocol code keeps running honestly and never
/// learns it is compromised.
#[derive(Debug, Clone, PartialEq)]
pub enum Attack {
    /// Height deflation: every outgoing control frame advertises height
    /// 0 for every destination, attracting neighbors' packets. With
    /// `blackhole`, incoming data frames are eaten before the protocol
    /// sees them (booked as
    /// [`GossipRun::stolen`](crate::GossipRun::stolen)); without it they
    /// pile into the honest buffer until it genuinely overflows.
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
    /// (booked as [`GossipRun::blackholed`](crate::GossipRun::blackholed)).
    /// The stealthiest attack: the node's advertised heights stay honest.
    SelectiveDrop {
        /// Link-level senders whose data frames are dropped.
        sources: Vec<u32>,
    },
    /// Equivocation: tell different neighbors different heights (zeros
    /// to even node ids, `u32::MAX` to odd ones), corrupting the
    /// gradient inconsistently. Caught by signed-digest attestation
    /// among common neighbors.
    Equivocate,
}

impl Attack {
    /// Forge the heights of one outgoing height frame copy toward `to`;
    /// the frame keeps its own step stamp and attestation. A forged copy is
    /// this copy's own ([`HeightFrame::forge`]): the frame the other
    /// copies and the node itself share is never written. `frozen` is
    /// the replay capture: the heights of the first frame a replaying
    /// node emits after activation.
    fn forge(&self, to: u32, frame: &mut Arc<HeightFrame>, frozen: &mut Option<Box<[u32]>>) {
        let lie = match self {
            Attack::Deflate { .. } => 0,
            Attack::Inflate => u32::MAX,
            Attack::Equivocate if to.is_multiple_of(2) => 0,
            Attack::Equivocate => u32::MAX,
            Attack::Replay => {
                let frozen = frozen.get_or_insert_with(|| frame.heights().into());
                HeightFrame::forge(frame, |heights| heights.copy_from_slice(frozen));
                return;
            }
            Attack::SelectiveDrop { .. } => return,
        };
        HeightFrame::forge(frame, |heights| heights.fill(lie));
    }

    /// Eat an incoming `Packet` from link-level sender `from` if this
    /// attack takes it, booking it as stolen or blackholed. Returns true
    /// when the packet was eaten.
    fn consume(&self, from: u32, stolen: &mut u64, blackholed: &mut u64) -> bool {
        let booked = match self {
            Attack::Deflate { blackhole: true } => stolen,
            Attack::SelectiveDrop { sources } if sources.contains(&from) => blackholed,
            _ => return false,
        };
        *booked += 1;
        true
    }
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

/// A gossip node's radio, held in its `wire` field: it refuses duplicate
/// `Packet` copies and applies the node's scheduled [`Attack`]s at the
/// node's two wire points, where a height frame copy leaves
/// ([`Wire::forge`]) and where a `Packet` arrives ([`Wire::admit`]). A
/// node with no active attack sends and receives unchanged.
#[derive(Debug, Clone)]
pub(crate) struct Wire {
    /// `(activation time, attack)`, sorted by time.
    attacks: Vec<(u64, Attack)>,
    /// [`Attack::Replay`]'s captured heights.
    frozen: Option<Box<[u32]>>,
    /// Per-sender dedup windows: `Some` exactly when the links below can
    /// duplicate (fire-and-forget; a reliable transport already
    /// delivers exactly-once, and its retransmission latency can push a
    /// packet further behind the sender's newest seq than any bounded
    /// window). Never pruned when a neighbor departs: a duplicate of an
    /// old packet can still be in flight, and the windows stay O(1) per
    /// ever-neighbor.
    seen: Option<BTreeMap<u32, DedupWindow>>,
    /// Packets eaten by a deflating blackhole.
    pub(crate) stolen: u64,
    /// Packets eaten by a selective dropper.
    pub(crate) blackholed: u64,
}

impl Wire {
    /// A radio with its node's attack schedule (from
    /// [`AdversaryPlan::for_node`], already sorted); `dedup` must be true
    /// iff duplicate link-layer copies can reach this node.
    pub(crate) fn new(attacks: Vec<(u64, Attack)>, dedup: bool) -> Self {
        Wire {
            attacks,
            frozen: None,
            seen: dedup.then(BTreeMap::new),
            stolen: 0,
            blackholed: 0,
        }
    }

    /// Forge one outgoing height frame copy toward `to` through every
    /// attack active at `now`, in activation order (copy on write: only a
    /// forged copy stops sharing the node's frame).
    pub(crate) fn forge(&mut self, now: u64, to: u32, frame: &mut Arc<HeightFrame>) {
        for (_, attack) in self.attacks.iter().take_while(|&&(at, _)| at <= now) {
            attack.forge(to, frame, &mut self.frozen);
        }
    }

    /// Whether the `Packet` numbered `seq` that arrived from `from` at
    /// `now` reaches the node: false for a duplicate copy, or when an
    /// active attack eats it (booked as stolen or blackholed).
    pub(crate) fn admit(&mut self, now: u64, from: u32, seq: u32) -> bool {
        // Refuse duplicates *before* any attack, from t = 0: a copy of a
        // packet that passed through honestly before activation must not
        // be booked as a theft afterwards.
        if let Some(seen) = &mut self.seen {
            if !seen.entry(from).or_default().accept(seq) {
                return false;
            }
        }
        let (stolen, blackholed) = (&mut self.stolen, &mut self.blackholed);
        let mut active = self.attacks.iter().take_while(|&&(at, _)| at <= now);
        !active.any(|(_, attack)| attack.consume(from, stolen, blackholed))
    }
}

/// Duplicate suppression for one sender in O(1) space: the highest
/// accepted sequence number plus a 64-wide bitmask of recently accepted
/// seqs below it. `seq` is monotone per sender, so only copies delayed
/// past the window can be misjudged — anything more than 63 behind the
/// high-water mark is conservatively treated as a duplicate (the ledger
/// then books the packet as link-lost rather than double-counting it).
#[derive(Debug, Clone, Copy, Default)]
struct DedupWindow {
    /// Highest accepted seq (meaningful iff `any`).
    hi: u32,
    /// Bit `k` set ⇔ seq `hi − k` was accepted (bit 0 is `hi` itself).
    mask: u64,
    any: bool,
}

impl DedupWindow {
    /// Record `seq`; returns true iff it was not seen before.
    fn accept(&mut self, seq: u32) -> bool {
        if !self.any {
            (self.any, self.hi, self.mask) = (true, seq, 1);
            return true;
        }
        if seq > self.hi {
            let shift = seq - self.hi;
            self.mask = if shift >= 64 { 0 } else { self.mask << shift };
            self.mask |= 1;
            self.hi = seq;
            return true;
        }
        let back = self.hi - seq;
        if back >= 64 || self.mask & (1 << back) != 0 {
            return false;
        }
        self.mask |= 1 << back;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DelayDist, FaultConfig};
    use crate::gossip::{build_nodes, uniform_workload, GossipConfig};
    use crate::{ChurnPlan, Runtime};
    use adhoc_geom::Point;
    use adhoc_graph::GraphBuilder;
    use adhoc_proximity::SpatialGraph;
    use adhoc_routing::BalancingConfig;

    #[test]
    fn dedup_window_accepts_once_within_window() {
        let mut w = DedupWindow::default();
        assert!(w.accept(5));
        assert!(!w.accept(5), "exact duplicate");
        assert!(w.accept(7), "forward jump");
        assert!(w.accept(6), "out-of-order within window");
        assert!(!w.accept(6) && !w.accept(5), "replays rejected");
        assert!(w.accept(7 + 63), "edge of the window");
        assert!(!w.accept(7), "63 behind: still remembered");
        assert!(!w.accept(5), "beyond the window: treated as duplicate");
    }

    #[test]
    fn dedup_window_survives_large_jumps() {
        let mut w = DedupWindow::default();
        assert!(w.accept(0));
        assert!(w.accept(1000), "shift ≥ 64 must not overflow");
        assert!(w.accept(999));
        assert!(!w.accept(1000) && !w.accept(999));
        assert!(!w.accept(0), "far-stale seq treated as duplicate");
    }

    /// Regression for the unbounded `seen: HashSet<(sender, seq)>`: over
    /// a long duplicate-heavy run, per-node dedup state must stay bounded
    /// by the neighbor count — not grow with the packet count — while
    /// accepting exactly the same packets (no drops ⇒ every transmission
    /// is accepted exactly once, duplicates discarded).
    #[test]
    fn dedup_state_stays_bounded_on_long_duplicate_heavy_runs() {
        let points: Vec<Point> = (0..5).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
        let mut b = GraphBuilder::new(5);
        for i in 0..4 {
            b.add_edge(i, i + 1, 0.1);
        }
        let topo = SpatialGraph::new(points, b.build(), 0.15);
        let wl = uniform_workload(5, &[4], 2000, 2, 11);
        let faults = FaultConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.4,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let balancing = BalancingConfig {
            threshold: 0.5,
            gamma: 0.0,
            capacity: 50,
        };
        let cfg = GossipConfig::new(balancing, 2000);
        let nodes = build_nodes(
            &topo,
            &[4],
            cfg,
            &wl,
            &ChurnPlan::new(),
            &AdversaryPlan::new(),
        );
        let mut rt = Runtime::new(
            nodes,
            &topo.points,
            topo.max_range.max(1e-9),
            faults,
            11,
            &ChurnPlan::new(),
        );
        rt.run(1);

        let sent: u64 = rt.nodes().iter().map(|a| a.counts.packets_sent).sum();
        let received: u64 = rt.nodes().iter().map(|a| a.counts.packets_received).sum();
        assert_eq!(sent, received, "lossless links: accept each packet once");
        assert!(rt.stats().duplicated > 100, "run wasn't duplicate-heavy");
        assert!(sent > 1000, "run too short to expose unbounded growth");
        for (id, node) in rt.nodes().iter().enumerate() {
            let seen = node
                .wire
                .seen
                .as_ref()
                .expect("fire-and-forget links dedup");
            assert!(
                seen.len() <= node.nbrs.len(),
                "node {} tracks {} dedup entries for {} neighbors",
                id,
                seen.len(),
                node.nbrs.len()
            );
        }
    }

    /// The radio's outbound point: a copy is forged only by attacks
    /// active at its send time, in activation order, and only a forged
    /// copy stops sharing the node's frame.
    #[test]
    fn wire_forges_copies_through_the_attacks_active_when_they_leave() {
        let frame = Arc::new(HeightFrame::new(3, [4, 5].into(), Box::default()));
        let send = |wire: &mut Wire, now: u64, frame: &Arc<HeightFrame>| {
            let mut copy = Arc::clone(frame);
            wire.forge(now, 1, &mut copy);
            copy
        };
        let plan = AdversaryPlan::new().inflate(20, 0).deflate(10, 0, true);
        let mut wire = Wire::new(plan.for_node(0), true);
        let early = send(&mut wire, 9, &frame);
        assert!(Arc::ptr_eq(&early, &frame), "nothing forged before `at`");
        assert_eq!(send(&mut wire, 10, &frame).heights(), [0, 0]);
        let late = send(&mut wire, 20, &frame);
        assert_eq!(late.heights(), [u32::MAX; 2], "the later inflate wins");
        assert_eq!(frame.heights(), [4, 5], "the shared frame is never written");

        // Selective drop forges nothing: its copies keep sharing the frame.
        let plan = AdversaryPlan::new().selective_drop(0, 0, vec![2]);
        let mut wire = Wire::new(plan.for_node(0), true);
        assert!(Arc::ptr_eq(&send(&mut wire, 5, &frame), &frame));

        // Replay captures the first copy it forges and repeats it.
        let mut wire = Wire::new(AdversaryPlan::new().replay(0, 0).for_node(0), true);
        assert_eq!(send(&mut wire, 1, &frame).heights(), [4, 5]);
        let next = Arc::new(HeightFrame::new(4, [6, 7].into(), Box::default()));
        assert_eq!(send(&mut wire, 2, &next).heights(), [4, 5]);
    }

    /// The radio's inbound point: duplicates are refused before any
    /// attack sees them, so a copy of a packet admitted before a
    /// blackhole activated is not booked as stolen; a selective dropper
    /// eats only its listed senders.
    #[test]
    fn wire_refuses_duplicates_before_attacks_eat_packets() {
        let plan = AdversaryPlan::new().deflate(10, 0, true);
        let mut wire = Wire::new(plan.for_node(0), true);
        assert!(wire.admit(5, 1, 7), "honest before activation");
        assert!(!wire.admit(12, 1, 7));
        assert_eq!(wire.stolen, 0, "a duplicate is not a theft");
        assert!(!wire.admit(12, 1, 8));
        assert_eq!((wire.stolen, wire.blackholed), (1, 0));

        let plan = AdversaryPlan::new().selective_drop(0, 0, vec![2]);
        let mut wire = Wire::new(plan.for_node(0), true);
        assert!(!wire.admit(1, 2, 0), "a listed sender's packet is eaten");
        assert!(wire.admit(1, 3, 0), "an unlisted sender's passes");
        assert_eq!((wire.stolen, wire.blackholed), (0, 1));

        // Without dedup (reliable links) a repeated seq is admitted.
        let mut wire = Wire::new(Vec::new(), false);
        assert!(wire.admit(0, 1, 0) && wire.admit(0, 1, 0));
    }

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
