//! The `(T, γ)`-balancing router as a distributed actor protocol with
//! height gossip (paper §3.2 and its control-traffic remark).
//!
//! The centralized `BalancingRouter` (crate `adhoc-routing`) reads both
//! endpoints' buffer heights when deciding a send. Distributed nodes
//! cannot: they know their own column of the height matrix and whatever
//! their neighbors last *gossiped*. This module makes that explicit:
//!
//! * a node sends each topology neighbor the same [`HeightFrame`] at a
//!   routing step when its heights changed since its last frame, or when
//!   the silence since that frame reached its limit. The limit starts at
//!   `refresh_every / 4` steps after a frame with new heights and doubles
//!   with each unchanged repeat up to `refresh_every` (the longest
//!   silence), so a lost change frame is repaired quickly and stable
//!   heights cost little. The frame is the protocol's one control
//!   message, a real message that can be lost or delayed; the paper's
//!   §3.2 remark is why sparse frames are safe — `(T, γ)`-balancing
//!   tolerates stale heights;
//! * a frame copy bound for a neighbor the same step sends a packet rides
//!   that packet instead of going alone, and with the defense on every
//!   frame carries the attestations due;
//! * send decisions use the freshest cached neighbor heights;
//! * data packets are `Packet` messages over the same faulty links —
//!   sequence-numbered so the node's radio (its `wire` field, from
//!   [`crate::adversary`]) can refuse duplicated deliveries, and
//!   accounted so lost packets are visible instead of silently vanishing.
//!
//! Conservation therefore holds in ledger form:
//! `injected = absorbed + buffered + overflow_dropped + link_lost +
//! in_flight + stolen + blackholed`, asserted by [`GossipRun::conserved`]
//! after every run. `in_flight` is live nodes' reliable-transport
//! custody at quiescence (0 in fire-and-forget mode); `stolen` and
//! `blackholed` are packets eaten by an adversary (0 without one).

use crate::adversary::{AdversaryPlan, Wire};
use crate::fault::FaultConfig;
use crate::node::{Actor, Ctx, Message};
use crate::reliable::{LinkCounters, ReliableActor, ReliableConfig};
use crate::runtime::Runtime;
use crate::stats::{DigestWriter, NetStats};
use crate::{ChurnKind, ChurnPlan, MemberState};
use adhoc_geom::Point;
use adhoc_proximity::SpatialGraph;
use adhoc_routing::BalancingConfig;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Timer id for the per-step tick.
const TIMER_STEP: u32 = 1;

/// One height frame, the protocol's only control message: the sender's
/// buffer heights, one per destination (indexed like the shared
/// destination list), stamped with the sender's routing step so reordered
/// deliveries can't roll a cache back to staler values, plus the
/// defense's attestations. A node sends every neighbor the same frame at
/// the same step, alone ([`GossipMsg::Heights`]) or riding that step's
/// packet to it ([`GossipMsg::Packet`]), and all copies share one
/// allocation and one encoding digest, taken when the frame is built.
#[derive(Debug, Clone, PartialEq)]
pub struct HeightFrame {
    /// The sender's routing step when the frame was emitted.
    step: u64,
    /// The sender's buffer heights at that step.
    heights: Box<[u32]>,
    /// Defense-layer attestation (empty with the defense off, see
    /// [`DefenseConfig`]): the sender's sworn record of the latest height
    /// frame it observed from each neighbor since its previous frame, one
    /// `(peer, peer's frame step, digest of the heights)` triple per such
    /// neighbor, in peer-id order. The digest stands in for a signature
    /// over the frame: a receiver that observed a *different* frame from
    /// `peer` for the same step has caught `peer` equivocating — honest
    /// nodes send one frame per step to everyone, so two signed, same-step
    /// digests can only differ if `peer` forged at least one of them.
    attest: Box<[(u32, u64, u64)]>,
    /// The digest of the encoding of the fields above, which every copy
    /// writes into the replay digest.
    digest: u64,
}

impl HeightFrame {
    pub(crate) fn new(step: u64, heights: Box<[u32]>, attest: Box<[(u32, u64, u64)]>) -> Self {
        let mut frame = HeightFrame {
            step,
            heights,
            attest,
            digest: 0,
        };
        frame.seal();
        frame
    }

    /// The sender's buffer heights.
    pub(crate) fn heights(&self) -> &[u32] {
        &self.heights
    }

    /// Rewrite the heights of one copy of a frame, leaving the frame the
    /// other copies share untouched (copy on write), and re-digest it.
    pub(crate) fn forge(frame: &mut Arc<HeightFrame>, f: impl FnOnce(&mut [u32])) {
        let frame = Arc::make_mut(frame);
        f(&mut frame.heights);
        frame.seal();
    }

    /// Digest the frame's encoding: the step, then the heights and the
    /// attestation, each length-prefixed.
    fn seal(&mut self) {
        let mut w = DigestWriter::new();
        w.u64(self.step);
        w.len_prefix(self.heights.len());
        for &h in &self.heights {
            w.u32(h);
        }
        w.len_prefix(self.attest.len());
        for &(peer, step, digest) in &self.attest {
            w.u32(peer);
            w.u64(step);
            w.u64(digest);
        }
        self.digest = w.finish();
    }
}

/// Messages of the distributed balancing protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMsg {
    /// A height frame, shared by every copy a node sends in one step, to
    /// a neighbor the step sends no packet.
    Heights(Arc<HeightFrame>),
    /// One data packet bound for `dest`; `seq` is unique per sender so
    /// receivers can discard duplicated deliveries.
    Packet {
        /// Final destination node.
        dest: u32,
        /// Sender-local sequence number.
        seq: u32,
        /// The step's height frame copy for this neighbor, if the step
        /// sends one: it rides the packet instead of going alone, and the
        /// receiver takes it in even when it refuses the packet itself.
        frame: Option<Arc<HeightFrame>>,
    },
}

impl Message for GossipMsg {
    fn kind(&self) -> &'static str {
        match self {
            GossipMsg::Heights(_) => "heights",
            GossipMsg::Packet { .. } => "packet",
        }
    }

    fn digest_into(&self, w: &mut DigestWriter) {
        match self {
            // The frame's encoding was digested once, when it was built.
            GossipMsg::Heights(frame) => {
                w.u8(0);
                w.u64(frame.digest);
            }
            GossipMsg::Packet { dest, seq, frame } => {
                w.u8(1);
                w.u32(*dest);
                w.u32(*seq);
                w.u8(u8::from(frame.is_some()));
                if let Some(frame) = frame {
                    w.u64(frame.digest);
                }
            }
        }
    }
}

/// Observed height frames remembered per peer for attestation. Small:
/// just deep enough to match neighbors' sworn records, which trail our
/// own first-hand observations by a gossip frame or two.
const OBSERVED_WINDOW: usize = 4;

/// Where a node's topology edge to one peer stands, and so what the
/// node keeps about the peer ([`Peer`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Link {
    /// Not open yet: the peer, or the node, joins later. The edge opens
    /// when the peer first shows up in the node's radio row.
    #[default]
    Unmet,
    /// Open: the peer gets the node's frames and packets.
    Live,
    /// Eroded for good: the peer left the node's radio row. The defense's
    /// record of it (observed frames, `fed`, `suspicion`) stays, to swear
    /// to and convict on its last frames; its cached heights stay only
    /// while it is back in the row.
    Gone,
    /// Severed for good by the defense: the row keeps nothing but the id,
    /// and the peer's frames are ignored.
    Quarantined,
}

/// What a node keeps about one topology neighbor.
#[derive(Debug, Clone, Default)]
struct Peer {
    id: u32,
    cost: f64,
    link: Link,
    /// The peer's freshest gossiped heights, tagged with the sender step
    /// that produced them — the tag is what lets the node refuse
    /// reordered (older) gossip instead of overwriting fresher state.
    cached: Option<(u64, Vec<u32>)>,
    /// Defense: `(step, digest)` of the peer's last [`OBSERVED_WINDOW`]
    /// *observed* frames, a ring: the first `observed_len` slots are
    /// filled, and a new frame replaces the one that arrived earliest, at
    /// `observed_next`. Kept apart from `cached` because attestation must
    /// cover frames plausibility refused to trust (an equivocator whose
    /// lie to *us* was implausible is convicted by what it told the
    /// neighbors it was attracting).
    observed: [(u64, u64); OBSERVED_WINDOW],
    observed_len: usize,
    observed_next: usize,
    /// Defense: the latest observed frame (the one with the highest step)
    /// awaits the node's next frame, which swears to it.
    due: bool,
    /// Defense: how many steps the node had run when a frame of the peer
    /// last arrived. Nodes step at the same rate and a frame arrives
    /// after the step that sent it, so at the node's step `t` the peer
    /// has been silent for about `t + 1 - heard` steps.
    heard: u64,
    /// Defense: packets fed to the peer since its last non-zero frame.
    fed: u64,
    /// Defense: the peer's suspicion score.
    suspicion: u32,
}

impl Peer {
    /// The digest of the peer's observed frame of `step`, if recorded.
    fn digest(&self, step: u64) -> Option<u64> {
        let frames = &self.observed[..self.observed_len];
        frames.iter().find(|&&(s, _)| s == step).map(|&(_, d)| d)
    }

    /// The peer's latest observed frame, `(step, digest)`.
    fn latest(&self) -> Option<(u64, u64)> {
        let frames = &self.observed[..self.observed_len];
        frames.iter().copied().max_by_key(|&(step, _)| step)
    }

    /// Record the peer's frame of `step` (once per step), which arrived at
    /// the node's step `now`; a frame newer than every recorded one is
    /// due for attestation.
    fn observe(&mut self, now: u64, step: u64, heights: &[u32]) {
        self.heard = now;
        if self.digest(step).is_some() {
            return;
        }
        if self.latest().is_none_or(|(latest, _)| step > latest) {
            self.due = true;
        }
        self.observed[self.observed_next] = (step, heights_digest(heights));
        self.observed_next = (self.observed_next + 1) % OBSERVED_WINDOW;
        self.observed_len = (self.observed_len + 1).min(OBSERVED_WINDOW);
    }
}

/// The digest of a heights vector, folded one height per word as the
/// replay digest folds fields ([`DigestWriter`]) — the attestation
/// layer's stand-in for a signature binding `(peer, step)` to the
/// advertised frame.
fn heights_digest(heights: &[u32]) -> u64 {
    let mut w = DigestWriter::new();
    for &h in heights {
        w.u32(h);
    }
    w.finish()
}

/// Reliability predicate for the balancing protocol: data packets ride
/// the reliable sublayer, lone height frames stay best-effort — a stale
/// frame retransmitted late is worth less than the next one, due within
/// `refresh_every` steps, and §3.2's guarantee only needs the *packets*
/// to survive. A frame riding a packet is retransmitted with it, and a
/// receiver that already holds a newer one refuses it as stale.
fn needs_reliability(msg: &GossipMsg) -> bool {
    matches!(msg, GossipMsg::Packet { .. })
}

/// Parameters of a gossip-balancing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// The `(T, γ, H)` balancing parameters (shared with the centralized
    /// router).
    pub balancing: BalancingConfig,
    /// Longest silence: the most routing steps a node lets pass after a
    /// height frame before it sends another with unchanged heights. A
    /// node sends a frame at a step when its heights changed since its
    /// last frame, or when the silence since it reached its current
    /// limit: `max(1, refresh_every / 4)` steps after a frame with new
    /// heights, doubling with each unchanged repeat up to this bound. 1 =
    /// a frame every step (the `StaleBalancingRouter` refresh-period knob
    /// as real traffic).
    pub refresh_every: u64,
    /// Number of routing steps to simulate.
    pub steps: u64,
    /// Virtual ticks per routing step; link delays shorter than this keep
    /// gossip one step stale, longer delays increase staleness.
    pub step_len: u64,
    /// When set, `Packet` traffic rides the per-link reliable-delivery
    /// sublayer ([`crate::reliable`]) with these parameters; heights
    /// gossip stays best-effort either way. `None` = fire-and-forget.
    pub reliability: Option<ReliableConfig>,
    /// When set, every node runs the Byzantine defense layer
    /// ([`DefenseConfig`]): height plausibility checks, starvation
    /// probing, and cross-neighbor attestation feeding a suspicion score
    /// that quarantines lying peers. `None` (the default) changes
    /// nothing — honest runs stay byte-identical.
    pub defense: Option<DefenseConfig>,
}

/// Knobs of the Byzantine defense layer each node runs locally when
/// [`GossipConfig::with_defense`] is set. Three detectors feed one
/// per-peer `suspicion` score:
///
/// 1. **Plausibility** — an accepted height frame is implausible if
///    any entry exceeds the buffer capacity (honest heights cannot), or
///    if it differs from the previously cached frame by more than
///    [`DefenseConfig::max_height_rate`] per elapsed gossip step (a
///    buffer's drain/fill rate is bounded by the node's degree times the
///    per-edge capacity, the quantity `γ` prices). Implausible frames
///    are refused and raise suspicion by 1.
/// 2. **Starvation probe** — a peer that keeps advertising all-zero
///    heights *while we keep feeding it packets* is a deflation
///    attractor: an honest relay's gossip runs before its sends, so fed
///    packets are visible in its next frame, and only a traffic sink
///    (a node in the destination list, which absorbs) legitimately
///    stays at zero. Every [`DefenseConfig::probe_packets`] packets fed
///    since the peer's last non-zero frame raise suspicion by 1 at a
///    step where its latest frame is all zero and younger than the
///    longest silence: a frame goes out on every change, so its silence
///    says its heights still stand.
/// 3. **Attestation** — rides every height frame: the frame swears to
///    the node's neighbors which `(peer, step, heights digest)` it last
///    observed from each peer whose latest frame no earlier frame of the
///    node swore to — observed, not trusted, so a lie refused by
///    plausibility still testifies ([`HeightFrame`]). No frame is sent
///    only to attest. A receiver holding a different digest for the same
///    `(peer, step)` has proof of equivocation and raises suspicion
///    straight to the quarantine threshold. Attestation relies on every
///    neighbor getting the same frame at the same step, alone or riding
///    a packet, so frames are never filtered per neighbor.
///
/// At [`DefenseConfig::quarantine_at`] the peer is quarantined: the node
/// drops its routing edge, its cached heights and the defense's record of
/// it (observed frames, fed count, suspicion) — churn's erosion of a
/// departed neighbor drops only the first two — and ignores its future
/// gossip (its data packets — innocent bystanders — still deliver), and
/// the topology layer can re-converge around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseConfig {
    /// Maximum plausible per-gossip-step change of one height entry.
    pub max_height_rate: u32,
    /// Packets fed to an all-zero-advertising peer before one suspicion
    /// point accrues.
    pub probe_packets: u64,
    /// Suspicion score at which a peer is quarantined.
    pub quarantine_at: u32,
}

impl Default for DefenseConfig {
    /// Defaults sized for the E22 geometry: a generous height-rate bound
    /// (node degree bounds the true fill rate), an 8-packet starvation
    /// probe, quarantine at 3 strikes.
    fn default() -> Self {
        DefenseConfig {
            max_height_rate: 12,
            probe_packets: 8,
            quarantine_at: 3,
        }
    }
}

impl GossipConfig {
    /// Sensible defaults: a height frame on every change, repeated after
    /// silences of 2, 4, then at most 8 steps while the heights hold,
    /// 8-tick steps, fire-and-forget links, no defense layer.
    pub fn new(balancing: BalancingConfig, steps: u64) -> Self {
        GossipConfig {
            balancing,
            refresh_every: 8,
            steps,
            step_len: 8,
            reliability: None,
            defense: None,
        }
    }

    /// Route `Packet` traffic through the reliable sublayer.
    pub fn with_reliability(mut self, reliability: ReliableConfig) -> Self {
        self.reliability = Some(reliability);
        self
    }

    /// Run the Byzantine defense layer on every node.
    pub fn with_defense(mut self, defense: DefenseConfig) -> Self {
        self.defense = Some(defense);
        self
    }

    fn validate(&self) {
        assert!(self.refresh_every >= 1, "refresh_every must be ≥ 1");
        assert!(self.step_len >= 2, "step_len must be ≥ 2");
        if let Some(r) = &self.reliability {
            r.validate();
        }
        if let Some(d) = &self.defense {
            assert!(d.max_height_rate >= 1, "max_height_rate must be ≥ 1");
            assert!(d.probe_packets >= 1, "probe_packets must be ≥ 1");
            assert!(d.quarantine_at >= 1, "quarantine_at must be ≥ 1");
        }
    }
}

/// One balancing node: its own height column and cached neighbor
/// heights, behind a radio that refuses duplicate packet copies and
/// carries out the node's scheduled attacks.
#[derive(Debug, Clone)]
pub(crate) struct GossipNode {
    id: u32,
    /// The node's radio ([`Wire`]): every frame copy leaves through it and
    /// every packet arrives through it.
    pub(crate) wire: Wire,
    /// One row per topology edge, in send order: the edges open at the
    /// start in topology order, then each edge to a joiner, appended when
    /// it opens.
    peers: Vec<Peer>,
    dests: Vec<u32>,
    /// Own buffer heights, one per destination.
    heights: Vec<u32>,
    /// The last height frame this node sent (honest, as the node built
    /// it): the next frame is due when the heights differ from it or it
    /// is `silence` steps old.
    last_frame: Option<Arc<HeightFrame>>,
    /// Steps the node stays silent after `last_frame` while its heights
    /// hold: `max(1, refresh_every / 4)` after a frame with new heights,
    /// doubled by each unchanged repeat up to `refresh_every`.
    silence: u64,
    /// Injections still due at this node, `(step, dest)`, latest first.
    schedule: Vec<(u64, u32)>,
    cfg: GossipConfig,
    step: u64,
    seq: u32,
    /// Whether the per-step tick is currently armed. Joiners receive no
    /// `on_start`; their first `on_neighborhood_change` bootstraps the
    /// tick instead, and this flag keeps that idempotent.
    ticking: bool,
    /// Local ledger.
    pub(crate) counts: NodeCounts,
}

/// Per-node packet ledger: each field but `packets_received` counts at
/// one node what the [`GossipRun`] field of the same name sums over all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NodeCounts {
    pub injected: u64,
    pub admission_dropped: u64,
    pub absorbed: u64,
    pub overflow_dropped: u64,
    pub packets_sent: u64,
    /// Distinct packets accepted from neighbors (duplicates excluded).
    pub packets_received: u64,
    pub gossips_sent: u64,
    pub stale_gossip_dropped: u64,
    pub implausible_gossip: u64,
    pub equivocations: u64,
    pub attests_sent: u64,
    pub quarantines: u64,
}

impl GossipNode {
    fn col(&self, dest: u32) -> Option<usize> {
        self.dests.iter().position(|&d| d == dest)
    }

    /// Inject one packet for `dest` (admission control applies).
    fn inject(&mut self, dest: u32) {
        if dest == self.id {
            self.counts.injected += 1;
            self.counts.absorbed += 1;
            return;
        }
        // An unregistered destination or a full buffer refuses it.
        match self.col(dest) {
            Some(c) if self.heights[c] < self.cfg.balancing.capacity => {
                self.heights[c] += 1;
                self.counts.injected += 1;
            }
            _ => self.counts.admission_dropped += 1,
        }
    }

    /// The row of peer `id`: frames and packets come only over topology
    /// edges, and a claim about a peer that is not a neighbor has none.
    fn find(&self, id: u32) -> Option<usize> {
        self.peers.iter().position(|p| p.id == id)
    }

    /// The paper's step-1 rule for the directed edge `self → w`, using
    /// gossiped heights for `w`: the destination maximizing
    /// `h_v,d − ĥ_w,d − c·γ` if that value exceeds `T` — and, since the
    /// sender is authoritative for its own buffers, only if `h_v,d > 0`.
    fn best_send(&self, w: &Peer) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (c, &d) in self.dests.iter().enumerate() {
            if self.heights[c] == 0 || d == self.id {
                continue;
            }
            // A destination absorbs: its height for itself is 0.
            let hw = match &w.cached {
                Some((_, h)) if w.id != d => h[c],
                _ => 0,
            };
            let value = self.heights[c] as f64 - hw as f64 - w.cost * self.cfg.balancing.gamma;
            if value > self.cfg.balancing.threshold && best.is_none_or(|(bv, _)| value > bv) {
                best = Some((value, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// The height frame this step sends every neighbor, if one is due:
    /// the heights changed since the last frame, or the silence since it
    /// reached `silence`. With the defense on it swears to the latest
    /// observed frame of every peer that no earlier frame swore to.
    fn next_frame(&mut self) -> Option<Arc<HeightFrame>> {
        match &self.last_frame {
            Some(last) if *last.heights == *self.heights => {
                if self.step - last.step < self.silence {
                    return None;
                }
                self.silence = (2 * self.silence).min(self.cfg.refresh_every);
            }
            _ => self.silence = (self.cfg.refresh_every / 4).max(1),
        }
        // Sized up front: the frame keeps the allocation as it is.
        let due = self.peers.iter().filter(|p| p.due).count();
        let mut attest = Vec::with_capacity(due);
        for p in &mut self.peers {
            if std::mem::take(&mut p.due) {
                attest.extend(p.latest().map(|(step, digest)| (p.id, step, digest)));
            }
        }
        // Claims go in peer-id order; the rows are in send order.
        attest.sort_unstable_by_key(|&(peer, _, _)| peer);
        let attest = attest.into_boxed_slice();
        let copies = self.peers.iter().filter(|p| p.link == Link::Live).count() as u64;
        self.counts.gossips_sent += copies;
        if !attest.is_empty() {
            self.counts.attests_sent += copies;
        }
        let frame = Arc::new(HeightFrame::new(self.step, self.heights[..].into(), attest));
        self.last_frame = Some(Arc::clone(&frame));
        Some(frame)
    }

    /// Executed once per routing step: inject scheduled packets, build a
    /// height frame if one is due, then decide one send per outgoing edge
    /// direction. Each neighbor gets one message: the step's packet to it
    /// with the frame riding, or the frame alone.
    fn run_step(&mut self, ctx: &mut Ctx<GossipMsg>) {
        while let Some(&(_, dest)) = self.schedule.last().filter(|&&(s, _)| s == self.step) {
            self.schedule.pop();
            self.inject(dest);
        }
        self.probe_starvation();
        let frame = self.next_frame();
        for i in 0..self.peers.len() {
            let (w, link) = (self.peers[i].id, self.peers[i].link);
            if link != Link::Live {
                continue;
            }
            let frame = frame.as_ref().map(|frame| {
                let mut copy = Arc::clone(frame);
                self.wire.forge(ctx.now(), w, &mut copy);
                copy
            });
            let msg = match self.best_send(&self.peers[i]) {
                Some(c) => {
                    self.heights[c] -= 1;
                    self.counts.packets_sent += 1;
                    let seq = self.seq;
                    self.seq += 1;
                    // Starvation-probe bookkeeping: count what we feed each
                    // peer (sinks absorb legitimately, so they are exempt).
                    if self.cfg.defense.is_some() && !self.dests.contains(&w) {
                        self.peers[i].fed += 1;
                    }
                    let dest = self.dests[c];
                    GossipMsg::Packet { dest, seq, frame }
                }
                None => match frame {
                    Some(frame) => GossipMsg::Heights(frame),
                    None => continue,
                },
            };
            ctx.send(w, msg);
        }
        self.step += 1;
        if self.step < self.cfg.steps {
            ctx.set_timer(self.cfg.step_len, TIMER_STEP);
        } else {
            self.ticking = false;
        }
    }

    /// The starvation probe ([`DefenseConfig`], detector 2), run at each
    /// step before the sends. A peer's silence says its heights still
    /// stand only while it is shorter than `refresh_every` steps: a peer
    /// silent that long has stopped talking to us (it left, or it
    /// quarantined us), which is no evidence.
    fn probe_starvation(&mut self) {
        let Some(def) = self.cfg.defense else { return };
        let (step, refresh) = (self.step, self.cfg.refresh_every);
        for i in 0..self.peers.len() {
            let p = &self.peers[i];
            // Cached heights mean an observed frame, so `heard` is set.
            let starved = p.fed >= def.probe_packets
                && p.cached
                    .as_ref()
                    .is_some_and(|(_, h)| h.iter().all(|&h| h == 0))
                && step + 1 - p.heard < refresh;
            if starved {
                self.peers[i].fed = 0;
                self.suspect(i, 1);
            }
        }
    }

    /// Raise the suspicion of peer `i` by `weight`; at the threshold,
    /// quarantine it: clear its row, which drops the routing edge, the
    /// cached heights and the defense's record of the peer, and ignore
    /// its future gossip. Its data packets — innocent traffic it merely
    /// relayed — still deliver.
    fn suspect(&mut self, i: usize, weight: u32) {
        let Some(def) = self.cfg.defense else { return };
        let p = &mut self.peers[i];
        p.suspicion += weight;
        if p.suspicion >= def.quarantine_at && p.link != Link::Quarantined {
            *p = Peer {
                id: p.id,
                link: Link::Quarantined,
                ..Peer::default()
            };
            self.counts.quarantines += 1;
        }
    }

    /// Defense checks on a fresh (non-stale) height frame from peer `i`,
    /// after recording what the peer *said* regardless of whether we
    /// trust it: attestation compares observations, so a frame refused as
    /// implausible still convicts an equivocator. Returns true when the
    /// frame is plausible and may be cached.
    fn vet_heights(&mut self, i: usize, step: u64, heights: &[u32]) -> bool {
        let Some(def) = self.cfg.defense else {
            return true;
        };
        self.peers[i].observe(self.step, step, heights);
        // Capacity bound: honest buffers cannot exceed the configured
        // capacity, so any larger advertisement is a fabrication
        // (catches inflation on the very first frame).
        let over = heights.iter().any(|&h| h > self.cfg.balancing.capacity);
        // Rate bound: a buffer drains/fills at most `max_height_rate`
        // per gossip step (degree × per-edge capacity, the γ-priced
        // quantity), so a jump past that over the elapsed steps is a lie.
        let jumped = |(old_step, old): &(u64, Vec<u32>)| {
            let allowed = u64::from(def.max_height_rate) * step.saturating_sub(*old_step).max(1);
            heights
                .iter()
                .zip(old)
                .any(|(&h, &o)| u64::from(h.abs_diff(o)) > allowed)
        };
        if over || self.peers[i].cached.as_ref().is_some_and(jumped) {
            self.counts.implausible_gossip += 1;
            self.suspect(i, 1);
            return false;
        }
        // A non-zero frame answers the packets fed so far (see
        // `probe_starvation`).
        if heights.iter().any(|&h| h > 0) {
            self.peers[i].fed = 0;
        }
        true
    }

    /// Compare a neighbor's sworn record only against frames *we*
    /// observed first-hand — never third-party claims against each
    /// other, so no attester can frame a peer alone. Matching
    /// `(peer, step)` with differing digests is proof of equivocation:
    /// quarantine immediately. Quarantine clears a peer's record, so
    /// only claims about peers still trusted are checked.
    fn check_attestation(&mut self, attest: &[(u32, u64, u64)]) {
        let Some(def) = self.cfg.defense else { return };
        for &(peer, step, digest) in attest {
            let Some(j) = self.find(peer) else { continue };
            if self.peers[j]
                .digest(step)
                .is_some_and(|mine| mine != digest)
            {
                self.counts.equivocations += 1;
                self.suspect(j, def.quarantine_at);
            }
        }
    }

    /// Take in a height frame `from` sent, alone or riding a packet: cache
    /// its heights unless they are stale or the defense refuses them,
    /// then check its attestation. A quarantined peer's word is
    /// worthless: ignore it.
    fn take_frame(&mut self, from: u32, frame: &HeightFrame) {
        let Some(i) = self.find(from) else { return };
        let p = &self.peers[i];
        if p.link == Link::Quarantined {
            return;
        }
        // Reordered deliveries (any positive-width delay distribution)
        // must never roll the cache back: keep the entry with the newest
        // sender step.
        if p.cached.as_ref().is_some_and(|(at, _)| *at > frame.step) {
            self.counts.stale_gossip_dropped += 1;
        } else if self.vet_heights(i, frame.step, &frame.heights) {
            let (step, cached) = self.peers[i].cached.get_or_insert_default();
            *step = frame.step;
            cached.clear();
            cached.extend_from_slice(&frame.heights);
        }
        // The heights may have convicted the sender.
        if !frame.attest.is_empty() && self.peers[i].link != Link::Quarantined {
            self.check_attestation(&frame.attest);
        }
    }
}

impl Actor for GossipNode {
    type Msg = GossipMsg;

    fn on_start(&mut self, ctx: &mut Ctx<GossipMsg>) {
        if self.cfg.steps > 0 {
            ctx.set_timer(self.cfg.step_len, TIMER_STEP);
            self.ticking = true;
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<GossipMsg>, from: u32, msg: GossipMsg) {
        match msg {
            GossipMsg::Heights(frame) => self.take_frame(from, &frame),
            GossipMsg::Packet { dest, seq, frame } => {
                // A riding frame counts even when the radio refuses the
                // packet: its neighbor got the step's frame either way.
                if let Some(frame) = frame {
                    self.take_frame(from, &frame);
                }
                if !self.wire.admit(ctx.now(), from, seq) {
                    return; // a duplicate copy, or eaten by an attack
                }
                self.counts.packets_received += 1;
                if dest == self.id {
                    self.counts.absorbed += 1;
                    return;
                }
                match self.col(dest) {
                    Some(c) if self.heights[c] < self.cfg.balancing.capacity => {
                        self.heights[c] += 1;
                    }
                    _ => self.counts.overflow_dropped += 1,
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<GossipMsg>, timer: u32) {
        debug_assert_eq!(timer, TIMER_STEP);
        self.run_step(ctx);
    }

    fn on_neighborhood_change(&mut self, ctx: &mut Ctx<GossipMsg>, neighbors: &[u32], _pos: Point) {
        // Routing follows the live radio topology: edges to departed or
        // out-of-range peers vanish for good, and an edge to a node that
        // had not joined opens when the node first shows up (churn never
        // adds an edge the topology graph lacks, nor restores one it
        // eroded). An edge that opens goes last in the send order: the
        // sort is stable.
        let in_row = |p: &Peer| neighbors.binary_search(&p.id).is_ok();
        self.peers
            .sort_by_key(|p| p.link == Link::Unmet && in_row(p));
        for p in &mut self.peers {
            match (p.link, in_row(p)) {
                (Link::Unmet, true) => p.link = Link::Live,
                (Link::Live, false) => p.link = Link::Gone,
                _ => {}
            }
            if !in_row(p) {
                p.cached = None;
            }
        }
        // A joiner got no on_start; bootstrap its step tick here. Nodes
        // that already ran out of steps stay stopped.
        if !self.ticking && self.step < self.cfg.steps {
            self.ticking = true;
            ctx.set_timer(self.cfg.step_len, TIMER_STEP);
        }
    }
}

/// Ledger and counters of one gossip-balancing run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GossipRun {
    /// Packets admitted across all nodes.
    pub injected: u64,
    /// Injections refused by admission control.
    pub admission_dropped: u64,
    /// Packets absorbed at their destinations.
    pub absorbed: u64,
    /// Packets discarded at full receive buffers.
    pub overflow_dropped: u64,
    /// Packets irrecoverably lost in transit: dropped by the fault model
    /// with nobody left retrying them (fire-and-forget: every wire drop;
    /// reliable mode: retry-budget exhaustion, and the custody of a node
    /// that crashed).
    pub link_lost: u64,
    /// Packets still in a live node's reliable-transport custody
    /// (windowed or backlogged, awaiting (re)transmission or ack) when the
    /// run went quiescent. Always 0 in fire-and-forget mode.
    pub in_flight: u64,
    /// Reliable-transport give-ups (retry budget exhausted). This can
    /// exceed the packets actually lost: a packet whose acks were all
    /// dropped is delivered *and* given up.
    pub gave_up: u64,
    /// Packets still buffered at the end of the run.
    pub buffered: u64,
    /// Packet transmissions attempted.
    pub packets_sent: u64,
    /// Height frames sent (one per neighbor copy).
    pub gossips_sent: u64,
    /// Reordered height gossips discarded instead of overwriting fresher
    /// cached values.
    pub stale_gossip_dropped: u64,
    /// Packets eaten by deflating blackholes that attracted them
    /// (0 without an adversary).
    pub stolen: u64,
    /// Packets eaten by selective forwarders they merely passed
    /// (0 without an adversary).
    pub blackholed: u64,
    /// Defense: height frames refused as implausible.
    pub implausible_gossip: u64,
    /// Defense: equivocations proven by attestation mismatch.
    pub equivocations: u64,
    /// Defense: height frames sent with an attestation riding them (one
    /// per neighbor copy; each is also counted in `gossips_sent`).
    pub attests_sent: u64,
    /// Defense: quarantine events (each node quarantining a peer counts
    /// once).
    pub quarantines: u64,
    /// Defense: the distinct peers quarantined by at least one node,
    /// sorted — the set the topology layer re-converges around.
    pub quarantined_nodes: Vec<u32>,
    /// Runtime counters (transport-layer retransmits/acks/rto_fired are
    /// folded in for reliable runs).
    pub stats: NetStats,
    /// Replay digest.
    pub digest: u64,
}

impl GossipRun {
    /// The ledger identity every run must satisfy, extended for
    /// retransmissions and theft: packets in reliable-transport custody
    /// are still in the network, and packets an adversary ate are
    /// accounted, not vanished.
    pub fn conserved(&self) -> bool {
        self.injected
            == self.absorbed
                + self.buffered
                + self.overflow_dropped
                + self.link_lost
                + self.in_flight
                + self.stolen
                + self.blackholed
    }

    /// Delivered fraction of admitted packets.
    pub fn delivery_rate(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.absorbed as f64 / self.injected as f64
        }
    }
}

/// A deterministic uniform workload: `per_step` packets per routing step,
/// each from a uniform source to a uniform destination in `dests`.
/// Returns `(step, source, dest)` triples.
pub fn uniform_workload(
    num_nodes: usize,
    dests: &[u32],
    steps: u64,
    per_step: u32,
    seed: u64,
) -> Vec<(u64, u32, u32)> {
    assert!(num_nodes > 0 && !dests.is_empty());
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut plan = Vec::with_capacity((steps * per_step as u64) as usize);
    for step in 0..steps {
        for _ in 0..per_step {
            let src = rng.gen_range(0..num_nodes as u32);
            let dest = dests[rng.gen_range(0..dests.len())];
            plan.push((step, src, dest));
        }
    }
    plan
}

/// Build the node actors for one run (workload split per source,
/// sorted by step), each with its radio: its attacks from `adversary`,
/// and duplicate refusal iff its links are fire-and-forget. A node's
/// neighbors are its topology edges to the nodes in its radio row at the
/// start: every node but those a `plan` join brings in later (topology
/// edges lie within radio range). Edges to, and of, a joiner open when it
/// joins.
pub(crate) fn build_nodes(
    topology: &SpatialGraph,
    dests: &[u32],
    cfg: GossipConfig,
    workload: &[(u64, u32, u32)],
    plan: &ChurnPlan,
    adversary: &AdversaryPlan,
) -> Vec<GossipNode> {
    let n = topology.len();
    let mut schedules: Vec<Vec<(u64, u32)>> = vec![Vec::new(); n];
    for &(step, src, dest) in workload {
        assert!(
            (src as usize) < n,
            "workload source {src} is not a node (n = {n})"
        );
        assert!(
            step < cfg.steps,
            "workload step {step} falls after the run's last step (cfg.steps = {})",
            cfg.steps
        );
        schedules[src as usize].push((step, dest));
    }
    for s in schedules.iter_mut() {
        s.sort_unstable_by_key(|&(step, _)| std::cmp::Reverse(step));
    }
    let joiners: BTreeSet<u32> = plan
        .entries()
        .iter()
        .filter(|e| matches!(e.kind, ChurnKind::Join(_)))
        .map(|e| e.node)
        .collect();
    (0..n as u32)
        .map(|id| {
            let peers = topology.graph.neighbors(id).iter().map(|a| {
                let met = !joiners.contains(&id) && !joiners.contains(&a.to);
                Peer {
                    id: a.to,
                    cost: a.weight,
                    link: if met { Link::Live } else { Link::Unmet },
                    ..Peer::default()
                }
            });
            GossipNode {
                id,
                wire: Wire::new(adversary.for_node(id), cfg.reliability.is_none()),
                peers: peers.collect(),
                dests: dests.to_vec(),
                heights: vec![0; dests.len()],
                last_frame: None,
                silence: 0,
                schedule: std::mem::take(&mut schedules[id as usize]),
                cfg,
                step: 0,
                seq: 0,
                ticking: false,
                counts: NodeCounts::default(),
            }
        })
        .collect()
}

/// Run `nodes` over `topology` to quiescence, then tally into a
/// [`GossipRun`] the node ledgers, the packets their radios ate and
/// their transports' counters. `layers` maps a node's stack to its
/// gossip node, its transport's counters and the packets still in that
/// transport's custody (zero for fire-and-forget).
fn run_stack<S>(
    nodes: Vec<S>,
    topology: &SpatialGraph,
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    threads: usize,
    layers: impl Fn(&S) -> (&GossipNode, LinkCounters, u64),
) -> GossipRun
where
    S: Actor + Send,
    S::Msg: Send + Sync,
{
    // The runtime's radio range only matters for broadcasts; this
    // protocol is purely unicast over topology edges, so any positive
    // range works.
    let range = topology.max_range.max(1e-9);
    let mut rt = Runtime::new(nodes, &topology.points, range, faults, seed, plan);
    rt.run(threads);
    let mut run = GossipRun {
        stats: rt.stats().clone(),
        digest: rt.transcript().digest(),
        ..GossipRun::default()
    };
    let (mut received, mut custody) = (0u64, 0u64);
    for (id, stack) in (0..).zip(rt.nodes()) {
        let (node, c, held) = layers(stack);
        run.stats.retransmits += c.retransmits;
        run.stats.acks += c.acks_sent;
        run.stats.rto_fired += c.rto_fired;
        run.gave_up += c.gave_up;
        // A crashed node never retransmits: its custody is lost.
        if rt.member_state(id) != MemberState::Dead {
            custody += held;
        }
        run.stolen += node.wire.stolen;
        run.blackholed += node.wire.blackholed;
        let c = node.counts;
        run.injected += c.injected;
        run.admission_dropped += c.admission_dropped;
        run.absorbed += c.absorbed;
        run.overflow_dropped += c.overflow_dropped;
        run.packets_sent += c.packets_sent;
        run.gossips_sent += c.gossips_sent;
        run.stale_gossip_dropped += c.stale_gossip_dropped;
        run.implausible_gossip += c.implausible_gossip;
        run.equivocations += c.equivocations;
        run.attests_sent += c.attests_sent;
        run.quarantines += c.quarantines;
        let quarantined = node.peers.iter().filter(|p| p.link == Link::Quarantined);
        run.quarantined_nodes.extend(quarantined.map(|p| p.id));
        received += c.packets_received;
        run.buffered += node.heights.iter().map(|&h| h as u64).sum::<u64>();
    }
    run.quarantined_nodes.sort_unstable();
    run.quarantined_nodes.dedup();
    // The queue is drained, so every hop-level send was received exactly
    // once, eaten by an adversary, is still in a live node's transport
    // custody, or is gone for good. Custody is clamped to the honest
    // outstanding count because a delivered packet whose acks all died
    // can be both received and (briefly) in custody.
    let outstanding = run.packets_sent - received - run.stolen - run.blackholed;
    run.in_flight = custody.min(outstanding);
    run.link_lost = outstanding - run.in_flight;
    run
}

/// Run distributed `(T, γ)`-balancing over `topology` with height gossip,
/// routing the given workload (triples from e.g. [`uniform_workload`]) to
/// the absorbing nodes `dests` on `threads` worker threads (`<= 1` runs
/// the inline one-shard core). All edges of the topology are active every
/// step; edge cost is Euclidean length. The result — ledger, stats,
/// digest — is bit-identical at every thread count. Pass
/// `&ChurnPlan::new()` and `&AdversaryPlan::new()` for a static, honest
/// network.
///
/// With [`GossipConfig::with_reliability`], `Packet` traffic rides the
/// per-link reliable sublayer while lone height frames stay best-effort
/// (a frame riding a packet rides its `Data` envelope). The sublayer
/// runs on the nodes' step ticks: an ack owed to a neighbor rides the
/// next step's packet or lone height frame to it, and flight deadlines,
/// which fall on steps, are checked there, so the transport arms a
/// retransmit timer of its own mostly after a node's last step.
///
/// Under a [`ChurnPlan`] nodes join, crash, gracefully leave, or drift
/// mid-run, and every node's routing edge set follows the live radio
/// topology (churn only erodes the input graph, never adds edges). The
/// conservation ledger stays exact: a dead node's buffered packets stay
/// `buffered`, copies in flight to it and its own transport custody
/// become `link_lost`, and the reliable sublayer's custody toward
/// vanished peers is abandoned rather than retried forever.
///
/// Every node sends and receives through its radio ([`crate::adversary`]).
/// On fire-and-forget links the radio refuses every duplicate `Packet`
/// copy, for every node, before anything else sees it. Under an
/// [`AdversaryPlan`] it also corrupts the chosen nodes' wire traffic with
/// their scheduled [`Attack`](crate::Attack)s, while every node
/// (compromised ones included — the adversary owns radios, not code)
/// runs the honest protocol, plus the defense layer when
/// [`GossipConfig::with_defense`] is set. Packets the adversary eats are
/// booked as `stolen`/`blackholed`, keeping the conservation ledger
/// exact. In reliable mode the radio sits *inside* the transport — a
/// smart attacker acks what it steals, so reliability cannot recover
/// eaten packets. A node with no attack scheduled sends and receives
/// unchanged.
///
/// Panics on an invalid configuration or plan, on a destination or
/// workload source that is not a node of `topology`, and on a workload
/// step at or past `cfg.steps`.
#[allow(clippy::too_many_arguments)]
pub fn run_gossip_balancing_adversarial(
    topology: &SpatialGraph,
    dests: &[u32],
    cfg: GossipConfig,
    workload: &[(u64, u32, u32)],
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    adversary: &AdversaryPlan,
    threads: usize,
) -> GossipRun {
    cfg.validate();
    faults.validate();
    assert!(!dests.is_empty(), "need at least one destination");
    let n = topology.len();
    for &d in dests {
        assert!((d as usize) < n, "destination {d} is not a node (n = {n})");
    }
    adversary.validate(n);
    let nodes = build_nodes(topology, dests, cfg, workload, plan, adversary);
    match cfg.reliability {
        None => run_stack(nodes, topology, faults, seed, plan, threads, |node| {
            (node, LinkCounters::default(), 0)
        }),
        Some(rc) => {
            let wrap = |node| ReliableActor::new(node, rc, needs_reliability);
            let stacks = nodes.into_iter().map(wrap).collect();
            run_stack(stacks, topology, faults, seed, plan, threads, |r| {
                (r.inner(), r.counters(), r.pending_count())
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;
    use crate::Runtime;
    use adhoc_geom::Point;
    use adhoc_graph::GraphBuilder;
    use adhoc_routing::{ActiveEdge, BalancingRouter};

    /// Test views of a node's per-peer state.
    impl GossipNode {
        /// The peers the node sends to, in send order.
        pub(crate) fn live_peers(&self) -> Vec<u32> {
            let live = self.peers.iter().filter(|p| p.link == Link::Live);
            live.map(|p| p.id).collect()
        }

        /// The `(step, heights)` the node caches for `peer`.
        fn cached_of(&self, peer: u32) -> Option<&(u64, Vec<u32>)> {
            self.peers[self.find(peer)?].cached.as_ref()
        }

        /// The step of `peer`'s latest frame the node observed.
        fn observed_step(&self, peer: u32) -> Option<u64> {
            let seen = &self.peers[self.find(peer)?];
            seen.latest().map(|(step, _)| step)
        }

        fn is_quarantined(&self, peer: u32) -> bool {
            self.find(peer)
                .is_some_and(|i| self.peers[i].link == Link::Quarantined)
        }
    }

    /// Every variant and field of a gossip message changes its digest
    /// encoding, and vectors are length-prefixed: heights `[1,2]` then
    /// `[3]` is not `[1]` then `[2,3]`, and likewise for attestations.
    /// A frame writes its variant tag and the digest of its encoding; a
    /// packet writes its fields, then whether a frame rides it and that
    /// frame's digest.
    #[test]
    fn digest_encoding_separates_variants_fields_and_vectors() {
        use crate::stats::message_digest;
        let frame = |step, h: &[u32], a: &[(u32, u64, u64)]| {
            GossipMsg::Heights(Arc::new(HeightFrame::new(step, h.into(), a.into())))
        };
        let heights = |step, h: &[u32]| frame(step, h, &[]);
        let attest = |a: &[(u32, u64, u64)]| frame(1, &[], a);
        let packet = |dest, seq| GossipMsg::Packet {
            dest,
            seq,
            frame: None,
        };
        let riding = |step, h: &[u32]| GossipMsg::Packet {
            dest: 1,
            seq: 2,
            frame: Some(Arc::new(HeightFrame::new(step, h.into(), Box::default()))),
        };
        let msgs = [
            heights(1, &[1, 2]),
            heights(2, &[1, 2]),
            heights(1, &[1, 3]),
            heights(1, &[1, 2, 0]),
            heights(1, &[]),
            packet(1, 2),
            packet(3, 2),
            packet(1, 3),
            attest(&[(1, 2, 3)]),
            attest(&[(4, 2, 3)]),
            attest(&[(1, 4, 3)]),
            attest(&[(1, 2, 4)]),
            frame(1, &[1, 2], &[(1, 2, 3)]),
            riding(1, &[1, 2]),
            riding(2, &[1, 2]),
            riding(1, &[]),
        ];
        let digests: BTreeSet<u64> = msgs.iter().map(message_digest).collect();
        assert_eq!(digests.len(), msgs.len());

        // Each vector is written as its length, then its elements.
        let mut w = DigestWriter::new();
        w.u64(5);
        w.len_prefix(2);
        w.u32(1);
        w.u32(2);
        w.len_prefix(1);
        w.u32(3);
        w.u64(4);
        w.u64(6);
        let encoding = w.finish();
        let mut w = DigestWriter::new();
        w.u8(0);
        w.u64(encoding);
        assert_eq!(message_digest(&frame(5, &[1, 2], &[(3, 4, 6)])), w.finish());
        let mut w = DigestWriter::new();
        w.u8(1);
        w.u32(1);
        w.u32(2);
        w.u8(1);
        w.u64(HeightFrame::new(1, [1, 2].into(), Box::default()).digest);
        assert_eq!(message_digest(&riding(1, &[1, 2])), w.finish());

        // Forging a copy re-digests it and leaves the shared frame alone.
        let shared = Arc::new(HeightFrame::new(5, [1, 2].into(), [(3, 4, 6)].into()));
        let mut copy = Arc::clone(&shared);
        HeightFrame::forge(&mut copy, |h| h.fill(0));
        assert_eq!(
            *shared,
            HeightFrame::new(5, [1, 2].into(), [(3, 4, 6)].into())
        );
        assert_eq!(
            *copy,
            HeightFrame::new(5, [0, 0].into(), [(3, 4, 6)].into())
        );

        let pair = |a: &GossipMsg, b: &GossipMsg| {
            let mut w = DigestWriter::new();
            a.digest_into(&mut w);
            b.digest_into(&mut w);
            w.finish()
        };
        assert_ne!(
            pair(&heights(1, &[1, 2]), &heights(1, &[3])),
            pair(&heights(1, &[1]), &heights(1, &[2, 3]))
        );
        let f = |i: u32| (i, u64::from(i), u64::from(i));
        assert_ne!(
            pair(&attest(&[f(1), f(2)]), &attest(&[f(3)])),
            pair(&attest(&[f(1)]), &attest(&[f(2), f(3)]))
        );
    }

    /// The attestation digest folds each height as one word into the
    /// FNV offset basis, times the FNV prime, the same fold as the
    /// replay digest.
    #[test]
    fn heights_digest_folds_one_word_per_height() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for x in [7u32, 0, u32::MAX] {
            h = (h ^ u64::from(x)).wrapping_mul(0x100_0000_01b3);
        }
        assert_eq!(heights_digest(&[7, 0, u32::MAX]), h);
        assert_eq!(heights_digest(&[]), 0xcbf2_9ce4_8422_2325);
    }

    fn chain(n: usize) -> SpatialGraph {
        let points: Vec<Point> = (0..n).map(|i| Point::new(i as f64 * 0.1, 0.0)).collect();
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as u32, i as u32 + 1, 0.1);
        }
        SpatialGraph::new(points, b.build(), 0.15)
    }

    fn cfg(steps: u64) -> GossipConfig {
        GossipConfig::new(
            BalancingConfig {
                threshold: 0.5,
                gamma: 0.0,
                capacity: 50,
            },
            steps,
        )
    }

    /// The harness on a static, honest network at the thread count CI
    /// selects, so both of its legs cover these tests.
    fn balance(
        topo: &SpatialGraph,
        dests: &[u32],
        c: GossipConfig,
        wl: &[(u64, u32, u32)],
        faults: FaultConfig,
        seed: u64,
    ) -> GossipRun {
        let (plan, adv) = (ChurnPlan::new(), AdversaryPlan::new());
        let threads = crate::shard_threads_from_env();
        run_gossip_balancing_adversarial(topo, dests, c, wl, faults, seed, &plan, &adv, threads)
    }

    #[test]
    fn delivers_and_conserves_on_ideal_links() {
        let topo = chain(4);
        let wl = uniform_workload(4, &[3], 400, 1, 1);
        let run = balance(&topo, &[3], cfg(400), &wl, FaultConfig::ideal(), 1);
        assert!(run.conserved(), "{run:?}");
        assert_eq!(run.link_lost, 0);
        assert_eq!(run.overflow_dropped, 0);
        assert!(run.absorbed > 100, "absorbed only {}", run.absorbed);
    }

    #[test]
    fn conserves_under_loss_and_duplication() {
        let topo = chain(5);
        let wl = uniform_workload(5, &[4], 300, 2, 2);
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.15,
            ..FaultConfig::ideal()
        };
        let run = balance(&topo, &[4], cfg(300), &wl, faults, 3);
        assert!(run.conserved(), "{run:?}");
        assert!(run.link_lost > 0, "20% loss lost nothing?");
        assert!(run.absorbed > 0);
        assert!(run.stats.duplicated > 0);
    }

    #[test]
    fn same_seed_identical_runs() {
        let topo = chain(6);
        let wl = uniform_workload(6, &[5], 200, 1, 7);
        let faults = FaultConfig::lossy(0.1);
        let go = |seed| balance(&topo, &[5], cfg(200), &wl, faults, seed);
        let (a, b) = (go(5), go(5));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.absorbed, b.absorbed);
        assert_eq!(a.stats, b.stats);
        assert_ne!(go(6).digest, a.digest);
    }

    /// The number of frames a node whose heights at steps `0, 1, …` were
    /// `trajectory` sends under the longest silence `refresh`: one on
    /// every change, and one whenever the silence since the last reaches
    /// its limit, which starts at `refresh / 4` (at least 1) after a
    /// change and doubles up to `refresh` with each unchanged repeat.
    fn frames_by_rule(trajectory: &[Vec<u32>], refresh: u64) -> u64 {
        let (mut last, mut silence, mut frames) = (None::<(u64, &Vec<u32>)>, 0, 0);
        for (step, heights) in (0..).zip(trajectory) {
            match last {
                Some((at, held)) if held == heights => {
                    if step - at < silence {
                        continue;
                    }
                    silence = (2 * silence).min(refresh);
                }
                _ => silence = (refresh / 4).max(1),
            }
            last = Some((step, heights));
            frames += 1;
        }
        frames
    }

    /// `refresh_every` bounds the silence between frames, not the
    /// frame rate: at 1 every node sends a frame every step, and longer
    /// silences drop only the frames that would repeat unchanged heights.
    /// On ideal links every change still reaches the neighbors before
    /// their next step, so every routing decision, and the throughput,
    /// stays exactly that of a frame every step. The heights each node's
    /// every-step frames carry are therefore its heights in every run,
    /// and the frames of a longer silence are exactly those the backoff
    /// rule picks from them.
    #[test]
    fn refresh_knob_trades_control_traffic_for_throughput() {
        let topo = chain(4);
        let steps = 600;
        let wl = uniform_workload(4, &[3], steps, 1, 4);
        let go = |refresh| {
            let mut c = cfg(steps);
            c.refresh_every = refresh;
            balance(&topo, &[3], c, &wl, FaultConfig::ideal(), 9)
        };
        let every_step = go(1);
        // One frame per step on each of the chain's 6 directed edges.
        assert_eq!(every_step.gossips_sent, steps * 6);
        // Each node's heights at every step, from its every-step frames.
        let mut c = cfg(steps);
        c.refresh_every = 1;
        let plan = ChurnPlan::new();
        let nodes = build_nodes(&topo, &[3], c, &wl, &plan, &AdversaryPlan::new());
        let mut rt = Runtime::new(nodes, &topo.points, 1.0, FaultConfig::ideal(), 9, &plan);
        let mut trajectories: Vec<Vec<Vec<u32>>> = vec![Vec::new(); 4];
        while !rt.run_with_limit(1) {
            for (node, trajectory) in rt.nodes().iter().zip(&mut trajectories) {
                if let Some(f) = &node.last_frame {
                    if f.step == trajectory.len() as u64 {
                        trajectory.push(f.heights.to_vec());
                    }
                }
            }
        }
        assert!(trajectories.iter().all(|t| t.len() == steps as usize));
        let mut prev = every_step.gossips_sent;
        for refresh in [2, 4, 8, 10] {
            let run = go(refresh);
            assert!(run.conserved(), "{run:?}");
            let frames: u64 = (0..4u32)
                .zip(&trajectories)
                .map(|(id, t)| topo.graph.neighbors(id).len() as u64 * frames_by_rule(t, refresh))
                .sum();
            assert_eq!(run.gossips_sent, frames, "refresh {refresh}");
            assert!(run.gossips_sent < prev, "refresh {refresh}: {run:?}");
            prev = run.gossips_sent;
            assert_eq!(run.absorbed, every_step.absorbed, "refresh {refresh}");
            assert_eq!(run.packets_sent, every_step.packets_sent);
        }
    }

    /// The steps at which an idle node sends its height frames over a run
    /// of `steps` steps: step 0, then after silences of `refresh / 4`
    /// (at least 1) steps, doubling up to `refresh`.
    fn idle_frame_steps(refresh: u64, steps: u64) -> Vec<u64> {
        let (mut at, mut silence) = (vec![0], (refresh / 4).max(1));
        while at[at.len() - 1] + silence < steps {
            at.push(at[at.len() - 1] + silence);
            silence = (2 * silence).min(refresh);
        }
        at
    }

    /// With no traffic no height ever changes, so frames go out only at
    /// the backed-off silences, and the count of frames sent has a closed
    /// form. Attestation sends no frame of its own: it rides every frame
    /// but the first (at step 0 a node has observed nobody yet), each
    /// frame swearing to the neighbors' frames of the step before.
    #[test]
    fn an_idle_network_gossips_only_at_the_backed_off_silence() {
        let topo = triangle_tail();
        let directed_edges = 2 * topo.graph.num_edges() as u64;
        let idle = |refresh, defense: Option<DefenseConfig>| {
            let mut c = cfg(101);
            c.refresh_every = refresh;
            c.defense = defense;
            balance(&topo, &[3], c, &[], FaultConfig::ideal(), 1)
        };
        assert_eq!(idle_frame_steps(1, 10), (0..10).collect::<Vec<_>>());
        assert_eq!(idle_frame_steps(3, 10), [0, 1, 3, 6, 9]);
        assert_eq!(idle_frame_steps(8, 40), [0, 2, 6, 14, 22, 30, 38]);
        assert_eq!(idle_frame_steps(10, 40), [0, 2, 6, 14, 24, 34]);
        for refresh in [1u64, 2, 3, 7, 8, 10] {
            let frames = idle_frame_steps(refresh, 101).len() as u64;
            let run = idle(refresh, None);
            assert_eq!(run.gossips_sent, frames * directed_edges, "{refresh}");
            assert_eq!(run.stats.per_kind["heights"].delivered, run.gossips_sent);
            assert_eq!(run.attests_sent, 0);
            assert!(!run.stats.per_kind.contains_key("packet"));
            let run = idle(refresh, Some(DefenseConfig::default()));
            assert_eq!(run.gossips_sent, frames * directed_edges, "{refresh}");
            assert_eq!(run.attests_sent, (frames - 1) * directed_edges);
            assert_eq!(run.quarantines, 0, "{run:?}");
        }
        // The default: 14 frames in 101 steps, against 51 at a 2-step
        // silence.
        assert_eq!(GossipConfig::new(cfg(1).balancing, 1).refresh_every, 8);
        assert_eq!(idle_frame_steps(8, 101).len(), 14);
    }

    /// A frame lost on the wire is repaired by the sender's next frame,
    /// which follows a change frame after `refresh_every / 4` steps and
    /// carries the current heights; the receiver's cache never rolls
    /// back. Node 0's heights change every 7th step and hold in between,
    /// over links that lose 40 % of frames; the run is stepped one event
    /// at a time to log every frame node 0 sends and every value node 1
    /// caches for it. At the default longest silence of 8 the frames
    /// follow each change after 2 and 6 steps, and after the last change
    /// the silences grow to 8. The changes stop 100 steps before the
    /// end, so 15 frames carry the final heights: node 1 misses them
    /// only if all of those are lost (probability 0.4¹⁵ < 10⁻⁵).
    #[test]
    fn a_dropped_change_frame_is_repaired_within_the_longest_silence() {
        let topo = chain(2);
        let steps = 250u64;
        let c = GossipConfig::new(
            BalancingConfig {
                threshold: 1e9,
                gamma: 0.0,
                capacity: 1000,
            },
            steps,
        );
        assert_eq!(c.refresh_every, 8);
        let changes: Vec<u64> = (0..steps - 100).step_by(7).collect();
        let wl: Vec<(u64, u32, u32)> = changes.iter().map(|&s| (s, 0, 1)).collect();
        let faults = FaultConfig {
            drop_prob: 0.4,
            duplicate_prob: 0.0,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let plan = ChurnPlan::new();
        let nodes = build_nodes(&topo, &[1], c, &wl, &plan, &AdversaryPlan::new());
        let mut rt = Runtime::new(nodes, &topo.points, 1.0, faults, 3, &plan);
        let mut sent: Vec<(u64, Vec<u32>)> = Vec::new();
        let mut cached: Vec<(u64, Vec<u32>)> = Vec::new();
        while !rt.run_with_limit(1) {
            let (sender, receiver) = (rt.node(0), rt.node(1));
            if sender.counts.gossips_sent > sent.len() as u64 {
                let f = sender.last_frame.as_ref().expect("a frame was sent");
                sent.push((f.step, f.heights.to_vec()));
            }
            if let Some(c) = receiver.cached_of(0) {
                if cached.last() != Some(c) {
                    cached.push(c.clone());
                }
            }
        }
        assert_eq!(rt.node(0).counts.gossips_sent, sent.len() as u64);
        // Frames go out on each change and after the backed-off
        // silences, never otherwise.
        let mut expected: Vec<u64> = changes
            .windows(2)
            .flat_map(|w| [w[0], w[0] + 2, w[0] + 6])
            .collect();
        let last = changes[changes.len() - 1];
        expected.extend(idle_frame_steps(8, steps - last).iter().map(|s| last + s));
        let sent_steps: Vec<u64> = sent.iter().map(|&(s, _)| s).collect();
        assert_eq!(sent_steps, expected);
        assert_eq!(expected.len() - 3 * (changes.len() - 1), 15);
        // The cache only moves forward, to frames node 0 actually sent.
        for w in cached.windows(2) {
            assert!(w[0].0 < w[1].0, "cache rolled back: {w:?}");
        }
        for c in &cached {
            assert!(sent.contains(c), "cached a frame never sent: {c:?}");
        }
        // Every lost change-frame is superseded by the next frame, 2 steps
        // later with the same heights; count those whose next frame
        // arrived.
        let delivered = |step: u64| cached.iter().any(|&(s, _)| s == step);
        let mut repaired = 0;
        for w in sent.windows(2) {
            if changes.contains(&w[0].0) && !delivered(w[0].0) && delivered(w[1].0) {
                assert_eq!(w[1].0 - w[0].0, 2);
                assert_eq!(w[1].1, w[0].1, "no change in between here");
                repaired += 1;
            }
        }
        assert!(
            repaired >= 3,
            "seed 3 lost too few change-frames: {repaired}"
        );
        // And the run ends with node 1 holding node 0's final heights.
        let last = cached.last().expect("some frame arrived");
        assert_eq!(last.1, rt.node(0).heights);
    }

    #[test]
    fn throughput_comparable_to_centralized_router_when_fresh() {
        // Same chain, same per-step injections: the distributed router
        // with per-step gossip and no faults should deliver a similar
        // count to the centralized BalancingRouter (not exactly equal —
        // gossip is one step stale by construction).
        let topo = chain(4);
        let steps = 600u64;
        let wl = uniform_workload(4, &[3], steps, 1, 11);
        let run = balance(&topo, &[3], cfg(steps), &wl, FaultConfig::ideal(), 1);

        let mut central = BalancingRouter::new(
            4,
            &[3],
            BalancingConfig {
                threshold: 0.5,
                gamma: 0.0,
                capacity: 50,
            },
        );
        let edges: Vec<ActiveEdge> = topo
            .graph
            .edges()
            .map(|(u, v, c)| ActiveEdge::new(u, v, c))
            .collect();
        let mut w = 0usize;
        for step in 0..steps {
            while w < wl.len() && wl[w].0 == step {
                central.inject(wl[w].1, wl[w].2);
                w += 1;
            }
            central.step(&edges);
        }
        let c = central.metrics().delivered;
        let d = run.absorbed;
        assert!(
            d * 2 >= c && c * 2 >= d.max(1),
            "distributed {d} vs centralized {c} diverged too far"
        );
    }

    /// Regression (stale-gossip overwrite): with a positive-width delay
    /// distribution, `Heights` messages reorder in flight; the cache must
    /// keep the freshest gossip, never roll back to an older one. Before
    /// step-stamping, whichever copy arrived *last* won.
    #[test]
    fn reordered_gossip_never_rolls_cache_back() {
        // Node 0's heights grow monotonically: one injection per step for
        // a destination it can never send toward (threshold unreachable).
        let topo = chain(3);
        let steps = 60u64;
        let mut c = GossipConfig::new(
            BalancingConfig {
                threshold: 1e9,
                gamma: 0.0,
                capacity: 1000,
            },
            steps,
        );
        // Steps shorter than the maximum delay, so consecutive gossips'
        // arrival windows genuinely interleave.
        c.step_len = 2;
        let wl: Vec<(u64, u32, u32)> = (0..steps).map(|s| (s, 0, 2)).collect();
        let faults = FaultConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay: DelayDist::Uniform { min: 1, max: 8 },
        };
        // Seed 1 is chosen so that, pre-fix, the *final* cache state is
        // stale: the step-58 gossip overtakes the step-59 one in flight.
        let nodes = build_nodes(
            &topo,
            &[2],
            c,
            &wl,
            &ChurnPlan::new(),
            &AdversaryPlan::new(),
        );
        let mut rt = Runtime::new(
            nodes,
            &topo.points,
            topo.max_range,
            faults,
            1,
            &ChurnPlan::new(),
        );
        rt.run(1);
        // The chosen seed must actually reorder — and the stale copies
        // must have been refused, not cached.
        let stale: u64 = rt
            .nodes()
            .iter()
            .map(|n| n.counts.stale_gossip_dropped)
            .sum();
        assert!(stale > 0, "seed 1 produced no reordering");
        // Node 1's cache of node 0 ends at the freshest gossip: step 59,
        // heights including all 60 injections.
        let col = rt.node(0).col(2).unwrap();
        let (step, heights) = rt.node(1).cached_of(0).expect("gossip cached");
        assert_eq!(*step, steps - 1, "cache ended on a stale step");
        assert_eq!(heights[col], steps as u32);
        assert_eq!(heights, &rt.node(0).heights);
    }

    #[test]
    fn reliable_sublayer_restores_delivery_under_heavy_loss() {
        let topo = chain(5);
        let inject_steps = 300u64;
        // Injections stop early so buffers and windows can drain, and the
        // rate stays below the chain's 1-packet-per-step edge capacity —
        // we are measuring loss recovery, not queueing overload.
        let steps = inject_steps + 250;
        let wl = uniform_workload(5, &[4], inject_steps, 1, 2);
        let faults = FaultConfig::lossy(0.3);
        let ff = balance(&topo, &[4], cfg(steps), &wl, faults, 3);
        let reliable = |steps| {
            let c = cfg(steps).with_reliability(ReliableConfig::default());
            balance(&topo, &[4], c, &wl, faults, 3)
        };
        let rel = reliable(steps);
        assert!(ff.conserved(), "{ff:?}");
        assert!(rel.conserved(), "{rel:?}");
        // Fire-and-forget bleeds packets at 30% loss...
        assert!(ff.link_lost > 0);
        assert!(ff.delivery_rate() < 0.9, "ff rate {}", ff.delivery_rate());
        // ...the reliable sublayer wins them back with retransmissions.
        assert!(rel.stats.retransmits > 0);
        assert!(rel.stats.acks > 0);
        // The drain outlasts every flight, so each deadline fell on a step
        // tick and the transport never armed a timer of its own: the
        // only timers are the 5 nodes' step ticks.
        assert_eq!(rel.stats.rto_fired, 0);
        assert_eq!(rel.stats.timers_set, 5 * steps);
        assert!(
            rel.delivery_rate() >= 0.99,
            "reliable rate {} (run {rel:?})",
            rel.delivery_rate()
        );
        assert!(rel.delivery_rate() > ff.delivery_rate());
        // Heights gossip stays best-effort by design: still dropped on
        // the wire, never retransmitted.
        assert!(rel.stats.per_kind["heights"].dropped > 0);
        // Residual loss can only come from retry-budget exhaustion.
        assert!(rel.link_lost <= rel.gave_up);

        // Cut the run 2 steps after injection stops: packets are still in
        // flight when each node's last tick passes, so only the
        // transport's own timer can retransmit them, and it settles all
        // of them.
        let cut = reliable(inject_steps + 2);
        assert!(cut.stats.rto_fired > 0, "{cut:?}");
        assert_eq!(
            cut.stats.timers_set,
            5 * (inject_steps + 2) + cut.stats.rto_fired
        );
        assert!(cut.conserved(), "{cut:?}");
        assert_eq!(cut.in_flight, 0, "{cut:?}");
    }

    #[test]
    fn reliable_same_seed_identical_runs() {
        let topo = chain(6);
        let wl = uniform_workload(6, &[5], 200, 1, 7);
        let faults = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 5 },
        };
        let go = |seed| {
            balance(
                &topo,
                &[5],
                cfg(200).with_reliability(ReliableConfig::default()),
                &wl,
                faults,
                seed,
            )
        };
        let (a, b) = (go(5), go(5));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.absorbed, b.absorbed);
        assert_eq!(a.stats, b.stats);
        assert!(a.conserved(), "{a:?}");
        assert_ne!(go(6).digest, a.digest);
    }

    #[test]
    fn churn_conserves_the_packet_ledger_in_both_reliability_modes() {
        // A mid-chain crash plus a graceful edge leave while traffic is
        // flowing: the ledger identity must survive dead buffers (stay
        // `buffered`), copies in flight to the dead node (`link_lost`),
        // and — in reliable mode — custody abandoned toward vanished
        // peers.
        let topo = chain(6);
        let wl = uniform_workload(6, &[5], 200, 1, 7);
        let plan =
            ChurnPlan::new()
                .crash(400, 2)
                .leave(800, 0)
                .drift(1000, 1, Point::new(0.1, 0.05));
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        for rel in [None, Some(ReliableConfig::default())] {
            let mut c = cfg(250);
            c.reliability = rel;
            let adv = AdversaryPlan::new();
            let run =
                run_gossip_balancing_adversarial(&topo, &[5], c, &wl, faults, 9, &plan, &adv, 1);
            assert!(run.conserved(), "reliability={rel:?}: {run:?}");
            assert_eq!(run.stats.crashes, 1);
            assert_eq!(run.stats.leaves, 1);
            assert_eq!(run.stats.drifts, 1);
            assert!(run.stats.reconvergences > 0);
            assert!(run.absorbed > 0, "traffic still flows around the hole");
        }
    }

    /// A crashed node never retransmits, so the packets in its transport
    /// custody are lost, not in flight. Node 2 crashes at each time of a
    /// 40-tick window; most of those crashes leave it holding custody,
    /// which was once booked as `in_flight` (3 packets at t = 417).
    #[test]
    fn a_crashed_nodes_custody_is_link_lost() {
        let topo = chain(4);
        let wl = source_workload(150, 2, 0, 3);
        let c = cfg(250).with_reliability(ReliableConfig::default());
        let adv = AdversaryPlan::new();
        let threads = crate::shard_threads_from_env();
        let faults = FaultConfig::lossy(0.2);
        for at in 400..440 {
            let plan = ChurnPlan::new().crash(at, 2);
            let run = run_gossip_balancing_adversarial(
                &topo,
                &[3],
                c,
                &wl,
                faults,
                5,
                &plan,
                &adv,
                threads,
            );
            assert_eq!(run.stats.crashes, 1);
            assert_eq!(run.in_flight, 0, "crash at {at}: {run:?}");
            assert!(run.conserved(), "crash at {at}: {run:?}");
        }
    }

    #[test]
    fn churn_runs_are_digest_identical_across_thread_counts() {
        let topo = chain(6);
        let wl = uniform_workload(6, &[5], 150, 1, 3);
        let plan = ChurnPlan::new()
            .crash(300, 3)
            .drift(600, 1, Point::new(0.12, 0.02));
        let faults = FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let c = cfg(200).with_reliability(ReliableConfig::default());
        let adv = AdversaryPlan::new();
        let go = |threads| {
            run_gossip_balancing_adversarial(&topo, &[5], c, &wl, faults, 5, &plan, &adv, threads)
        };
        let seq = go(1);
        assert!(seq.conserved(), "{seq:?}");
        for threads in [2, 4] {
            assert_eq!(go(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn full_loss_delivers_nothing_but_stays_conserved() {
        let topo = chain(3);
        let wl = uniform_workload(3, &[2], 100, 1, 5);
        let run = balance(&topo, &[2], cfg(100), &wl, FaultConfig::lossy(1.0), 1);
        assert!(run.conserved(), "{run:?}");
        // Packets injected at the destination itself still absorb.
        assert_eq!(run.absorbed + run.buffered + run.link_lost, run.injected);
    }

    #[test]
    #[should_panic(expected = "destination 7 is not a node (n = 3)")]
    fn a_destination_outside_the_topology_is_rejected() {
        let topo = chain(3);
        let wl = uniform_workload(3, &[2], 10, 1, 5);
        balance(&topo, &[2, 7], cfg(10), &wl, FaultConfig::ideal(), 1);
    }

    #[test]
    #[should_panic(expected = "workload source 9 is not a node (n = 3)")]
    fn a_workload_source_outside_the_topology_is_rejected() {
        let topo = chain(3);
        balance(&topo, &[2], cfg(10), &[(0, 9, 2)], FaultConfig::ideal(), 1);
    }

    /// An entry the run never reaches would vanish from the ledger: the
    /// run would report a delivery rate over only part of the traffic.
    #[test]
    #[should_panic(expected = "workload step 10 falls after the run's last step (cfg.steps = 10)")]
    fn a_workload_step_after_the_run_is_rejected() {
        let topo = chain(3);
        let wl = uniform_workload(3, &[2], 50, 2, 1);
        balance(&topo, &[2], cfg(10), &wl, FaultConfig::ideal(), 1);
    }

    // ------------------- Byzantine adversary & defense -------------------

    /// Two node-disjoint 0→5 relay paths (0-1-2-5 and 0-3-4-5): an
    /// adversary on one path leaves the other intact, so quarantining it
    /// lets routing recover.
    fn diamond() -> SpatialGraph {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.05),
            Point::new(0.2, 0.05),
            Point::new(0.1, -0.05),
            Point::new(0.2, -0.05),
            Point::new(0.3, 0.0),
        ];
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 5), (0, 3), (3, 4), (4, 5)] {
            b.add_edge(u, v, 0.12);
        }
        SpatialGraph::new(points, b.build(), 0.15)
    }

    /// A triangle around node 0 (edges 0-1, 0-2, 1-2) plus a tail:
    /// attestation needs witnesses that share both the adversary and an
    /// edge with each other — a chain has no such pair.
    fn triangle_tail() -> SpatialGraph {
        let points = vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.05),
            Point::new(0.1, -0.05),
            Point::new(0.2, 0.0),
        ];
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v, 0.12);
        }
        SpatialGraph::new(points, b.build(), 0.15)
    }

    /// `per_step` packets injected at `src` for `dest`, every step.
    fn source_workload(steps: u64, per_step: u32, src: u32, dest: u32) -> Vec<(u64, u32, u32)> {
        (0..steps)
            .flat_map(|s| (0..per_step).map(move |_| (s, src, dest)))
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn adversarial(
        topo: &SpatialGraph,
        dests: &[u32],
        c: GossipConfig,
        wl: &[(u64, u32, u32)],
        faults: FaultConfig,
        seed: u64,
        adv: &AdversaryPlan,
        threads: usize,
    ) -> GossipRun {
        run_gossip_balancing_adversarial(
            topo,
            dests,
            c,
            wl,
            faults,
            seed,
            &ChurnPlan::new(),
            adv,
            threads,
        )
    }

    #[test]
    fn deflating_blackhole_steals_traffic_and_the_ledger_balances() {
        let topo = diamond();
        let wl = source_workload(300, 2, 0, 5);
        let adv = AdversaryPlan::default().deflate(5, 1, true);
        let run = adversarial(&topo, &[5], cfg(300), &wl, FaultConfig::ideal(), 8, &adv, 1);
        assert!(run.conserved(), "{run:?}");
        assert!(
            run.stolen > 50,
            "a zero-advertising blackhole should attract and eat traffic (stole {})",
            run.stolen
        );
        assert_eq!(run.quarantines, 0, "no defense layer configured");
    }

    #[test]
    fn defense_quarantines_the_blackhole_and_reroutes() {
        let topo = diamond();
        let wl = source_workload(300, 2, 0, 5);
        let adv = AdversaryPlan::default().deflate(5, 1, true);
        let go = |defense: Option<DefenseConfig>| {
            let mut c = cfg(400);
            if let Some(d) = defense {
                c = c.with_defense(d);
            }
            adversarial(&topo, &[5], c, &wl, FaultConfig::ideal(), 8, &adv, 1)
        };
        let off = go(None);
        let on = go(Some(DefenseConfig {
            probe_packets: 4,
            ..DefenseConfig::default()
        }));
        assert!(off.conserved(), "{off:?}");
        assert!(on.conserved(), "{on:?}");
        assert!(on.quarantines > 0, "{on:?}");
        assert!(
            on.quarantined_nodes.contains(&1),
            "expected the deflator in {:?}",
            on.quarantined_nodes
        );
        assert!(
            on.absorbed > off.absorbed,
            "defense must recover delivery: {} on vs {} off",
            on.absorbed,
            off.absorbed
        );
        assert!(on.stolen < off.stolen, "{} vs {}", on.stolen, off.stolen);
    }

    #[test]
    fn inflated_heights_are_implausible_and_quarantined() {
        let topo = diamond();
        let wl = source_workload(200, 2, 0, 5);
        let adv = AdversaryPlan::default().inflate(5, 3);
        let c = cfg(260).with_defense(DefenseConfig::default());
        let run = adversarial(&topo, &[5], c, &wl, FaultConfig::ideal(), 9, &adv, 1);
        assert!(run.conserved(), "{run:?}");
        assert!(run.implausible_gossip > 0, "{run:?}");
        assert!(
            run.quarantined_nodes.contains(&3),
            "expected the inflator in {:?}",
            run.quarantined_nodes
        );
    }

    /// The equivocator tells even-numbered neighbors "empty" and
    /// odd-numbered ones "full"; no data traffic is needed — the sworn
    /// digest exchange between its mutually adjacent witnesses convicts
    /// it on height frames alone. A high strike threshold keeps the
    /// plausibility detector slow, so the conviction demonstrably comes
    /// from attestation: the witness fed only plausible zeros could
    /// never condemn the liar on first-hand evidence.
    #[test]
    fn equivocation_is_caught_by_attestation_between_witnesses() {
        let topo = triangle_tail();
        let adv = AdversaryPlan::default().equivocate(5, 0);
        let c = cfg(60).with_defense(DefenseConfig {
            quarantine_at: 1000,
            ..DefenseConfig::default()
        });
        let run = adversarial(&topo, &[3], c, &[], FaultConfig::ideal(), 10, &adv, 1);
        assert!(run.equivocations > 0, "{run:?}");
        assert!(
            run.quarantined_nodes.contains(&0),
            "expected the equivocator in {:?}",
            run.quarantined_nodes
        );
        assert_eq!(
            run.quarantines, 2,
            "both mutually adjacent witnesses must convict ({run:?})"
        );
    }

    #[test]
    fn selective_dropper_blackholes_only_targeted_sources() {
        let topo = chain(4);
        // Node 1 drops what node 0 sends it but forwards everything else.
        let wl = source_workload(200, 1, 0, 3);
        let adv = AdversaryPlan::default().selective_drop(5, 1, vec![0]);
        let run = adversarial(
            &topo,
            &[3],
            cfg(260),
            &wl,
            FaultConfig::ideal(),
            11,
            &adv,
            1,
        );
        assert!(run.conserved(), "{run:?}");
        assert!(run.blackholed > 100, "{run:?}");
        assert_eq!(run.stolen, 0, "selective drop books as blackholed");
        assert_eq!(run.absorbed, 0, "node 0's only route runs through 1");
    }

    /// Attestation needs no frame of its own: on an idle network every
    /// frame after the first few comes at the longest silence, and the
    /// equivocator turns only after that, yet both witnesses convict it
    /// from the attestations riding those frames. A high strike
    /// threshold keeps the plausibility detector out of it.
    #[test]
    fn an_equivocator_is_caught_on_an_idle_network_at_the_longest_silence() {
        let topo = triangle_tail();
        let c = cfg(200).with_defense(DefenseConfig {
            quarantine_at: 1000,
            ..DefenseConfig::default()
        });
        // Step 14 is the last frame before the silences reach 8; the
        // equivocator turns at step 20.
        assert_eq!(idle_frame_steps(c.refresh_every, 30), [0, 2, 6, 14, 22]);
        let turn = 20 * c.step_len;
        let adv = AdversaryPlan::default().equivocate(turn, 0);
        let run = adversarial(&topo, &[3], c, &[], FaultConfig::ideal(), 10, &adv, 1);
        assert!(run.equivocations > 0, "{run:?}");
        assert_eq!(run.quarantined_nodes, [0]);
        assert_eq!(run.quarantines, 2, "both witnesses convict ({run:?})");
        assert!(!run.stats.per_kind.contains_key("packet"));
    }

    /// A frame riding a packet is taken in before the radio decides on
    /// the packet: a copy the radio refuses as a duplicate, and one a
    /// selective dropper eats, still update the receiver's cache and its
    /// attestation record.
    #[test]
    fn a_riding_frame_counts_when_the_radio_refuses_its_packet() {
        let topo = chain(3);
        let c = cfg(10).with_defense(DefenseConfig::default());
        let adv = AdversaryPlan::new().selective_drop(0, 1, vec![0]);
        let plan = ChurnPlan::new();
        let mut node = build_nodes(&topo, &[2], c, &[], &plan, &adv).swap_remove(1);
        let mut ctx = Ctx::new(1, 5);
        let riding = |seq, step, h: u32| GossipMsg::Packet {
            dest: 2,
            seq,
            frame: Some(Arc::new(HeightFrame::new(step, [h].into(), Box::default()))),
        };
        let latest = |node: &GossipNode, peer| node.observed_step(peer).unwrap();
        // From node 2: a packet admitted, then a refused copy of it
        // carrying a newer frame.
        let first = GossipMsg::Packet {
            dest: 2,
            seq: 0,
            frame: None,
        };
        node.on_message(&mut ctx, 2, first);
        node.on_message(&mut ctx, 2, riding(0, 4, 3));
        assert_eq!(node.counts.packets_received, 1, "the copy was refused");
        assert_eq!(*node.cached_of(2).unwrap(), (4, vec![3]));
        assert_eq!(latest(&node, 2), 4);
        // From node 0, whose packets the radio eats.
        node.on_message(&mut ctx, 0, riding(0, 6, 2));
        assert_eq!(node.wire.blackholed, 1);
        assert_eq!(node.counts.packets_received, 1);
        assert_eq!(*node.cached_of(0).unwrap(), (6, vec![2]));
        assert_eq!(latest(&node, 0), 6);
        assert!(ctx.sends.is_empty());
    }

    /// A lone height frame of `step` with one height and the claims `attest`.
    fn lone_frame(step: u64, h: u32, attest: &[(u32, u64, u64)]) -> GossipMsg {
        GossipMsg::Heights(Arc::new(HeightFrame::new(step, [h].into(), attest.into())))
    }

    /// The recipients of a step's sends, in send order.
    fn recipients(ctx: &Ctx<GossipMsg>) -> Vec<u32> {
        ctx.sends.iter().map(|&(w, _)| w).collect()
    }

    /// A neighbor that drifts out of the radio row loses its edge and the
    /// heights cached for it, but not the node's record of what it said:
    /// the node's next frame still swears to the neighbor's last frame,
    /// which no earlier frame swore to, and a later claim that the
    /// neighbor said something else at that step still convicts it.
    #[test]
    fn a_departed_neighbors_last_frame_is_still_sworn_to_and_checked() {
        let topo = chain(3);
        let c = cfg(10).with_defense(DefenseConfig::default());
        let (plan, adv) = (ChurnPlan::new(), AdversaryPlan::new());
        let mut node = build_nodes(&topo, &[2], c, &[], &plan, &adv).swap_remove(1);
        let mut ctx = Ctx::new(1, 0);
        let claims = |ctx: &Ctx<GossipMsg>| -> Vec<Vec<(u32, u64, u64)>> {
            let attest = |(_, msg): &(u32, GossipMsg)| match msg {
                GossipMsg::Heights(f) => f.attest.to_vec(),
                GossipMsg::Packet { .. } => panic!("no traffic, no packets"),
            };
            ctx.sends.iter().map(attest).collect()
        };
        // Step 0: the frame swears to node 0's frame of its step 0.
        node.on_message(&mut ctx, 0, lone_frame(0, 0, &[]));
        node.run_step(&mut ctx);
        let sworn = (0, 0, heights_digest(&[0]));
        assert_eq!(recipients(&ctx), [0, 2]);
        assert_eq!(claims(&ctx), [[sworn], [sworn]]);
        // Step 1: node 0's frame of its step 1 arrives; no frame is due.
        ctx.sends.clear();
        node.on_message(&mut ctx, 0, lone_frame(1, 3, &[]));
        node.run_step(&mut ctx);
        assert!(ctx.sends.is_empty());
        // Node 0 drifts out of the row.
        node.on_neighborhood_change(&mut ctx, &[2], topo.points[1]);
        assert_eq!(node.live_peers(), [2]);
        assert_eq!(node.cached_of(0), None);
        assert_eq!(node.observed_step(0), Some(1));
        // Step 2: the frame, to node 2 alone, swears to node 0's last one.
        node.run_step(&mut ctx);
        let sworn = (0, 1, heights_digest(&[3]));
        assert_eq!(recipients(&ctx), [2]);
        assert_eq!(claims(&ctx), [[sworn]]);
        // Node 2 swears to the same frame, then to a different one.
        node.on_message(&mut ctx, 2, lone_frame(3, 0, &[sworn]));
        assert_eq!(node.counts.equivocations, 0);
        let (peer, step, digest) = sworn;
        node.on_message(&mut ctx, 2, lone_frame(4, 0, &[(peer, step, digest ^ 1)]));
        assert_eq!(node.counts.equivocations, 1);
        assert!(node.is_quarantined(0));
    }

    /// An edge to a joiner opens when the joiner first shows up in the
    /// node's radio row, and goes last in the node's send order: after the
    /// edges the node started with and those opened before it, whatever
    /// the ids. Node 1 of the triangle starts with node 3 alone, then
    /// meets joiner 2, then joiner 0.
    #[test]
    fn a_met_joiners_edge_is_sent_to_after_the_edges_opened_before_it() {
        let topo = triangle_tail();
        let plan = ChurnPlan::new()
            .join(16, 2, topo.points[2])
            .join(32, 0, topo.points[0]);
        let adv = AdversaryPlan::new();
        let mut node = build_nodes(&topo, &[3], cfg(10), &[], &plan, &adv).swap_remove(1);
        assert_eq!(node.live_peers(), [3]);
        let mut ctx = Ctx::new(1, 16);
        node.on_neighborhood_change(&mut ctx, &[2, 3], topo.points[1]);
        assert_eq!(node.live_peers(), [3, 2]);
        node.on_neighborhood_change(&mut ctx, &[0, 2, 3], topo.points[1]);
        assert_eq!(node.live_peers(), [3, 2, 0]);
        node.run_step(&mut ctx);
        assert_eq!(recipients(&ctx), [3, 2, 0]);
    }

    /// Quarantine severs a peer: it gets no frame copy and no packet, and
    /// its later frames, alone or riding a packet, are neither cached nor
    /// observed; a data packet it relays is still admitted and counted.
    #[test]
    fn a_quarantined_peer_gets_nothing_and_only_its_packets_are_taken() {
        let topo = chain(3);
        let c = cfg(10).with_defense(DefenseConfig::default());
        let wl = source_workload(10, 1, 1, 2);
        let (plan, adv) = (ChurnPlan::new(), AdversaryPlan::new());
        let mut node = build_nodes(&topo, &[2], c, &wl, &plan, &adv).swap_remove(1);
        let mut ctx = Ctx::new(1, 0);
        // Three frames above the buffer capacity: three strikes.
        for step in 0..3 {
            node.on_message(&mut ctx, 2, lone_frame(step, 51, &[]));
        }
        assert_eq!(node.counts.implausible_gossip, 3);
        assert_eq!(node.counts.quarantines, 1);
        assert!(node.is_quarantined(2));
        assert_eq!(node.live_peers(), [0]);
        // The step's packet for node 2, with the frame riding, goes to node
        // 0; node 2 gets nothing.
        node.run_step(&mut ctx);
        assert_eq!(recipients(&ctx), [0]);
        assert!(matches!(
            ctx.sends[0].1,
            GossipMsg::Packet { frame: Some(_), .. }
        ));
        // Node 2's later frames are ignored; its packet is not.
        node.on_message(&mut ctx, 2, lone_frame(3, 0, &[]));
        let riding = GossipMsg::Packet {
            dest: 2,
            seq: 0,
            frame: Some(Arc::new(HeightFrame::new(4, [0].into(), Box::default()))),
        };
        node.on_message(&mut ctx, 2, riding);
        assert_eq!(node.cached_of(2), None);
        assert_eq!(node.observed_step(2), None);
        assert_eq!(node.counts.packets_received, 1);
        assert_eq!(node.counts.stale_gossip_dropped, 0);
        assert_eq!(node.counts.quarantines, 1);
    }

    /// At every step each of a node's neighbors, all of them in its live
    /// radio row, gets exactly one message: the step's packet to it, with
    /// the step's frame riding if one is due, or the frame alone. Every
    /// copy of a frame is the same frame, forged per copy only by an
    /// attacker's radio. The run has loss, duplication, a delay spread,
    /// a joiner, a crash, a drift, an equivocator and the defense; a copy
    /// of every live node is stepped at intervals through it.
    #[test]
    fn every_live_neighbor_gets_one_copy_of_each_frame_per_step() {
        let topo = diamond();
        let wl = source_workload(200, 2, 0, 5);
        let plan = ChurnPlan::new()
            .join(300, 3, topo.points[3])
            .crash(900, 2)
            .drift(1200, 4, Point::new(0.22, -0.04));
        let adv = AdversaryPlan::default().equivocate(100, 1);
        let faults = FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let c = cfg(240).with_defense(DefenseConfig::default());
        let nodes = build_nodes(&topo, &[5], c, &wl, &plan, &adv);
        let mut rt = Runtime::new(nodes, &topo.points, topo.max_range, faults, 6, &plan);
        let (mut stepped, mut with_frame, mut forged) = (0, 0, 0);
        while !rt.run_with_limit(7) {
            for id in 0..6u32 {
                let node = rt.node(id);
                if rt.member_state(id) != MemberState::Alive || !node.ticking {
                    continue;
                }
                let row = rt.radio_neighbors(id);
                assert!(node.live_peers().iter().all(|w| row.contains(w)), "{id}");
                let mut copy = node.clone();
                let mut ctx = Ctx::new(id, rt.now());
                copy.run_step(&mut ctx);
                stepped += 1;
                let mut to: Vec<u32> = ctx.sends.iter().map(|&(w, _)| w).collect();
                to.sort_unstable();
                to.dedup();
                assert_eq!(to.len(), ctx.sends.len(), "one message per neighbor");
                let frame = copy.last_frame.clone().filter(|f| f.step == node.step);
                let Some(frame) = frame else {
                    assert!(ctx
                        .sends
                        .iter()
                        .all(|(_, m)| matches!(m, GossipMsg::Packet { frame: None, .. })));
                    continue;
                };
                with_frame += 1;
                assert_eq!(ctx.sends.len(), copy.live_peers().len());
                for (_, msg) in &ctx.sends {
                    let sent = match msg {
                        GossipMsg::Heights(f) => f,
                        GossipMsg::Packet { frame, .. } => frame.as_ref().expect("riding"),
                    };
                    if !Arc::ptr_eq(sent, &frame) {
                        assert_eq!(id, 1, "only the equivocator forges");
                        assert_eq!((sent.step, &sent.attest), (frame.step, &frame.attest));
                        forged += 1;
                    }
                }
            }
        }
        assert!(stepped > 500 && with_frame > 100 && forged > 0);
        assert!(rt.stats().joins == 1 && rt.stats().crashes == 1);
        assert_eq!(rt.stats().non_neighbor_sends, 0);
    }

    /// A node a join brings in later is in nobody's radio row before it
    /// joins, so its topology neighbors send it nothing until then; once
    /// it joins in range they route to it. Joining out of range of them
    /// it never gets anything. Nodes used to send every topology
    /// neighbor frames and packets from the start, which the runtime
    /// discarded as non-neighbor sends.
    #[test]
    fn a_joiner_gets_no_frames_or_packets_before_it_joins() {
        let topo = chain(4);
        let wl = source_workload(150, 1, 0, 3);
        let adv = AdversaryPlan::new();
        let threads = crate::shard_threads_from_env();
        let go = |at: Point| {
            let plan = ChurnPlan::new().join(400, 3, at);
            run_gossip_balancing_adversarial(
                &topo,
                &[3],
                cfg(250),
                &wl,
                FaultConfig::ideal(),
                1,
                &plan,
                &adv,
                threads,
            )
        };
        let in_range = go(topo.points[3]);
        assert_eq!(in_range.stats.non_neighbor_sends, 0, "{in_range:?}");
        assert!(in_range.conserved(), "{in_range:?}");
        assert!(in_range.absorbed > 0, "the joiner is reached once it joins");
        let far = go(Point::new(5.0, 5.0));
        assert_eq!(far.stats.non_neighbor_sends, 0, "{far:?}");
        assert!(far.conserved(), "{far:?}");
        assert_eq!(far.absorbed, 0);
    }

    /// Stale replay freezes the adversary's advertised frame at
    /// activation time; the run must still balance its ledger and the
    /// lie, being self-consistent, must defeat attestation (it is
    /// detectable only once the frozen frame turns implausible).
    #[test]
    fn stale_replay_conserves_and_evades_attestation() {
        let topo = diamond();
        let wl = source_workload(200, 2, 0, 5);
        let adv = AdversaryPlan::default().replay(20, 1);
        let c = cfg(260).with_defense(DefenseConfig::default());
        let run = adversarial(&topo, &[5], c, &wl, FaultConfig::ideal(), 12, &adv, 1);
        assert!(run.conserved(), "{run:?}");
        assert_eq!(run.equivocations, 0, "a frozen frame is consistent");
    }

    #[test]
    fn adversarial_runs_conserve_under_loss_and_duplication() {
        let topo = diamond();
        let wl = source_workload(300, 2, 0, 5);
        let adv = AdversaryPlan::default()
            .deflate(5, 1, true)
            .selective_drop(9, 4, vec![3]);
        let faults = FaultConfig {
            drop_prob: 0.15,
            duplicate_prob: 0.25,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let run = adversarial(&topo, &[5], cfg(400), &wl, faults, 13, &adv, 1);
        assert!(run.conserved(), "{run:?}");
        assert!(run.stolen > 0 && run.blackholed > 0, "{run:?}");
        assert!(run.stats.duplicated > 0, "run wasn't duplicate-heavy");
    }

    #[test]
    fn reliable_mode_cannot_recover_stolen_packets() {
        let topo = diamond();
        let wl = source_workload(200, 2, 0, 5);
        let adv = AdversaryPlan::default().deflate(5, 1, true);
        let c = cfg(300).with_reliability(ReliableConfig::default());
        let run = adversarial(&topo, &[5], c, &wl, FaultConfig::lossy(0.1), 14, &adv, 1);
        assert!(run.conserved(), "{run:?}");
        assert!(
            run.stolen > 0,
            "the radio sits inside the transport: acked then eaten ({run:?})"
        );
    }

    #[test]
    fn adversarial_digest_identical_across_thread_counts() {
        let topo = diamond();
        let wl = source_workload(150, 2, 0, 5);
        let adv = AdversaryPlan::default()
            .deflate(5, 1, true)
            .inflate(7, 4)
            .equivocate(11, 2);
        let c = cfg(200).with_defense(DefenseConfig::default());
        let go = |threads| {
            adversarial(
                &topo,
                &[5],
                c,
                &wl,
                FaultConfig::lossy(0.05),
                15,
                &adv,
                threads,
            )
        };
        let one = go(1);
        for threads in [2, 4] {
            assert_eq!(one, go(threads), "thread count {threads} diverged");
        }
    }
}
