//! The `(T, γ)`-balancing router as a distributed actor protocol with
//! height gossip (paper §3.2 and its control-traffic remark).
//!
//! The centralized `BalancingRouter` (crate `adhoc-routing`) reads both
//! endpoints' buffer heights when deciding a send. Distributed nodes
//! cannot: they know their own column of the height matrix and whatever
//! their neighbors last *gossiped*. This module makes that explicit:
//!
//! * every `refresh_every` routing steps a node sends a `Heights` message
//!   to each topology neighbor (the `StaleBalancingRouter` ablation's
//!   refresh period, now a real message that can be lost or delayed);
//! * send decisions use the freshest cached neighbor heights;
//! * data packets are `Packet` messages over the same faulty links —
//!   sequence-numbered so the node's radio layer (the [`crate::adversary`]
//!   interposer) can refuse duplicated deliveries, and accounted so lost
//!   packets are visible instead of silently vanishing.
//!
//! Conservation therefore holds in ledger form:
//! `injected = absorbed + buffered + overflow_dropped + link_lost +
//! in_flight + stolen + blackholed`, asserted by [`GossipRun::conserved`]
//! after every run. `in_flight` is reliable-transport custody at
//! quiescence (0 in fire-and-forget mode); `stolen` and `blackholed` are
//! packets eaten by an adversary (0 without one).

use crate::adversary::{AdversarialActor, AdversaryPlan};
use crate::fault::FaultConfig;
use crate::node::{Actor, Ctx, Message};
use crate::reliable::{LinkCounters, ReliableActor, ReliableConfig};
use crate::runtime::run_to_quiescence;
use crate::stats::{DigestWriter, NetStats};
use crate::ChurnPlan;
use adhoc_geom::Point;
use adhoc_proximity::SpatialGraph;
use adhoc_routing::BalancingConfig;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Timer id for the per-step tick.
const TIMER_STEP: u32 = 1;

/// Messages of the distributed balancing protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum GossipMsg {
    /// Height gossip: the sender's buffer heights, one per destination
    /// (indexed like the shared destination list), stamped with the
    /// sender's routing step so reordered deliveries can't roll a cache
    /// back to staler values.
    Heights {
        /// The sender's routing step when the gossip was emitted.
        step: u64,
        /// The sender's buffer heights at that step.
        heights: Vec<u32>,
    },
    /// One data packet bound for `dest`; `seq` is unique per sender so
    /// receivers can discard duplicated deliveries.
    Packet {
        /// Final destination node.
        dest: u32,
        /// Sender-local sequence number.
        seq: u32,
    },
    /// Defense-layer attestation (sent only with
    /// [`GossipConfig::with_defense`]): the sender's sworn record of the
    /// height frames it last observed, one `(peer, peer's gossip step,
    /// FNV-1a digest of the heights vector)` triple per heard neighbor.
    /// The digest stands in for a signature over the frame: a receiver
    /// that cached a *different* frame from `peer` for the same step has
    /// caught `peer` equivocating — honest nodes send one frame per step
    /// to everyone, so two signed, same-step digests can only differ if
    /// `peer` forged at least one of them.
    Attest {
        /// `(peer, step, heights digest)` per cached neighbor.
        frames: Vec<(u32, u64, u64)>,
    },
}

impl Message for GossipMsg {
    fn kind(&self) -> &'static str {
        match self {
            GossipMsg::Heights { .. } => "heights",
            GossipMsg::Packet { .. } => "packet",
            GossipMsg::Attest { .. } => "attest",
        }
    }

    fn digest_into(&self, w: &mut DigestWriter) {
        match self {
            GossipMsg::Heights { step, heights } => {
                w.u8(0);
                w.u64(*step);
                w.len_prefix(heights.len());
                for &h in heights {
                    w.u32(h);
                }
            }
            GossipMsg::Packet { dest, seq } => {
                w.u8(1);
                w.u32(*dest);
                w.u32(*seq);
            }
            GossipMsg::Attest { frames } => {
                w.u8(2);
                w.len_prefix(frames.len());
                for &(peer, step, digest) in frames {
                    w.u32(peer);
                    w.u64(step);
                    w.u64(digest);
                }
            }
        }
    }
}

/// Observed height frames remembered per peer for attestation. Small:
/// just deep enough to match neighbors' sworn records, which trail our
/// own first-hand observations by a gossip frame or two.
const OBSERVED_WINDOW: usize = 4;

/// FNV-1a over a heights vector — the attestation layer's stand-in for
/// a signature binding `(peer, step)` to the advertised frame.
fn heights_digest(heights: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in heights {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// Reliability predicate for the balancing protocol: data packets ride
/// the reliable sublayer, heights gossip stays best-effort — a stale
/// height retransmitted late is worth less than the next periodic
/// refresh, and §3.2's guarantee only needs the *packets* to survive.
fn needs_reliability(msg: &GossipMsg) -> bool {
    matches!(msg, GossipMsg::Packet { .. })
}

/// Parameters of a gossip-balancing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// The `(T, γ, H)` balancing parameters (shared with the centralized
    /// router).
    pub balancing: BalancingConfig,
    /// Routing steps between height gossips; 1 = gossip every step
    /// (the `StaleBalancingRouter` refresh-period knob as real traffic).
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
/// 1. **Plausibility** — an accepted `Heights` frame is implausible if
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
///    stays at zero. Every [`DefenseConfig::probe_packets`] fed packets
///    answered by an all-zero frame raise suspicion by 1.
/// 3. **Attestation** — every [`DefenseConfig::attest_every`] steps each
///    node swears to its neighbors which `(peer, step, frame digest)` it
///    last observed ([`GossipMsg::Attest`]) — observed, not trusted, so
///    a lie refused by plausibility still testifies. A receiver holding
///    a different digest for the same `(peer, step)` has proof of
///    equivocation and raises suspicion straight to the quarantine
///    threshold.
///
/// At [`DefenseConfig::quarantine_at`] the peer is quarantined: its
/// routing edge and cached heights are pruned exactly as churn erodes a
/// departed neighbor, its future gossip is ignored (its data packets —
/// innocent bystanders — still deliver), and the topology layer can
/// re-converge around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefenseConfig {
    /// Maximum plausible per-gossip-step change of one height entry.
    pub max_height_rate: u32,
    /// Packets fed to an all-zero-advertising peer before one suspicion
    /// point accrues.
    pub probe_packets: u64,
    /// Suspicion score at which a peer is quarantined.
    pub quarantine_at: u32,
    /// Routing steps between attestation rounds.
    pub attest_every: u64,
}

impl Default for DefenseConfig {
    /// Defaults sized for the E22 geometry: a generous height-rate bound
    /// (node degree bounds the true fill rate), an 8-packet starvation
    /// probe, quarantine at 3 strikes, attestation every 4 steps.
    fn default() -> Self {
        DefenseConfig {
            max_height_rate: 12,
            probe_packets: 8,
            quarantine_at: 3,
            attest_every: 4,
        }
    }
}

impl DefenseConfig {
    fn validate(&self) {
        assert!(self.max_height_rate >= 1, "max_height_rate must be ≥ 1");
        assert!(self.probe_packets >= 1, "probe_packets must be ≥ 1");
        assert!(self.quarantine_at >= 1, "quarantine_at must be ≥ 1");
        assert!(self.attest_every >= 1, "attest_every must be ≥ 1");
    }
}

impl GossipConfig {
    /// Sensible defaults: gossip every step, 8-tick steps,
    /// fire-and-forget links, no defense layer.
    pub fn new(balancing: BalancingConfig, steps: u64) -> Self {
        GossipConfig {
            balancing,
            refresh_every: 1,
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
            d.validate();
        }
    }
}

/// One balancing node: its own height column and cached neighbor
/// heights. Its radio layer refuses duplicate packet copies before they
/// reach it.
#[derive(Debug, Clone)]
pub struct GossipNode {
    id: u32,
    /// `(neighbor, edge cost)` pairs from the topology.
    pub(crate) nbrs: Vec<(u32, f64)>,
    dests: Vec<u32>,
    /// Own buffer heights, one per destination.
    heights: Vec<u32>,
    /// Freshest gossiped heights per neighbor, tagged with the sender
    /// step that produced them — the tag is what lets `on_message` refuse
    /// reordered (older) gossip instead of overwriting fresher state.
    cached: BTreeMap<u32, (u64, Vec<u32>)>,
    /// Injections scheduled for this node: `(step, dest)`, sorted by step.
    schedule: Vec<(u64, u32)>,
    next_inj: usize,
    cfg: GossipConfig,
    step: u64,
    seq: u32,
    /// Defense: per-peer suspicion score (empty with defense off).
    suspicion: BTreeMap<u32, u32>,
    /// Defense: packets fed to a peer since its last non-zero frame.
    fed: BTreeMap<u32, u64>,
    /// Defense: recent *observed* frames per peer, `(step, digest)`,
    /// newest-last and capped at [`OBSERVED_WINDOW`]. Kept separately
    /// from `cached` because attestation must cover frames plausibility
    /// refused to trust (an equivocator whose lie to *us* was
    /// implausible is convicted by what it told the neighbors it was
    /// attracting), and kept as a short history because a neighbor's
    /// sworn record lags our own observations by a frame.
    observed: BTreeMap<u32, Vec<(u64, u64)>>,
    /// Defense: quarantined peers — routing edge and gossip severed.
    quarantined: BTreeSet<u32>,
    /// Whether the per-step tick is currently armed. Joiners receive no
    /// `on_start`; their first `on_neighborhood_change` bootstraps the
    /// tick instead, and this flag keeps that idempotent.
    ticking: bool,
    /// Local ledger.
    pub(crate) counts: NodeCounts,
}

/// Per-node packet ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounts {
    /// Packets admitted at this node.
    pub injected: u64,
    /// Injections refused by admission control (full buffer).
    pub admission_dropped: u64,
    /// Packets absorbed here (this node was the destination).
    pub absorbed: u64,
    /// Packets arriving to a full buffer and discarded.
    pub overflow_dropped: u64,
    /// Packet transmissions originated here (each decrements a buffer).
    pub packets_sent: u64,
    /// Distinct packets accepted from neighbors (duplicates excluded).
    pub packets_received: u64,
    /// Height gossips sent.
    pub gossips_sent: u64,
    /// Reordered (out-of-date) height gossips discarded on receipt.
    pub stale_gossip_dropped: u64,
    /// Defense: height frames refused as implausible.
    pub implausible_gossip: u64,
    /// Defense: equivocations proven by attestation mismatch.
    pub equivocations: u64,
    /// Defense: attestation messages sent.
    pub attests_sent: u64,
    /// Defense: peers this node quarantined.
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
        let Some(c) = self.col(dest) else {
            // Not a registered destination: refuse.
            self.counts.admission_dropped += 1;
            return;
        };
        if self.heights[c] < self.cfg.balancing.capacity {
            self.heights[c] += 1;
            self.counts.injected += 1;
        } else {
            self.counts.admission_dropped += 1;
        }
    }

    /// The paper's step-1 rule for the directed edge `self → (w, cost)`,
    /// using gossiped heights for `w`: the destination maximizing
    /// `h_v,d − ĥ_w,d − c·γ` if that value exceeds `T` — and, since the
    /// sender is authoritative for its own buffers, only if `h_v,d > 0`.
    fn best_send(&self, w: u32, cost: f64) -> Option<usize> {
        let cached = self.cached.get(&w);
        let mut best: Option<(f64, usize)> = None;
        for (c, &d) in self.dests.iter().enumerate() {
            if self.heights[c] == 0 || d == self.id {
                continue;
            }
            let hw = if w == d {
                0
            } else {
                cached.map_or(0, |(_, h)| h[c])
            };
            let value = self.heights[c] as f64 - hw as f64 - cost * self.cfg.balancing.gamma;
            if value > self.cfg.balancing.threshold && best.is_none_or(|(bv, _)| value > bv) {
                best = Some((value, c));
            }
        }
        best.map(|(_, c)| c)
    }

    /// Executed once per routing step: inject scheduled packets, gossip
    /// heights if due, attest if due, then decide one send per outgoing
    /// edge direction.
    fn run_step(&mut self, ctx: &mut Ctx<GossipMsg>) {
        while self.next_inj < self.schedule.len() && self.schedule[self.next_inj].0 == self.step {
            let dest = self.schedule[self.next_inj].1;
            self.next_inj += 1;
            self.inject(dest);
        }
        if self.step.is_multiple_of(self.cfg.refresh_every) {
            for &(w, _) in &self.nbrs {
                ctx.send(
                    w,
                    GossipMsg::Heights {
                        step: self.step,
                        heights: self.heights.clone(),
                    },
                );
                self.counts.gossips_sent += 1;
            }
        }
        if let Some(def) = self.cfg.defense {
            if self.step.is_multiple_of(def.attest_every) && !self.observed.is_empty() {
                let frames: Vec<(u32, u64, u64)> = self
                    .observed
                    .iter()
                    .filter_map(|(&peer, hist)| {
                        hist.iter()
                            .max_by_key(|&&(step, _)| step)
                            .map(|&(step, digest)| (peer, step, digest))
                    })
                    .collect();
                for &(w, _) in &self.nbrs {
                    ctx.send(
                        w,
                        GossipMsg::Attest {
                            frames: frames.clone(),
                        },
                    );
                    self.counts.attests_sent += 1;
                }
            }
        }
        for i in 0..self.nbrs.len() {
            let (w, cost) = self.nbrs[i];
            if let Some(c) = self.best_send(w, cost) {
                self.heights[c] -= 1;
                self.counts.packets_sent += 1;
                let seq = self.seq;
                self.seq += 1;
                // Starvation-probe bookkeeping: count what we feed each
                // peer (sinks absorb legitimately, so they are exempt).
                if self.cfg.defense.is_some() && !self.dests.contains(&w) {
                    *self.fed.entry(w).or_default() += 1;
                }
                ctx.send(
                    w,
                    GossipMsg::Packet {
                        dest: self.dests[c],
                        seq,
                    },
                );
            }
        }
        self.step += 1;
        if self.step < self.cfg.steps {
            ctx.set_timer(self.cfg.step_len, TIMER_STEP);
        } else {
            self.ticking = false;
        }
    }

    /// Raise `peer`'s suspicion by `weight`; quarantine at the threshold.
    fn suspect(&mut self, peer: u32, weight: u32) {
        let Some(def) = self.cfg.defense else { return };
        let s = self.suspicion.entry(peer).or_default();
        *s += weight;
        if *s >= def.quarantine_at {
            self.quarantine(peer);
        }
    }

    /// Sever `peer`: drop the routing edge and cached heights exactly as
    /// churn erodes a departed neighbor, and ignore its future gossip.
    /// Its data packets — innocent traffic it merely relayed — still
    /// deliver.
    fn quarantine(&mut self, peer: u32) {
        if !self.quarantined.insert(peer) {
            return;
        }
        self.nbrs.retain(|&(w, _)| w != peer);
        self.cached.remove(&peer);
        self.suspicion.remove(&peer);
        self.fed.remove(&peer);
        self.observed.remove(&peer);
        self.counts.quarantines += 1;
    }

    /// Defense checks on a fresh (non-stale) height frame from `from`.
    /// Returns true when the frame is plausible and may be cached.
    fn vet_heights(&mut self, from: u32, step: u64, heights: &[u32]) -> bool {
        let Some(def) = self.cfg.defense else {
            return true;
        };
        // Capacity bound: honest buffers cannot exceed the configured
        // capacity, so any larger advertisement is a fabrication
        // (catches inflation on the very first frame).
        let mut implausible = heights.iter().any(|&h| h > self.cfg.balancing.capacity);
        // Rate bound: a buffer drains/fills at most `max_height_rate`
        // per gossip step (degree × per-edge capacity, the γ-priced
        // quantity), so a jump past that over the elapsed steps is a lie.
        if !implausible {
            if let Some((old_step, old)) = self.cached.get(&from) {
                let allowed =
                    u64::from(def.max_height_rate) * step.saturating_sub(*old_step).max(1);
                implausible = heights
                    .iter()
                    .zip(old)
                    .any(|(&h, &o)| u64::from(h.abs_diff(o)) > allowed);
            }
        }
        if implausible {
            self.counts.implausible_gossip += 1;
            self.suspect(from, 1);
            return false;
        }
        // Starvation probe: an honest relay gossips *before* it sends,
        // so packets we fed it show in its next frame — all-zero answers
        // under sustained feeding are the deflation-attractor signature.
        if heights.iter().any(|&h| h > 0) {
            self.fed.insert(from, 0);
        } else if !self.dests.contains(&from) {
            let fed = self.fed.get(&from).copied().unwrap_or(0);
            if fed >= def.probe_packets {
                self.fed.insert(from, 0);
                self.suspect(from, 1);
            }
        }
        true
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

    fn on_message(&mut self, _ctx: &mut Ctx<GossipMsg>, from: u32, msg: GossipMsg) {
        match msg {
            GossipMsg::Heights { step, heights } => {
                // A quarantined peer's word is worthless: ignore it.
                if self.quarantined.contains(&from) {
                    return;
                }
                // Reordered deliveries (any positive-width delay
                // distribution) must never roll the cache back: keep the
                // entry with the newest sender step.
                match self.cached.get(&from) {
                    Some(&(cached_step, _)) if cached_step > step => {
                        self.counts.stale_gossip_dropped += 1;
                    }
                    _ => {
                        // Record what the peer *said* regardless of
                        // whether we trust it: attestation compares
                        // observations, so a frame refused as
                        // implausible still convicts an equivocator.
                        if self.cfg.defense.is_some() {
                            let hist = self.observed.entry(from).or_default();
                            if !hist.iter().any(|&(s, _)| s == step) {
                                hist.push((step, heights_digest(&heights)));
                                if hist.len() > OBSERVED_WINDOW {
                                    hist.remove(0);
                                }
                            }
                        }
                        if self.vet_heights(from, step, &heights)
                            && !self.quarantined.contains(&from)
                        {
                            self.cached.insert(from, (step, heights));
                        }
                    }
                }
            }
            GossipMsg::Attest { frames } => {
                // Compare a neighbor's sworn record only against frames
                // *we* accepted first-hand — never third-party claims
                // against each other, so no attester can frame a peer
                // alone. Matching `(peer, step)` with differing digests
                // is proof of equivocation: quarantine immediately.
                if self.cfg.defense.is_none() || self.quarantined.contains(&from) {
                    return;
                }
                let mut caught: Vec<u32> = Vec::new();
                for (peer, step, digest) in frames {
                    if self.quarantined.contains(&peer) {
                        continue;
                    }
                    if let Some(hist) = self.observed.get(&peer) {
                        if let Some(&(_, my_digest)) = hist.iter().find(|&&(s, _)| s == step) {
                            if my_digest != digest {
                                caught.push(peer);
                            }
                        }
                    }
                }
                for peer in caught {
                    self.counts.equivocations += 1;
                    let threshold = self
                        .cfg
                        .defense
                        .expect("defense checked above")
                        .quarantine_at;
                    self.suspect(peer, threshold);
                }
            }
            GossipMsg::Packet { dest, .. } => {
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
        // out-of-range peers vanish (gossip churn never *adds* edges — the
        // topology graph is the input contract, churn only erodes it).
        self.nbrs
            .retain(|(w, _)| neighbors.binary_search(w).is_ok());
        self.cached
            .retain(|w, _| neighbors.binary_search(w).is_ok());
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
    /// reliable mode: only retry-budget exhaustion).
    pub link_lost: u64,
    /// Packets still in reliable-transport custody (windowed or
    /// backlogged, awaiting (re)transmission or ack) when the run went
    /// quiescent. Always 0 in fire-and-forget mode.
    pub in_flight: u64,
    /// Reliable-transport give-ups (retry budget exhausted). This can
    /// exceed the packets actually lost: a packet whose acks were all
    /// dropped is delivered *and* given up.
    pub gave_up: u64,
    /// Packets still buffered at the end of the run.
    pub buffered: u64,
    /// Packet transmissions attempted.
    pub packets_sent: u64,
    /// Height gossips sent.
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
    /// Defense: attestation messages sent.
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
/// sorted by step).
pub(crate) fn build_nodes(
    topology: &SpatialGraph,
    dests: &[u32],
    cfg: GossipConfig,
    workload: &[(u64, u32, u32)],
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
        s.sort_unstable_by_key(|&(step, _)| step);
    }
    (0..n as u32)
        .map(|id| GossipNode {
            id,
            nbrs: topology
                .graph
                .neighbors(id)
                .iter()
                .map(|a| (a.to, a.weight))
                .collect(),
            dests: dests.to_vec(),
            heights: vec![0; dests.len()],
            cached: BTreeMap::new(),
            schedule: std::mem::take(&mut schedules[id as usize]),
            next_inj: 0,
            cfg,
            step: 0,
            seq: 0,
            suspicion: BTreeMap::new(),
            fed: BTreeMap::new(),
            observed: BTreeMap::new(),
            quarantined: BTreeSet::new(),
            ticking: false,
            counts: NodeCounts::default(),
        })
        .collect()
}

/// Run `nodes` over `topology` to quiescence, then tally into a
/// [`GossipRun`] the node ledgers, the packets their interposers ate and
/// their transports' counters. `layers` maps a node's stack to its
/// interposer, its transport's counters and the packets still in that
/// transport's custody (zero for fire-and-forget).
fn run_stack<S>(
    nodes: Vec<S>,
    topology: &SpatialGraph,
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    threads: usize,
    layers: impl Fn(&S) -> (&AdversarialActor, LinkCounters, u64),
) -> GossipRun
where
    S: Actor + Send,
    S::Msg: Send + Sync,
{
    // The runtime's radio range only matters for broadcasts; this
    // protocol is purely unicast over topology edges, so any positive
    // range works.
    let range = topology.max_range.max(1e-9);
    let rt = run_to_quiescence(nodes, &topology.points, range, faults, seed, plan, threads);
    let mut run = GossipRun {
        stats: rt.stats().clone(),
        digest: rt.transcript().digest(),
        ..GossipRun::default()
    };
    let (mut received, mut custody) = (0u64, 0u64);
    for stack in rt.nodes() {
        let (actor, c, held) = layers(stack);
        run.stats.retransmits += c.retransmits;
        run.stats.acks += c.acks_sent;
        run.stats.rto_fired += c.rto_fired;
        run.gave_up += c.gave_up;
        custody += held;
        run.stolen += actor.stolen;
        run.blackholed += actor.blackholed;
        let node = &actor.inner;
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
        run.quarantined_nodes.extend(node.quarantined.iter());
        received += c.packets_received;
        run.buffered += node.heights.iter().map(|&h| h as u64).sum::<u64>();
    }
    run.quarantined_nodes.sort_unstable();
    run.quarantined_nodes.dedup();
    // The queue is drained, so every hop-level send was received exactly
    // once, eaten by an adversary, is still in transport custody, or is
    // gone for good. Custody is clamped to the honest outstanding count
    // because a delivered packet whose acks all died can be both
    // received and (briefly) in custody.
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
/// per-link reliable sublayer while heights gossip stays best-effort.
///
/// Under a [`ChurnPlan`] nodes join, crash, gracefully leave, or drift
/// mid-run, and every node's routing edge set follows the live radio
/// topology (churn only erodes the input graph, never adds edges). The
/// conservation ledger stays exact: a dead node's buffered packets stay
/// `buffered`, copies in flight to it become `link_lost`, and the
/// reliable sublayer's custody toward vanished peers is abandoned rather
/// than retried forever.
///
/// Every node runs inside the [`crate::adversary`] interposer, its radio
/// layer. On fire-and-forget links that layer refuses every duplicate
/// `Packet` copy, for every node, before anything else sees it. Under an
/// [`AdversaryPlan`] it also corrupts the chosen nodes' wire traffic with
/// their scheduled [`Attack`](crate::Attack)s, while every node
/// (compromised ones included — the adversary owns radios, not code)
/// runs the honest protocol, plus the defense layer when
/// [`GossipConfig::with_defense`] is set. Packets the adversary eats are
/// booked as `stolen`/`blackholed`, keeping the conservation ledger
/// exact. In reliable mode the interposer sits *inside* the transport —
/// a smart attacker acks what it steals, so reliability cannot recover
/// eaten packets. A node with no attack scheduled has its callbacks
/// passed through unchanged.
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
    let dedup = cfg.reliability.is_none();
    let wrapped: Vec<AdversarialActor> = build_nodes(topology, dests, cfg, workload)
        .into_iter()
        .map(|node| {
            let attacks = adversary.for_node(node.id);
            AdversarialActor::new(node, attacks, dedup)
        })
        .collect();
    match cfg.reliability {
        None => run_stack(wrapped, topology, faults, seed, plan, threads, |node| {
            (node, LinkCounters::default(), 0)
        }),
        Some(rc) => {
            let select = needs_reliability as fn(&GossipMsg) -> bool;
            let stacks = wrapped
                .into_iter()
                .map(|a| ReliableActor::new(a, rc, select));
            run_stack(
                stacks.collect(),
                topology,
                faults,
                seed,
                plan,
                threads,
                |r| (r.inner(), r.counters(), r.pending_count()),
            )
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

    /// Every variant and field of a gossip message changes its digest
    /// encoding, and vectors are length-prefixed: `Heights [1,2]` then
    /// `[3]` is not `[1]` then `[2,3]`, and likewise for `Attest`.
    #[test]
    fn digest_encoding_separates_variants_fields_and_vectors() {
        use crate::stats::message_digest;
        let heights = |step, h: &[u32]| GossipMsg::Heights {
            step,
            heights: h.to_vec(),
        };
        let attest = |f: &[(u32, u64, u64)]| GossipMsg::Attest { frames: f.to_vec() };
        let packet = |dest, seq| GossipMsg::Packet { dest, seq };
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
            attest(&[]),
        ];
        let digests: BTreeSet<u64> = msgs.iter().map(message_digest).collect();
        assert_eq!(digests.len(), msgs.len());

        // Each vector is written as its length, then its elements.
        let mut w = DigestWriter::new();
        w.u8(0);
        w.u64(5);
        w.len_prefix(2);
        w.u32(1);
        w.u32(2);
        assert_eq!(message_digest(&heights(5, &[1, 2])), w.finish());
        let mut w = DigestWriter::new();
        w.u8(2);
        w.len_prefix(1);
        w.u32(1);
        w.u64(2);
        w.u64(3);
        assert_eq!(message_digest(&attest(&[(1, 2, 3)])), w.finish());

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

    #[test]
    fn refresh_knob_trades_control_traffic_for_throughput() {
        let topo = chain(4);
        let wl = uniform_workload(4, &[3], 600, 1, 4);
        let go = |refresh| {
            let mut c = cfg(600);
            c.refresh_every = refresh;
            balance(&topo, &[3], c, &wl, FaultConfig::ideal(), 9)
        };
        let fresh = go(1);
        let stale = go(10);
        assert!(fresh.conserved() && stale.conserved());
        // Control traffic scales inversely with the period...
        assert!(stale.gossips_sent * 5 < fresh.gossips_sent);
        // ...while delivery degrades gracefully, not catastrophically
        // (mirrors StaleBalancingRouter's ablation test).
        assert!(stale.absorbed * 4 >= fresh.absorbed);
        assert!(stale.absorbed > 0);
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
        let nodes = build_nodes(&topo, &[2], c, &wl);
        let mut rt = Runtime::new(nodes, &topo.points, topo.max_range, faults, 1);
        rt.start();
        rt.run();
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
        let (step, heights) = rt.node(1).cached.get(&0).expect("gossip cached");
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
        let rel = balance(
            &topo,
            &[4],
            cfg(steps).with_reliability(ReliableConfig::default()),
            &wl,
            faults,
            3,
        );
        assert!(ff.conserved(), "{ff:?}");
        assert!(rel.conserved(), "{rel:?}");
        // Fire-and-forget bleeds packets at 30% loss...
        assert!(ff.link_lost > 0);
        assert!(ff.delivery_rate() < 0.9, "ff rate {}", ff.delivery_rate());
        // ...the reliable sublayer wins them back with retransmissions.
        assert!(rel.stats.retransmits > 0);
        assert!(rel.stats.acks > 0);
        assert!(rel.stats.rto_fired > 0);
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
            "the interposer sits inside the transport: acked then eaten ({run:?})"
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
