//! ΘALG as a fault-tolerant actor protocol (paper §2.1, hardened).
//!
//! The direct 3-round formulation (`adhoc_core::protocol`) assumes every
//! broadcast is heard. Here each round is a *time window* of `round_len`
//! ticks and the protocol survives lossy links by retransmission:
//!
//! * **Round 1** `[0, L)` — confirmed beaconing. Every node broadcasts
//!   `Position` [`Beacon`]s: its coordinates plus the ids it heard that
//!   have not yet shown they heard it (*awaiting*) and the ids it owes an
//!   "I heard you" (*mentioned*). A receiver listed in either learns that
//!   the sender heard it. A node beacons every `resend_every` ticks until
//!   it has sent a small floor of beacons and every node it heard has
//!   listed it, then stops; a beacon from a new node, or one that lists
//!   the receiver as awaiting, makes the receiver beacon again, stopped or
//!   not. The first beacon leaves at a per-node offset in
//!   `[1, resend_every]` (a hash of the id, so it is the same on every
//!   run), which spreads the opening burst.
//! * **Round 2** `[L, 2L)` — each node computes `N(u)` from the positions
//!   it heard and sends `Neighborhood` to each chosen neighbor,
//!   retransmitting until the matching `NbrAck` arrives or the window
//!   closes.
//! * **Round 3** `[2L, 3L)` — each node admits the nearest offer per
//!   sector and sends `Connection` (ack/retransmit again); the admitted
//!   sets are exactly the edges of `𝒩`.
//!
//! Round 1 is self-confirming: a node that heard a neighbor beacons until
//! that neighbor lists it. So a one-sided miss (`u` heard `v`, `v` never
//! heard `u`) needs every beacon `u` sends in the whole window lost on
//! the link `u → v`, and a mutual miss needs every beacon of both sides
//! lost — at least the floor each, and more wherever loss keeps
//! neighbors asking. Rounds 2 and 3 retransmit until acknowledged, up to
//! `k = round_len / resend_every` tries per message, so with loss rate
//! `p` a message misses its window with probability `pᵏ`. For any fixed
//! seed and moderate `p` the reconstructed topology therefore equals the
//! direct `ThetaAlg::build` graph exactly; the test suite and experiments
//! E20 and E21 assert this across loss rates.
//!
//! # Re-convergence under churn
//!
//! ΘALG is *local*: each node's cone construction reads only one-hop
//! information, so when the neighborhood changes
//! ([`Actor::on_neighborhood_change`]) the node re-runs the two-phase
//! construction in a fresh **epoch** — state is retained for surviving
//! neighbors (their positions and offers are still valid, and so is
//! their confirmation that they heard this node, unless this node moved),
//! the beacon / offer / admit rounds replay on a new `round_base`, and
//! timers carry their epoch in the id so a stale round boundary can't
//! fire into the new epoch. Two repair paths keep *settled* bystanders
//! exact without restarting them: a node whose re-run drops a previously
//! offered edge sends [`ThetaMsg::Retract`] (the receiver re-admits
//! without it), and an offer arriving after a receiver settled triggers
//! the same re-admission. [`run_theta_churn`] drives a [`ChurnPlan`]
//! through the runtime and measures topology-repair latency —
//! perturbation to the last admitted-set change — against the direct
//! offline construction on the final live positions (experiment E21).

use crate::fault::splitmix64;
use crate::fault::FaultConfig;
use crate::node::{Actor, Ctx, Message};
use crate::runtime::Runtime;
use crate::stats::{DigestWriter, NetStats};
use crate::{ChurnPlan, MemberState};
use adhoc_geom::{Point, SectorPartition};
use adhoc_graph::GraphBuilder;
use adhoc_proximity::SpatialGraph;
use std::sync::Arc;

/// Timer-id bases used by [`ThetaNode`]; the full id is
/// `epoch * 4 + base`, so a timer armed before a neighborhood change can
/// never fire into the node's next epoch (base 0 is never armed).
const TIMER_RESEND: u32 = 1;
const TIMER_ROUND2: u32 = 2;
const TIMER_ROUND3: u32 = 3;

/// Beacons a node sends in each round-1 window before it may stop, even
/// when every node it heard has already confirmed it. No floor from 1 to
/// 4 lost an edge in a sweep over 0–30 % loss (EXPERIMENTS.md, E20c).
/// Floors 2 and 3 sent the same beacons, and floor 1 saved about 2 % of
/// the sends at 10 % loss; but at floor 1 two neighbors that hear nobody
/// else may each beacon once, and miss each other with probability `p²`
/// rather than `p⁴`.
const BEACON_FLOOR: u32 = 2;

/// A round-1 beacon: the sender's position and two sorted id lists kept
/// in one boxed slice — first the *awaiting* ids (nodes the sender heard
/// that have not yet shown they heard it), then the *mentioned* ids
/// (other nodes the sender owes an "I heard you"). A node in either list
/// knows the sender heard it. Every copy of a broadcast shares the beacon
/// and the digest of its encoding, taken when the beacon is built.
#[derive(Debug, PartialEq)]
pub struct Beacon {
    /// The sender's coordinates.
    pos: Point,
    ids: Box<[u32]>,
    /// Length of the awaiting prefix of `ids`.
    split: u32,
    /// The digest of the whole `Position` encoding, which each copy writes.
    digest: u64,
}

impl Beacon {
    /// Build a beacon and digest its `Position` encoding: variant byte
    /// `0`, the coordinates, then each id list, length-prefixed.
    fn new(pos: Point, ids: Box<[u32]>, split: u32) -> Self {
        let mut w = DigestWriter::new();
        w.u8(0);
        w.f64(pos.x);
        w.f64(pos.y);
        let (awaiting, mentioned) = ids.split_at(split as usize);
        for list in [awaiting, mentioned] {
            w.len_prefix(list.len());
            for &id in list {
                w.u32(id);
            }
        }
        let digest = w.finish();
        Beacon {
            pos,
            ids,
            split,
            digest,
        }
    }

    /// Nodes the sender heard that have not yet shown they heard it.
    pub(crate) fn awaiting(&self) -> &[u32] {
        &self.ids[..self.split as usize]
    }

    /// Other nodes the sender tells that it heard them.
    pub(crate) fn mentioned(&self) -> &[u32] {
        &self.ids[self.split as usize..]
    }
}

/// Message alphabet of the hardened ΘALG protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum ThetaMsg {
    /// Round-1 position beacon, shared by every copy of a broadcast.
    Position(Arc<Beacon>),
    /// Round-2 neighborhood offer: "you are in my `N(u)`".
    Neighborhood,
    /// Acknowledges a [`ThetaMsg::Neighborhood`].
    NbrAck,
    /// Round-3 edge admission: "I admitted your offer".
    Connection,
    /// Acknowledges a [`ThetaMsg::Connection`].
    ConnAck,
    /// Withdraws an earlier [`ThetaMsg::Neighborhood`]: a re-convergence
    /// epoch recomputed `N(u)` and the receiver is no longer in it.
    Retract,
    /// Acknowledges a [`ThetaMsg::Retract`].
    RetractAck,
}

impl Message for ThetaMsg {
    fn kind(&self) -> &'static str {
        match self {
            ThetaMsg::Position(_) => "position",
            ThetaMsg::Neighborhood => "neighborhood",
            ThetaMsg::NbrAck => "nbr-ack",
            ThetaMsg::Connection => "connection",
            ThetaMsg::ConnAck => "conn-ack",
            ThetaMsg::Retract => "retract",
            ThetaMsg::RetractAck => "retract-ack",
        }
    }

    fn digest_into(&self, w: &mut DigestWriter) {
        match self {
            // The beacon's encoding was digested once, when it was built.
            ThetaMsg::Position(b) => w.u64(b.digest),
            ThetaMsg::Neighborhood => w.u8(1),
            ThetaMsg::NbrAck => w.u8(2),
            ThetaMsg::Connection => w.u8(3),
            ThetaMsg::ConnAck => w.u8(4),
            ThetaMsg::Retract => w.u8(5),
            ThetaMsg::RetractAck => w.u8(6),
        }
    }
}

/// Protocol phase of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Broadcasting / collecting positions.
    Positions,
    /// Exchanging neighborhood offers.
    Offers,
    /// Exchanging connections.
    Connections,
}

/// Timing parameters of the hardened protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThetaTiming {
    /// Ticks per round window (`L`).
    pub round_len: u64,
    /// Retransmission period within a window.
    pub resend_every: u64,
}

impl Default for ThetaTiming {
    /// 64-tick rounds, a beacon or retransmission every 4 ticks: room for
    /// 16 tries per message, of which round 1 typically uses a few (it
    /// stops once confirmed).
    fn default() -> Self {
        ThetaTiming {
            round_len: 64,
            resend_every: 4,
        }
    }
}

impl ThetaTiming {
    fn validate(&self, faults: &FaultConfig) {
        assert!(self.resend_every >= 1, "resend_every must be ≥ 1");
        assert!(
            self.round_len > self.resend_every,
            "round_len must exceed resend_every"
        );
        assert!(
            faults.max_delay() < self.round_len / 2,
            "max link delay {} too close to round_len {}; late deliveries \
             would leak across round boundaries",
            faults.max_delay(),
            self.round_len
        );
    }
}

/// A node heard in round 1.
#[derive(Debug, Clone, Copy)]
struct Heard {
    id: u32,
    pos: Point,
    /// It listed this node in a beacon: it knows this node heard it.
    acked: bool,
    /// It asked to be told this node heard it; the next beacon mentions
    /// it.
    owed: bool,
}

/// One ΘALG node as a local state machine.
#[derive(Debug, Clone)]
pub(crate) struct ThetaNode {
    pos: Point,
    sectors: SectorPartition,
    timing: ThetaTiming,
    phase: Phase,
    /// Nodes heard in round 1, sorted by id.
    heard: Vec<Heard>,
    /// Beacons sent in the current epoch's round 1.
    beacons: u32,
    /// A beacon timer of the current epoch is pending.
    beacon_armed: bool,
    /// Phase-1 output `N(u)`.
    chosen: Vec<u32>,
    /// Round-2 inbox: who offered me an edge (deduped).
    offers: Vec<u32>,
    /// Phase-2 output: admitted offers = this node's edges of `𝒩`.
    admitted: Vec<u32>,
    /// Connections received (the other endpoint's admissions) — edge
    /// awareness, not part of the graph definition.
    conn_received: Vec<u32>,
    unacked_nbr: Vec<u32>,
    unacked_conn: Vec<u32>,
    /// Retracted offers awaiting [`ThetaMsg::RetractAck`].
    unacked_retract: Vec<u32>,
    /// Re-convergence epoch: bumped by every neighborhood change; timer
    /// ids are `epoch * 4 + base` so stale timers are silently dropped.
    epoch: u32,
    /// Virtual time the current epoch's round 1 began.
    round_base: u64,
    /// Virtual time this node last (re)computed its admitted set — the
    /// per-node settle point that repair latency is measured from.
    settled_at: u64,
    /// Deadline bounding connection/retract resends in the current epoch
    /// (extended when a late re-admission sends fresh connections).
    conn_deadline: u64,
}

impl ThetaNode {
    fn new(pos: Point, sectors: SectorPartition, timing: ThetaTiming) -> Self {
        ThetaNode {
            pos,
            sectors,
            timing,
            phase: Phase::Positions,
            heard: Vec::new(),
            beacons: 0,
            beacon_armed: false,
            chosen: Vec::new(),
            offers: Vec::new(),
            admitted: Vec::new(),
            conn_received: Vec::new(),
            unacked_nbr: Vec::new(),
            unacked_conn: Vec::new(),
            unacked_retract: Vec::new(),
            epoch: 0,
            round_base: 0,
            settled_at: 0,
            conn_deadline: 0,
        }
    }

    /// The edges this node admitted (its directed contribution to `𝒩`).
    pub fn admitted(&self) -> &[u32] {
        &self.admitted
    }

    /// Connections received from the other endpoints.
    pub fn connections_received(&self) -> &[u32] {
        &self.conn_received
    }

    /// Virtual time this node last (re)computed its admitted set.
    pub fn settled_at(&self) -> u64 {
        self.settled_at
    }

    /// Position of a heard node, if its beacon ever arrived.
    fn heard_pos(&self, v: u32) -> Option<Point> {
        let i = self.heard.binary_search_by_key(&v, |h| h.id).ok()?;
        Some(self.heard[i].pos)
    }

    /// Whether round 1 still needs a beacon from this node: it is below
    /// the floor, a node it heard has not confirmed it, or it owes a
    /// mention.
    fn owes_beacon(&self) -> bool {
        self.beacons < BEACON_FLOOR || self.heard.iter().any(|h| !h.acked || h.owed)
    }

    /// Broadcast a beacon and settle every owed mention.
    fn beacon(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        let awaiting = |h: &&Heard| !h.acked;
        let mentioned = |h: &&Heard| h.acked && h.owed;
        let split = self.heard.iter().filter(awaiting).count();
        let mut ids = Vec::with_capacity(split + self.heard.iter().filter(mentioned).count());
        ids.extend(self.heard.iter().filter(awaiting).map(|h| h.id));
        ids.extend(self.heard.iter().filter(mentioned).map(|h| h.id));
        let beacon = Beacon::new(self.pos, ids.into_boxed_slice(), split as u32);
        ctx.broadcast(ThetaMsg::Position(Arc::new(beacon)));
        for h in &mut self.heard {
            h.owed = false;
        }
        self.beacons += 1;
    }

    /// Arm the beacon timer `delay` ticks out, unless one is pending or
    /// round 1 ends first.
    fn arm_beacon(&mut self, ctx: &mut Ctx<ThetaMsg>, delay: u64) {
        if !self.beacon_armed && ctx.now() + delay < self.round_base + self.timing.round_len {
            ctx.set_timer(delay, self.tid(TIMER_RESEND));
            self.beacon_armed = true;
        }
    }

    /// Open the current epoch's three rounds at `round_base`: the first
    /// beacon at a per-node offset in `[1, resend_every]`, then the round
    /// boundaries.
    fn start_rounds(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        let (l, every) = (self.timing.round_len, self.timing.resend_every);
        self.beacons = 0;
        self.beacon_armed = false;
        self.arm_beacon(ctx, 1 + splitmix64(u64::from(ctx.id())) % every);
        ctx.set_timer(l, self.tid(TIMER_ROUND2));
        ctx.set_timer(2 * l, self.tid(TIMER_ROUND3));
    }

    /// Nearest heard node per sector — identical tie-breaking to the
    /// direct construction (smaller distance², then smaller id).
    fn nearest_per_sector(&self, candidates: impl Iterator<Item = (u32, Point)>) -> Vec<u32> {
        nearest_per_sector_at(&self.sectors, self.pos, candidates)
    }

    /// Timer id for `base` in the current epoch.
    fn tid(&self, base: u32) -> u32 {
        self.epoch * 4 + base
    }

    /// Re-arm the retransmit timer while it still fits inside `deadline`.
    fn rearm(&self, ctx: &mut Ctx<ThetaMsg>, deadline: u64) {
        if ctx.now() + self.timing.resend_every < deadline {
            ctx.set_timer(self.timing.resend_every, self.tid(TIMER_RESEND));
        }
    }

    /// Recompute the admitted set from the current offers, after an offer
    /// arrived late or was retracted while this node was already settled.
    /// Newly admitted neighbors get a `Connection` (with a retransmit
    /// window of their own); an unchanged set is a no-op.
    fn readmit(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        let offers = std::mem::take(&mut self.offers);
        let new_admitted = self.nearest_per_sector(
            offers
                .iter()
                .filter_map(|&v| self.heard_pos(v).map(|p| (v, p))),
        );
        self.offers = offers;
        let mut old = self.admitted.clone();
        let mut new = new_admitted.clone();
        old.sort_unstable();
        new.sort_unstable();
        if old == new {
            self.admitted = new_admitted;
            return;
        }
        self.unacked_conn.retain(|v| new_admitted.contains(v));
        for &v in &new_admitted {
            if !self.admitted.contains(&v) {
                ctx.send(v, ThetaMsg::Connection);
                if !self.unacked_conn.contains(&v) {
                    self.unacked_conn.push(v);
                }
            }
        }
        self.admitted = new_admitted;
        self.settled_at = ctx.now();
        self.conn_deadline = self.conn_deadline.max(ctx.now() + self.timing.round_len);
        if !self.unacked_conn.is_empty() || !self.unacked_retract.is_empty() {
            ctx.set_timer(self.timing.resend_every, self.tid(TIMER_RESEND));
        }
    }
}

/// Nearest candidate per sector as seen from `origin` — the selection
/// rule of the direct construction (smaller distance², then smaller id).
/// Shared by the in-protocol computation and the offline reference that
/// churn runs are scored against.
fn nearest_per_sector_at(
    sectors: &SectorPartition,
    origin: Point,
    candidates: impl Iterator<Item = (u32, Point)>,
) -> Vec<u32> {
    let k = sectors.count() as usize;
    let mut best: Vec<Option<(f64, u32)>> = vec![None; k];
    for (v, pv) in candidates {
        let s = sectors.sector_of(origin, pv) as usize;
        let d = origin.dist_sq(pv);
        let better = match best[s] {
            None => true,
            Some((bd, bv)) => d < bd || (d == bd && v < bv),
        };
        if better {
            best[s] = Some((d, v));
        }
    }
    best.iter().filter_map(|b| b.map(|(_, v)| v)).collect()
}

impl Actor for ThetaNode {
    type Msg = ThetaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ThetaMsg>) {
        self.start_rounds(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<ThetaMsg>, from: u32, msg: ThetaMsg) {
        match msg {
            ThetaMsg::Position(b) => {
                let me = ctx.id();
                let asked = b.awaiting().binary_search(&me).is_ok();
                let (i, new) = match self.heard.binary_search_by_key(&from, |h| h.id) {
                    Ok(i) => (i, false),
                    Err(i) => {
                        let h = Heard {
                            id: from,
                            pos: b.pos,
                            acked: false,
                            owed: false,
                        };
                        self.heard.insert(i, h);
                        (i, true)
                    }
                };
                let h = &mut self.heard[i];
                // Upsert: a re-beaconing drifter overwrites its old
                // coordinates.
                h.pos = b.pos;
                h.acked |= asked || b.mentioned().binary_search(&me).is_ok();
                // A new node, or one still waiting to hear that this node
                // heard it, is owed a mention — but only while this node
                // is beaconing at all.
                if (new || asked) && self.phase == Phase::Positions {
                    h.owed = true;
                    self.arm_beacon(ctx, self.timing.resend_every);
                }
            }
            ThetaMsg::Neighborhood => {
                // Always ack — the previous ack may have been lost.
                ctx.send(from, ThetaMsg::NbrAck);
                if !self.offers.contains(&from) {
                    self.offers.push(from);
                    // An offer landing after this node settled (the
                    // sender re-converged in a later epoch): re-admit
                    // instead of restarting.
                    if self.phase == Phase::Connections {
                        self.readmit(ctx);
                    }
                }
            }
            ThetaMsg::NbrAck => self.unacked_nbr.retain(|&v| v != from),
            ThetaMsg::Connection => {
                ctx.send(from, ThetaMsg::ConnAck);
                if !self.conn_received.contains(&from) {
                    self.conn_received.push(from);
                }
            }
            ThetaMsg::ConnAck => self.unacked_conn.retain(|&v| v != from),
            ThetaMsg::Retract => {
                ctx.send(from, ThetaMsg::RetractAck);
                let before = self.offers.len();
                self.offers.retain(|&v| v != from);
                if self.offers.len() != before && self.phase == Phase::Connections {
                    self.readmit(ctx);
                }
            }
            ThetaMsg::RetractAck => self.unacked_retract.retain(|&v| v != from),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<ThetaMsg>, timer: u32) {
        let l = self.timing.round_len;
        // A timer armed before a neighborhood change belongs to a dead
        // epoch: ignore it.
        if timer / 4 != self.epoch {
            return;
        }
        match timer % 4 {
            TIMER_ROUND2 => {
                self.phase = Phase::Offers;
                let heard = self.heard.iter().map(|h| (h.id, h.pos));
                let new_chosen = self.nearest_per_sector(heard);
                // Offers from a previous epoch that the re-run no longer
                // makes are withdrawn so settled receivers re-admit.
                let retracts: Vec<u32> = self
                    .chosen
                    .iter()
                    .copied()
                    .filter(|v| !new_chosen.contains(v))
                    .collect();
                for &v in &retracts {
                    ctx.send(v, ThetaMsg::Retract);
                }
                self.unacked_retract = retracts;
                self.chosen = new_chosen;
                for &v in &self.chosen {
                    ctx.send(v, ThetaMsg::Neighborhood);
                }
                self.unacked_nbr = self.chosen.clone();
                if !self.unacked_nbr.is_empty() || !self.unacked_retract.is_empty() {
                    ctx.set_timer(self.timing.resend_every, self.tid(TIMER_RESEND));
                }
            }
            TIMER_ROUND3 => {
                self.phase = Phase::Connections;
                // Admit the nearest offer per sector. An offer whose
                // Position beacon never arrived cannot be placed in a
                // sector; it is skipped (the lossless protocol can't hit
                // this: an offer implies the sender heard us, and we
                // beaconed until it said so).
                let offers = std::mem::take(&mut self.offers);
                self.admitted = self.nearest_per_sector(
                    offers
                        .iter()
                        .filter_map(|&v| self.heard_pos(v).map(|p| (v, p))),
                );
                self.offers = offers;
                for &v in &self.admitted {
                    ctx.send(v, ThetaMsg::Connection);
                }
                self.unacked_conn = self.admitted.clone();
                self.settled_at = ctx.now();
                self.conn_deadline = self.round_base + 3 * l;
                if !self.unacked_conn.is_empty() || !self.unacked_retract.is_empty() {
                    ctx.set_timer(self.timing.resend_every, self.tid(TIMER_RESEND));
                }
            }
            TIMER_RESEND => match self.phase {
                Phase::Positions => {
                    self.beacon_armed = false;
                    if self.owes_beacon() {
                        self.beacon(ctx);
                    }
                    if self.owes_beacon() {
                        self.arm_beacon(ctx, self.timing.resend_every);
                    }
                }
                Phase::Offers => {
                    for &v in &self.unacked_nbr {
                        ctx.send(v, ThetaMsg::Neighborhood);
                    }
                    for &v in &self.unacked_retract {
                        ctx.send(v, ThetaMsg::Retract);
                    }
                    if !self.unacked_nbr.is_empty() || !self.unacked_retract.is_empty() {
                        self.rearm(ctx, self.round_base + 2 * l);
                    }
                }
                Phase::Connections => {
                    for &v in &self.unacked_conn {
                        ctx.send(v, ThetaMsg::Connection);
                    }
                    for &v in &self.unacked_retract {
                        ctx.send(v, ThetaMsg::Retract);
                    }
                    if !self.unacked_conn.is_empty() || !self.unacked_retract.is_empty() {
                        self.rearm(ctx, self.conn_deadline);
                    }
                }
            },
            _ => unreachable!("unknown timer {timer}"),
        }
    }

    fn on_neighborhood_change(&mut self, ctx: &mut Ctx<ThetaMsg>, neighbors: &[u32], pos: Point) {
        let moved = pos != self.pos;
        self.pos = pos;
        self.epoch += 1;
        self.round_base = ctx.now();
        // Keep what is still valid: surviving neighbors' positions and
        // offers carry over (a drifter's position is refreshed by its
        // round-1 beacon upsert); everything else re-derives. So do their
        // confirmations that they heard this node — a settled neighbor
        // this change did not reach never answers, and this node would
        // beacon for it until the window closed — unless this node moved,
        // and every neighbor must hear it again.
        self.heard
            .retain(|h| neighbors.binary_search(&h.id).is_ok());
        if moved {
            for h in &mut self.heard {
                h.acked = false;
            }
        }
        self.chosen.retain(|&v| neighbors.binary_search(&v).is_ok());
        self.offers.retain(|&v| neighbors.binary_search(&v).is_ok());
        self.admitted
            .retain(|&v| neighbors.binary_search(&v).is_ok());
        self.conn_received
            .retain(|&v| neighbors.binary_search(&v).is_ok());
        self.unacked_nbr.clear();
        self.unacked_conn.clear();
        self.unacked_retract.clear();
        self.phase = Phase::Positions;
        if neighbors.is_empty() {
            // Isolated or departed: nothing to build, nothing to arm —
            // the retains above already emptied all protocol state.
            self.settled_at = ctx.now();
            return;
        }
        self.start_rounds(ctx);
    }
}

/// Result of one hardened-protocol execution.
#[derive(Debug, Clone)]
pub struct ThetaRun {
    /// The reconstructed topology `𝒩` at quiescence: the union of the
    /// admitted offers between live nodes (exactly as the direct
    /// construction defines it), weighted by distance at the final
    /// positions.
    pub graph: SpatialGraph,
    /// Message/timer/churn counters.
    pub stats: NetStats,
    /// Replay digest — equal digests ⇒ identical runs.
    pub digest: u64,
    /// Virtual time at quiescence.
    pub finished_at: u64,
    /// Fraction of admitted edges whose `Connection` message reached the
    /// other endpoint (1.0 on lossless links): how completely the nodes
    /// *know* the topology they built.
    pub edge_awareness: f64,
}

/// The common body of the ΘALG harnesses: run the hardened protocol over
/// `points` under `plan` to quiescence and read `𝒩` off the live nodes
/// at their final positions. Also returns the runtime, which churn runs
/// score against the offline construction.
#[allow(clippy::too_many_arguments)]
fn run_theta(
    points: &[Point],
    sectors: SectorPartition,
    range: f64,
    timing: ThetaTiming,
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    threads: usize,
) -> (ThetaRun, Runtime<ThetaNode>) {
    timing.validate(&faults);
    let nodes = points
        .iter()
        .map(|&p| ThetaNode::new(p, sectors, timing))
        .collect();
    let mut rt = Runtime::new(nodes, points, range, faults, seed, plan);
    rt.run(threads);

    // Liveness is read in place, not collected: on two threads that one
    // extra allocation raised peak RSS from ~25 to 36–39 MiB for some
    // inputs (n = 1000).
    let alive = |u: u32| rt.member_state(u) == MemberState::Alive;
    let positions = rt.positions();
    let mut builder = GraphBuilder::new(points.len());
    let (mut admitted, mut aware) = (0u64, 0u64);
    for u in (0..points.len() as u32).filter(|&u| alive(u)) {
        for &v in rt.node(u).admitted().iter().filter(|&&v| alive(v)) {
            builder.add_edge(u, v, positions[u as usize].dist(positions[v as usize]));
            admitted += 1;
            if rt.node(v).connections_received().contains(&u) {
                aware += 1;
            }
        }
    }
    let run = ThetaRun {
        graph: SpatialGraph::new(positions.to_vec(), builder.build(), range),
        stats: rt.stats().clone(),
        digest: rt.transcript().digest(),
        finished_at: rt.now(),
        edge_awareness: if admitted == 0 {
            1.0
        } else {
            aware as f64 / admitted as f64
        },
    };
    (run, rt)
}

/// Execute the hardened ΘALG protocol over faulty links on `threads`
/// worker threads (`<= 1` runs the inline one-shard core).
///
/// `sectors`/`range` are the ΘALG parameters (use
/// `adhoc_core::ThetaAlg::sectors` for a `θ`-derived partition);
/// `timing` sizes the round windows against the fault model. The result
/// — graph, stats, digest — is bit-identical at every thread count.
#[allow(clippy::too_many_arguments)]
pub fn run_theta_protocol_sharded(
    points: &[Point],
    sectors: SectorPartition,
    range: f64,
    timing: ThetaTiming,
    faults: FaultConfig,
    seed: u64,
    threads: usize,
) -> ThetaRun {
    let plan = ChurnPlan::new();
    run_theta(points, sectors, range, timing, faults, seed, &plan, threads).0
}

/// Result of one churn/mobility execution of the hardened protocol
/// ([`run_theta_churn`]).
#[derive(Debug, Clone)]
pub struct ThetaChurnRun {
    /// The live-node topology, counters and digest, as a static run
    /// reports them (identical to it when the plan is empty).
    pub run: ThetaRun,
    /// Nodes alive at the end of the run (id order).
    pub live: Vec<u32>,
    /// Fraction of live nodes whose admitted set exactly matches the
    /// direct offline ΘALG construction on the final live positions —
    /// 1.0 means every survivor fully repaired its cone neighborhood.
    pub fidelity: f64,
    /// Topology-repair latency: ticks from the last perturbation to the
    /// moment the slowest live node last settled its admitted set. (With
    /// an empty plan this is the initial convergence time, `2·round_len`.)
    pub repair_latency: u64,
}

/// Execute the hardened ΘALG protocol under a [`ChurnPlan`]: nodes join,
/// leave, crash, and drift mid-run; survivors re-converge locally (see
/// the module docs). The result is scored against the direct offline
/// construction on the final live positions and is bit-identical at
/// every thread count (`threads <= 1` runs the inline one-shard core).
#[allow(clippy::too_many_arguments)]
pub fn run_theta_churn(
    points: &[Point],
    sectors: SectorPartition,
    range: f64,
    timing: ThetaTiming,
    faults: FaultConfig,
    seed: u64,
    plan: &ChurnPlan,
    threads: usize,
) -> ThetaChurnRun {
    let (run, rt) = run_theta(points, sectors, range, timing, faults, seed, plan, threads);
    let live: Vec<u32> = (0..points.len() as u32)
        .filter(|&u| rt.member_state(u) == MemberState::Alive)
        .collect();
    let positions = &run.graph.points;
    // Direct offline ΘALG on the final live topology: every live node
    // chooses the nearest live radio neighbor per sector, offers
    // transpose, and each node admits the nearest offer per sector.
    let nearest = |u: u32, candidates: &[u32]| {
        let placed = candidates.iter().map(|&v| (v, positions[v as usize]));
        nearest_per_sector_at(&sectors, positions[u as usize], placed)
    };
    let mut offers_off: Vec<Vec<u32>> = vec![Vec::new(); points.len()];
    for &u in &live {
        for v in nearest(u, rt.radio_neighbors(u)) {
            offers_off[v as usize].push(u);
        }
    }
    let mut matching = 0usize;
    let mut settled = 0u64;
    for &u in &live {
        let mut want = nearest(u, &offers_off[u as usize]);
        let node = rt.node(u);
        let mut got: Vec<u32> = node.admitted().to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got == want {
            matching += 1;
        }
        settled = settled.max(node.settled_at());
    }
    ThetaChurnRun {
        fidelity: if live.is_empty() {
            1.0
        } else {
            matching as f64 / live.len() as f64
        },
        repair_latency: settled.saturating_sub(rt.last_churn_time()),
        live,
        run,
    }
}

/// Fraction of `reference`'s edges present in `candidate` (1.0 when every
/// reference edge was reconstructed; 1.0 for an empty reference).
pub fn edge_fidelity(reference: &SpatialGraph, candidate: &SpatialGraph) -> f64 {
    let total = reference.graph.num_edges();
    if total == 0 {
        return 1.0;
    }
    let present = reference
        .graph
        .edges()
        .filter(|&(u, v, _)| candidate.graph.has_edge(u, v))
        .count();
    present as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayDist;
    use adhoc_core::ThetaAlg;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;
    use std::f64::consts::FRAC_PI_3;

    /// A beacon from `(x, y)` with the given awaiting and mentioned ids.
    fn beacon(x: f64, y: f64, awaiting: &[u32], mentioned: &[u32]) -> ThetaMsg {
        ThetaMsg::Position(Arc::new(Beacon::new(
            Point::new(x, y),
            [awaiting, mentioned].concat().into_boxed_slice(),
            awaiting.len() as u32,
        )))
    }

    /// Every variant and every field of a ΘALG message changes its digest
    /// encoding (coordinates by bit pattern, so even `-0.0 ≠ 0.0`; each
    /// beacon list, and which side of the split an id is on).
    /// A beacon writes the digest of its encoding.
    #[test]
    fn digest_encoding_separates_variants_and_fields() {
        use crate::stats::message_digest;
        use std::collections::BTreeSet;
        let at = |x, y| beacon(x, y, &[], &[]);
        let msgs = [
            at(0.25, 0.5),
            at(0.75, 0.5),
            at(0.25, 0.75),
            at(0.0, 0.5),
            at(-0.0, 0.5),
            beacon(0.25, 0.5, &[3], &[]),
            beacon(0.25, 0.5, &[4], &[]),
            beacon(0.25, 0.5, &[], &[3]),
            beacon(0.25, 0.5, &[], &[4]),
            beacon(0.25, 0.5, &[3, 7], &[9]),
            beacon(0.25, 0.5, &[3], &[7, 9]),
            beacon(0.25, 0.5, &[3, 7, 9], &[]),
            ThetaMsg::Neighborhood,
            ThetaMsg::NbrAck,
            ThetaMsg::Connection,
            ThetaMsg::ConnAck,
            ThetaMsg::Retract,
            ThetaMsg::RetractAck,
        ];
        let digests: BTreeSet<u64> = msgs.iter().map(message_digest).collect();
        assert_eq!(digests.len(), msgs.len());

        // A beacon digests its whole `Position` encoding once, when it is
        // built: the variant byte, the coordinates, then each id list,
        // length-prefixed. Each copy writes that one `u64`.
        let mut w = DigestWriter::new();
        w.u8(0);
        w.f64(0.25);
        w.f64(-0.5);
        w.len_prefix(2);
        w.u32(3);
        w.u32(7);
        w.len_prefix(1);
        w.u32(9);
        let encoding = w.finish();
        let msg = beacon(0.25, -0.5, &[3, 7], &[9]);
        let ThetaMsg::Position(b) = &msg else {
            unreachable!()
        };
        assert_eq!(b.digest, encoding);
        let mut w = DigestWriter::new();
        w.u64(encoding);
        assert_eq!(message_digest(&msg), w.finish());
    }

    /// The static harness at the thread count CI selects, so both of its
    /// legs cover these tests.
    fn protocol(
        points: &[Point],
        sectors: SectorPartition,
        range: f64,
        timing: ThetaTiming,
        faults: FaultConfig,
        seed: u64,
    ) -> ThetaRun {
        let threads = crate::shard_threads_from_env();
        run_theta_protocol_sharded(points, sectors, range, timing, faults, seed, threads)
    }

    fn uniform(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn lossless_matches_direct_construction() {
        for seed in [1u64, 2] {
            let points = uniform(80, seed);
            let range = 0.4;
            let alg = ThetaAlg::new(FRAC_PI_3, range);
            let direct = alg.build(&points);
            let run = protocol(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                FaultConfig::ideal(),
                seed,
            );
            assert_eq!(direct.spatial.graph, run.graph.graph, "seed {seed}");
            assert_eq!(run.edge_awareness, 1.0);
        }
    }

    /// Without loss round 1 confirms itself within a few beacons: every
    /// node stops long before the window's 16 tries.
    #[test]
    fn lossless_beaconing_stops_early() {
        let n = 80;
        let points = uniform(n, 1);
        let range = 0.4;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let run = protocol(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            FaultConfig::ideal(),
            1,
        );
        assert_eq!(alg.build(&points).spatial.graph, run.graph.graph);
        assert!(
            run.stats.broadcasts <= 4 * n as u64,
            "{} beacons from {n} nodes",
            run.stats.broadcasts
        );
    }

    /// Confirmed beaconing reconstructs the topology exactly over seeds
    /// and loss rates, with fewer beacons than the fixed 16 per node.
    #[test]
    fn confirmed_beaconing_is_exact_across_seeds_and_loss() {
        let n = 200;
        for seed in 0..8u64 {
            let points = uniform(n, 100 + seed);
            let range = adhoc_geom::default_max_range(n);
            let alg = ThetaAlg::new(FRAC_PI_3, range);
            let direct = alg.build(&points);
            for loss in [0.1, 0.2, 0.3] {
                let run = protocol(
                    &points,
                    alg.sectors(),
                    range,
                    ThetaTiming::default(),
                    FaultConfig::lossy(loss),
                    seed,
                );
                assert_eq!(
                    direct.spatial.graph, run.graph.graph,
                    "seed {seed}, loss {loss}"
                );
                assert!(
                    run.stats.broadcasts < 16 * n as u64,
                    "seed {seed}, loss {loss}: {} beacons",
                    run.stats.broadcasts
                );
            }
        }
    }

    #[test]
    fn lossy_links_still_reconstruct_exactly() {
        let points = uniform(60, 5);
        let range = 0.4;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let direct = alg.build(&points);
        for loss in [0.05, 0.1, 0.2] {
            let run = protocol(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                FaultConfig::lossy(loss),
                42,
            );
            assert_eq!(
                direct.spatial.graph, run.graph.graph,
                "loss {loss}: confirmed beacons and retransmissions should absorb it"
            );
            assert!(run.stats.dropped > 0, "loss {loss} dropped nothing?");
        }
    }

    #[test]
    fn delays_and_duplicates_are_harmless() {
        let points = uniform(50, 9);
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let direct = alg.build(&points);
        let faults = FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.2,
            delay: DelayDist::Uniform { min: 1, max: 8 },
        };
        let run = protocol(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            faults,
            7,
        );
        assert_eq!(direct.spatial.graph, run.graph.graph);
        assert!(run.stats.duplicated > 0);
    }

    #[test]
    fn same_seed_same_digest_and_graph() {
        let points = uniform(40, 3);
        let alg = ThetaAlg::new(FRAC_PI_3, 0.5);
        let go = |seed| {
            protocol(
                &points,
                alg.sectors(),
                0.5,
                ThetaTiming::default(),
                FaultConfig::lossy(0.15),
                seed,
            )
        };
        let (a, b) = (go(11), go(11));
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.graph.graph, b.graph.graph);
        assert_eq!(a.stats, b.stats);
        assert_ne!(go(12).digest, a.digest);
    }

    #[test]
    fn starved_retransmit_budget_degrades_not_panics() {
        // One transmission per message and 60% loss: the graph will be
        // incomplete, but the run must finish and fidelity is measurable.
        let points = uniform(50, 8);
        let range = 0.4;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let direct = alg.build(&points);
        let timing = ThetaTiming {
            round_len: 4,
            resend_every: 3,
        };
        let run = protocol(
            &points,
            alg.sectors(),
            range,
            timing,
            FaultConfig::lossy(0.6),
            2,
        );
        let f = edge_fidelity(&direct.spatial, &run.graph);
        assert!(f < 1.0, "a starved budget should lose edges (f = {f})");
        assert!(run.edge_awareness <= 1.0);
    }

    #[test]
    fn empty_input() {
        let run = protocol(
            &[],
            SectorPartition::with_max_angle(FRAC_PI_3),
            1.0,
            ThetaTiming::default(),
            FaultConfig::ideal(),
            0,
        );
        assert!(run.graph.is_empty());
        assert_eq!(run.stats, NetStats::default());
        assert_eq!(run.digest, crate::Transcript::new(false).digest());
        assert_eq!((run.finished_at, run.edge_awareness), (0, 1.0));
        let churn = run_theta_churn(
            &[],
            SectorPartition::with_max_angle(FRAC_PI_3),
            1.0,
            ThetaTiming::default(),
            FaultConfig::ideal(),
            0,
            &ChurnPlan::new(),
            2,
        );
        assert!(churn.run.graph.is_empty() && churn.live.is_empty());
        assert_eq!(churn.run.digest, run.digest);
        assert_eq!((churn.fidelity, churn.repair_latency), (1.0, 0));
    }

    #[test]
    fn lossless_churn_reconverges_to_offline_construction() {
        // Four well-separated perturbations (≥ 3·round_len apart): a
        // join, a drift, a graceful leave, and a crash. On lossless links
        // every survivor must end with exactly the admitted set the
        // offline ΘALG computes on the final live positions.
        let mut points = uniform(40, 6);
        points.push(Point::new(2.0, 2.0)); // placeholder, respawned on join
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let plan = ChurnPlan::new()
            .join(200, 40, Point::new(0.5, 0.5))
            .drift(400, 3, Point::new(0.25, 0.6))
            .leave(600, 7)
            .crash(800, 11);
        let run = run_theta_churn(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            FaultConfig::ideal(),
            6,
            &plan,
            1,
        );
        assert_eq!(run.fidelity, 1.0, "run {:?}", run.run.stats);
        assert_eq!(run.live.len(), 39, "41 nodes − leaver − crasher");
        assert!(!run.live.contains(&7) && !run.live.contains(&11));
        assert!(run.live.contains(&40), "joiner must be live");
        let rl = ThetaTiming::default().round_len;
        assert!(
            run.repair_latency > 0 && run.repair_latency <= 3 * rl,
            "repair latency {} outside (0, {}]",
            run.repair_latency,
            3 * rl
        );
        assert_eq!(run.run.stats.joins, 1);
        assert_eq!(run.run.stats.leaves, 1);
        assert_eq!(run.run.stats.crashes, 1);
        assert_eq!(run.run.stats.drifts, 1);
        assert!(run.run.stats.reconvergences > 0);
    }

    #[test]
    fn lossy_churn_still_reconverges_exactly() {
        // Retransmission budgets absorb moderate loss during repair just
        // as they do during initial construction.
        let points = uniform(50, 12);
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let plan = ChurnPlan::new()
            .crash(200, 5)
            .drift(500, 17, Point::new(0.4, 0.3));
        let run = run_theta_churn(
            &points,
            alg.sectors(),
            range,
            ThetaTiming::default(),
            FaultConfig::lossy(0.1),
            9,
            &plan,
            1,
        );
        assert_eq!(run.fidelity, 1.0, "10% loss must be absorbed by retries");
        assert!(run.run.stats.dropped > 0);
    }

    #[test]
    fn churn_digest_identical_sequential_vs_sharded() {
        let points = uniform(48, 21);
        let range = 0.45;
        let alg = ThetaAlg::new(FRAC_PI_3, range);
        let plan =
            ChurnPlan::new()
                .crash(130, 2)
                .leave(260, 9)
                .drift(400, 14, Point::new(0.7, 0.1));
        let faults = FaultConfig {
            drop_prob: 0.1,
            duplicate_prob: 0.05,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let go = |threads| {
            run_theta_churn(
                &points,
                alg.sectors(),
                range,
                ThetaTiming::default(),
                faults,
                33,
                &plan,
                threads,
            )
        };
        let seq = go(1);
        for threads in [4, 8] {
            let sh = go(threads);
            assert_eq!(sh.run.digest, seq.run.digest, "threads={threads}");
            assert_eq!(sh.run.stats, seq.run.stats, "threads={threads}");
            assert_eq!(sh.run.graph.graph, seq.run.graph.graph, "threads={threads}");
            assert_eq!(sh.fidelity, seq.fidelity, "threads={threads}");
            assert_eq!(sh.repair_latency, seq.repair_latency, "threads={threads}");
        }
    }

    #[test]
    fn empty_churn_plan_matches_plain_protocol_run() {
        // Both harnesses share one body, so an empty plan must give the
        // static result field for field, inline and on worker threads.
        let points = uniform(40, 3);
        let alg = ThetaAlg::new(FRAC_PI_3, 0.5);
        let faults = FaultConfig::lossy(0.15);
        for threads in [1, 2] {
            let plain = run_theta_protocol_sharded(
                &points,
                alg.sectors(),
                0.5,
                ThetaTiming::default(),
                faults,
                11,
                threads,
            );
            let churn = run_theta_churn(
                &points,
                alg.sectors(),
                0.5,
                ThetaTiming::default(),
                faults,
                11,
                &ChurnPlan::default(),
                threads,
            );
            let run = &churn.run;
            assert_eq!(plain.graph.graph, run.graph.graph, "threads={threads}");
            assert_eq!(plain.graph.points, run.graph.points, "threads={threads}");
            assert_eq!(plain.stats, run.stats, "threads={threads}");
            assert_eq!(plain.digest, run.digest, "threads={threads}");
            assert_eq!(plain.finished_at, run.finished_at, "threads={threads}");
            assert_eq!(
                plain.edge_awareness, run.edge_awareness,
                "threads={threads}"
            );
            assert_eq!(churn.live.len(), 40);
            assert_eq!(churn.fidelity, 1.0);
        }
    }

    #[test]
    fn fidelity_measure_sane() {
        let points = uniform(30, 4);
        let alg = ThetaAlg::new(FRAC_PI_3, 0.5);
        let direct = alg.build(&points);
        assert_eq!(edge_fidelity(&direct.spatial, &direct.spatial), 1.0);
        let empty = SpatialGraph::new(points.clone(), GraphBuilder::new(points.len()).build(), 0.5);
        assert_eq!(edge_fidelity(&direct.spatial, &empty), 0.0);
        assert_eq!(edge_fidelity(&empty, &direct.spatial), 1.0);
    }
}
