//! Churn and mobility: scheduled membership/geometry perturbations.
//!
//! A [`ChurnPlan`] is a seeded, declarative list of perturbations — node
//! joins (at a position), graceful leaves, crash leaves, and waypoint
//! drifts — that the runtime injects during execution
//! ([`crate::Runtime::new`] installs the plan). Determinism is preserved by
//! construction:
//!
//! * every churn time is **snapped up to a lookahead-window boundary**
//!   (`ceil(t / L) · L` where `L` is the fault model's minimum link
//!   delay), so a perturbation never lands inside an epoch — every core
//!   applies it at the exact same cut between windows;
//! * the plan is validated up front by a per-node state machine
//!   (join-before-anything-else, no rejoin, no events after departure),
//!   so mid-run surprises are impossible;
//! * the batch of entries applied at one boundary, the recomputed
//!   membership and neighbor rows, and the affected-node set are
//!   computed once by the coordinating runtime and applied identically
//!   everywhere (`ChurnDelta`).
//!
//! Membership is tracked per node ([`MemberState`]): `Pending` nodes have
//! not joined yet (no `on_start`, excluded from every neighbor row),
//! `Draining` nodes left gracefully (out of the topology but still
//! processing their queued events), `Dead` nodes crashed — events
//! addressed to them are accounted (`link_lost` / `timers_abandoned`)
//! instead of delivered.

use adhoc_geom::{GridIndex, Point};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// One kind of perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnKind {
    /// The node joins the network at this position. Must be the node's
    /// first (and only) appearance in the plan; until then the node is
    /// [`MemberState::Pending`].
    Join(Point),
    /// Graceful leave: the node departs the topology but keeps processing
    /// events already queued for it ([`MemberState::Draining`]).
    Leave,
    /// Crash leave: the node dies instantly ([`MemberState::Dead`]);
    /// in-flight messages to it are counted as `link_lost`, its pending
    /// timers as `timers_abandoned`.
    Crash,
    /// Waypoint drift: the node teleports to this position (one waypoint
    /// hop of a mobility trace).
    Drift(Point),
}

/// One scheduled perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEntry {
    /// Requested virtual time (snapped up to a lookahead boundary when
    /// the plan is installed).
    pub at: u64,
    /// The node perturbed.
    pub node: u32,
    /// What happens to it.
    pub kind: ChurnKind,
}

/// A declarative churn/mobility schedule. Build one with the chainable
/// constructors or [`ChurnPlan::random`], then hand it to
/// [`crate::Runtime::new`] or a protocol harness.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnPlan {
    entries: Vec<ChurnEntry>,
}

impl ChurnPlan {
    /// An empty plan (no churn).
    pub fn new() -> Self {
        ChurnPlan::default()
    }

    /// Schedule `node` to join at position `pos` around time `at`.
    pub fn join(mut self, at: u64, node: u32, pos: Point) -> Self {
        self.entries.push(ChurnEntry {
            at,
            node,
            kind: ChurnKind::Join(pos),
        });
        self
    }

    /// Schedule a graceful leave of `node` around time `at`.
    pub fn leave(mut self, at: u64, node: u32) -> Self {
        self.entries.push(ChurnEntry {
            at,
            node,
            kind: ChurnKind::Leave,
        });
        self
    }

    /// Schedule a crash of `node` around time `at`.
    pub fn crash(mut self, at: u64, node: u32) -> Self {
        self.entries.push(ChurnEntry {
            at,
            node,
            kind: ChurnKind::Crash,
        });
        self
    }

    /// Schedule `node` to drift to `pos` around time `at`.
    pub fn drift(mut self, at: u64, node: u32, pos: Point) -> Self {
        self.entries.push(ChurnEntry {
            at,
            node,
            kind: ChurnKind::Drift(pos),
        });
        self
    }

    /// The scheduled entries, in insertion order.
    pub fn entries(&self) -> &[ChurnEntry] {
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

    /// Compile a sampled mobility trace into a drift plan.
    ///
    /// `frames[k]` holds every node's position at sample `k` of a
    /// continuous mobility model (e.g. the random-waypoint trajectories
    /// of experiment E11): `frames[0]` is the initial placement the
    /// runtime is constructed with (nothing is scheduled for it), and
    /// each later frame becomes one batch of [`ChurnKind::Drift`]
    /// entries at time `start + k · every` — only for the nodes that
    /// actually moved since the previous frame, so a parked node costs
    /// nothing. The result replays continuous mobility through the same
    /// deterministic churn machinery as hand-written plans.
    ///
    /// Panics if `frames` is empty, the frames disagree on node count,
    /// or `every == 0`.
    pub fn from_waypoint_trace(frames: &[Vec<Point>], start: u64, every: u64) -> Self {
        assert!(
            !frames.is_empty(),
            "waypoint trace needs at least one frame"
        );
        assert!(every >= 1, "frame spacing must be ≥ 1 tick");
        let n = frames[0].len();
        let mut plan = ChurnPlan::new();
        for (k, frame) in frames.iter().enumerate().skip(1) {
            assert_eq!(
                frame.len(),
                n,
                "frame {k} has {} nodes, frame 0 has {n}",
                frame.len()
            );
            let at = start + k as u64 * every;
            for (node, (&pos, &prev)) in frame.iter().zip(&frames[k - 1]).enumerate() {
                if pos != prev {
                    plan = plan.drift(at, node as u32, pos);
                }
            }
        }
        plan
    }

    /// A seeded random plan over a network of `alive + spares` nodes:
    /// nodes `0..alive` start in the network, nodes `alive..alive+spares`
    /// start [`MemberState::Pending`] and may join later. `events`
    /// perturbations are drawn at uniform times in `[1, horizon]`:
    /// roughly 20% joins (while spares remain), 10% graceful leaves and
    /// 10% crashes (while more than two nodes are up), the rest waypoint
    /// drifts to uniform positions in `[0, span]²`. The same seed always
    /// yields the same plan.
    pub fn random(
        alive: usize,
        spares: usize,
        span: f64,
        horizon: u64,
        events: usize,
        seed: u64,
    ) -> Self {
        assert!(alive >= 1, "need at least one initially-alive node");
        assert!(span.is_finite() && span > 0.0, "span must be positive");
        let n = alive + spares;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // 0 = pending spare, 1 = alive, 2 = departed.
        let mut state: Vec<u8> = (0..n).map(|i| u8::from(i < alive)).collect();
        let mut up = alive;
        let mut times: Vec<u64> = (0..events)
            .map(|_| rng.gen_range(1..=horizon.max(1)))
            .collect();
        times.sort_unstable();
        let pick = |state: &[u8], want: u8, rng: &mut ChaCha8Rng| -> Option<u32> {
            let pool: Vec<u32> = state
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s == want)
                .map(|(i, _)| i as u32)
                .collect();
            if pool.is_empty() {
                None
            } else {
                Some(pool[rng.gen_range(0..pool.len())])
            }
        };
        let mut plan = ChurnPlan::new();
        for at in times {
            let r: f64 = rng.gen();
            if r < 0.2 {
                if let Some(node) = pick(&state, 0, &mut rng) {
                    let pos = Point::new(rng.gen::<f64>() * span, rng.gen::<f64>() * span);
                    state[node as usize] = 1;
                    up += 1;
                    plan = plan.join(at, node, pos);
                    continue;
                }
            } else if r < 0.4 && up > 2 {
                let node = pick(&state, 1, &mut rng).expect("up > 2 implies an alive node");
                state[node as usize] = 2;
                up -= 1;
                plan = if r < 0.3 {
                    plan.leave(at, node)
                } else {
                    plan.crash(at, node)
                };
                continue;
            }
            if let Some(node) = pick(&state, 1, &mut rng) {
                let pos = Point::new(rng.gen::<f64>() * span, rng.gen::<f64>() * span);
                plan = plan.drift(at, node, pos);
            }
        }
        plan
    }
}

/// Membership state of one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Scheduled to join later: no `on_start`, absent from every
    /// neighbor row, receives nothing.
    Pending,
    /// In the network.
    Alive,
    /// Left gracefully: out of the topology (its row is empty and no row
    /// contains it) but still processing events already queued for it.
    Draining,
    /// Crashed: events addressed to it are accounted as losses instead
    /// of delivered.
    Dead,
}

impl MemberState {
    /// Whether this node still executes callbacks.
    pub fn processes_events(self) -> bool {
        matches!(self, MemberState::Alive | MemberState::Draining)
    }
}

/// The plan, compiled against a concrete runtime: snapped times, initial
/// membership, and spawn positions for future joiners.
pub(crate) struct PlannedChurn {
    pub(crate) schedule: ChurnSchedule,
    pub(crate) membership: Vec<MemberState>,
    /// `(node, position)` for every join entry: joiners sit at their
    /// spawn position from t = 0 for spatial shard partitioning.
    pub(crate) spawn_positions: Vec<(u32, Point)>,
}

/// Validate `plan` against an `n`-node runtime and snap every entry time
/// up to a multiple of `lookahead`. Panics with a clear message on an
/// inconsistent plan (out-of-range node, rejoin, events after departure,
/// drift before join).
pub(crate) fn plan_churn(plan: &ChurnPlan, n: usize, lookahead: u64) -> PlannedChurn {
    let lookahead = lookahead.max(1);
    let mut items: Vec<(u64, ChurnEntry)> = plan
        .entries
        .iter()
        .map(|&e| (e.at.max(1).div_ceil(lookahead) * lookahead, e))
        .collect();
    // Stable: entries snapped to the same boundary apply in plan order.
    items.sort_by_key(|&(at, _)| at);

    let mut membership = vec![MemberState::Alive; n];
    for (_, e) in &items {
        assert!(
            (e.node as usize) < n,
            "churn plan references node {} but only {n} nodes exist",
            e.node
        );
        if matches!(e.kind, ChurnKind::Join(_)) {
            membership[e.node as usize] = MemberState::Pending;
        }
    }

    let mut state = membership.clone();
    let mut spawn_positions = Vec::new();
    for (_, e) in &items {
        let s = &mut state[e.node as usize];
        match e.kind {
            ChurnKind::Join(pos) => {
                assert!(
                    *s == MemberState::Pending,
                    "node {} joins twice or joins after other events",
                    e.node
                );
                *s = MemberState::Alive;
                spawn_positions.push((e.node, pos));
            }
            ChurnKind::Leave | ChurnKind::Crash => {
                assert!(
                    *s == MemberState::Alive,
                    "node {} leaves while not alive (state {:?})",
                    e.node,
                    *s
                );
                *s = MemberState::Dead;
            }
            ChurnKind::Drift(_) => {
                assert!(
                    *s == MemberState::Alive,
                    "node {} drifts while not alive (state {:?})",
                    e.node,
                    *s
                );
            }
        }
    }

    PlannedChurn {
        schedule: ChurnSchedule { items, cursor: 0 },
        membership,
        spawn_positions,
    }
}

/// The compiled, time-sorted churn schedule a runtime walks during a run.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChurnSchedule {
    /// `(snapped time, entry)` sorted by time, plan order within a time.
    items: Vec<(u64, ChurnEntry)>,
    cursor: usize,
}

impl ChurnSchedule {
    /// Time of the next pending batch, if any.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.items.get(self.cursor).map(|&(at, _)| at)
    }

    /// Take every entry scheduled at the next pending time.
    pub(crate) fn take_batch(&mut self) -> (u64, Vec<ChurnEntry>) {
        let at = self.peek_time().expect("take_batch on an empty schedule");
        let mut batch = Vec::new();
        while let Some(&(t, e)) = self.items.get(self.cursor) {
            if t != at {
                break;
            }
            batch.push(e);
            self.cursor += 1;
        }
        (at, batch)
    }

    /// The last (snapped) perturbation time in the schedule; 0 if empty.
    pub(crate) fn last_time(&self) -> u64 {
        self.items.last().map_or(0, |&(at, _)| at)
    }
}

/// Everything one churn batch changes, computed once by the coordinating
/// runtime and applied identically by every core: the entries, the new
/// radio topology, and the `(node, new position)` pairs that must
/// re-converge (`on_neighborhood_change`).
#[derive(Debug, Clone)]
pub(crate) struct ChurnDelta {
    /// The (snapped) time the batch applies at.
    pub(crate) time: u64,
    /// The entries of the batch, in plan order.
    pub(crate) entries: Vec<ChurnEntry>,
    /// The membership and neighbor rows after the batch.
    pub(crate) radio: Arc<Radio>,
    /// Live nodes whose one-hop world changed (row membership or a
    /// neighbor's position), with their current position; sorted by node.
    pub(crate) affected: Vec<(u32, Point)>,
}

/// Who is in the network and who hears whom. The coordinator and every
/// core share one copy; a churn batch replaces it as a whole.
#[derive(Debug)]
pub(crate) struct Radio {
    /// Membership state per node (all `Alive` without a churn plan).
    pub(crate) membership: Vec<MemberState>,
    /// Radio neighbors (indices within range), per node, sorted.
    pub(crate) neighbors: Vec<Vec<u32>>,
}

impl Radio {
    /// The radio topology of `membership` at `positions`: only
    /// [`MemberState::Alive`] nodes appear in rows, and only they get a
    /// non-empty row.
    pub(crate) fn new(positions: &[Point], membership: Vec<MemberState>, range: f64) -> Arc<Self> {
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        if n > 0 {
            let grid = GridIndex::build(positions, range);
            for u in 0..n as u32 {
                if membership[u as usize] != MemberState::Alive {
                    continue;
                }
                let row = &mut neighbors[u as usize];
                grid.for_each_within(positions[u as usize], range, |v| {
                    if v != u && membership[v as usize] == MemberState::Alive {
                        row.push(v);
                    }
                });
                row.sort_unstable();
            }
        }
        Arc::new(Radio {
            membership,
            neighbors,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_snap_up_to_lookahead_boundaries() {
        let plan = ChurnPlan::new()
            .drift(0, 0, Point::new(1.0, 0.0))
            .drift(5, 0, Point::new(2.0, 0.0))
            .drift(8, 0, Point::new(3.0, 0.0));
        let planned = plan_churn(&plan, 2, 4);
        let times: Vec<u64> = planned.schedule.items.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, [4, 8, 8], "0→4 (never at t=0), 5→8, 8 stays");
    }

    #[test]
    fn batches_group_entries_at_one_boundary_in_plan_order() {
        let plan = ChurnPlan::new()
            .drift(7, 1, Point::new(1.0, 0.0))
            .drift(5, 0, Point::new(2.0, 0.0))
            .crash(20, 1);
        let mut schedule = plan_churn(&plan, 3, 8).schedule;
        assert_eq!(schedule.last_time(), 24);
        assert_eq!(schedule.peek_time(), Some(8));
        let (at, batch) = schedule.take_batch();
        assert_eq!(at, 8);
        // Both snap to 8; plan order (node 1 first) is preserved.
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].node, 1);
        assert_eq!(batch[1].node, 0);
        let (at, batch) = schedule.take_batch();
        assert_eq!((at, batch.len()), (24, 1));
        assert_eq!(schedule.peek_time(), None);
    }

    #[test]
    fn joiners_start_pending_with_spawn_positions() {
        let plan = ChurnPlan::new()
            .join(10, 2, Point::new(0.5, 0.5))
            .leave(20, 0);
        let planned = plan_churn(&plan, 3, 1);
        assert_eq!(planned.membership[0], MemberState::Alive);
        assert_eq!(planned.membership[1], MemberState::Alive);
        assert_eq!(planned.membership[2], MemberState::Pending);
        assert_eq!(planned.spawn_positions, vec![(2, Point::new(0.5, 0.5))]);
    }

    #[test]
    #[should_panic(expected = "joins twice")]
    fn rejoin_is_rejected() {
        let plan =
            ChurnPlan::new()
                .join(1, 0, Point::new(0.0, 0.0))
                .join(5, 0, Point::new(1.0, 0.0));
        plan_churn(&plan, 1, 1);
    }

    #[test]
    #[should_panic(expected = "drifts while not alive")]
    fn drift_after_crash_is_rejected() {
        let plan = ChurnPlan::new()
            .crash(1, 0)
            .drift(5, 0, Point::new(1.0, 0.0));
        plan_churn(&plan, 1, 1);
    }

    #[test]
    #[should_panic(expected = "leaves while not alive")]
    fn leave_before_join_is_rejected() {
        let plan = ChurnPlan::new()
            .leave(1, 0)
            .join(5, 0, Point::new(1.0, 0.0));
        plan_churn(&plan, 1, 1);
    }

    #[test]
    #[should_panic(expected = "only 2 nodes exist")]
    fn out_of_range_node_is_rejected() {
        plan_churn(&ChurnPlan::new().leave(1, 7), 2, 1);
    }

    #[test]
    fn random_plans_are_valid_and_reproducible() {
        for seed in 0..20 {
            let plan = ChurnPlan::random(10, 3, 1.0, 500, 30, seed);
            assert_eq!(plan, ChurnPlan::random(10, 3, 1.0, 500, 30, seed));
            assert!(!plan.is_empty());
            // Valid against the matching runtime size at several lookaheads.
            for lookahead in [1, 3, 8] {
                plan_churn(&plan, 13, lookahead);
            }
        }
        assert_ne!(
            ChurnPlan::random(10, 3, 1.0, 500, 30, 1),
            ChurnPlan::random(10, 3, 1.0, 500, 30, 2)
        );
    }

    #[test]
    fn waypoint_trace_compiles_to_moved_node_drifts() {
        let frames = vec![
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![Point::new(0.5, 0.0), Point::new(1.0, 0.0)], // only node 0 moved
            vec![Point::new(0.5, 0.0), Point::new(1.0, 0.5)], // only node 1 moved
        ];
        let plan = ChurnPlan::from_waypoint_trace(&frames, 10, 5);
        assert_eq!(
            plan.entries(),
            &[
                ChurnEntry {
                    at: 15,
                    node: 0,
                    kind: ChurnKind::Drift(Point::new(0.5, 0.0)),
                },
                ChurnEntry {
                    at: 20,
                    node: 1,
                    kind: ChurnKind::Drift(Point::new(1.0, 0.5)),
                },
            ]
        );
        // Drift-only plans are always valid: no membership transitions.
        plan_churn(&plan, 2, 4);
        // A static trace schedules nothing.
        assert!(ChurnPlan::from_waypoint_trace(&frames[..1], 10, 5).is_empty());
        let parked = vec![frames[0].clone(), frames[0].clone()];
        assert!(ChurnPlan::from_waypoint_trace(&parked, 10, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "frame 1 has 1 nodes")]
    fn waypoint_trace_rejects_ragged_frames() {
        let frames = vec![
            vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)],
            vec![Point::new(0.0, 0.0)],
        ];
        ChurnPlan::from_waypoint_trace(&frames, 1, 1);
    }

    #[test]
    fn rebuild_excludes_non_alive_nodes() {
        let positions = [
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
        ];
        let mut membership = vec![MemberState::Alive; 3];
        let radio = Radio::new(&positions, membership.clone(), 1.5);
        assert_eq!(radio.neighbors, vec![vec![1], vec![0, 2], vec![1]]);
        membership[1] = MemberState::Draining;
        let radio = Radio::new(&positions, membership, 1.5);
        assert_eq!(radio.neighbors, vec![Vec::<u32>::new(), vec![], vec![]]);
    }
}
