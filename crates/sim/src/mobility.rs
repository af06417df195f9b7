//! Random-waypoint mobility (the paper's "uncontrollable factors": node
//! mobility changes the topology under the routing layer).
//!
//! Each node picks a uniform waypoint in the unit square and moves toward
//! it at its own constant speed; on arrival it draws a new waypoint. The
//! dynamic-topology experiments rebuild ΘALG periodically from the moved
//! positions and verify that routing keeps delivering.

use adhoc_geom::Point;
use rand::Rng;

/// Random-waypoint state for a set of nodes in the unit square.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    positions: Vec<Point>,
    targets: Vec<Point>,
    speeds: Vec<f64>,
}

impl RandomWaypoint {
    /// Start from `positions` with per-node speeds drawn uniformly from
    /// `[min_speed, max_speed]` (distance units per step).
    pub fn new<R: Rng + ?Sized>(
        positions: Vec<Point>,
        min_speed: f64,
        max_speed: f64,
        rng: &mut R,
    ) -> Self {
        assert!(
            0.0 < min_speed && min_speed <= max_speed,
            "need 0 < min_speed ≤ max_speed"
        );
        let n = positions.len();
        let targets = (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let speeds = (0..n)
            .map(|_| rng.gen_range(min_speed..=max_speed))
            .collect();
        RandomWaypoint {
            positions,
            targets,
            speeds,
        }
    }

    /// Current node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Advance every node one step toward its waypoint; nodes that arrive
    /// draw a fresh waypoint.
    pub fn step<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in 0..self.positions.len() {
            let p = self.positions[i];
            let t = self.targets[i];
            let d = p.dist(t);
            let s = self.speeds[i];
            if d <= s {
                self.positions[i] = t;
                self.targets[i] = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            } else {
                let dir = p.to(t);
                self.positions[i] = p + dir * (s / d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn start(n: usize, seed: u64) -> (RandomWaypoint, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        (RandomWaypoint::new(pts, 0.01, 0.05, &mut rng), rng)
    }

    #[test]
    fn nodes_stay_in_unit_square() {
        let (mut rw, mut rng) = start(30, 3);
        for _ in 0..500 {
            rw.step(&mut rng);
        }
        for p in rw.positions() {
            assert!((0.0..=1.0).contains(&p.x) && (0.0..=1.0).contains(&p.y));
        }
    }

    #[test]
    fn nodes_actually_move() {
        let (mut rw, mut rng) = start(10, 5);
        let before = rw.positions().to_vec();
        for _ in 0..10 {
            rw.step(&mut rng);
        }
        let moved = rw
            .positions()
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.dist(**b) > 1e-9)
            .count();
        assert_eq!(moved, 10);
    }

    #[test]
    fn step_length_bounded_by_speed() {
        let (mut rw, mut rng) = start(10, 7);
        let before = rw.positions().to_vec();
        rw.step(&mut rng);
        for (a, b) in rw.positions().iter().zip(&before) {
            assert!(a.dist(*b) <= 0.05 + 1e-12);
        }
    }

    /// Round-trip: sample an E11-style random-waypoint trajectory into
    /// frames, compile it with `ChurnPlan::from_waypoint_trace`, replay
    /// it through the runtime, and check the runtime's final geometry is
    /// exactly the trace's last frame.
    #[test]
    fn waypoint_trace_round_trips_through_the_runtime() {
        use adhoc_runtime::{Actor, ChurnPlan, Ctx, DigestWriter, FaultConfig, Message, Runtime};

        #[derive(Debug, Clone)]
        struct Quiet;
        impl Message for Quiet {
            fn digest_into(&self, _w: &mut DigestWriter) {}
        }
        #[derive(Debug, Clone)]
        struct Silent;
        impl Actor for Silent {
            type Msg = Quiet;
            fn on_message(&mut self, _ctx: &mut Ctx<Quiet>, _from: u32, _msg: Quiet) {}
        }

        let (mut rw, mut rng) = start(12, 11);
        let mut frames = vec![rw.positions().to_vec()];
        for _ in 0..8 {
            for _ in 0..5 {
                rw.step(&mut rng);
            }
            frames.push(rw.positions().to_vec());
        }
        let plan = ChurnPlan::from_waypoint_trace(&frames, 4, 4);
        assert!(!plan.is_empty(), "a moving trace must schedule drifts");

        let mut rt = Runtime::new(
            vec![Silent; 12],
            &frames[0],
            0.3,
            FaultConfig::ideal(),
            77,
            &plan,
        );
        rt.run(1);
        assert_eq!(rt.positions(), frames.last().unwrap().as_slice());
    }

    #[test]
    #[should_panic]
    fn zero_speed_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        RandomWaypoint::new(vec![Point::ORIGIN], 0.0, 0.1, &mut rng);
    }
}
