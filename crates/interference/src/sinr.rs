//! The *physical* (SINR) interference model of Gupta–Kumar.
//!
//! Paper §2.4 adopts the pairwise guard-zone ("protocol") model and notes
//! it "is a simplified version of the *physical* model \[24\], which
//! considers a combined interference from all other simultaneous
//! transmissions". This module implements that physical model so the
//! experiment suite can validate the protocol-model abstraction: a
//! transmission `Xᵢ → Yᵢ` succeeds iff
//!
//! ```text
//!          P / |Xᵢ Yᵢ|^κ
//! ──────────────────────────────────  ≥  β
//!  N₀ + Σ_{j≠i} P / |Xⱼ Yᵢ|^κ
//! ```
//!
//! with transmit power `P`, path-loss exponent `κ`, ambient noise `N₀`
//! and SINR threshold `β`. With power control (each sender using just
//! enough power for its own link) the numerator becomes the reception
//! threshold itself.

use crate::model::Transmission;
use adhoc_geom::Point;
use serde::{Deserialize, Serialize};

/// Parameters of the physical model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SinrModel {
    /// Path-loss exponent `κ ∈ [2, 4]`.
    pub kappa: f64,
    /// SINR threshold `β` (≥ 1 in practice).
    pub beta: f64,
    /// Ambient noise floor `N₀` (same units as received power).
    pub noise: f64,
    /// Transmission power policy.
    pub power: PowerPolicy,
}

/// How senders choose their transmit power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerPolicy {
    /// Everyone transmits at the same fixed power `P` (the §3.4 regime).
    Uniform(f64),
    /// Power control: sender `i` uses `margin · β · N₀ · |XᵢYᵢ|^κ`, the
    /// minimum (times a safety margin ≥ 1) that closes its own link over
    /// pure noise (the §2.2 power-adjustment assumption).
    MinimumPlusMargin(f64),
}

impl SinrModel {
    /// Standard instance: κ = 2, β = 1.5, low noise, uniform power 1.
    pub fn standard(kappa: f64) -> Self {
        SinrModel {
            kappa,
            beta: 1.5,
            noise: 1e-6,
            power: PowerPolicy::Uniform(1.0),
        }
    }

    fn tx_power(&self, sender: Point, receiver: Point) -> f64 {
        match self.power {
            PowerPolicy::Uniform(p) => p,
            PowerPolicy::MinimumPlusMargin(margin) => {
                margin * self.beta * self.noise * sender.dist(receiver).powf(self.kappa).max(1e-300)
            }
        }
    }

    /// Received power at `at` from a sender at `from` transmitting with
    /// power `p`.
    fn received(&self, p: f64, from: Point, at: Point) -> f64 {
        let d = from.dist(at).max(1e-9); // near-field clamp
        p / d.powf(self.kappa)
    }

    /// Which of the simultaneous directed transmissions succeed under the
    /// physical model? `active[i] = (sender, receiver)` as indices into
    /// `positions`.
    pub fn successful(&self, positions: &[Point], active: &[Transmission]) -> Vec<bool> {
        let k = active.len();
        let powers: Vec<f64> = active
            .iter()
            .map(|t| self.tx_power(positions[t.a as usize], positions[t.b as usize]))
            .collect();
        let mut ok = vec![false; k];
        for i in 0..k {
            let rx = positions[active[i].b as usize];
            let signal = self.received(powers[i], positions[active[i].a as usize], rx);
            let mut interference = 0.0;
            let mut shared = false;
            for j in 0..k {
                if j == i {
                    continue;
                }
                if active[j].a == active[i].a
                    || active[j].a == active[i].b
                    || active[j].b == active[i].b
                {
                    shared = true; // a node cannot send/receive twice at once
                }
                interference += self.received(powers[j], positions[active[j].a as usize], rx);
            }
            ok[i] = !shared && signal >= self.beta * (self.noise + interference);
        }
        ok
    }

    /// Fraction of transmissions on which the pairwise protocol model
    /// (guard zone `Δ`) and this physical model *disagree*, over the
    /// given batch of simultaneous transmission sets.
    ///
    /// Used by the validation experiment: for a suitable `Δ` the protocol
    /// model is a conservative proxy of the physical model.
    pub fn disagreement_with_protocol(
        &self,
        positions: &[Point],
        batches: &[Vec<Transmission>],
        protocol: crate::model::InterferenceModel,
    ) -> DisagreementReport {
        let mut report = DisagreementReport::default();
        for batch in batches {
            let phys = self.successful(positions, batch);
            let proto = crate::model::successful_transmissions(protocol, positions, batch);
            for (p, q) in phys.iter().zip(proto.iter()) {
                report.total += 1;
                match (q, p) {
                    (true, true) => report.both_succeed += 1,
                    (false, false) => report.both_fail += 1,
                    // protocol optimistic: claims success, physically fails
                    (true, false) => report.protocol_optimistic += 1,
                    // protocol conservative: claims failure, physically fine
                    (false, true) => report.protocol_conservative += 1,
                }
            }
        }
        report
    }
}

/// Outcome of a protocol-vs-physical validation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DisagreementReport {
    pub total: usize,
    pub both_succeed: usize,
    pub both_fail: usize,
    /// Protocol model allowed a transmission the SINR model kills —
    /// the dangerous direction.
    pub protocol_optimistic: usize,
    /// Protocol model was more cautious than physically necessary.
    pub protocol_conservative: usize,
}

impl DisagreementReport {
    /// Rate of dangerous (optimistic) mispredictions.
    pub fn optimism_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.protocol_optimistic as f64 / self.total as f64
        }
    }

    /// Overall agreement rate.
    pub fn agreement_rate(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            (self.both_succeed + self.both_fail) as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InterferenceModel;
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    fn pts(v: &[(f64, f64)]) -> Vec<Point> {
        v.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn single_transmission_succeeds_over_noise() {
        let m = SinrModel::standard(2.0);
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0)]);
        let ok = m.successful(&positions, &[Transmission::new(0, 1)]);
        assert_eq!(ok, vec![true]);
    }

    #[test]
    fn noise_alone_can_kill_a_long_link() {
        let mut m = SinrModel::standard(2.0);
        m.noise = 0.5; // heavy noise: SINR = (1/d²)/ (β·0.5)
        let positions = pts(&[(0.0, 0.0), (3.0, 0.0)]);
        let ok = m.successful(&positions, &[Transmission::new(0, 1)]);
        assert_eq!(ok, vec![false]);
    }

    #[test]
    fn nearby_interferer_kills() {
        let m = SinrModel::standard(2.0);
        // receiver 1 is as close to the other sender (2) as to its own.
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (2.0, 5.0)]);
        let ok = m.successful(
            &positions,
            &[Transmission::new(0, 1), Transmission::new(2, 3)],
        );
        assert!(!ok[0], "receiver 1 sees equal signal and interference");
    }

    #[test]
    fn far_interferer_harmless() {
        let m = SinrModel::standard(2.0);
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0), (100.0, 0.0), (101.0, 0.0)]);
        let ok = m.successful(
            &positions,
            &[Transmission::new(0, 1), Transmission::new(2, 3)],
        );
        assert_eq!(ok, vec![true, true]);
    }

    #[test]
    fn shared_node_always_fails() {
        let m = SinrModel::standard(2.0);
        let positions = pts(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]);
        let ok = m.successful(
            &positions,
            &[Transmission::new(0, 1), Transmission::new(0, 2)],
        );
        assert_eq!(ok, vec![false, false]);
    }

    #[test]
    fn power_control_reduces_interference() {
        // Uniform power: a short link's sender blasts a distant receiver.
        // Minimum power: it whispers, and the distant link survives.
        // Short link sits right next to the long link's receiver.
        let positions = pts(&[
            (5.1, 0.0),
            (5.2, 0.0), // short link 0→1
            (2.5, 0.0),
            (4.5, 0.0), // long link 2→3
        ]);
        let batch = [Transmission::new(0, 1), Transmission::new(2, 3)];
        let uniform = SinrModel {
            kappa: 2.0,
            beta: 1.5,
            noise: 1e-9,
            power: PowerPolicy::Uniform(1.0),
        };
        let controlled = SinrModel {
            kappa: 2.0,
            beta: 1.5,
            noise: 1e-9,
            power: PowerPolicy::MinimumPlusMargin(10.0),
        };
        let u = uniform.successful(&positions, &batch);
        let c = controlled.successful(&positions, &batch);
        assert!(!u[1], "uniform power: loud neighbor kills the long link");
        assert!(c[1], "power control lets the long link through");
        assert!(c[0]);
    }

    #[test]
    fn protocol_model_is_mostly_conservative_with_margin() {
        // Random batches on random points: with a healthy guard zone the
        // protocol model should rarely be optimistic vs SINR.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let positions: Vec<Point> = (0..40)
            .map(|_| Point::new(rng.gen::<f64>() * 5.0, rng.gen::<f64>() * 5.0))
            .collect();
        let mut batches = Vec::new();
        for _ in 0..300 {
            let mut batch = Vec::new();
            for _ in 0..3 {
                let a = rng.gen_range(0..40u32);
                let mut b = rng.gen_range(0..39u32);
                if b >= a {
                    b += 1;
                }
                if positions[a as usize].dist(positions[b as usize]) < 1.0 {
                    batch.push(Transmission::new(a, b));
                }
            }
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        let sinr = SinrModel {
            kappa: 3.0,
            beta: 1.2,
            noise: 1e-6,
            power: PowerPolicy::MinimumPlusMargin(4.0),
        };
        let report =
            sinr.disagreement_with_protocol(&positions, &batches, InterferenceModel::new(1.5));
        assert!(report.total > 100);
        assert!(
            report.optimism_rate() < 0.1,
            "protocol model too optimistic: {report:?}"
        );
        assert!(report.agreement_rate() > 0.5, "{report:?}");
    }

    #[test]
    fn empty_batch() {
        let m = SinrModel::standard(2.0);
        assert!(m.successful(&[], &[]).is_empty());
        let rep = m.disagreement_with_protocol(&[], &[], InterferenceModel::new(0.5));
        assert_eq!(rep.total, 0);
        assert_eq!(rep.agreement_rate(), 1.0);
        assert_eq!(rep.optimism_rate(), 0.0);
    }
}
