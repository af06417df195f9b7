//! Link fault models: loss, delay, duplication, reordering.
//!
//! Every transmission passes through [`FaultConfig::transmit`], which
//! consults its random source in a fixed order. The runtime hands it a
//! fresh `Draws` stream per transmission, keyed by the run seed, the
//! sender and the event number the transmission took from the sender's
//! counter — so an identical seed reproduces the identical fault
//! pattern, event for event, and no link keeps any state. Random
//! per-copy delays provide reordering for free: two messages sent
//! back-to-back on the same link may arrive swapped whenever the delay
//! distribution has positive width.

use rand::{Rng, RngCore};

/// The SplitMix64 increment (the golden ratio in 64 bits).
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 step: add [`GAMMA`], then finalize — a cheap, well-mixed
/// 64-bit permutation.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The fault draws of one transmission: a SplitMix64 stream whose start
/// is a hash of `(seed, node, seq)`, where `seq` is the event number the
/// transmission took from the sending node's counter. This is the
/// counter-based idea of Salmon et al., "Parallel Random Numbers: As Easy
/// as 1, 2, 3" (SC'11): a transmission's fate is a pure function of who
/// sent it and when in the sender's own event order, so neither links
/// nor other nodes' traffic can shift it.
#[derive(Debug)]
pub(crate) struct Draws(u64);

impl Draws {
    pub(crate) fn new(seed: u64, node: u32, seq: u64) -> Self {
        Draws(splitmix64(
            splitmix64(seed ^ splitmix64(u64::from(node))) ^ seq,
        ))
    }
}

impl RngCore for Draws {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let x = splitmix64(self.0);
        self.0 = self.0.wrapping_add(GAMMA);
        x
    }
}

/// Per-copy delivery latency distribution, in virtual ticks. Sampled
/// delays are clamped to ≥ 1 so a message never arrives in the tick it
/// was sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayDist {
    /// Every copy takes exactly this many ticks.
    Fixed(u64),
    /// Uniform in `[min, max]` (inclusive); `max ≥ min` required.
    Uniform {
        /// Minimum latency.
        min: u64,
        /// Maximum latency.
        max: u64,
    },
}

impl DelayDist {
    /// Sample one latency (always ≥ 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            DelayDist::Fixed(d) => d.max(1),
            DelayDist::Uniform { min, max } => {
                assert!(max >= min, "DelayDist::Uniform requires max ≥ min");
                // Clamp the *bounds* before sampling: drawing from
                // `min..=max` and then flooring at 1 would silently pile
                // the probability mass of every sub-1 value onto delay 1,
                // skewing the distribution (e.g. `min: 0` doubles it).
                let lo = min.max(1);
                rng.gen_range(lo..=max.max(lo))
            }
        }
    }

    /// Largest latency this distribution can produce.
    pub fn max_delay(&self) -> u64 {
        match *self {
            DelayDist::Fixed(d) => d.max(1),
            DelayDist::Uniform { max, .. } => max.max(1),
        }
    }

    /// Smallest latency this distribution can produce (always ≥ 1 — the
    /// event loop's conservative lookahead).
    pub fn min_delay(&self) -> u64 {
        match *self {
            DelayDist::Fixed(d) => d.max(1),
            DelayDist::Uniform { min, .. } => min.max(1),
        }
    }
}

/// Fault model applied independently to every link-level transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a transmission is silently lost.
    pub drop_prob: f64,
    /// Probability a *delivered* transmission arrives twice (with
    /// independently sampled delays).
    pub duplicate_prob: f64,
    /// Latency distribution of each delivered copy.
    pub delay: DelayDist,
}

impl Default for FaultConfig {
    /// The ideal network: no loss, no duplication, unit latency.
    fn default() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay: DelayDist::Fixed(1),
        }
    }
}

impl FaultConfig {
    /// Ideal lossless unit-latency links.
    pub fn ideal() -> Self {
        Self::default()
    }

    /// Lossy links: drop probability `p`, unit latency, no duplication.
    pub fn lossy(p: f64) -> Self {
        FaultConfig {
            drop_prob: p,
            ..Self::default()
        }
    }

    /// Validate probabilities; panics on values outside `[0, 1]`.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.drop_prob),
            "drop_prob must be in [0,1], got {}",
            self.drop_prob
        );
        assert!(
            (0.0..=1.0).contains(&self.duplicate_prob),
            "duplicate_prob must be in [0,1], got {}",
            self.duplicate_prob
        );
    }

    /// Decide the fate of one transmission: the arrival delays of each
    /// delivered copy (empty = dropped, two entries = duplicated). RNG
    /// consumption order is fixed: drop coin, then delay, then duplicate
    /// coin, then the duplicate's delay.
    pub fn transmit<R: Rng + ?Sized>(&self, rng: &mut R) -> TransmitOutcome {
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
            return TransmitOutcome::Dropped;
        }
        let first = self.delay.sample(rng);
        if self.duplicate_prob > 0.0 && rng.gen_bool(self.duplicate_prob) {
            let second = self.delay.sample(rng);
            TransmitOutcome::Duplicated(first, second)
        } else {
            TransmitOutcome::Delivered(first)
        }
    }

    /// Largest per-copy latency the model can produce (for sizing round
    /// deadlines).
    pub fn max_delay(&self) -> u64 {
        self.delay.max_delay()
    }

    /// Smallest per-copy latency the model can produce — the event
    /// loop's lookahead window: no message sent in epoch `k` can
    /// arrive before epoch `k + 1`.
    pub fn min_delay(&self) -> u64 {
        self.delay.min_delay()
    }
}

/// Fate of a single transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// Lost; nothing arrives.
    Dropped,
    /// One copy arrives after the given delay.
    Delivered(u64),
    /// Two copies arrive, after each delay respectively.
    Duplicated(u64, u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ideal_always_delivers_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let f = FaultConfig::ideal();
        for _ in 0..100 {
            assert_eq!(f.transmit(&mut rng), TransmitOutcome::Delivered(1));
        }
    }

    /// A fresh [`Draws`] for the `i`-th of a run of transmissions, as
    /// `Shard::transmit_link` makes one: 1 000 senders, each transmission
    /// two event numbers after its sender's previous one.
    fn fresh_draws(seed: u64, i: u32) -> Draws {
        Draws::new(seed, i % 1000, u64::from(i / 1000) * 2)
    }

    /// The share of `n` transmissions that `transmit(i)` drops.
    fn drop_rate(n: u32, mut transmit: impl FnMut(u32) -> TransmitOutcome) -> f64 {
        let dropped = (0..n)
            .filter(|&i| transmit(i) == TransmitOutcome::Dropped)
            .count();
        dropped as f64 / f64::from(n)
    }

    /// The drop rate is nominal on one ChaCha8 stream and on a fresh
    /// [`Draws`] per transmission.
    #[test]
    fn drop_rate_close_to_nominal() {
        let f = FaultConfig::lossy(0.3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let chacha = drop_rate(20_000, |_| f.transmit(&mut rng));
        let draws = drop_rate(20_000, |i| f.transmit(&mut fresh_draws(2, i)));
        for rate in [chacha, draws] {
            assert!((rate - 0.3).abs() < 0.02, "observed drop rate {rate}");
        }
    }

    #[test]
    fn duplication_produces_two_copies() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let f = FaultConfig {
            duplicate_prob: 1.0,
            ..FaultConfig::ideal()
        };
        assert!(matches!(
            f.transmit(&mut rng),
            TransmitOutcome::Duplicated(_, _)
        ));
    }

    /// Draw 50 000 delays from `Uniform { min: 0, max: 5 }` with
    /// `sample(d, i)` and check each of 1..=5 takes a 1/5 share.
    fn assert_uniform_1_to_5(mut sample: impl FnMut(&DelayDist, u32) -> u64) {
        let d = DelayDist::Uniform { min: 0, max: 5 };
        let n = 50_000u32;
        let mut counts = [0u32; 6];
        for i in 0..n {
            let s = sample(&d, i);
            assert!((1..=5).contains(&s));
            counts[s as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        for (v, &c) in counts.iter().enumerate().skip(1) {
            let freq = f64::from(c) / f64::from(n);
            assert!(
                (freq - 0.2).abs() < 0.01,
                "delay {v} frequency {freq}, expected ≈ 0.2"
            );
        }
    }

    /// Frequency test, on one ChaCha8 stream and on a fresh [`Draws`] per
    /// sample: `min: 0` must *not* double the mass on delay 1 (the old
    /// `gen_range(0..=max).max(1)` bug gave delay 1 a 2/6 share instead
    /// of 1/5).
    #[test]
    fn uniform_delay_in_bounds_and_positive() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert_uniform_1_to_5(|d, _| d.sample(&mut rng));
        assert_uniform_1_to_5(|d, i| d.sample(&mut fresh_draws(4, i)));
        assert_eq!(DelayDist::Fixed(0).sample(&mut rng), 1);
        // Degenerate all-sub-1 ranges still produce the clamped value.
        assert_eq!(DelayDist::Uniform { min: 0, max: 0 }.sample(&mut rng), 1);
    }

    #[test]
    fn same_seed_same_fates() {
        let f = FaultConfig {
            drop_prob: 0.2,
            duplicate_prob: 0.1,
            delay: DelayDist::Uniform { min: 1, max: 4 },
        };
        let run = || {
            let mut rng = ChaCha8Rng::seed_from_u64(9);
            (0..500).map(|_| f.transmit(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn bad_probability_rejected() {
        FaultConfig::lossy(1.5).validate();
    }
}
