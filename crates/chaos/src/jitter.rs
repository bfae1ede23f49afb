//! The seeded jitter source.

use mc_counter::{splitmix64, SPLITMIX64_GAMMA};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning for a [`Chaos`] source.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Probability (0..=1) that a perturbation point yields the scheduler.
    pub yield_probability: f64,
    /// Maximum busy-spin iterations injected at a perturbation point.
    pub max_spin: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            yield_probability: 0.5,
            max_spin: 200,
        }
    }
}

/// A seeded source of scheduling jitter, shareable across threads.
///
/// The internal state is a SplitMix64 sequence advanced atomically; the
/// *sequence* of decisions is a pure function of the seed, while which thread
/// draws which decision depends on the schedule — exactly the property a
/// perturbation harness wants (seeded variety, no artificial determinism).
#[derive(Debug)]
pub struct Chaos {
    state: AtomicU64,
    config: ChaosConfig,
}

impl Chaos {
    /// Creates a jitter source from a seed with default tuning.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, ChaosConfig::default())
    }

    /// Creates a jitter source with explicit tuning.
    pub fn with_config(seed: u64, config: ChaosConfig) -> Self {
        Chaos {
            state: AtomicU64::new(seed),
            config,
        }
    }

    /// Draws the next pseudo-random word: each draw claims one step of the
    /// SplitMix64 stream atomically.
    fn next(&self) -> u64 {
        let mut state = self.state.fetch_add(SPLITMIX64_GAMMA, Ordering::Relaxed);
        splitmix64(&mut state)
    }

    /// A perturbation point: maybe yields the scheduler, maybe burns a few
    /// cycles, based on the seeded stream. Cheap enough to sprinkle on every
    /// synchronization operation.
    pub fn point(&self) {
        let word = self.next();
        let yield_cut = (self.config.yield_probability * u32::MAX as f64) as u32;
        if (word as u32) < yield_cut {
            std::thread::yield_now();
        }
        if self.config.max_spin > 0 {
            let spins = (word >> 32) as u32 % self.config.max_spin;
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
    }
}

/// The chaos seed from the `MC_CHAOS_SEED` environment variable, or
/// `default` when the variable is unset or unparsable.
///
/// CI's fault matrix pins this variable so every job explores a distinct —
/// but reproducible — slice of the schedule space; a failing run's seed can
/// be replayed locally with `MC_CHAOS_SEED=<seed> cargo test ...`.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("MC_CHAOS_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn default_config_is_sane() {
        let c = ChaosConfig::default();
        assert!((0.0..=1.0).contains(&c.yield_probability));
    }

    #[test]
    fn point_terminates_quickly() {
        let chaos = Chaos::new(7);
        let t0 = std::time::Instant::now();
        for _ in 0..10_000 {
            chaos.point();
        }
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
    }

    #[test]
    fn stream_is_seed_dependent() {
        let a = Chaos::new(1);
        let b = Chaos::new(2);
        let wa: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let wb: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_ne!(wa, wb);
    }

    #[test]
    fn shared_across_threads() {
        let chaos = Arc::new(Chaos::new(3));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let chaos = Arc::clone(&chaos);
                s.spawn(move || {
                    for _ in 0..100 {
                        chaos.point();
                    }
                });
            }
        });
    }

    #[test]
    fn zero_spin_config() {
        let chaos = Chaos::with_config(
            0,
            ChaosConfig {
                yield_probability: 0.0,
                max_spin: 0,
            },
        );
        for _ in 0..100 {
            chaos.point(); // must not divide by zero
        }
    }
}
