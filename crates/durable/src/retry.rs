//! Bounded retry with exponential backoff for transient WAL I/O failures.
//!
//! The durability layer's flusher thread sits between acked increments and
//! the disk; a single `EINTR` or momentary `ENOSPC` should not poison the
//! counter. [`RetryPolicy`] bounds how hard the flusher tries before giving
//! up and handing the error to the degrade machinery: attempts are capped,
//! each backoff doubles up to a ceiling, and jitter comes from a
//! deterministic SplitMix64 stream so chaos runs replay bit-identically
//! under `MC_CHAOS_SEED`.

use crate::wal::WalError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// How (and whether) transient WAL I/O errors are retried.
///
/// Only errors classified transient by [`WalError::is_transient`] are
/// retried; permanent errors surface immediately. The total added latency is
/// bounded by `max_retries * max_delay` (4 * 50ms = 200ms at the defaults),
/// keeping a stuck disk from stalling [`sync`](crate::DurableCounter::sync)
/// callers indefinitely before degraded mode takes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the initial attempt (default 4; 0 disables retry).
    pub max_retries: u32,
    /// Backoff before the first retry (default 1ms); doubles each retry.
    pub base_delay: Duration,
    /// Backoff ceiling (default 50ms).
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every error surfaces on first occurrence.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before retry `attempt` (0-based), without jitter:
    /// `min(max_delay, base_delay << attempt)` ([`mc_counter::backoff`]).
    fn backoff(&self, attempt: u32) -> Duration {
        mc_counter::backoff(self.base_delay, self.max_delay, attempt)
    }
}

/// Deterministic jitter source for retry backoff: a seeded
/// [`mc_counter::jitter`] stream, so a given seed reproduces the exact same
/// sleep schedule.
#[derive(Debug)]
pub(crate) struct JitterRng(u64);

impl JitterRng {
    pub(crate) fn new(seed: u64) -> Self {
        JitterRng(seed)
    }

    fn jitter(&mut self, delay: Duration) -> Duration {
        mc_counter::jitter(&mut self.0, delay)
    }
}

/// Runs `op` under `policy`, retrying transient failures with jittered
/// exponential backoff. Every retry increments `retries` (the counter behind
/// `StatsSnapshot::io_retries`). Returns the first permanent error, or the
/// last transient error once the retry budget is exhausted.
pub(crate) fn with_retry<T>(
    policy: &RetryPolicy,
    rng: &mut JitterRng,
    retries: &AtomicU64,
    mut op: impl FnMut() -> Result<T, WalError>,
) -> Result<T, WalError> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < policy.max_retries => {
                retries.fetch_add(1, Ordering::Relaxed);
                let delay = rng.jitter(policy.backoff(attempt));
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io;

    fn transient() -> WalError {
        io::Error::from(io::ErrorKind::Interrupted).into()
    }

    fn permanent() -> WalError {
        io::Error::from(io::ErrorKind::PermissionDenied).into()
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_micros(10),
            max_delay: Duration::from_micros(40),
        }
    }

    #[test]
    fn succeeds_after_transient_failures() {
        let retries = AtomicU64::new(0);
        let mut rng = JitterRng::new(1);
        let mut left = 2;
        let out = with_retry(&fast_policy(), &mut rng, &retries, || {
            if left > 0 {
                left -= 1;
                Err(transient())
            } else {
                Ok(42)
            }
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(retries.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn permanent_errors_surface_immediately() {
        let retries = AtomicU64::new(0);
        let mut rng = JitterRng::new(1);
        let mut calls = 0;
        let out: Result<(), _> = with_retry(&fast_policy(), &mut rng, &retries, || {
            calls += 1;
            Err(permanent())
        });
        assert!(!out.unwrap_err().is_transient());
        assert_eq!(calls, 1);
        assert_eq!(retries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn budget_exhaustion_returns_last_transient_error() {
        let retries = AtomicU64::new(0);
        let mut rng = JitterRng::new(1);
        let mut calls = 0;
        let out: Result<(), _> = with_retry(&fast_policy(), &mut rng, &retries, || {
            calls += 1;
            Err(transient())
        });
        assert!(out.unwrap_err().is_transient());
        // 1 initial attempt + 3 retries.
        assert_eq!(calls, 4);
        assert_eq!(retries.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn none_policy_never_retries() {
        let retries = AtomicU64::new(0);
        let mut rng = JitterRng::new(1);
        let mut calls = 0;
        let out: Result<(), _> = with_retry(&RetryPolicy::none(), &mut rng, &retries, || {
            calls += 1;
            Err(transient())
        });
        assert!(out.is_err());
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_caps_at_max_delay_and_jitter_is_deterministic() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), Duration::from_millis(1));
        assert_eq!(p.backoff(1), Duration::from_millis(2));
        assert_eq!(p.backoff(10), Duration::from_millis(50));
        assert_eq!(p.backoff(63), Duration::from_millis(50));

        let d = Duration::from_millis(10);
        let a: Vec<Duration> = {
            let mut r = JitterRng::new(99);
            (0..4).map(|_| r.jitter(d)).collect()
        };
        let b: Vec<Duration> = {
            let mut r = JitterRng::new(99);
            (0..4).map(|_| r.jitter(d)).collect()
        };
        assert_eq!(a, b);
        for j in &a {
            assert!(*j >= d / 2 && *j <= d, "jitter {j:?} outside [d/2, d]");
        }
    }
}
