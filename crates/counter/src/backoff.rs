//! The seeded SplitMix64 stream and the jittered exponential backoff that
//! chaos schedules, WAL retries and supervision-tree restarts share.

use std::time::Duration;

/// SplitMix64's state increment (the golden-ratio constant).
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Advances the SplitMix64 stream in `state` by one step and returns the
/// next word. A seed is any starting state; the same seed replays the same
/// words.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The delay before retry `attempt` (0-based), without jitter:
/// `min(max_delay, base_delay << attempt)`.
pub fn backoff(base_delay: Duration, max_delay: Duration, attempt: u32) -> Duration {
    let shifted = base_delay
        .checked_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
        .unwrap_or(max_delay);
    shifted.min(max_delay)
}

/// `delay` jittered into `[delay/2, delay]` by one draw from `state`'s
/// stream: half the delay is a deterministic floor and the stream scales
/// the rest. A zero delay stays zero and draws nothing.
pub fn jitter(state: &mut u64, delay: Duration) -> Duration {
    if delay.is_zero() {
        return delay;
    }
    let half = delay / 2;
    let frac = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    half + Duration::from_secs_f64(half.as_secs_f64() * frac)
}
