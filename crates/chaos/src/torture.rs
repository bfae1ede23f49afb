//! Seeded fault-schedule generation for torture harnesses.
//!
//! A torture run arms a randomized-but-replayable set of failpoints against
//! a system under concurrent load, waits for the system to degrade, clears
//! the faults, and asserts full recovery. This module owns the *schedule*
//! half of that loop: given a seed and the list of sites the system
//! instruments, [`fault_plan`] derives a deterministic per-site
//! [`FailConfig`] mix (probabilities, error kinds, one-shot nth-hit spikes)
//! so five pinned seeds in CI cover meaningfully different fault shapes and
//! any failure replays from its seed alone.
//!
//! The harness that *applies* a plan lives with the system under test (the
//! durable layer's `torture.rs` integration tests) because this crate sits
//! below it in the dependency order.

use crate::failpoints::{FailConfig, Failpoints, Trigger};
use mc_counter::splitmix64;
use std::io;

/// The error kinds a generated plan draws from — the transient kinds the
/// retry layer must absorb plus plain `Other` (EIO), which is permanent and
/// must push a `Degrade`-policy counter into degraded mode.
const KINDS: [io::ErrorKind; 4] = [
    io::ErrorKind::Other,
    io::ErrorKind::StorageFull,
    io::ErrorKind::Interrupted,
    io::ErrorKind::WouldBlock,
];

/// Derives a deterministic fault plan: one [`FailConfig`] per site, with the
/// mix of triggers and error kinds a pure function of `seed`.
///
/// Roughly a third of sites get an `Nth`-hit spike (one-shot, fires once
/// then clears), the rest a persistent per-hit probability in `0.05..=0.45`
/// — high enough to exhaust small retry budgets sometimes, low enough that
/// progress is always eventually possible once the plan is cleared. Half of
/// all configs are additionally `partial`, so buffer-carrying sites (log
/// appends) cover torn mid-write faults, not just clean no-op failures;
/// non-buffered sites ignore the flag.
pub fn fault_plan(seed: u64, sites: &[&str]) -> Vec<(String, FailConfig)> {
    let mut rng = seed ^ 0xA55A_5AA5_D00D_F00D;
    sites
        .iter()
        .map(|site| {
            let kind = KINDS[(splitmix64(&mut rng) % KINDS.len() as u64) as usize];
            let roll = splitmix64(&mut rng);
            let partial = splitmix64(&mut rng).is_multiple_of(2);
            let config = if roll.is_multiple_of(3) {
                FailConfig {
                    trigger: Trigger::Nth(1 + splitmix64(&mut rng) % 8),
                    kind,
                    oneshot: true,
                    partial,
                }
            } else {
                let p = 0.05 + (splitmix64(&mut rng) % 41) as f64 / 100.0;
                FailConfig {
                    trigger: Trigger::Probability(p),
                    kind,
                    oneshot: false,
                    partial,
                }
            };
            (site.to_string(), config)
        })
        .collect()
}

/// Arms every entry of a plan on `fp`. Pair with [`Failpoints::clear`] to
/// end the outage phase of a torture run.
pub fn arm_plan(fp: &Failpoints, plan: &[(String, FailConfig)]) {
    for (site, config) in plan {
        fp.arm(site, config.clone());
    }
}

/// Renders a plan as a [`MC_CHAOS_FAILPOINTS`](crate::failpoints::FAILPOINTS_ENV)
/// spec string, so a harness can hand an in-process plan to a re-executed
/// child (the kill-9 crash harness) through the environment.
///
/// Probability triggers are rendered to two decimals — matching the
/// granularity [`fault_plan`] generates, so the round trip is exact.
pub fn plan_to_spec(plan: &[(String, FailConfig)]) -> String {
    plan.iter()
        .map(|(site, config)| {
            let trigger = match config.trigger {
                Trigger::Always => "always".to_string(),
                Trigger::Probability(p) => format!("p{p:.2}"),
                Trigger::Nth(n) => format!("nth{n}"),
            };
            let kind = match config.kind {
                io::ErrorKind::StorageFull => ":enospc",
                io::ErrorKind::Interrupted => ":eintr",
                io::ErrorKind::WouldBlock => ":eagain",
                io::ErrorKind::TimedOut => ":timedout",
                _ => ":eio",
            };
            let oneshot = if config.oneshot { ":oneshot" } else { "" };
            let partial = if config.partial { ":partial" } else { "" };
            format!("{site}={trigger}{kind}{oneshot}{partial}")
        })
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    const SITES: [&str; 4] = [
        "wal.append.write",
        "wal.flush.fsync",
        "snapshot.rename",
        "wal.open",
    ];

    #[test]
    fn plans_are_deterministic_per_seed() {
        assert_eq!(fault_plan(42, &SITES), fault_plan(42, &SITES));
        assert_ne!(fault_plan(42, &SITES), fault_plan(43, &SITES));
    }

    #[test]
    fn plans_cover_every_site() {
        let plan = fault_plan(7, &SITES);
        assert_eq!(plan.len(), SITES.len());
        for (i, site) in SITES.iter().enumerate() {
            assert_eq!(plan[i].0, *site);
        }
    }

    #[test]
    fn plan_round_trips_through_spec_grammar() {
        for seed in [1, 7, 42, 1729, 99991] {
            let plan = fault_plan(seed, &SITES);
            let spec = plan_to_spec(&plan);
            let fp = Failpoints::from_spec(seed, &spec)
                .unwrap_or_else(|e| panic!("seed {seed}: generated spec '{spec}' must parse: {e}"));
            assert!(fp.any_armed());
        }
    }

    #[test]
    fn arm_plan_arms_and_clear_disarms() {
        let fp = Failpoints::new(3);
        let plan = fault_plan(3, &SITES);
        arm_plan(&fp, &plan);
        assert!(fp.any_armed());
        fp.clear();
        assert!(!fp.any_armed());
    }

    #[test]
    fn probabilities_stay_in_recoverable_band() {
        for seed in 0..64 {
            for (_, config) in fault_plan(seed, &SITES) {
                if let Trigger::Probability(p) = config.trigger {
                    assert!((0.05..=0.46).contains(&p), "seed {seed}: p={p}");
                }
            }
        }
    }
}
