//! Named, seed-deterministic IO fault sites ("failpoints").
//!
//! A failpoint is a named hook compiled into a fallible code path — the
//! durability layer instruments every syscall surface it owns (log append,
//! fsync, truncate, open, snapshot create/write/rename) with sites like
//! `"wal.append.write"` or `"snapshot.rename"`. At runtime each site asks its
//! [`Failpoints`] registry whether to inject an error *instead of* performing
//! the real operation; an unarmed site costs one mutex-free atomic load.
//!
//! Faults are **deterministic**: probability draws come from a per-site
//! SplitMix64 stream seeded from the registry seed and the site name, so the
//! decision sequence at each site is a pure function of `(seed, site, hit
//! index)` — a failing torture run replays exactly with the same seed,
//! regardless of how other sites interleave.
//!
//! # Configuration grammar (`MC_CHAOS_FAILPOINTS`)
//!
//! A comma-separated list of `site=spec` entries; each spec is
//! colon-separated fields, order-insensitive after the trigger:
//!
//! ```text
//! MC_CHAOS_FAILPOINTS="wal.flush.fsync=p0.3:enospc,snapshot.rename=nth2:eio:oneshot"
//! ```
//!
//! * trigger (required, first field): `always`, `p<float>` (per-hit
//!   probability), or `nth<N>` (fires on the Nth hit, 1-based);
//! * error kind (optional): `eio` (default), `enospc`, `eintr`, `eagain`,
//!   `timedout`;
//! * `oneshot` (optional): disarm the site after its first injected fault
//!   (default: persistent — the site keeps evaluating its trigger);
//! * `partial` (optional): on buffer-carrying sites (log appends), perform
//!   a prefix of the operation before failing — a syscall torn mid-write
//!   (`write_all` stopping short on `ENOSPC`) rather than one that never
//!   started. Sites evaluated through [`Failpoints::hit`] treat it as a
//!   plain fault.
//!
//! The seed comes from `MC_CHAOS_SEED` (see
//! [`seed_from_env`](crate::seed_from_env)); the same two variables drive
//! CI's torture matrix and local replay.

use mc_counter::splitmix64;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// The environment variable holding the failpoint configuration parsed by
/// [`Failpoints::from_env`] (grammar in the module docs).
pub const FAILPOINTS_ENV: &str = "MC_CHAOS_FAILPOINTS";

/// When an armed site injects its fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every hit fails.
    Always,
    /// Each hit fails with this probability (0..=1), drawn from the site's
    /// seeded stream.
    Probability(f64),
    /// Exactly the Nth hit (1-based) fails; earlier and later hits pass
    /// (unless the site is persistent and re-armed).
    Nth(u64),
}

/// One site's fault configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FailConfig {
    /// When the site fires.
    pub trigger: Trigger,
    /// The `io::ErrorKind` of the injected error.
    pub kind: io::ErrorKind,
    /// Disarm after the first injected fault (`true`) or keep evaluating the
    /// trigger on every hit (`false`).
    pub oneshot: bool,
    /// On buffer-carrying sites (evaluated via
    /// [`Failpoints::hit_buffered`]), perform a deterministic prefix of the
    /// operation before failing — a torn mid-write fault instead of a clean
    /// no-op failure. Plain [`Failpoints::hit`] sites ignore this.
    pub partial: bool,
}

impl FailConfig {
    /// A persistent, always-firing fault of the given kind — the bluntest
    /// instrument, for "disk is gone" scenarios.
    pub fn always(kind: io::ErrorKind) -> Self {
        FailConfig {
            trigger: Trigger::Always,
            kind,
            oneshot: false,
            partial: false,
        }
    }

    /// A one-shot fault on the `nth` hit (1-based) — for "exactly one EINTR
    /// mid-protocol" scenarios.
    pub fn once_at(nth: u64, kind: io::ErrorKind) -> Self {
        FailConfig {
            trigger: Trigger::Nth(nth),
            kind,
            oneshot: true,
            partial: false,
        }
    }

    /// A persistent per-hit probability fault.
    pub fn with_probability(p: f64, kind: io::ErrorKind) -> Self {
        FailConfig {
            trigger: Trigger::Probability(p.clamp(0.0, 1.0)),
            kind,
            oneshot: false,
            partial: false,
        }
    }

    /// Makes this configuration one-shot: the site disarms itself after its
    /// first injection.
    pub fn oneshot(mut self) -> Self {
        self.oneshot = true;
        self
    }

    /// Makes this configuration partial: buffer-carrying sites perform a
    /// deterministic prefix of the operation before failing.
    pub fn partial(mut self) -> Self {
        self.partial = true;
        self
    }
}

/// The outcome of evaluating a buffer-carrying fault site via
/// [`Failpoints::hit_buffered`].
#[derive(Debug)]
pub enum BufInjection {
    /// The site passed: perform the real operation in full.
    Pass,
    /// Fail without performing any of the operation.
    Fail(io::Error),
    /// Perform the operation on exactly the first `prefix` bytes of the
    /// buffer, then return the error — a syscall torn mid-write.
    Partial {
        /// Bytes (1-based count, strictly less than the buffer length) to
        /// write before failing.
        prefix: usize,
        /// The injected error to return after the partial write.
        error: io::Error,
    },
}

/// Mutable per-site state: the armed config plus the site's private
/// deterministic stream and hit counters.
#[derive(Debug)]
struct SiteState {
    config: Option<FailConfig>,
    /// SplitMix64 state for probability draws, seeded from `(registry seed,
    /// site name)` so the draw sequence is schedule-independent per site.
    rng: u64,
    hits: u64,
    injected: u64,
}

/// A registry of named fault sites. Shareable (`Arc`) between the test
/// driver arming faults and the code under test hitting them.
///
/// The process-global instance ([`global`]) is configured from the
/// environment once; tests that need isolation construct their own registry
/// and hand it to the code under test (e.g. via
/// `mc_durable::DurableOptions::failpoints`).
#[derive(Debug)]
pub struct Failpoints {
    seed: u64,
    /// Number of armed sites; zero makes [`hit`](Self::hit) a single relaxed
    /// load — the cost of compiled-in-but-unused instrumentation.
    armed: AtomicUsize,
    sites: Mutex<HashMap<String, SiteState>>,
    /// Total faults injected across all sites (cheap aggregate for tests).
    total_injected: AtomicU64,
}

fn site_seed(seed: u64, site: &str) -> u64 {
    // FNV-1a over the site name, mixed with the registry seed: distinct
    // sites get decorrelated streams under the same seed.
    let mut h: u64 = 0xcbf29ce484222325;
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h ^ seed
}

impl Failpoints {
    /// An empty registry with the given seed: every site passes until armed.
    pub fn new(seed: u64) -> Self {
        Failpoints {
            seed,
            armed: AtomicUsize::new(0),
            sites: Mutex::new(HashMap::new()),
            total_injected: AtomicU64::new(0),
        }
    }

    /// A registry that never injects (seed 0, nothing armed).
    pub fn disabled() -> Arc<Self> {
        Arc::new(Self::new(0))
    }

    /// Parses [`FAILPOINTS_ENV`] (seeded from `MC_CHAOS_SEED`) into a
    /// registry. An unset or empty variable yields an inert registry; a
    /// malformed entry panics with the offending fragment, since silently
    /// ignoring a typo'd fault spec would un-test exactly what the run was
    /// meant to test.
    pub fn from_env() -> Self {
        let seed = crate::seed_from_env(0);
        match std::env::var(FAILPOINTS_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Self::from_spec(seed, &spec)
                .unwrap_or_else(|e| panic!("invalid {FAILPOINTS_ENV}: {e}")),
            _ => Self::new(seed),
        }
    }

    /// Parses a configuration string (the [`FAILPOINTS_ENV`] grammar) into a
    /// registry with the given seed.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry.
    pub fn from_spec(seed: u64, spec: &str) -> Result<Self, String> {
        let fp = Self::new(seed);
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (site, cfg) = entry
                .split_once('=')
                .ok_or_else(|| format!("clause '{entry}': expected site=spec"))?;
            let site = site.trim();
            if site.is_empty() {
                return Err(format!("clause '{entry}': empty site name"));
            }
            fp.arm(site, parse_spec(site, cfg.trim())?);
        }
        Ok(fp)
    }

    /// Arms `site` with `config` (replacing any previous config; counters
    /// continue).
    pub fn arm(&self, site: &str, config: FailConfig) {
        let mut sites = lock_sites(&self.sites);
        let state = sites.entry(site.to_string()).or_insert_with(|| SiteState {
            config: None,
            rng: site_seed(self.seed, site),
            hits: 0,
            injected: 0,
        });
        if state.config.is_none() {
            self.armed.fetch_add(1, Relaxed);
        }
        state.config = Some(config);
    }

    /// Disarms `site` (its hit/injection counters survive for inspection).
    pub fn disarm(&self, site: &str) {
        let mut sites = lock_sites(&self.sites);
        if let Some(state) = sites.get_mut(site) {
            if state.config.take().is_some() {
                self.armed.fetch_sub(1, Relaxed);
            }
        }
    }

    /// Disarms every site.
    pub fn clear(&self) {
        let mut sites = lock_sites(&self.sites);
        for state in sites.values_mut() {
            if state.config.take().is_some() {
                self.armed.fetch_sub(1, Relaxed);
            }
        }
    }

    /// The instrumentation hook: evaluates `site` and returns the injected
    /// error if the site fires, `Ok(())` otherwise. With nothing armed this
    /// is one relaxed atomic load.
    pub fn hit(&self, site: &str) -> io::Result<()> {
        match self.hit_buffered(site, 0) {
            BufInjection::Pass => Ok(()),
            BufInjection::Fail(e) | BufInjection::Partial { error: e, .. } => Err(e),
        }
    }

    /// [`hit`](Self::hit) for buffer-carrying operations (`len` bytes about
    /// to be written): a firing site whose config is
    /// [`partial`](FailConfig::partial) asks the caller to perform the
    /// operation on a deterministic nonzero prefix of the buffer before
    /// failing — the torn mid-write shape a real `write_all` leaves when a
    /// disk fills partway through. The prefix draw comes from the site's
    /// seeded stream, so it replays with the schedule.
    pub fn hit_buffered(&self, site: &str, len: usize) -> BufInjection {
        if self.armed.load(Relaxed) == 0 {
            return BufInjection::Pass;
        }
        let mut sites = lock_sites(&self.sites);
        let Some(state) = sites.get_mut(site) else {
            return BufInjection::Pass;
        };
        let Some(config) = state.config.clone() else {
            return BufInjection::Pass;
        };
        state.hits += 1;
        let fires = match config.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => state.hits == n,
            Trigger::Probability(p) => {
                let draw = splitmix64(&mut state.rng);
                ((draw >> 11) as f64 / (1u64 << 53) as f64) < p
            }
        };
        if !fires {
            return BufInjection::Pass;
        }
        state.injected += 1;
        self.total_injected.fetch_add(1, Relaxed);
        // A torn write needs at least one byte written and one withheld.
        let prefix = (config.partial && len > 1)
            .then(|| 1 + (splitmix64(&mut state.rng) % (len as u64 - 1)) as usize);
        if config.oneshot {
            state.config = None;
            self.armed.fetch_sub(1, Relaxed);
        }
        let detail = match prefix {
            Some(p) => format!(" after {p}-byte partial write"),
            None => String::new(),
        };
        let error = io::Error::new(
            config.kind,
            format!(
                "chaos failpoint '{site}' injected {:?}{detail}",
                config.kind
            ),
        );
        match prefix {
            Some(prefix) => BufInjection::Partial { prefix, error },
            None => BufInjection::Fail(error),
        }
    }

    /// How many times `site` has been evaluated while registered (armed hits
    /// only; sites never armed report 0).
    pub fn hits(&self, site: &str) -> u64 {
        lock_sites(&self.sites).get(site).map_or(0, |s| s.hits)
    }

    /// How many faults `site` has injected.
    pub fn injected(&self, site: &str) -> u64 {
        lock_sites(&self.sites).get(site).map_or(0, |s| s.injected)
    }

    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.total_injected.load(Relaxed)
    }

    /// Whether any site is currently armed.
    pub fn any_armed(&self) -> bool {
        self.armed.load(Relaxed) > 0
    }

    /// The registry seed (for replay lines in test output).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// A panicking site holder must not cascade: the registry's data is a plain
/// map of counters, valid at every step, so recover the guard.
fn lock_sites(
    m: &Mutex<HashMap<String, SiteState>>,
) -> std::sync::MutexGuard<'_, HashMap<String, SiteState>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Parses one clause's `spec` half. `site` is the clause's site name, so
/// every error names both the offending token and the site it rode in on —
/// in a CI matrix arming a dozen sites, "bad probability" without the site
/// is a needle hunt.
fn parse_spec(site: &str, spec: &str) -> Result<FailConfig, String> {
    let err = |token: &str, what: &str| format!("failpoint '{site}': {what} in token '{token}'");
    let mut fields = spec.split(':');
    let trigger_str = fields
        .next()
        .filter(|s| !s.is_empty())
        .ok_or_else(|| format!("failpoint '{site}': empty spec"))?;
    let trigger = if trigger_str == "always" {
        Trigger::Always
    } else if let Some(p) = trigger_str.strip_prefix('p') {
        let p: f64 = p.parse().map_err(|_| err(trigger_str, "bad probability"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(err(trigger_str, "probability outside 0..=1"));
        }
        Trigger::Probability(p)
    } else if let Some(n) = trigger_str.strip_prefix("nth") {
        let n: u64 = n.parse().map_err(|_| err(trigger_str, "bad hit index"))?;
        if n == 0 {
            return Err(err(trigger_str, "hit index is 1-based"));
        }
        Trigger::Nth(n)
    } else {
        return Err(err(trigger_str, "expected always, p<float>, or nth<N>"));
    };
    let mut kind = io::ErrorKind::Other;
    let mut oneshot = false;
    let mut partial = false;
    for field in fields {
        match field {
            "eio" => kind = io::ErrorKind::Other,
            "enospc" => kind = io::ErrorKind::StorageFull,
            "eintr" => kind = io::ErrorKind::Interrupted,
            "eagain" => kind = io::ErrorKind::WouldBlock,
            "timedout" => kind = io::ErrorKind::TimedOut,
            "oneshot" => oneshot = true,
            "partial" => partial = true,
            other => return Err(err(
                other,
                "unknown field (expected eio, enospc, eintr, eagain, timedout, oneshot, or partial)",
            )),
        }
    }
    Ok(FailConfig {
        trigger,
        kind,
        oneshot,
        partial,
    })
}

/// The process-global registry, parsed from [`FAILPOINTS_ENV`] +
/// `MC_CHAOS_SEED` on first use. This is how environment-driven runs (CI
/// matrices, re-executed crash-harness children) arm faults without touching
/// call sites; in-process tests should prefer a private registry.
pub fn global() -> &'static Arc<Failpoints> {
    static GLOBAL: OnceLock<Arc<Failpoints>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Failpoints::from_env()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_pass() {
        let fp = Failpoints::new(1);
        assert!(fp.hit("wal.append.write").is_ok());
        assert!(!fp.any_armed());
        assert_eq!(fp.total_injected(), 0);
    }

    #[test]
    fn always_fires_every_hit_with_configured_kind() {
        let fp = Failpoints::new(1);
        fp.arm("x", FailConfig::always(io::ErrorKind::StorageFull));
        for _ in 0..3 {
            let e = fp.hit("x").unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        }
        assert_eq!(fp.injected("x"), 3);
        assert_eq!(fp.hits("x"), 3);
    }

    #[test]
    fn nth_fires_exactly_once_on_the_nth_hit() {
        let fp = Failpoints::new(1);
        fp.arm("x", FailConfig::once_at(3, io::ErrorKind::Interrupted));
        assert!(fp.hit("x").is_ok());
        assert!(fp.hit("x").is_ok());
        assert_eq!(fp.hit("x").unwrap_err().kind(), io::ErrorKind::Interrupted);
        // One-shot: disarmed after firing.
        assert!(fp.hit("x").is_ok());
        assert!(!fp.any_armed());
    }

    #[test]
    fn persistent_nth_fires_only_nth_but_stays_armed() {
        let fp = Failpoints::new(1);
        fp.arm(
            "x",
            FailConfig {
                trigger: Trigger::Nth(2),
                kind: io::ErrorKind::Other,
                oneshot: false,
                partial: false,
            },
        );
        assert!(fp.hit("x").is_ok());
        assert!(fp.hit("x").is_err());
        assert!(fp.hit("x").is_ok());
        assert!(fp.any_armed());
    }

    #[test]
    fn probability_stream_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let fp = Failpoints::new(seed);
            fp.arm("x", FailConfig::with_probability(0.5, io::ErrorKind::Other));
            (0..64).map(|_| fp.hit("x").is_err()).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same decisions");
        assert_ne!(run(42), run(43), "different seed, different decisions");
        let fired = run(42).iter().filter(|b| **b).count();
        assert!((10..=54).contains(&fired), "p=0.5 of 64: got {fired}");
    }

    #[test]
    fn sites_draw_from_decorrelated_streams() {
        let fp = Failpoints::new(7);
        fp.arm("a", FailConfig::with_probability(0.5, io::ErrorKind::Other));
        fp.arm("b", FailConfig::with_probability(0.5, io::ErrorKind::Other));
        let a: Vec<bool> = (0..64).map(|_| fp.hit("a").is_err()).collect();
        let b: Vec<bool> = (0..64).map(|_| fp.hit("b").is_err()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn spec_grammar_round_trips() {
        let fp = Failpoints::from_spec(
            9,
            "wal.flush.fsync=p0.25:enospc, snapshot.rename=nth2:eio:oneshot ,x=always:eintr",
        )
        .unwrap();
        assert!(fp.any_armed());
        // nth2 one-shot: second hit fails, then disarmed.
        assert!(fp.hit("snapshot.rename").is_ok());
        assert!(fp.hit("snapshot.rename").is_err());
        assert!(fp.hit("snapshot.rename").is_ok());
        assert_eq!(fp.hit("x").unwrap_err().kind(), io::ErrorKind::Interrupted);
    }

    #[test]
    fn partial_configs_ask_for_a_strict_nonzero_prefix() {
        let fp = Failpoints::new(11);
        fp.arm(
            "x",
            FailConfig::always(io::ErrorKind::StorageFull).partial(),
        );
        for len in [2usize, 3, 64, 4096] {
            match fp.hit_buffered("x", len) {
                BufInjection::Partial { prefix, error } => {
                    assert!((1..len).contains(&prefix), "len {len}: prefix {prefix}");
                    assert_eq!(error.kind(), io::ErrorKind::StorageFull);
                }
                other => panic!("len {len}: expected Partial, got {other:?}"),
            }
        }
        // A buffer too small to tear degenerates to a clean failure.
        for len in [0usize, 1] {
            assert!(matches!(fp.hit_buffered("x", len), BufInjection::Fail(_)));
        }
        // Plain hit() treats the same config as a clean failure.
        assert!(fp.hit("x").is_err());
    }

    #[test]
    fn partial_prefix_draws_replay_per_seed() {
        let run = |seed: u64| -> Vec<usize> {
            let fp = Failpoints::new(seed);
            fp.arm("x", FailConfig::always(io::ErrorKind::Other).partial());
            (0..16)
                .map(|_| match fp.hit_buffered("x", 1000) {
                    BufInjection::Partial { prefix, .. } => prefix,
                    other => panic!("expected Partial, got {other:?}"),
                })
                .collect()
        };
        assert_eq!(run(5), run(5), "same seed, same prefixes");
        assert_ne!(run(5), run(6), "different seed, different prefixes");
    }

    #[test]
    fn partial_spec_field_parses_and_oneshot_disarms_after_partial() {
        let fp = Failpoints::from_spec(3, "wal.append.write=nth1:enospc:oneshot:partial").unwrap();
        match fp.hit_buffered("wal.append.write", 100) {
            BufInjection::Partial { error, .. } => {
                assert_eq!(error.kind(), io::ErrorKind::StorageFull)
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert!(!fp.any_armed(), "oneshot must disarm after the partial");
        assert!(matches!(
            fp.hit_buffered("wal.append.write", 100),
            BufInjection::Pass
        ));
    }

    /// Asserts `spec` is rejected and that the error names every expected
    /// fragment — the offending token and its site.
    fn assert_rejected_with(spec: &str, fragments: &[&str]) {
        let err = Failpoints::from_spec(0, spec).unwrap_err();
        for fragment in fragments {
            assert!(
                err.contains(fragment),
                "error for {spec:?} must name {fragment:?}, got: {err}"
            );
        }
    }

    #[test]
    fn clause_without_equals_is_rejected_naming_the_clause() {
        assert_rejected_with("no-equals", &["'no-equals'", "expected site=spec"]);
    }

    #[test]
    fn clause_with_empty_site_is_rejected() {
        assert_rejected_with("=always:eio", &["'=always:eio'", "empty site name"]);
    }

    #[test]
    fn empty_spec_is_rejected_naming_the_site() {
        assert_rejected_with("wal.fsync=", &["failpoint 'wal.fsync'", "empty spec"]);
    }

    #[test]
    fn bad_probability_is_rejected_naming_token_and_site() {
        assert_rejected_with("x=pten", &["failpoint 'x'", "'pten'", "bad probability"]);
    }

    #[test]
    fn out_of_range_probability_is_rejected_naming_token_and_site() {
        assert_rejected_with(
            "wal.append.write=p1.5",
            &["failpoint 'wal.append.write'", "'p1.5'", "outside 0..=1"],
        );
    }

    #[test]
    fn bad_hit_index_is_rejected_naming_token_and_site() {
        assert_rejected_with("x=nthX", &["failpoint 'x'", "'nthX'", "bad hit index"]);
    }

    #[test]
    fn zero_hit_index_is_rejected_naming_token_and_site() {
        assert_rejected_with("x=nth0", &["failpoint 'x'", "'nth0'", "1-based"]);
    }

    #[test]
    fn unknown_trigger_is_rejected_naming_token_and_site() {
        assert_rejected_with(
            "x=maybe",
            &[
                "failpoint 'x'",
                "'maybe'",
                "expected always, p<float>, or nth<N>",
            ],
        );
    }

    #[test]
    fn unknown_field_is_rejected_naming_token_and_site() {
        assert_rejected_with(
            "snapshot.rename=always:ebadness",
            &["failpoint 'snapshot.rename'", "'ebadness'", "unknown field"],
        );
    }

    #[test]
    fn error_names_the_failing_site_even_in_a_multi_clause_spec() {
        // The first clause is fine; the error must point at the second.
        assert_rejected_with("a=always:eio,b=nth0:enospc", &["failpoint 'b'", "'nth0'"]);
    }

    #[test]
    fn disarm_and_clear_restore_the_fast_path() {
        let fp = Failpoints::new(1);
        fp.arm("a", FailConfig::always(io::ErrorKind::Other));
        fp.arm("b", FailConfig::always(io::ErrorKind::Other));
        fp.disarm("a");
        assert!(fp.hit("a").is_ok());
        assert!(fp.hit("b").is_err());
        fp.clear();
        assert!(fp.hit("b").is_ok());
        assert!(!fp.any_armed());
        // Counters survive disarming.
        assert_eq!(fp.injected("b"), 1);
    }
}
