//! Source lint: the counter-discipline crates must synchronize through
//! monotonic counters, not through raw primitives.
//!
//! The paper's claim is that counters *replace* locks and condition
//! variables; an `std::sync::Mutex` creeping into these crates would
//! quietly undermine the reproduction (and hide from the static verifier,
//! which only models counter operations). Two tiers:
//!
//! * **Counter-only crates** (`mc-algos`, `mc-patterns`): no locks *and* no
//!   non-`Relaxed` atomic orderings — the counters provide all ordering.
//! * **Infrastructure crates** (`mc-durable`, `mc-sthreads`): no locks or
//!   condition variables at all. Stronger atomic orderings are legitimate
//!   here (the WAL flusher and watchdog are below the counter
//!   abstraction), so only the lock tier applies.
//!
//! Deliberate exceptions carry a `lint:allow(raw-sync): <reason>` marker
//! on the same or the preceding line; `#[cfg(test)]` modules and doc
//! comments are exempt wholesale. The only ones left are in the
//! counter-only tier: the lock-based comparison baseline, the broadcast
//! claim flags and the retiring broadcast writer's `Release` store. No WAL
//! handoff-queue or capture-slot exception remains.

use std::fs;
use std::path::{Path, PathBuf};

/// Forbidden everywhere the lint looks: lock-based synchronization.
const FORBIDDEN_LOCKS: &[(&str, &str)] = &[
    ("Condvar", "condition variable"),
    ("Mutex", "mutex"),
    ("RwLock", "reader-writer lock"),
];

/// Additionally forbidden in the counter-only crates: orderings stronger
/// than `Relaxed`.
const FORBIDDEN_ORDERINGS: &[(&str, &str)] = &[
    ("Ordering::SeqCst", "non-Relaxed atomic ordering"),
    ("Ordering::Acquire", "non-Relaxed atomic ordering"),
    ("Ordering::Release", "non-Relaxed atomic ordering"),
    ("Ordering::AcqRel", "non-Relaxed atomic ordering"),
];

const ALLOW_MARKER: &str = "lint:allow(raw-sync)";

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Strip comments and `#[cfg(test)]` modules, preserving line numbers.
/// Returns (line_number, effective_text) pairs for lintable lines.
fn lintable_lines(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut cfg_test_pending = false;
    let mut test_mod_depth: Option<i32> = None;
    for (i, raw) in src.lines().enumerate() {
        let trimmed = raw.trim_start();
        // Inside a #[cfg(test)] module: only track braces until it closes.
        if let Some(depth) = &mut test_mod_depth {
            *depth += raw.matches('{').count() as i32;
            *depth -= raw.matches('}').count() as i32;
            if *depth <= 0 {
                test_mod_depth = None;
            }
            continue;
        }
        if trimmed.starts_with("#[cfg(test)]") {
            cfg_test_pending = true;
            continue;
        }
        if cfg_test_pending {
            if trimmed.starts_with("mod ") || trimmed.starts_with("pub mod ") {
                let depth = raw.matches('{').count() as i32 - raw.matches('}').count() as i32;
                if depth > 0 {
                    test_mod_depth = Some(depth);
                }
                cfg_test_pending = false;
                continue;
            }
            // Other attributes may sit between #[cfg(test)] and the item.
            if trimmed.starts_with("#[") {
                out.push((i + 1, raw.to_string()));
                continue;
            }
            cfg_test_pending = false;
        }
        // Drop comment-only lines (incl. doc comments and their examples)
        // and trailing comments.
        if trimmed.starts_with("//") {
            // Keep allow-markers visible to the checker below.
            if trimmed.contains(ALLOW_MARKER) {
                out.push((i + 1, raw.to_string()));
            }
            continue;
        }
        let code = match raw.find("//") {
            Some(pos) if !raw[..pos].contains('"') && !raw[pos..].contains(ALLOW_MARKER) => {
                &raw[..pos]
            }
            _ => raw,
        };
        out.push((i + 1, code.to_string()));
    }
    out
}

/// Lint every source file under `dirs` against `forbidden`, honoring
/// same-line and preceding-line allow markers. Returns rendered violations.
fn lint(root: &Path, dirs: &[&str], forbidden: &[(&str, &str)]) -> Vec<String> {
    let mut files = Vec::new();
    for crate_dir in dirs {
        rust_sources(&root.join(crate_dir), &mut files);
    }
    assert!(
        files.len() >= dirs.len() * 2,
        "lint should see every crate's sources"
    );

    let mut violations = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).expect("readable source file");
        let lines = lintable_lines(&src);
        for (idx, (lineno, text)) in lines.iter().enumerate() {
            let allowed = text.contains(ALLOW_MARKER)
                || idx.checked_sub(1).is_some_and(|p| {
                    lines[p].1.contains(ALLOW_MARKER) && lines[p].0 + 1 == *lineno
                });
            for (pat, what) in forbidden {
                if text.contains(pat) && !allowed {
                    violations.push(format!(
                        "{}:{}: {} (`{}`)\n    {}",
                        path.strip_prefix(root).unwrap_or(path).display(),
                        lineno,
                        what,
                        pat,
                        text.trim()
                    ));
                }
            }
        }
    }
    violations
}

#[test]
fn algos_and_patterns_use_counters_not_raw_sync() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let forbidden: Vec<_> = FORBIDDEN_LOCKS
        .iter()
        .chain(FORBIDDEN_ORDERINGS)
        .copied()
        .collect();
    let violations = lint(
        root,
        &["crates/algos/src", "crates/patterns/src"],
        &forbidden,
    );
    assert!(
        violations.is_empty(),
        "raw synchronization in counter-only crates — use monotonic counters, \
         or mark a deliberate exception with `{ALLOW_MARKER}: <reason>`:\n{}",
        violations.join("\n")
    );
}

#[test]
fn durable_and_sthreads_lock_only_in_sanctioned_cores() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let violations = lint(
        root,
        &["crates/durable/src", "crates/sthreads/src"],
        FORBIDDEN_LOCKS,
    );
    assert!(
        violations.is_empty(),
        "raw locks in an infrastructure crate — coordinate through counters \
         or write-once cells:\n{}",
        violations.join("\n")
    );
}

#[test]
fn sanctioned_sites_are_marked_not_unlimited() {
    // Neither tier may quietly grow: the exact count makes adding an
    // exception site a conscious, reviewed act.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let marked = |dirs: [&str; 2]| -> usize {
        let mut files = Vec::new();
        for crate_dir in dirs {
            rust_sources(&root.join(crate_dir), &mut files);
        }
        assert!(
            files.len() >= 4,
            "the count should see every crate's sources"
        );
        let read = |path| fs::read_to_string(path).expect("readable source file");
        files
            .iter()
            .map(|p| read(p).matches(ALLOW_MARKER).count())
            .sum()
    };
    assert_eq!(
        marked(["crates/durable/src", "crates/sthreads/src"]),
        0,
        "the infrastructure crates take no lock, so they need no exception"
    );
    // Three lock-baseline markers in accumulate.rs; in broadcast.rs two
    // claim-flag markers and the retiring writer's `Release` store.
    assert_eq!(marked(["crates/algos/src", "crates/patterns/src"]), 6);
}

#[test]
fn lint_catches_a_seeded_violation() {
    // The lint must actually fire: feed it a fabricated source and check
    // both detection and the two exemption routes.
    let src = "use std::sync::Mutex;\n\
               let m = Mutex::new(0); // lint:allow(raw-sync): test fixture\n\
               // lint:allow(raw-sync): next line is fine\n\
               let n = Mutex::new(1);\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   use std::sync::Condvar;\n\
               }\n";
    let lines = lintable_lines(src);
    let flagged: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(idx, (_, text))| {
            let allowed = text.contains(ALLOW_MARKER)
                || idx.checked_sub(1).is_some_and(|p| {
                    lines[p].1.contains(ALLOW_MARKER) && lines[p].0 + 1 == lines[*idx].0
                });
            !allowed && FORBIDDEN_LOCKS.iter().any(|(pat, _)| text.contains(pat))
        })
        .map(|(_, (lineno, _))| *lineno)
        .collect();
    assert_eq!(flagged, vec![1], "only the unmarked non-test Mutex fires");
}
