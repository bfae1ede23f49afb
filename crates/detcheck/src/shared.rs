//! Instrumented shared variables.

use crate::checker::{RaceKind, RaceReport, ThreadCtx};
use crate::vclock::VectorClock;
use std::sync::Mutex;

struct Access {
    tid: usize,
    clock: VectorClock,
}

struct State<T> {
    value: T,
    last_write: Option<Access>,
    /// Most recent read per thread since the last write.
    reads: Vec<Access>,
}

/// A shared variable whose every access is checked against the
/// happens-before relation of the owning [`Checker`](crate::Checker)
/// session.
///
/// The checker serializes accesses physically (each access takes an internal
/// lock), so the *data* can never be corrupted; what is detected is the
/// **logical** race — the absence of a counter/fork/join chain between two
/// conflicting accesses, which is exactly the condition the paper's Section 6
/// requires for determinacy.
pub struct Shared<T> {
    name: String,
    state: Mutex<State<T>>,
}

impl<T> Shared<T> {
    /// Creates a named shared variable with an initial value. The name
    /// appears in race reports.
    pub fn new(name: impl Into<String>, value: T) -> Self {
        Shared {
            name: name.into(),
            state: Mutex::new(State {
                value,
                last_write: None,
                reads: Vec::new(),
            }),
        }
    }

    /// The variable's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn check_read(&self, ctx: &ThreadCtx, state: &State<T>, now: &VectorClock) {
        if let Some(w) = &state.last_write {
            if w.tid != ctx.tid() && !w.clock.le(now) {
                ctx.core().report_race(RaceReport {
                    variable: self.name.clone(),
                    kind: RaceKind::WriteThenRead,
                    first_tid: w.tid,
                    second_tid: ctx.tid(),
                });
            }
        }
    }

    fn check_write(&self, ctx: &ThreadCtx, state: &State<T>, now: &VectorClock) {
        if let Some(w) = &state.last_write {
            if w.tid != ctx.tid() && !w.clock.le(now) {
                ctx.core().report_race(RaceReport {
                    variable: self.name.clone(),
                    kind: RaceKind::WriteWrite,
                    first_tid: w.tid,
                    second_tid: ctx.tid(),
                });
            }
        }
        for r in &state.reads {
            if r.tid != ctx.tid() && !r.clock.le(now) {
                ctx.core().report_race(RaceReport {
                    variable: self.name.clone(),
                    kind: RaceKind::ReadThenWrite,
                    first_tid: r.tid,
                    second_tid: ctx.tid(),
                });
            }
        }
    }

    /// Reads the variable via `f`, reporting a race if the last write is not
    /// ordered before this read.
    pub fn read_with<R>(&self, ctx: &ThreadCtx, f: impl FnOnce(&T) -> R) -> R {
        let now = ctx.clock();
        let mut state = self.state.lock().expect("shared variable lock poisoned");
        self.check_read(ctx, &state, &now);
        state.reads.retain(|r| r.tid != ctx.tid());
        state.reads.push(Access {
            tid: ctx.tid(),
            clock: now,
        });
        f(&state.value)
    }

    /// Writes the variable, reporting a race if any access since the last
    /// ordered write is not ordered before this write.
    pub fn write(&self, ctx: &ThreadCtx, value: T) {
        self.update(ctx, |slot| *slot = value);
    }

    /// Read-modify-write under the same race check as [`write`](Self::write).
    pub fn update(&self, ctx: &ThreadCtx, f: impl FnOnce(&mut T)) {
        let now = ctx.clock();
        let mut state = self.state.lock().expect("shared variable lock poisoned");
        self.check_write(ctx, &state, &now);
        state.reads.clear();
        state.last_write = Some(Access {
            tid: ctx.tid(),
            clock: now,
        });
        f(&mut state.value);
    }

    /// Consumes the variable, returning the final value (for end-of-program
    /// assertions; performs no race check).
    pub fn into_inner(self) -> T {
        self.state
            .into_inner()
            .expect("shared variable lock poisoned")
            .value
    }
}

impl<T: Clone> Shared<T> {
    /// Reads and clones the value (see [`read_with`](Self::read_with)).
    pub fn read(&self, ctx: &ThreadCtx) -> T {
        self.read_with(ctx, T::clone)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::Checker;

    #[test]
    fn same_thread_accesses_never_race() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 0);
        x.write(&root, 1);
        assert_eq!(x.read(&root), 1);
        x.update(&root, |v| *v += 1);
        assert_eq!(x.read(&root), 2);
        assert!(checker.report().is_clean());
    }

    #[test]
    fn unordered_write_write_is_reported() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 0);
        let a = root.fork();
        let b = root.fork();
        x.write(&a, 1);
        x.write(&b, 2); // concurrent with a's write
        let report = checker.report();
        assert_eq!(report.races.len(), 1);
        assert_eq!(report.races[0].kind, RaceKind::WriteWrite);
        assert_eq!(report.races[0].variable, "x");
    }

    #[test]
    fn unordered_write_read_is_reported() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 0);
        let a = root.fork();
        let b = root.fork();
        x.write(&a, 1);
        let _ = x.read(&b);
        assert_eq!(checker.report().races[0].kind, RaceKind::WriteThenRead);
    }

    #[test]
    fn unordered_read_write_is_reported() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 0);
        let a = root.fork();
        let b = root.fork();
        let _ = x.read(&a);
        x.write(&b, 1);
        assert_eq!(checker.report().races[0].kind, RaceKind::ReadThenWrite);
    }

    #[test]
    fn concurrent_reads_do_not_race() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 7);
        let a = root.fork();
        let b = root.fork();
        assert_eq!(x.read(&a), 7);
        assert_eq!(x.read(&b), 7);
        assert!(checker.report().is_clean());
    }

    #[test]
    fn fork_join_orders_accesses() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 0);
        x.write(&root, 1);
        let child = root.fork();
        let _ = x.read(&child); // ordered by the fork edge
        x.write(&child, 2);
        root.join(child);
        assert_eq!(x.read(&root), 2); // ordered by the join edge
        assert!(checker.report().is_clean());
    }

    #[test]
    fn into_inner_returns_final_value() {
        let checker = Checker::new();
        let root = checker.register_root();
        let x = Shared::new("x", 0);
        x.write(&root, 41);
        x.update(&root, |v| *v += 1);
        assert_eq!(x.into_inner(), 42);
    }
}
