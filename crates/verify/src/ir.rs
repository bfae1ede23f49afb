//! The synchronization-skeleton intermediate representation.
//!
//! A *skeleton* abstracts a counter program down to exactly the events the
//! static analyses reason about: per-thread sequences of counter increments,
//! counter checks, and shared-variable reads/writes. Everything else — local
//! computation, the values stored in shared variables — is erased. Section 6
//! of the paper shows that determinacy and deadlock-freedom depend only on
//! this skeleton, which is why the abstraction is exact rather than merely
//! sound.

use std::fmt;

use mc_counter::Value;

/// Index of a counter inside a [`Skeleton`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CounterId(pub usize);

/// Index of a shared variable inside a [`Skeleton`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// One synchronization-relevant operation in a thread's program order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Atomically add `amount` to `counter` (never blocks).
    Inc {
        /// The counter being incremented.
        counter: CounterId,
        /// The amount added.
        amount: Value,
    },
    /// Block until `counter >= level`.
    Check {
        /// The counter being waited on.
        counter: CounterId,
        /// The level waited for.
        level: Value,
    },
    /// Read a shared variable.
    Read {
        /// The variable read.
        var: VarId,
    },
    /// Write a shared variable.
    Write {
        /// The variable written.
        var: VarId,
    },
}

impl Op {
    /// The variable accessed, if this is a `Read` or `Write`.
    pub fn accessed_var(&self) -> Option<(VarId, bool)> {
        match *self {
            Op::Read { var } => Some((var, false)),
            Op::Write { var } => Some((var, true)),
            _ => None,
        }
    }
}

/// A position in a skeleton: operation `index` of thread `thread`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpRef {
    /// Thread index.
    pub thread: usize,
    /// Index into that thread's operation sequence.
    pub index: usize,
}

impl fmt::Display for OpRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.{}", self.thread, self.index)
    }
}

#[derive(Clone, Debug)]
pub(crate) struct ThreadSeq {
    pub(crate) name: String,
    pub(crate) ops: Vec<Op>,
}

/// A whole-program synchronization skeleton: named counters and shared
/// variables plus one operation sequence per thread.
///
/// Build one with [`SkeletonBuilder`].
#[derive(Clone, Debug)]
pub struct Skeleton {
    pub(crate) counters: Vec<String>,
    pub(crate) vars: Vec<String>,
    pub(crate) threads: Vec<ThreadSeq>,
}

impl Skeleton {
    /// Number of threads.
    pub fn num_threads(&self) -> usize {
        self.threads.len()
    }

    /// Number of counters.
    pub fn num_counters(&self) -> usize {
        self.counters.len()
    }

    /// Number of shared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Total number of operations across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(|t| t.ops.len()).sum()
    }

    /// The operations of thread `t`, in program order.
    pub fn ops(&self, t: usize) -> &[Op] {
        &self.threads[t].ops
    }

    /// The operation at a position.
    pub fn op(&self, r: OpRef) -> Op {
        self.threads[r.thread].ops[r.index]
    }

    /// The name of thread `t`.
    pub fn thread_name(&self, t: usize) -> &str {
        &self.threads[t].name
    }

    /// The name of a counter.
    pub fn counter_name(&self, c: CounterId) -> &str {
        &self.counters[c.0]
    }

    /// The name of a shared variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0]
    }

    /// Per-thread operation counts (used as fixpoint limits).
    pub fn lens(&self) -> Vec<usize> {
        self.threads.iter().map(|t| t.ops.len()).collect()
    }

    /// Render one operation with its names, e.g. `inc(done, 1)`.
    pub fn render_op(&self, op: Op) -> String {
        match op {
            Op::Inc { counter, amount } => {
                format!("inc({}, {amount})", self.counter_name(counter))
            }
            Op::Check { counter, level } => {
                format!("check({} >= {level})", self.counter_name(counter))
            }
            Op::Read { var } => format!("read({})", self.var_name(var)),
            Op::Write { var } => format!("write({})", self.var_name(var)),
        }
    }

    /// Render a position as `thread-name[index]: op`.
    pub fn describe(&self, r: OpRef) -> String {
        format!(
            "{}[{}]: {}",
            self.thread_name(r.thread),
            r.index,
            self.render_op(self.op(r))
        )
    }
}

/// Fluent constructor for [`Skeleton`]s.
///
/// ```
/// use mc_verify::SkeletonBuilder;
///
/// let mut b = SkeletonBuilder::new();
/// let done = b.counter("done");
/// let x = b.var("x");
/// b.thread("producer").write(x).inc(done, 1);
/// b.thread("consumer").check(done, 1).read(x);
/// let sk = b.build();
/// assert_eq!(sk.num_threads(), 2);
/// ```
#[derive(Default)]
pub struct SkeletonBuilder {
    counters: Vec<String>,
    vars: Vec<String>,
    threads: Vec<ThreadSeq>,
}

impl SkeletonBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a counter (initial value 0).
    pub fn counter(&mut self, name: impl Into<String>) -> CounterId {
        self.counters.push(name.into());
        CounterId(self.counters.len() - 1)
    }

    /// Declare a shared variable.
    pub fn var(&mut self, name: impl Into<String>) -> VarId {
        self.vars.push(name.into());
        VarId(self.vars.len() - 1)
    }

    /// Start a new thread; returns a builder for its operation sequence.
    pub fn thread(&mut self, name: impl Into<String>) -> ThreadBuilder<'_> {
        self.threads.push(ThreadSeq {
            name: name.into(),
            ops: Vec::new(),
        });
        let seq = self.threads.last_mut().expect("just pushed");
        ThreadBuilder { seq }
    }

    /// Finish building. Panics if an operation references an undeclared
    /// counter or variable (possible only by mixing ids across builders).
    pub fn build(self) -> Skeleton {
        let sk = Skeleton {
            counters: self.counters,
            vars: self.vars,
            threads: self.threads,
        };
        for t in &sk.threads {
            for op in &t.ops {
                match *op {
                    Op::Inc { counter, .. } | Op::Check { counter, .. } => {
                        assert!(
                            counter.0 < sk.counters.len(),
                            "op references undeclared counter {counter:?}"
                        );
                    }
                    Op::Read { var } | Op::Write { var } => {
                        assert!(
                            var.0 < sk.vars.len(),
                            "op references undeclared variable {var:?}"
                        );
                    }
                }
            }
        }
        sk
    }
}

/// Appends operations to one thread of a [`SkeletonBuilder`].
pub struct ThreadBuilder<'a> {
    seq: &'a mut ThreadSeq,
}

impl ThreadBuilder<'_> {
    /// Append `inc(counter, amount)`.
    pub fn inc(self, counter: CounterId, amount: Value) -> Self {
        self.push(Op::Inc { counter, amount })
    }

    /// Append `check(counter >= level)`.
    pub fn check(self, counter: CounterId, level: Value) -> Self {
        self.push(Op::Check { counter, level })
    }

    /// Append a shared-variable read.
    pub fn read(self, var: VarId) -> Self {
        self.push(Op::Read { var })
    }

    /// Append a shared-variable write.
    pub fn write(self, var: VarId) -> Self {
        self.push(Op::Write { var })
    }

    /// Append an arbitrary operation.
    pub fn push(self, op: Op) -> Self {
        self.seq.ops.push(op);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let mut b = SkeletonBuilder::new();
        let c = b.counter("c");
        let x = b.var("x");
        b.thread("w").write(x).inc(c, 2);
        b.thread("r").check(c, 2).read(x);
        let sk = b.build();
        assert_eq!(sk.num_threads(), 2);
        assert_eq!(sk.total_ops(), 4);
        assert_eq!(
            sk.op(OpRef {
                thread: 0,
                index: 1
            }),
            Op::Inc {
                counter: c,
                amount: 2
            }
        );
        assert_eq!(
            sk.describe(OpRef {
                thread: 1,
                index: 0
            }),
            "r[0]: check(c >= 2)"
        );
    }

    #[test]
    #[should_panic(expected = "undeclared counter")]
    fn build_rejects_foreign_counter() {
        let mut other = SkeletonBuilder::new();
        let _ = other.counter("a");
        let foreign = other.counter("b");
        let mut b = SkeletonBuilder::new();
        b.thread("t").inc(foreign, 1);
        let _ = b.build();
    }
}
