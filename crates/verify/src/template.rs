//! Parameterized skeletons: replicated thread roles with symbolic counts.
//!
//! A [`Template`] is a [`Skeleton`] quantified over thread-count parameters:
//! it declares *roles* replicated a symbolic number of times (`N` producer
//! bodies, `M` consumers), counter/variable *families* sized by a role's
//! replica count, and amounts/levels as [linear expressions](LinExpr) in the
//! parameters (`check(done, N)`, `inc(published, 1)`).
//! [`Template::instantiate`] lowers a template at a concrete parameter
//! assignment to today's [`Skeleton`] — the bridge between the parameterized
//! corpus and every existing analysis — and records which (role, template
//! op) each concrete thread/op came from, so the cutoff engine
//! ([`crate::param_verify`]) can compare instantiations at different sizes
//! *site by site* rather than thread by thread.
//!
//! Topology is expressed two ways, both borrowed from how the real
//! protocols index their neighbours:
//!
//! * **Relative selectors** — a replicated role addresses its own family
//!   slot (`fam.me()`) or a neighbour's (`fam.prev()`, `fam.next()`,
//!   `fam.at_offset(d)`). A selector that falls off the end of the family
//!   (replica 0 has no `prev`) simply drops the operation at instantiation,
//!   exactly like the `if i > 0 { check(...) }` guards in the concrete
//!   models.
//! * **Replica guards** — an operation can be restricted to the first/last
//!   replica ([`Guard`]), for bodies like "stage 0 reads the input array,
//!   every later stage reads its predecessor's buffer".
//!
//! ```
//! use mc_verify::{param_verify, ParamVerdict, TemplateBuilder};
//!
//! // N workers each publish a slot and arrive; the combiner waits for all N.
//! let mut b = TemplateBuilder::new();
//! let n = b.param("N");
//! let workers = b.role("worker", n);
//! let done = b.counter("done");
//! let slot = b.var_per("slot", workers);
//! b.body(workers).write(slot.me()).inc(done, 1);
//! b.thread("combiner").check(done, n).read_all(slot);
//! let t = b.build();
//!
//! let sk = t.instantiate(&[3]).unwrap(); // today's Skeleton at N = 3
//! assert_eq!(sk.num_threads(), 4);
//! assert!(matches!(param_verify(&t).unwrap(), ParamVerdict::Certified { .. }));
//! ```

use std::fmt;
use std::ops::{Add, Mul, Sub};

use mc_counter::Value;

use crate::ir::{Op, Skeleton, ThreadSeq};
use crate::{CounterId, VarId};

/// A symbolic parameter of a template (a replica count such as `N`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Param(pub(crate) usize);

/// A linear expression over template parameters: `c + Σ aᵢ·paramᵢ`.
///
/// Built by arithmetic on [`Param`]s and integers: `n * 2 + 1`, `n - 1`,
/// `n + m`. Coefficients are signed so off-by-one bugs like
/// `check(done, N - 1)` are expressible; evaluation fails if the result is
/// negative at the given assignment.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct LinExpr {
    constant: i64,
    /// Coefficient per parameter index (trailing entries may be absent).
    coeffs: Vec<i64>,
}

impl LinExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> Self {
        LinExpr {
            constant: k,
            coeffs: Vec::new(),
        }
    }

    /// The expression `param`.
    pub fn param(p: Param) -> Self {
        let mut coeffs = vec![0; p.0 + 1];
        coeffs[p.0] = 1;
        LinExpr {
            constant: 0,
            coeffs,
        }
    }

    /// True if no parameter has a non-zero coefficient.
    pub fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// The coefficient of parameter index `i`.
    pub fn coeff(&self, i: usize) -> i64 {
        self.coeffs.get(i).copied().unwrap_or(0)
    }

    /// The constant term.
    pub fn constant_term(&self) -> i64 {
        self.constant
    }

    /// Evaluate at a parameter assignment. Errors if the value is negative
    /// or does not fit a [`Value`].
    pub fn eval(&self, assign: &[u64]) -> Result<Value, EvalError> {
        let mut acc = self.constant as i128;
        for (i, &a) in self.coeffs.iter().enumerate() {
            let v = *assign.get(i).ok_or(EvalError::MissingParam(i))? as i128;
            acc += a as i128 * v;
        }
        if acc < 0 {
            return Err(EvalError::Negative(acc));
        }
        Value::try_from(acc).map_err(|_| EvalError::Overflow(acc))
    }

    /// Render with parameter names, e.g. `2N + 1` or `N - 1`.
    pub fn render(&self, names: &[String]) -> String {
        let mut out = String::new();
        for (i, &a) in self.coeffs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let name = names.get(i).map(String::as_str).unwrap_or("?");
            if out.is_empty() {
                match a {
                    1 => out.push_str(name),
                    -1 => out.push_str(&format!("-{name}")),
                    _ => out.push_str(&format!("{a}{name}")),
                }
            } else {
                let sign = if a < 0 { " - " } else { " + " };
                let mag = a.abs();
                out.push_str(sign);
                if mag != 1 {
                    out.push_str(&mag.to_string());
                }
                out.push_str(name);
            }
        }
        if out.is_empty() {
            return self.constant.to_string();
        }
        if self.constant != 0 {
            let sign = if self.constant < 0 { " - " } else { " + " };
            out.push_str(sign);
            out.push_str(&self.constant.abs().to_string());
        }
        out
    }
}

/// Why a [`LinExpr`] could not be evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The assignment does not cover this parameter index.
    MissingParam(usize),
    /// The expression evaluated below zero.
    Negative(i128),
    /// The expression does not fit a `Value`.
    Overflow(i128),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingParam(i) => write!(f, "assignment missing parameter {i}"),
            EvalError::Negative(v) => write!(f, "expression evaluates to negative value {v}"),
            EvalError::Overflow(v) => write!(f, "expression evaluates to {v}, out of range"),
        }
    }
}

impl From<Param> for LinExpr {
    fn from(p: Param) -> Self {
        LinExpr::param(p)
    }
}

impl From<u64> for LinExpr {
    fn from(k: u64) -> Self {
        LinExpr::constant(i64::try_from(k).expect("constant fits i64"))
    }
}

impl From<i64> for LinExpr {
    fn from(k: i64) -> Self {
        LinExpr::constant(k)
    }
}

impl From<i32> for LinExpr {
    fn from(k: i32) -> Self {
        LinExpr::constant(i64::from(k))
    }
}

impl<T: Into<LinExpr>> Add<T> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: T) -> LinExpr {
        let rhs = rhs.into();
        self.constant += rhs.constant;
        if self.coeffs.len() < rhs.coeffs.len() {
            self.coeffs.resize(rhs.coeffs.len(), 0);
        }
        for (i, a) in rhs.coeffs.iter().enumerate() {
            self.coeffs[i] += a;
        }
        self
    }
}

impl<T: Into<LinExpr>> Sub<T> for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: T) -> LinExpr {
        self + (rhs.into() * -1i64)
    }
}

impl Mul<i64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: i64) -> LinExpr {
        self.constant *= k;
        for a in &mut self.coeffs {
            *a *= k;
        }
        self
    }
}

macro_rules! param_arith {
    ($rhs:ty) => {
        impl Add<$rhs> for Param {
            type Output = LinExpr;
            fn add(self, rhs: $rhs) -> LinExpr {
                LinExpr::param(self) + LinExpr::from(rhs)
            }
        }
        impl Sub<$rhs> for Param {
            type Output = LinExpr;
            fn sub(self, rhs: $rhs) -> LinExpr {
                LinExpr::param(self) - LinExpr::from(rhs)
            }
        }
    };
}
param_arith!(u64);
param_arith!(Param);

impl Mul<u64> for Param {
    type Output = LinExpr;
    fn mul(self, k: u64) -> LinExpr {
        LinExpr::param(self) * i64::try_from(k).expect("factor fits i64")
    }
}

/// A replicated thread role inside a template.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoleId(pub(crate) usize);

/// Handle to a global (size-1) counter.
#[derive(Clone, Copy, Debug)]
pub struct TCounter {
    fam: usize,
}

/// Handle to a per-replica counter family (one counter per replica of a
/// role).
#[derive(Clone, Copy, Debug)]
pub struct TCounterFam {
    fam: usize,
    role: RoleId,
}

impl TCounterFam {
    /// This replica's counter.
    pub fn me(self) -> CSel {
        self.at_offset(0)
    }

    /// The previous replica's counter (dropped at replica 0).
    pub fn prev(self) -> CSel {
        self.at_offset(-1)
    }

    /// The next replica's counter (dropped at the last replica).
    pub fn next(self) -> CSel {
        self.at_offset(1)
    }

    /// The counter of replica `self + d` (dropped when out of range).
    pub fn at_offset(self, d: i64) -> CSel {
        CSel {
            fam: self.fam,
            rel: Rel::Me(d),
            role: Some(self.role),
        }
    }
}

/// Handle to a global width-1 variable.
#[derive(Clone, Copy, Debug)]
pub struct TVar {
    fam: usize,
}

/// Handle to a global fixed-width variable array (e.g. `slot[0..items]`).
#[derive(Clone, Copy, Debug)]
pub struct TVarWide {
    fam: usize,
    width: usize,
}

impl TVarWide {
    /// Member `j` of the array.
    pub fn at(self, j: usize) -> VSel {
        assert!(j < self.width, "column {j} out of width {}", self.width);
        VSel {
            fam: self.fam,
            rel: Rel::Abs,
            col: j,
            role: None,
        }
    }
}

/// Handle to a per-replica width-1 variable family.
#[derive(Clone, Copy, Debug)]
pub struct TVarFam {
    fam: usize,
    role: RoleId,
}

impl TVarFam {
    /// This replica's variable.
    pub fn me(self) -> VSel {
        self.at_offset(0)
    }

    /// The previous replica's variable (dropped at replica 0).
    pub fn prev(self) -> VSel {
        self.at_offset(-1)
    }

    /// The next replica's variable (dropped at the last replica).
    pub fn next(self) -> VSel {
        self.at_offset(1)
    }

    /// The variable of replica `self + d` (dropped when out of range).
    pub fn at_offset(self, d: i64) -> VSel {
        VSel {
            fam: self.fam,
            rel: Rel::Me(d),
            col: 0,
            role: Some(self.role),
        }
    }
}

/// Handle to a per-replica fixed-width variable family (e.g. per-stage
/// buffers `buf[s][0..items]`).
#[derive(Clone, Copy, Debug)]
pub struct TVarFamWide {
    fam: usize,
    role: RoleId,
    width: usize,
}

impl TVarFamWide {
    /// Column `j` of this replica's row.
    pub fn me(self, j: usize) -> VSel {
        self.at(0, j)
    }

    /// Column `j` of the previous replica's row (dropped at replica 0).
    pub fn prev(self, j: usize) -> VSel {
        self.at(-1, j)
    }

    /// Column `j` of replica `self + d`'s row (dropped when out of range).
    pub fn at(self, d: i64, j: usize) -> VSel {
        assert!(j < self.width, "column {j} out of width {}", self.width);
        VSel {
            fam: self.fam,
            rel: Rel::Me(d),
            col: j,
            role: Some(self.role),
        }
    }
}

/// How a selector indexes into its family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rel {
    /// A global family (single row).
    Abs,
    /// Row `replica + offset` of a per-replica family.
    Me(i64),
}

/// A counter selector inside a role body.
#[derive(Clone, Copy, Debug)]
pub struct CSel {
    fam: usize,
    rel: Rel,
    /// The role whose replica index `Me` offsets are relative to.
    role: Option<RoleId>,
}

impl From<TCounter> for CSel {
    fn from(c: TCounter) -> Self {
        CSel {
            fam: c.fam,
            rel: Rel::Abs,
            role: None,
        }
    }
}

/// A variable selector inside a role body.
#[derive(Clone, Copy, Debug)]
pub struct VSel {
    fam: usize,
    rel: Rel,
    col: usize,
    role: Option<RoleId>,
}

impl From<TVar> for VSel {
    fn from(v: TVar) -> Self {
        VSel {
            fam: v.fam,
            rel: Rel::Abs,
            col: 0,
            role: None,
        }
    }
}

/// Restricts a template operation to particular replicas of its role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Guard {
    /// All replicas execute the operation.
    Always,
    /// Only replica 0.
    First,
    /// Only the last replica.
    Last,
    /// Every replica except the first.
    NotFirst,
    /// Every replica except the last.
    NotLast,
}

impl Guard {
    fn admits(self, replica: u64, count: u64) -> bool {
        match self {
            Guard::Always => true,
            Guard::First => replica == 0,
            Guard::Last => replica + 1 == count,
            Guard::NotFirst => replica > 0,
            Guard::NotLast => replica + 1 < count,
        }
    }
}

/// One parameterized operation in a role body.
#[derive(Clone, Debug)]
pub(crate) enum TOpKind {
    Inc {
        counter: CSel,
        amount: LinExpr,
    },
    Check {
        counter: CSel,
        level: LinExpr,
    },
    Read {
        var: VSel,
    },
    Write {
        var: VSel,
    },
    /// Read every member of a variable family (all rows, all columns) —
    /// the fan-in combiner's "read all N slots".
    ReadAll {
        fam: usize,
    },
}

/// A guarded operation of a role body.
#[derive(Clone, Debug)]
pub(crate) struct TOp {
    pub(crate) guard: Guard,
    pub(crate) kind: TOpKind,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FamSize {
    One,
    PerReplica(RoleId),
}

#[derive(Clone, Debug)]
struct CounterFamily {
    name: String,
    size: FamSize,
}

#[derive(Clone, Debug)]
struct VarFamily {
    name: String,
    size: FamSize,
    width: usize,
}

#[derive(Clone, Debug)]
pub(crate) struct Role {
    pub(crate) name: String,
    pub(crate) count: LinExpr,
    /// Bare roles (declared via `thread`) instantiate without an index
    /// suffix in the thread name.
    bare: bool,
    pub(crate) ops: Vec<TOp>,
}

/// A parameterized synchronization skeleton. Build with [`TemplateBuilder`];
/// lower with [`instantiate`](Template::instantiate); verify for all
/// parameter values with [`crate::param_verify`].
#[derive(Clone, Debug)]
pub struct Template {
    pub(crate) params: Vec<String>,
    counters: Vec<CounterFamily>,
    vars: Vec<VarFamily>,
    pub(crate) roles: Vec<Role>,
}

/// A lowered template: the concrete [`Skeleton`] plus origin maps tying
/// every thread and operation back to its template site, so analyses at
/// different instantiation sizes can be compared site by site.
#[derive(Clone, Debug)]
pub struct Instance {
    /// The lowered skeleton.
    pub skeleton: Skeleton,
    /// The parameter assignment this instance was lowered at.
    pub assign: Vec<u64>,
    /// For each thread: the role it instantiates and its replica index.
    pub thread_origin: Vec<(RoleId, u64)>,
    /// For each concrete counter: the counter family it belongs to and its
    /// row (replica index, 0 for globals).
    pub counter_origin: Vec<(usize, u64)>,
    /// Number of counter families the template declares.
    pub counter_families: usize,
    /// For each thread, per emitted op: the index of the template op in the
    /// role body it was lowered from (guard-dropped and out-of-range ops
    /// leave gaps; `ReadAll` repeats its index once per expanded read).
    pub op_origin: Vec<Vec<usize>>,
}

impl Instance {
    /// The template site (role, body-op index) of a concrete position.
    pub fn site(&self, thread: usize, index: usize) -> (RoleId, usize) {
        (self.thread_origin[thread].0, self.op_origin[thread][index])
    }
}

/// Why [`Template::instantiate`] failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InstantiateError {
    /// The assignment length does not match the declared parameter count.
    WrongArity {
        /// Parameters the template declares.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// An expression could not be evaluated at this assignment.
    Eval {
        /// What was being evaluated (role count, amount, level).
        context: String,
        /// The underlying failure.
        error: EvalError,
    },
}

impl fmt::Display for InstantiateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstantiateError::WrongArity { expected, got } => {
                write!(f, "expected {expected} parameter values, got {got}")
            }
            InstantiateError::Eval { context, error } => {
                write!(f, "cannot evaluate {context}: {error}")
            }
        }
    }
}

impl std::error::Error for InstantiateError {}

impl Template {
    /// Number of declared parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// The name of parameter `i`.
    pub fn param_name(&self, i: usize) -> &str {
        &self.params[i]
    }

    /// Number of declared roles.
    pub fn num_roles(&self) -> usize {
        self.roles.len()
    }

    /// The name of a role.
    pub fn role_name(&self, r: RoleId) -> &str {
        &self.roles[r.0].name
    }

    /// Number of template operations in a role's body.
    pub fn role_len(&self, r: RoleId) -> usize {
        self.roles[r.0].ops.len()
    }

    /// True if any role body uses relative selectors or replica guards —
    /// such templates only exhibit their full interior structure once the
    /// role has first, middle, and last replicas.
    pub fn has_topology(&self) -> bool {
        self.roles.iter().any(|role| {
            role.ops.iter().any(|op| {
                if op.guard != Guard::Always {
                    return true;
                }
                let rel = match &op.kind {
                    TOpKind::Inc { counter, .. } | TOpKind::Check { counter, .. } => counter.rel,
                    TOpKind::Read { var } | TOpKind::Write { var } => var.rel,
                    TOpKind::ReadAll { .. } => Rel::Abs,
                };
                matches!(rel, Rel::Me(d) if d != 0)
            })
        })
    }

    /// The largest relative-selector offset used anywhere in the template.
    pub fn max_offset(&self) -> u64 {
        let mut max = 0i64;
        for role in &self.roles {
            for op in &role.ops {
                let rel = match &op.kind {
                    TOpKind::Inc { counter, .. } | TOpKind::Check { counter, .. } => counter.rel,
                    TOpKind::Read { var } | TOpKind::Write { var } => var.rel,
                    TOpKind::ReadAll { .. } => Rel::Abs,
                };
                if let Rel::Me(d) = rel {
                    max = max.max(d.abs());
                }
            }
        }
        max as u64
    }

    /// Lower the template at a concrete parameter assignment.
    pub fn instantiate(&self, assign: &[u64]) -> Result<Skeleton, InstantiateError> {
        Ok(self.instantiate_full(assign)?.skeleton)
    }

    /// Lower the template, keeping the origin maps.
    pub fn instantiate_full(&self, assign: &[u64]) -> Result<Instance, InstantiateError> {
        if assign.len() != self.params.len() {
            return Err(InstantiateError::WrongArity {
                expected: self.params.len(),
                got: assign.len(),
            });
        }
        let eval = |e: &LinExpr, context: &dyn Fn() -> String| -> Result<u64, InstantiateError> {
            e.eval(assign).map_err(|error| InstantiateError::Eval {
                context: context(),
                error,
            })
        };

        // Role replica counts.
        let mut counts = Vec::with_capacity(self.roles.len());
        for role in &self.roles {
            counts.push(eval(&role.count, &|| {
                format!("count of role `{}`", role.name)
            })?);
        }
        let count_of = |r: RoleId| counts[r.0];

        // Lay out counter and variable families in declaration order.
        let mut counter_names = Vec::new();
        let mut counter_origin = Vec::new();
        let mut counter_base = Vec::with_capacity(self.counters.len());
        for (fi, fam) in self.counters.iter().enumerate() {
            counter_base.push(counter_names.len());
            match fam.size {
                FamSize::One => {
                    counter_names.push(fam.name.clone());
                    counter_origin.push((fi, 0));
                }
                FamSize::PerReplica(r) => {
                    for i in 0..count_of(r) {
                        counter_names.push(format!("{}[{i}]", fam.name));
                        counter_origin.push((fi, i));
                    }
                }
            }
        }
        let mut var_names = Vec::new();
        let mut var_base = Vec::with_capacity(self.vars.len());
        for fam in &self.vars {
            var_base.push(var_names.len());
            let rows = match fam.size {
                FamSize::One => 1,
                FamSize::PerReplica(r) => count_of(r),
            };
            for i in 0..rows {
                for j in 0..fam.width {
                    var_names.push(match (fam.size, fam.width) {
                        (FamSize::One, 1) => fam.name.clone(),
                        (FamSize::One, _) => format!("{}[{j}]", fam.name),
                        (FamSize::PerReplica(_), 1) => format!("{}[{i}]", fam.name),
                        (FamSize::PerReplica(_), _) => format!("{}[{i}][{j}]", fam.name),
                    });
                }
            }
        }

        // Resolve a selector's row for a given replica; None = out of range
        // (the op is dropped, mirroring the concrete models' index guards).
        let rows_of_cfam = |fam: usize| match self.counters[fam].size {
            FamSize::One => 1,
            FamSize::PerReplica(r) => count_of(r),
        };
        let rows_of_vfam = |fam: usize| match self.vars[fam].size {
            FamSize::One => 1,
            FamSize::PerReplica(r) => count_of(r),
        };
        let resolve = |rel: Rel, replica: u64, rows: u64| -> Option<u64> {
            match rel {
                Rel::Abs => Some(0),
                Rel::Me(d) => {
                    let idx = replica as i64 + d;
                    (0 <= idx && (idx as u64) < rows).then_some(idx as u64)
                }
            }
        };

        let mut threads = Vec::new();
        let mut thread_origin = Vec::new();
        let mut op_origin = Vec::new();
        for (ri, role) in self.roles.iter().enumerate() {
            let count = counts[ri];
            for replica in 0..count {
                let name = if role.bare && count == 1 {
                    role.name.clone()
                } else {
                    format!("{}{replica}", role.name)
                };
                let mut ops = Vec::new();
                let mut origin = Vec::new();
                for (oi, top) in role.ops.iter().enumerate() {
                    if !top.guard.admits(replica, count) {
                        continue;
                    }
                    match &top.kind {
                        TOpKind::Inc { counter, amount } => {
                            let Some(row) =
                                resolve(counter.rel, replica, rows_of_cfam(counter.fam))
                            else {
                                continue;
                            };
                            let amount = eval(amount, &|| {
                                format!("inc amount in role `{}` op {oi}", role.name)
                            })?;
                            ops.push(Op::Inc {
                                counter: CounterId(counter_base[counter.fam] + row as usize),
                                amount,
                            });
                            origin.push(oi);
                        }
                        TOpKind::Check { counter, level } => {
                            let Some(row) =
                                resolve(counter.rel, replica, rows_of_cfam(counter.fam))
                            else {
                                continue;
                            };
                            let level = eval(level, &|| {
                                format!("check level in role `{}` op {oi}", role.name)
                            })?;
                            ops.push(Op::Check {
                                counter: CounterId(counter_base[counter.fam] + row as usize),
                                level,
                            });
                            origin.push(oi);
                        }
                        TOpKind::Read { var } | TOpKind::Write { var } => {
                            let Some(row) = resolve(var.rel, replica, rows_of_vfam(var.fam)) else {
                                continue;
                            };
                            let width = self.vars[var.fam].width;
                            let id = VarId(var_base[var.fam] + row as usize * width + var.col);
                            ops.push(if matches!(top.kind, TOpKind::Read { .. }) {
                                Op::Read { var: id }
                            } else {
                                Op::Write { var: id }
                            });
                            origin.push(oi);
                        }
                        TOpKind::ReadAll { fam } => {
                            let width = self.vars[*fam].width;
                            for row in 0..rows_of_vfam(*fam) {
                                for col in 0..width {
                                    ops.push(Op::Read {
                                        var: VarId(var_base[*fam] + row as usize * width + col),
                                    });
                                    origin.push(oi);
                                }
                            }
                        }
                    }
                }
                threads.push(ThreadSeq { name, ops });
                thread_origin.push((RoleId(ri), replica));
                op_origin.push(origin);
            }
        }

        Ok(Instance {
            skeleton: Skeleton {
                counters: counter_names,
                vars: var_names,
                threads,
            },
            assign: assign.to_vec(),
            thread_origin,
            counter_origin,
            counter_families: self.counters.len(),
            op_origin,
        })
    }

    /// Render one template op of a role with names, e.g.
    /// `check(done >= N)` or `inc(c[me], 1)`.
    pub fn render_op(&self, role: RoleId, op: usize) -> String {
        let rel_str = |rel: Rel| match rel {
            Rel::Abs => String::new(),
            Rel::Me(0) => "[me]".into(),
            Rel::Me(d) if d < 0 => format!("[me{d}]"),
            Rel::Me(d) => format!("[me+{d}]"),
        };
        match &self.roles[role.0].ops[op].kind {
            TOpKind::Inc { counter, amount } => format!(
                "inc({}{}, {})",
                self.counters[counter.fam].name,
                rel_str(counter.rel),
                amount.render(&self.params)
            ),
            TOpKind::Check { counter, level } => format!(
                "check({}{} >= {})",
                self.counters[counter.fam].name,
                rel_str(counter.rel),
                level.render(&self.params)
            ),
            TOpKind::Read { var } => format!(
                "read({}{}[{}])",
                self.vars[var.fam].name,
                rel_str(var.rel),
                var.col
            ),
            TOpKind::Write { var } => format!(
                "write({}{}[{}])",
                self.vars[var.fam].name,
                rel_str(var.rel),
                var.col
            ),
            TOpKind::ReadAll { fam } => format!("read_all({})", self.vars[*fam].name),
        }
    }
}

/// Fluent constructor for [`Template`]s; the parameterized analogue of
/// [`crate::SkeletonBuilder`]. [`crate::models::template_corpus`] builds the
/// shipped protocols with it.
#[derive(Default)]
pub struct TemplateBuilder {
    params: Vec<String>,
    counters: Vec<CounterFamily>,
    vars: Vec<VarFamily>,
    roles: Vec<Role>,
}

impl TemplateBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a parameter (a symbolic replica count).
    pub fn param(&mut self, name: impl Into<String>) -> Param {
        self.params.push(name.into());
        Param(self.params.len() - 1)
    }

    /// Declare a role replicated `count` times. Replica `i` instantiates as
    /// a thread named `name{i}`.
    pub fn role(&mut self, name: impl Into<String>, count: impl Into<LinExpr>) -> RoleId {
        self.roles.push(Role {
            name: name.into(),
            count: count.into(),
            bare: false,
            ops: Vec::new(),
        });
        RoleId(self.roles.len() - 1)
    }

    /// Declare a single fixed thread (a role with count 1, named without an
    /// index suffix).
    pub fn thread(&mut self, name: impl Into<String>) -> TemplateThreadBuilder<'_> {
        self.roles.push(Role {
            name: name.into(),
            count: LinExpr::constant(1),
            bare: true,
            ops: Vec::new(),
        });
        let role = RoleId(self.roles.len() - 1);
        self.body(role)
    }

    /// Declare a global counter (initial value 0).
    pub fn counter(&mut self, name: impl Into<String>) -> TCounter {
        self.counters.push(CounterFamily {
            name: name.into(),
            size: FamSize::One,
        });
        TCounter {
            fam: self.counters.len() - 1,
        }
    }

    /// Declare a counter family with one member per replica of `role`.
    pub fn counter_per(&mut self, name: impl Into<String>, role: RoleId) -> TCounterFam {
        self.counters.push(CounterFamily {
            name: name.into(),
            size: FamSize::PerReplica(role),
        });
        TCounterFam {
            fam: self.counters.len() - 1,
            role,
        }
    }

    /// Declare a global width-1 variable.
    pub fn var(&mut self, name: impl Into<String>) -> TVar {
        self.vars.push(VarFamily {
            name: name.into(),
            size: FamSize::One,
            width: 1,
        });
        TVar {
            fam: self.vars.len() - 1,
        }
    }

    /// Declare a global fixed-width variable array.
    pub fn vars(&mut self, name: impl Into<String>, width: usize) -> TVarWide {
        assert!(width >= 1, "variable array needs width >= 1");
        self.vars.push(VarFamily {
            name: name.into(),
            size: FamSize::One,
            width,
        });
        TVarWide {
            fam: self.vars.len() - 1,
            width,
        }
    }

    /// Declare a variable family with one member per replica of `role`.
    pub fn var_per(&mut self, name: impl Into<String>, role: RoleId) -> TVarFam {
        self.vars.push(VarFamily {
            name: name.into(),
            size: FamSize::PerReplica(role),
            width: 1,
        });
        TVarFam {
            fam: self.vars.len() - 1,
            role,
        }
    }

    /// Declare a per-replica variable family where each replica owns `width`
    /// members.
    pub fn var_per_wide(
        &mut self,
        name: impl Into<String>,
        role: RoleId,
        width: usize,
    ) -> TVarFamWide {
        assert!(width >= 1, "variable family needs width >= 1");
        self.vars.push(VarFamily {
            name: name.into(),
            size: FamSize::PerReplica(role),
            width,
        });
        TVarFamWide {
            fam: self.vars.len() - 1,
            role,
            width,
        }
    }

    /// Append operations to a role's body.
    pub fn body(&mut self, role: RoleId) -> TemplateThreadBuilder<'_> {
        TemplateThreadBuilder {
            role: &mut self.roles[role.0],
            role_id: role,
            guard: Guard::Always,
        }
    }

    /// Finish building. Panics on malformed cross-role relative selectors
    /// (a `me`-relative selector into a family owned by a different role).
    pub fn build(self) -> Template {
        let t = Template {
            params: self.params,
            counters: self.counters,
            vars: self.vars,
            roles: self.roles,
        };
        for (ri, role) in t.roles.iter().enumerate() {
            for (oi, op) in role.ops.iter().enumerate() {
                let sel_role = match &op.kind {
                    TOpKind::Inc { counter, .. } | TOpKind::Check { counter, .. } => counter.role,
                    TOpKind::Read { var } | TOpKind::Write { var } => var.role,
                    TOpKind::ReadAll { .. } => None,
                };
                if let Some(owner) = sel_role {
                    assert!(
                        owner == RoleId(ri),
                        "role `{}` op {oi} uses a me-relative selector into a family owned by \
                         role `{}` — relative topology is only meaningful within one role",
                        role.name,
                        t.roles[owner.0].name,
                    );
                }
            }
        }
        t
    }
}

/// Appends guarded operations to one role of a [`TemplateBuilder`].
pub struct TemplateThreadBuilder<'a> {
    role: &'a mut Role,
    #[allow(dead_code)]
    role_id: RoleId,
    guard: Guard,
}

impl TemplateThreadBuilder<'_> {
    /// Apply `guard` to the **next** appended operation only.
    pub fn when(mut self, guard: Guard) -> Self {
        self.guard = guard;
        self
    }

    fn push(mut self, kind: TOpKind) -> Self {
        let guard = std::mem::replace(&mut self.guard, Guard::Always);
        self.role.ops.push(TOp { guard, kind });
        self
    }

    /// Append `inc(counter, amount)`.
    pub fn inc(self, counter: impl Into<CSel>, amount: impl Into<LinExpr>) -> Self {
        self.push(TOpKind::Inc {
            counter: counter.into(),
            amount: amount.into(),
        })
    }

    /// Append `check(counter >= level)`.
    pub fn check(self, counter: impl Into<CSel>, level: impl Into<LinExpr>) -> Self {
        self.push(TOpKind::Check {
            counter: counter.into(),
            level: level.into(),
        })
    }

    /// Append a shared-variable read.
    pub fn read(self, var: impl Into<VSel>) -> Self {
        self.push(TOpKind::Read { var: var.into() })
    }

    /// Append a shared-variable write.
    pub fn write(self, var: impl Into<VSel>) -> Self {
        self.push(TOpKind::Write { var: var.into() })
    }

    /// Append a read of **every** member of a per-replica variable family.
    pub fn read_all(self, fam: TVarFam) -> Self {
        self.push(TOpKind::ReadAll { fam: fam.fam })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;

    #[test]
    fn linexpr_arithmetic_and_eval() {
        let n = Param(0);
        let m = Param(1);
        let e = n * 2 + m + 3u64;
        assert_eq!(e.eval(&[5, 7]), Ok(20));
        assert_eq!((n - 1u64).eval(&[1]), Ok(0));
        assert!(matches!((n - 2u64).eval(&[1]), Err(EvalError::Negative(_))));
        assert_eq!(e.render(&["N".into(), "M".into()]), "2N + M + 3");
        assert_eq!((n - 1u64).render(&["N".into()]), "N - 1");
        assert!(LinExpr::constant(4).is_constant());
        assert!(!e.is_constant());
    }

    fn fan_in() -> Template {
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let workers = b.role("worker", n);
        let done = b.counter("done");
        let slot = b.var_per("slot", workers);
        b.body(workers).write(slot.me()).inc(done, 1);
        b.thread("combiner").check(done, n).read_all(slot);
        b.build()
    }

    #[test]
    fn fan_in_instantiates_and_certifies() {
        let t = fan_in();
        for n in 1..=5u64 {
            let inst = t.instantiate_full(&[n]).unwrap();
            let sk = &inst.skeleton;
            assert_eq!(sk.num_threads(), n as usize + 1);
            assert_eq!(sk.num_vars(), n as usize);
            assert!(verify(sk).is_certified(), "fan_in({n}) must certify");
            // Combiner reads expand to one read per worker slot, all mapped
            // back to the single read_all template op.
            let combiner = n as usize;
            assert_eq!(sk.ops(combiner).len(), 1 + n as usize);
            assert!(inst.op_origin[combiner][1..].iter().all(|&o| o == 1));
            assert_eq!(inst.site(0, 0), (RoleId(0), 0));
        }
    }

    #[test]
    fn relative_selectors_drop_out_of_range_ops() {
        // A ring-less ragged chain: each replica checks its neighbours.
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let parts = b.role("part", n);
        let c = b.counter_per("c", parts);
        b.body(parts)
            .check(c.prev(), 1)
            .check(c.next(), 1)
            .inc(c.me(), 1);
        let t = b.build();
        let sk = t.instantiate(&[3]).unwrap();
        // Replica 0 loses the prev-check, replica 2 the next-check.
        assert_eq!(sk.ops(0).len(), 2);
        assert_eq!(sk.ops(1).len(), 3);
        assert_eq!(sk.ops(2).len(), 2);
        assert_eq!(sk.counter_name(CounterId(1)), "c[1]");
    }

    #[test]
    fn guards_select_replicas() {
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let stages = b.role("stage", n);
        let input = b.var("input");
        let c = b.counter("done");
        b.body(stages)
            .when(Guard::First)
            .read(input)
            .when(Guard::NotFirst)
            .check(c, 1)
            .inc(c, 1);
        let t = b.build();
        let sk = t.instantiate(&[3]).unwrap();
        assert_eq!(sk.ops(0).len(), 2); // read + inc
        assert_eq!(sk.ops(1).len(), 2); // check + inc
        assert!(matches!(sk.ops(0)[0], Op::Read { .. }));
        assert!(matches!(sk.ops(1)[0], Op::Check { .. }));
    }

    #[test]
    fn wrong_arity_and_negative_levels_error() {
        let t = fan_in();
        assert!(matches!(
            t.instantiate(&[]),
            Err(InstantiateError::WrongArity {
                expected: 1,
                got: 0
            })
        ));
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let c = b.counter("c");
        b.thread("t")
            .check(c, LinExpr::param(n) - LinExpr::constant(5));
        let t = b.build();
        assert!(matches!(
            t.instantiate(&[1]),
            Err(InstantiateError::Eval { .. })
        ));
        assert!(t.instantiate(&[5]).is_ok());
    }

    #[test]
    #[should_panic(expected = "relative topology")]
    fn cross_role_relative_selector_rejected() {
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let a = b.role("a", n);
        let z = b.role("z", n);
        let c = b.counter_per("c", a);
        b.body(z).inc(c.me(), 1);
        let _ = b.build();
    }

    #[test]
    fn topology_and_offset_introspection() {
        let t = fan_in();
        assert!(!t.has_topology());
        assert_eq!(t.max_offset(), 0);
        let mut b = TemplateBuilder::new();
        let n = b.param("N");
        let parts = b.role("part", n);
        let c = b.counter_per("c", parts);
        b.body(parts).check(c.prev(), 1).inc(c.me(), 1);
        let t = b.build();
        assert!(t.has_topology());
        assert_eq!(t.max_offset(), 1);
    }

    #[test]
    fn render_op_shows_symbolic_levels() {
        let t = fan_in();
        assert_eq!(t.render_op(RoleId(1), 0), "check(done >= N)");
        assert_eq!(t.render_op(RoleId(0), 1), "inc(done, 1)");
    }
}
