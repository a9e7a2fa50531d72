#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-lp
//!
//! A self-contained linear-programming substrate for the `metaopt` workspace.
//!
//! The paper this workspace reproduces ("Minding the gap between fast
//! heuristics and their optimal counterparts", HotNets '22) relies on a
//! commercial LP/MILP solver (Gurobi). This crate provides the LP layer of
//! that substrate from scratch:
//!
//! * [`LpProblem`] — a builder for linear programs with bounded variables and
//!   `<=` / `==` / `>=` rows,
//! * [`Simplex`] — a bounded-variable revised simplex solver with a
//!   two-phase primal method (artificial-variable phase I) and a dual simplex
//!   method used for warm-started re-solves after bound changes (the
//!   operation branch-and-bound performs at every node),
//! * [`Solution`] — primal values, dual values (row multipliers) and reduced
//!   costs, which the KKT machinery of `metaopt-model` is validated against.
//!
//! The solver factorizes the simplex basis with a sparse LU core
//! (Markowitz-threshold pivoting, product-form eta updates); the original
//! explicit dense inverse stays as the reference the differential tests
//! select explicitly (see [`FactorBackend`]). Either backend refactorizes
//! periodically for numerical hygiene. Degeneracy — ubiquitous in
//! traffic-engineering LPs — is handled with a Bland-rule fallback after a
//! run of degenerate pivots.

mod factor;
mod metrics;
mod problem;
mod solution;
mod solver;
mod sparse;

pub use factor::FactorBackend;
pub use metrics::LpMetrics;
pub use problem::{LpProblem, RowId, RowSense, VarId, INF, NEG_INF};
pub use solution::{Solution, SolveStatus};
pub use solver::{Basis, Simplex, SimplexConfig};
pub use sparse::SparseMat;

pub use metaopt_resilience::{Budget, FaultPlan, FaultSite, SolverFault};

/// Errors surfaced by the LP layer.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A variable/row index did not belong to the problem it was used with.
    BadIndex(String),
    /// Lower bound exceeds upper bound (beyond tolerance), empty box.
    EmptyBounds {
        /// Variable index (or `usize::MAX` for row ranges).
        var: usize,
        /// Offending lower bound.
        lo: f64,
        /// Offending upper bound.
        hi: f64,
    },
    /// Row activity range with `rlo > rhi`, an unsatisfiable row.
    EmptyRowRange {
        /// Row index.
        row: usize,
        /// Offending range lower bound.
        lo: f64,
        /// Offending range upper bound.
        hi: f64,
    },
    /// A coefficient, bound, or right-hand side was NaN or infinite where a
    /// finite value is required.
    NotFinite(String),
    /// The iteration limit was exceeded before reaching a conclusion.
    IterationLimit,
    /// Internal numerical failure that survived refactorization retries.
    Numerical(String),
    /// A structured solver fault (see [`SolverFault`]): numerical
    /// breakdown, singular basis, expired deadline, contained callback
    /// panic, or stall. Recoverable faults are retried by the simplex
    /// recovery ladder before surfacing here.
    Fault(SolverFault),
}

impl LpError {
    /// Whether the in-solver recovery ladder (cold restart, row rescale,
    /// bound perturbation) may clear this error on a retry.
    pub fn is_recoverable(&self) -> bool {
        match self {
            LpError::Numerical(_) => true,
            LpError::Fault(f) => f.is_recoverable(),
            _ => false,
        }
    }

    /// The structured fault, if this error carries one.
    pub fn fault(&self) -> Option<&SolverFault> {
        match self {
            LpError::Fault(f) => Some(f),
            _ => None,
        }
    }
}

impl From<SolverFault> for LpError {
    fn from(f: SolverFault) -> Self {
        LpError::Fault(f)
    }
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::BadIndex(s) => write!(f, "bad index: {s}"),
            LpError::EmptyBounds { var, lo, hi } => {
                write!(f, "variable {var} has empty bounds [{lo}, {hi}]")
            }
            LpError::EmptyRowRange { row, lo, hi } => {
                write!(f, "row {row} has empty activity range [{lo}, {hi}]")
            }
            LpError::NotFinite(s) => write!(f, "non-finite data: {s}"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::Numerical(s) => write!(f, "numerical failure: {s}"),
            LpError::Fault(fault) => write!(f, "solver fault: {fault}"),
        }
    }
}

impl std::error::Error for LpError {}

/// Convenience alias used across the crate.
pub type LpResult<T> = Result<T, LpError>;
