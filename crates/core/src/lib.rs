#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # metaopt-core
//!
//! The paper's primary contribution: a *white-box*, provable search for
//! adversarial inputs that maximize the gap between an optimal algorithm
//! and a heuristic (Eq. 1):
//!
//! ```text
//!   argmax_{d ∈ ConstrainedSet}  OPT(d) − Heuristic(d)
//! ```
//!
//! The two-stage Stackelberg game is rewritten into a *single-shot*
//! mixed-integer program (§3.1): the demand volumes `d` become leader
//! variables; each inner convex problem is replaced by its KKT conditions
//! (`metaopt-model::kkt`); the complementary-slackness products and the
//! conditional structure of the heuristics become the SOS/binary structure
//! branch-and-bound (`metaopt-milp`) handles disjunctively.
//!
//! Supported heuristics (§3.2):
//!
//! * **Demand Pinning** — the *or*-constraint of Eq. 4 is encoded with pin
//!   indicator binaries and big-M rows ([`encode_dp`]),
//! * **POP** — one KKT-rewritten inner LP per (instantiation, partition);
//!   the random heuristic value is summarized either by the empirical
//!   average or by a tail order statistic computed through a sorting
//!   network ([`encode_pop`]).
//!
//! Realistic input constraints (§3.3) — demand boxes, goalpost distances,
//! intra-input linear constraints, and diverse-input exclusion balls — are
//! expressed through [`ConstrainedSet`].
//!
//! The finder certifies every reported gap by *re-running the actual
//! heuristic* on the discovered demands ([`GapResult::verified_gap`]), and
//! reports the problem-size statistics of the paper's Figure 6.

pub mod check;
pub mod constraints;
pub mod encode_dp;
pub mod encode_opt;
pub mod encode_pop;
pub mod finder;
pub mod result;
pub mod sweep;
pub mod topology_attack;

pub use check::{
    check_adversarial_model, topology_context, validate_adversarial_setup, ModelCheckMode,
};
pub use constraints::{ConstrainedSet, Distance, Goalpost, LinearDemandConstraint};
pub use encode_pop::PopMode;
pub use finder::{find_adversarial_gap, find_diverse_inputs, FinderConfig, HeuristicSpec, OptEncoding};
pub use result::GapResult;
pub use metaopt_resilience::{Budget, DegradationLevel, FaultPlan, FaultSite, SolverFault};
pub use sweep::{
    find_gap_at_least, sweep_max_gap, sweep_tick, PendingProbe, SliceBudget, SweepResult,
    SweepState, SweepTick, SweepWitness,
};
pub use topology_attack::{find_adversarial_topology, TopologyAttack, TopologyAttackResult};

/// Errors raised by the adversarial-gap layer.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Model construction failed.
    Model(String),
    /// The branch-and-bound search failed.
    Milp(metaopt_milp::MilpError),
    /// TE evaluation failed.
    Te(String),
    /// Invalid configuration.
    Config(String),
    /// The static model checker found error-severity diagnostics and the
    /// gate is in deny mode (debug builds). The payload is the checker's
    /// summary plus the first few diagnostics.
    ModelCheck(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Model(s) => write!(f, "model error: {s}"),
            CoreError::Milp(e) => write!(f, "milp error: {e}"),
            CoreError::Te(s) => write!(f, "te error: {s}"),
            CoreError::Config(s) => write!(f, "config error: {s}"),
            CoreError::ModelCheck(s) => write!(f, "model check failed: {s}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<metaopt_model::ModelError> for CoreError {
    fn from(e: metaopt_model::ModelError) -> Self {
        CoreError::Model(e.to_string())
    }
}

impl From<metaopt_milp::MilpError> for CoreError {
    fn from(e: metaopt_milp::MilpError) -> Self {
        CoreError::Milp(e)
    }
}

impl From<metaopt_te::TeError> for CoreError {
    fn from(e: metaopt_te::TeError) -> Self {
        CoreError::Te(e.to_string())
    }
}

/// Result alias for this crate.
pub type CoreResult<T> = Result<T, CoreError>;
