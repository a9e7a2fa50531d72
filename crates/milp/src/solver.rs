//! The branch-and-bound search.

use crate::MilpResult;
use metaopt_lp::VarId;
use metaopt_model::{compile::compile, CompiledModel, Model};
use metaopt_resilience::{Budget, FaultPlan, SolverFault};
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Contain at most this many incumbent-callback panics before disabling
/// the callback for the rest of the search.
pub(crate) const MAX_CALLBACK_PANICS: usize = 3;

/// Tunable branch-and-bound parameters (defaults follow the paper's §3.3
/// methodology where applicable).
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Hard wall-clock budget.
    pub time_limit: Option<Duration>,
    /// Stop when `(incumbent − bound) / max(1, |incumbent|) <= rel_gap`.
    pub rel_gap: f64,
    /// §3.3 stall rule: stop when no relative improvement of at least
    /// [`MilpConfig::stall_improvement`] happened within this window.
    pub stall_window: Option<Duration>,
    /// Relative improvement threshold for the stall rule (paper: 0.5%).
    pub stall_improvement: f64,
    /// Node budget.
    pub max_nodes: usize,
    /// Integrality tolerance on binaries.
    pub int_tol: f64,
    /// Complementarity tolerance: a pair `(λ, s)` is violated when
    /// `min(λ, s) > compl_tol · (1 + max(λ, s))`.
    pub compl_tol: f64,
    /// Invoke the incumbent callback every this many nodes (0 = never).
    pub callback_every: usize,
    /// Stop as soon as an incumbent at least this good exists (model space:
    /// `>=` for Max objectives, `<=` for Min). Used by feasibility probes
    /// such as the §3.3 binary sweep ("any input with a gap at least g").
    pub target_objective: Option<f64>,
    /// First-class budget threaded from the caller (the finder layer).
    /// Composed with [`MilpConfig::time_limit`] / [`MilpConfig::max_nodes`]
    /// limit-by-limit; because a [`Budget`] holds an *absolute* deadline,
    /// passing one down never resets the clock.
    pub budget: Budget,
    /// Deterministic fault-injection plan (chaos tests only). Shared with
    /// the underlying simplex; clones share counters.
    pub fault_plan: Option<FaultPlan>,
    /// Worker-thread count for the parallel tree-search modes. `0` (the
    /// default) resolves the `METAOPT_THREADS` environment variable,
    /// falling back to `1`.
    pub threads: usize,
    /// Which tree-search engine runs the branch-and-bound (see
    /// [`crate::ParallelMode`]). The default `Auto` runs the deterministic
    /// wave engine at every thread count.
    pub parallel: crate::ParallelMode,
    /// Basis-factorization backend for every LP relaxation solved under
    /// this search (root, nodes, workers): sparse LU, unless a
    /// differential test selects the dense reference.
    pub factor: metaopt_lp::FactorBackend,
    /// Obs counter handles shared by every engine and worker simplex
    /// (no-op by default). Metrics never feed back into search order, so
    /// enabling them cannot perturb the deterministic engine.
    pub metrics: crate::MilpMetrics,
    /// Obs tracer for incumbent/gap-trajectory events (no-op by default).
    pub tracer: metaopt_obs::Tracer,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            time_limit: None,
            rel_gap: 1e-6,
            stall_window: None,
            stall_improvement: 0.005,
            max_nodes: usize::MAX,
            int_tol: 1e-6,
            compl_tol: 1e-6,
            callback_every: 1,
            target_objective: None,
            budget: Budget::unlimited(),
            fault_plan: None,
            threads: 0,
            parallel: crate::ParallelMode::Auto,
            factor: metaopt_lp::FactorBackend::SparseLU,
            metrics: crate::MilpMetrics::disabled(),
            tracer: metaopt_obs::Tracer::disabled(),
        }
    }
}

impl MilpConfig {
    /// Convenience: a configuration with only a time budget set.
    pub fn with_time_limit(seconds: f64) -> Self {
        MilpConfig {
            time_limit: Some(Duration::from_secs_f64(seconds)),
            ..Default::default()
        }
    }

    /// Convenience: a configuration governed by `budget` alone.
    pub fn with_budget(budget: Budget) -> Self {
        MilpConfig {
            budget,
            ..Default::default()
        }
    }

    /// The budget the search actually runs under: [`MilpConfig::budget`]
    /// tightened by the legacy `time_limit` / `max_nodes` knobs.
    pub fn effective_budget(&self) -> Budget {
        let mut b = self.budget;
        if let Some(tl) = self.time_limit {
            b = b.min_with(Budget::from_duration(tl));
        }
        if self.max_nodes != usize::MAX {
            b = b.with_max_nodes(self.max_nodes);
        }
        b
    }
}

/// Terminal status of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Proven optimal (within the configured relative gap).
    Optimal,
    /// A feasible incumbent exists but budgets expired before proving
    /// optimality.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
    /// Budgets expired with no feasible point found (inconclusive).
    NoSolution,
}

/// Outcome of a branch-and-bound run, in *model* space (a `Max` objective is
/// reported as a maximum, etc.).
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Terminal status.
    pub status: MilpStatus,
    /// Values per model variable (meaningful for `Optimal`/`Feasible`).
    pub values: Vec<f64>,
    /// Incumbent objective.
    pub objective: f64,
    /// Best dual bound on the objective (for `Max`: an upper bound).
    pub best_bound: f64,
    /// `(incumbent − bound)` relative gap at termination.
    pub rel_gap: f64,
    /// Nodes processed.
    pub nodes: usize,
    /// Total LP simplex pivots.
    pub lp_iterations: usize,
    /// Nodes pruned due to LP numerical failures (soundness caveat if > 0).
    pub numerical_prunes: usize,
    /// Wall-clock time of the search.
    pub solve_time: Duration,
    /// `(seconds_since_start, incumbent_objective)` at every improvement —
    /// wall-clock seconds in *every* engine (the deterministic engine keeps
    /// its node-axis replay trajectory internal to the [`Checkpoint`]).
    pub trajectory: Vec<(f64, f64)>,
    /// Faults contained during the search (callback panics, LP breakdowns
    /// pruned, deadline interruptions). Empty on a clean run.
    pub faults: Vec<SolverFault>,
    /// Nodes whose relaxation came back degraded from the LP recovery
    /// ladder (their objectives were not used for pruning).
    pub degraded_nodes: usize,
    /// Warm-vs-cold accounting of the node LP solves.
    pub lp_stats: LpSolveStats,
}

/// Warm-vs-cold accounting of the node LP solves of one search: how many
/// relaxations finished inside the dual simplex (warm) versus falling back
/// to a cold two-phase run, and the pivots each kind consumed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpSolveStats {
    /// Node LPs that finished as genuine warm dual re-solves.
    pub warm_solves: usize,
    /// Total simplex pivots spent in warm solves.
    pub warm_iterations: usize,
    /// Node LPs that fell back to (or started as) cold two-phase runs.
    pub cold_solves: usize,
    /// Total simplex pivots spent in cold solves.
    pub cold_iterations: usize,
}

impl LpSolveStats {
    pub(crate) fn record(&mut self, warm: bool, iterations: usize) {
        if warm {
            self.warm_solves += 1;
            self.warm_iterations += iterations;
        } else {
            self.cold_solves += 1;
            self.cold_iterations += iterations;
        }
    }

    /// Mean pivots per warm solve (`None` until a warm solve happened).
    pub fn mean_warm_iterations(&self) -> Option<f64> {
        (self.warm_solves > 0)
            .then(|| self.warm_iterations as f64 / self.warm_solves as f64)
    }

    /// Mean pivots per cold solve (`None` until a cold solve happened).
    pub fn mean_cold_iterations(&self) -> Option<f64> {
        (self.cold_solves > 0)
            .then(|| self.cold_iterations as f64 / self.cold_solves as f64)
    }
}

/// Domain hook that turns a relaxation point into a true feasible solution.
///
/// `relaxation` holds model-variable values of the current LP relaxation.
/// Implementations return a *feasible* assignment of all model variables
/// together with its (model-space) objective value. The solver trusts the
/// reported objective for pruning — implementations must only return values
/// realized by a genuinely feasible point (e.g. obtained by running the
/// actual heuristic on candidate inputs).
pub trait IncumbentCallback {
    /// Proposes a feasible solution, or `None`.
    fn propose(&mut self, relaxation: &[f64]) -> Option<(Vec<f64>, f64)>;
}

/// No-op callback.
struct NoCallback;

impl IncumbentCallback for NoCallback {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        None
    }
}

/// Solves `model` by branch-and-bound with default behaviour.
pub fn solve(model: &Model, cfg: &MilpConfig) -> MilpResult<MilpSolution> {
    solve_with_callback(model, cfg, &mut NoCallback)
}

/// An open node in checkpoint form: bound changes from root, parent
/// bound in min-space, and depth.
pub(crate) type FrontierNode = (Vec<(VarId, f64, f64)>, f64, usize);

/// Total order on frontier nodes by (bound, depth, change path): the
/// canonical order the deterministic parallel engine certifies nodes in
/// and serializes checkpoint frontiers in. Depending only on node
/// *content* (never on creation sequence numbers) is what makes the
/// engine's visit order — and hence its `Checkpoint::to_text` output —
/// identical at any thread count and across resume boundaries. Two open
/// nodes of one tree always differ in their change path, so the order is
/// strict.
pub(crate) fn canon_cmp(
    a: (&[(VarId, f64, f64)], f64, usize),
    b: (&[(VarId, f64, f64)], f64, usize),
) -> Ordering {
    a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)).then_with(|| {
        for ((va, la, ha), (vb, lb, hb)) in a.0.iter().zip(b.0) {
            let o = va
                .0
                .cmp(&vb.0)
                .then(la.total_cmp(lb))
                .then(ha.total_cmp(hb));
            if o != Ordering::Equal {
                return o;
            }
        }
        a.0.len().cmp(&b.0.len())
    })
}

/// Unit of the time axis of a [`Checkpoint`]'s stored trajectory. The
/// work-stealing engine (and journals written before the deterministic
/// engine became the default) record incumbent improvements in wall-clock
/// seconds; the deterministic engine's replay clock is certified *nodes*
/// (seconds would differ run to run and break its bit-identical `to_text`
/// guarantee). Resume paths only adopt a stored trajectory whose axis
/// matches their own clock, so a checkpoint handed across engines never
/// mixes units in one trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum TrajAxis {
    /// Wall-clock seconds since the start of the run that recorded it.
    #[default]
    Seconds,
    /// Certified node count at the improvement (deterministic engine).
    Nodes,
}

/// Opaque resumable state of an interrupted branch-and-bound search:
/// the open frontier, the incumbent, and the bookkeeping counters.
/// Produced by [`solve_resumable`] when a budget interrupts the search;
/// feeding it back continues from exactly where the search stopped
/// instead of re-exploring the tree.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Open nodes: (bound changes from root, parent bound in min-space,
    /// depth).
    pub(crate) frontier: Vec<FrontierNode>,
    /// Incumbent in min-space.
    pub(crate) incumbent: Option<(Vec<f64>, f64)>,
    pub(crate) nodes: usize,
    pub(crate) numerical_prunes: usize,
    pub(crate) degraded_nodes: usize,
    pub(crate) trajectory: Vec<(f64, f64)>,
    /// Unit of `trajectory`'s time axis (see [`TrajAxis`]).
    pub(crate) traj_axis: TrajAxis,
    pub(crate) last_stall_value: f64,
    pub(crate) faults: Vec<SolverFault>,
}

impl Checkpoint {
    /// Number of open nodes in the stored frontier.
    pub fn open_nodes(&self) -> usize {
        self.frontier.len()
    }

    /// Nodes processed before the interruption.
    pub fn nodes_processed(&self) -> usize {
        self.nodes
    }

    /// Whether an incumbent was in hand at the interruption.
    pub fn has_incumbent(&self) -> bool {
        self.incumbent.is_some()
    }

    /// The incumbent objective in *min-space*, if one was in hand.
    pub fn incumbent_objective_min(&self) -> Option<f64> {
        self.incumbent.as_ref().map(|(_, o)| *o)
    }
}

/// A malformed [`Checkpoint`] text representation (see
/// [`Checkpoint::from_text`]). Carries a human-readable diagnostic; parsing
/// never panics and never constructs a partially-populated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointParseError(pub String);

impl std::fmt::Display for CheckpointParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed checkpoint: {}", self.0)
    }
}

impl std::error::Error for CheckpointParseError {}

/// Exact text encoding of an `f64`: the 16 hex digits of its bit pattern.
/// Chosen over decimal so that round-tripping a frontier's bound values is
/// *bit-exact* — a resumed search must make the same pruning decisions the
/// interrupted one would have made.
fn f64_to_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_hex(s: &str) -> Result<f64, CheckpointParseError> {
    if s.len() != 16 {
        return Err(CheckpointParseError(format!(
            "float field `{s}` is not 16 hex digits"
        )));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| CheckpointParseError(format!("bad float bits `{s}`")))
}

fn parse_usize(s: &str, what: &str) -> Result<usize, CheckpointParseError> {
    s.parse()
        .map_err(|_| CheckpointParseError(format!("bad {what} `{s}`")))
}

/// Escapes a fault detail string into a single whitespace-free token.
fn escape_detail(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 1);
    if s.is_empty() {
        return "~".into();
    }
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\_"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '~' => out.push_str("\\-"),
            _ => out.push(c),
        }
    }
    out
}

fn unescape_detail(s: &str) -> Result<String, CheckpointParseError> {
    if s == "~" {
        return Ok(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('_') => out.push(' '),
            Some('n') => out.push('\n'),
            Some('t') => out.push('\t'),
            Some('r') => out.push('\r'),
            Some('-') => out.push('~'),
            other => {
                return Err(CheckpointParseError(format!(
                    "bad escape `\\{}` in detail",
                    other.map_or(String::from("<eof>"), String::from)
                )))
            }
        }
    }
    Ok(out)
}

const CHECKPOINT_MAGIC: &str = "milp-checkpoint v1";

impl Checkpoint {
    /// Serializes this checkpoint into a versioned, line-oriented text
    /// form. The format is hand-rolled (the build environment has no
    /// registry access, hence no serde): one `field value...` line per
    /// record, floats encoded as exact bit patterns, terminated by an
    /// explicit `end` line so truncation is always detectable.
    ///
    /// The encoding is *relative to a compiled model*: frontier nodes
    /// store `(VarId, lo, hi)` bound changes against the root relaxation.
    /// Resuming therefore requires rebuilding the **same** model the
    /// checkpoint was taken from (model compilation is deterministic), as
    /// the campaign journal does from its serialized cell specs.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(CHECKPOINT_MAGIC);
        out.push('\n');
        out.push_str(&format!("nodes {}\n", self.nodes));
        out.push_str(&format!("prunes {}\n", self.numerical_prunes));
        out.push_str(&format!("degraded {}\n", self.degraded_nodes));
        out.push_str(&format!("stall {}\n", f64_to_hex(self.last_stall_value)));
        out.push_str(match self.traj_axis {
            TrajAxis::Seconds => "traj_axis secs\n",
            TrajAxis::Nodes => "traj_axis nodes\n",
        });
        for f in &self.faults {
            out.push_str(&format!(
                "fault {} {}\n",
                f.kind(),
                escape_detail(f.detail())
            ));
        }
        for (t, v) in &self.trajectory {
            out.push_str(&format!("traj {} {}\n", f64_to_hex(*t), f64_to_hex(*v)));
        }
        if let Some((vals, obj)) = &self.incumbent {
            out.push_str(&format!("incumbent {} {}", f64_to_hex(*obj), vals.len()));
            for v in vals {
                out.push(' ');
                out.push_str(&f64_to_hex(*v));
            }
            out.push('\n');
        }
        for (changes, bound, depth) in &self.frontier {
            out.push_str(&format!(
                "open {} {} {}",
                f64_to_hex(*bound),
                depth,
                changes.len()
            ));
            for (v, lo, hi) in changes {
                out.push_str(&format!(" {}:{}:{}", v.0, f64_to_hex(*lo), f64_to_hex(*hi)));
            }
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses a checkpoint previously produced by [`Checkpoint::to_text`].
    ///
    /// Rejects (never panics on) unknown versions, missing or duplicated
    /// fields, malformed numbers, truncation (missing `end`), and trailing
    /// garbage — a corrupted journal entry must surface as an error, not a
    /// silently wrong resume.
    pub fn from_text(text: &str) -> Result<Checkpoint, CheckpointParseError> {
        let mut lines = text.lines();
        if lines.next() != Some(CHECKPOINT_MAGIC) {
            return Err(CheckpointParseError(format!(
                "missing `{CHECKPOINT_MAGIC}` header"
            )));
        }
        let mut nodes: Option<usize> = None;
        let mut prunes: Option<usize> = None;
        let mut degraded: Option<usize> = None;
        let mut stall: Option<f64> = None;
        let mut faults: Vec<SolverFault> = Vec::new();
        let mut trajectory: Vec<(f64, f64)> = Vec::new();
        let mut traj_axis: Option<TrajAxis> = None;
        let mut incumbent: Option<(Vec<f64>, f64)> = None;
        let mut frontier: Vec<FrontierNode> = Vec::new();
        let mut ended = false;
        for line in lines.by_ref() {
            let mut tok = line.split(' ');
            let key = tok.next().unwrap_or("");
            match key {
                "nodes" | "prunes" | "degraded" => {
                    let slot = match key {
                        "nodes" => &mut nodes,
                        "prunes" => &mut prunes,
                        _ => &mut degraded,
                    };
                    let v = parse_usize(tok.next().unwrap_or(""), key)?;
                    if slot.replace(v).is_some() {
                        return Err(CheckpointParseError(format!("duplicate `{key}`")));
                    }
                }
                "stall" => {
                    let v = f64_from_hex(tok.next().unwrap_or(""))?;
                    if stall.replace(v).is_some() {
                        return Err(CheckpointParseError("duplicate `stall`".into()));
                    }
                }
                "fault" => {
                    let kind = tok.next().unwrap_or("");
                    let detail = unescape_detail(tok.next().unwrap_or(""))?;
                    let f = SolverFault::from_kind(kind, &detail).ok_or_else(|| {
                        CheckpointParseError(format!("unknown fault kind `{kind}`"))
                    })?;
                    faults.push(f);
                }
                "traj" => {
                    let t = f64_from_hex(tok.next().unwrap_or(""))?;
                    let v = f64_from_hex(tok.next().unwrap_or(""))?;
                    trajectory.push((t, v));
                }
                "traj_axis" => {
                    let axis = match tok.next().unwrap_or("") {
                        "secs" => TrajAxis::Seconds,
                        "nodes" => TrajAxis::Nodes,
                        other => {
                            return Err(CheckpointParseError(format!(
                                "unknown trajectory axis `{other}`"
                            )))
                        }
                    };
                    if traj_axis.replace(axis).is_some() {
                        return Err(CheckpointParseError("duplicate `traj_axis`".into()));
                    }
                }
                "incumbent" => {
                    let obj = f64_from_hex(tok.next().unwrap_or(""))?;
                    let n = parse_usize(tok.next().unwrap_or(""), "incumbent arity")?;
                    let vals = tok
                        .by_ref()
                        .map(f64_from_hex)
                        .collect::<Result<Vec<_>, _>>()?;
                    if vals.len() != n {
                        return Err(CheckpointParseError(format!(
                            "incumbent arity {n} != {} values",
                            vals.len()
                        )));
                    }
                    if incumbent.replace((vals, obj)).is_some() {
                        return Err(CheckpointParseError("duplicate `incumbent`".into()));
                    }
                }
                "open" => {
                    let bound = f64_from_hex(tok.next().unwrap_or(""))?;
                    let depth = parse_usize(tok.next().unwrap_or(""), "depth")?;
                    let n = parse_usize(tok.next().unwrap_or(""), "change count")?;
                    let mut changes = Vec::with_capacity(n);
                    for t in tok.by_ref() {
                        let mut parts = t.split(':');
                        let var = parse_usize(parts.next().unwrap_or(""), "var id")?;
                        let lo = f64_from_hex(parts.next().unwrap_or(""))?;
                        let hi = f64_from_hex(parts.next().unwrap_or(""))?;
                        if parts.next().is_some() {
                            return Err(CheckpointParseError(format!(
                                "trailing fields in bound change `{t}`"
                            )));
                        }
                        changes.push((VarId(var), lo, hi));
                    }
                    if changes.len() != n {
                        return Err(CheckpointParseError(format!(
                            "open-node arity {n} != {} changes",
                            changes.len()
                        )));
                    }
                    frontier.push((changes, bound, depth));
                }
                "end" => {
                    if tok.next().is_some() {
                        return Err(CheckpointParseError("trailing tokens on `end`".into()));
                    }
                    ended = true;
                    break;
                }
                other => {
                    return Err(CheckpointParseError(format!("unknown field `{other}`")));
                }
            }
            if tok.next().is_some() && !matches!(key, "incumbent" | "open") {
                return Err(CheckpointParseError(format!("trailing tokens on `{key}`")));
            }
        }
        if !ended {
            return Err(CheckpointParseError("truncated: missing `end`".into()));
        }
        if lines.next().is_some() {
            return Err(CheckpointParseError("trailing garbage after `end`".into()));
        }
        let (nodes, prunes, degraded, stall) = match (nodes, prunes, degraded, stall) {
            (Some(n), Some(p), Some(d), Some(s)) => (n, p, d, s),
            _ => {
                return Err(CheckpointParseError(
                    "missing one of nodes/prunes/degraded/stall".into(),
                ))
            }
        };
        if frontier.is_empty() {
            // An interrupted search always has open work; an empty frontier
            // means resume would silently terminate immediately.
            return Err(CheckpointParseError("empty frontier".into()));
        }
        Ok(Checkpoint {
            frontier,
            incumbent,
            nodes,
            numerical_prunes: prunes,
            degraded_nodes: degraded,
            trajectory,
            // Texts without the axis marker predate the node-axis clock
            // and carry seconds.
            traj_axis: traj_axis.unwrap_or_default(),
            last_stall_value: stall,
            faults,
        })
    }
}

/// Solves `model` by branch-and-bound, consulting `callback` for incumbents.
pub fn solve_with_callback(
    model: &Model,
    cfg: &MilpConfig,
    callback: &mut dyn IncumbentCallback,
) -> MilpResult<MilpSolution> {
    solve_resumable(model, cfg, callback, None).map(|(sol, _)| sol)
}

/// Like [`solve_with_callback`], but the search can be interrupted and
/// continued: when a budget stops the search with open nodes, the second
/// return value carries a [`Checkpoint`]; passing it back (with a fresh
/// budget) resumes from the stored frontier instead of restarting.
pub fn solve_resumable(
    model: &Model,
    cfg: &MilpConfig,
    callback: &mut dyn IncumbentCallback,
    resume: Option<Checkpoint>,
) -> MilpResult<(MilpSolution, Option<Checkpoint>)> {
    // an:allow(AN001): `solve_time` and the reported trajectory are
    // wall-clock for every engine; bit-stable replay rides on the
    // checkpoint's node-axis trajectory instead.
    let start = Instant::now();
    let cm = compile(model)?;
    match cfg.resolved_engine() {
        crate::parallel::Engine::Deterministic(threads) => {
            crate::parallel::solve_deterministic(&cm, cfg, callback, resume, threads, start)
        }
        crate::parallel::Engine::WorkStealing(threads) => {
            crate::parallel::solve_work_stealing(&cm, cfg, callback, resume, threads, start)
        }
    }
}

pub(crate) fn to_min_space(cm: &CompiledModel, model_obj: f64) -> f64 {
    // restore_objective is an involution (negate or identity).
    cm.restore_objective(model_obj)
}

/// The binary branching rule, shared by every tree-search engine: the
/// binary whose relaxation value is farthest from integral.
pub(crate) fn most_fractional_binary(
    cm: &CompiledModel,
    int_tol: f64,
    lp_x: &[f64],
) -> Option<(VarId, f64, f64)> {
    let mut best: Option<(VarId, f64, f64)> = None;
    for b in &cm.binaries {
        let id = cm.lp_var(*b);
        let x = lp_x[id.0];
        let frac = (x - x.round()).abs();
        if frac > int_tol {
            match best {
                Some((_, _, bf)) if bf >= frac => {}
                _ => best = Some((id, x, frac)),
            }
        }
    }
    best
}

/// The SOS1 branching rule, shared by every tree-search engine: the
/// complementarity pair `(λ, s)` with the largest `min(λ, s)` violation.
pub(crate) fn most_violated_compl(
    cm: &CompiledModel,
    compl_tol: f64,
    lp_x: &[f64],
) -> Option<(VarId, VarId, f64, f64)> {
    let mut best: Option<(VarId, VarId, f64, f64, f64)> = None;
    for &(m, s) in &cm.compl_pairs {
        let mv = lp_x[m.0];
        let sv = lp_x[s.0];
        let viol = mv.min(sv);
        if viol > compl_tol * (1.0 + mv.max(sv)) {
            match best {
                Some((.., bviol)) if bviol >= viol => {}
                _ => best = Some((m, s, mv, sv, viol)),
            }
        }
    }
    best.map(|(m, s, mv, sv, _)| (m, s, mv, sv))
}

/// Runs an incumbent callback with panic containment (shared by every
/// tree-search engine): a panicking callback loses its proposal and the
/// panic surfaces as a structured [`SolverFault`] for the caller's
/// bookkeeping.
pub(crate) fn propose_contained(
    callback: &mut dyn IncumbentCallback,
    relaxation: &[f64],
    inject: bool,
) -> Result<Option<(Vec<f64>, f64)>, SolverFault> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if inject {
            panic!("injected incumbent-callback panic");
        }
        callback.propose(relaxation)
    }));
    outcome.map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(std::string::ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".into());
        SolverFault::CallbackPanic(msg)
    })
}
