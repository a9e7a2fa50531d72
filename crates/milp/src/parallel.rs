//! The branch-and-bound engines.
//!
//! Two engines share the node semantics (bounds, pruning, branching rules,
//! degraded handling, callback containment):
//!
//! * **Deterministic** (`ParallelMode::Deterministic`, and what
//!   `ParallelMode::Auto` runs at every thread count) — a wave-synchronous
//!   coordinator/worker design. The coordinator repeatedly pops the
//!   [`DET_WAVE`] canonically-smallest open nodes, farms their relaxation
//!   LPs out to a worker pool, and then *certifies* the results strictly in
//!   canonical node order: pruning, node counting, incumbent publication,
//!   and branching all happen sequentially on the coordinator. Three design
//!   rules make the whole trajectory a pure function of the problem,
//!   independent of the thread count:
//!
//!   1. the wave width is a *constant*, never "how many threads are free";
//!   2. every node LP is solved from its parent's [`Basis`] snapshot (or
//!      cold when it has none), so the result does not depend on which
//!      worker's simplex performs it;
//!   3. node order is the content-based [`canon_cmp`] — no sequence
//!      numbers, so a frontier reloaded from a checkpoint orders exactly
//!      like the live one.
//!
//!   Budget stops land on wave boundaries and *checkpoint* trajectory
//!   timestamps count nodes instead of seconds, so `Checkpoint`s, §3.3
//!   stall accounting, `resilience::Budget` node allowances, and campaign
//!   resume keep their bit-for-bit replay guarantees at any thread count.
//!   The node-axis trajectory stays internal to the checkpoint: the
//!   reported [`MilpSolution::trajectory`] is a separately-recorded
//!   wall-clock one, in seconds like every other engine's. (Wall-clock
//!   rules — deadlines and stall windows — remain real time; they choose
//!   *which* wave boundary the search pauses at, and replay from that
//!   checkpoint is again exact.)
//!
//!   At one thread, or whenever a [`FaultPlan`] is installed, the waves
//!   are solved inline on the calling thread by one simplex. Fault
//!   injection therefore fires in canonical wave order, and a seeded
//!   chaos run replays identically at any `METAOPT_THREADS`.
//!
//! * **Work-stealing** (`ParallelMode::WorkStealing`) — the throughput
//!   engine: a mutex-protected best-bound frontier with per-worker local
//!   stacks for dive phases, an atomically shared incumbent objective for
//!   cooperative pruning (workers drop nodes whose bound falls above it),
//!   first-improver incumbent publication under a single lock, and a
//!   condvar-based idle count for termination detection. Results are
//!   certified-correct but the visit order (hence node counts, trajectory,
//!   checkpoint) is timing-dependent.
//!
//! The incumbent callback is `&mut dyn` without `Send`, so both engines
//! invoke it exclusively on the calling thread: the deterministic
//! coordinator calls it inline during certification; the work-stealing
//! workers ship relaxation points over a channel to the calling thread,
//! which services them between its wall-clock stop checks.

use crate::solver::{
    canon_cmp, most_fractional_binary, most_violated_compl, propose_contained, to_min_space,
    Checkpoint, FrontierNode, IncumbentCallback, LpSolveStats, MilpConfig, MilpSolution,
    MilpStatus, TrajAxis, MAX_CALLBACK_PANICS,
};
use crate::{MilpError, MilpResult};
use metaopt_lp::{Basis, LpError, Simplex, SolveStatus, VarId};
use metaopt_model::CompiledModel;
use metaopt_resilience::{Budget, FaultPlan, FaultSite, NodeMeter, SolverFault};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtOrd};
use std::sync::atomic::AtomicUsize;
use std::sync::{mpsc, Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which tree-search engine a solve runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    /// The default: the deterministic wave engine at the resolved thread
    /// count.
    #[default]
    Auto,
    /// Wave-synchronous search whose certified results, node counts, and
    /// checkpoints are bit-identical at any thread count.
    Deterministic,
    /// Throughput-oriented work-stealing search; certified-correct but
    /// with a timing-dependent visit order.
    WorkStealing,
}

/// A resolved engine choice: mode plus worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    Deterministic(usize),
    WorkStealing(usize),
}

/// Thread count requested through the environment (`METAOPT_THREADS`),
/// defaulting to 1. Zero or unparsable values fall back to 1.
pub fn env_threads() -> usize {
    std::env::var("METAOPT_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

impl MilpConfig {
    /// The worker-thread count this configuration resolves to:
    /// [`MilpConfig::threads`] when nonzero, else `METAOPT_THREADS`, else 1.
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            env_threads()
        }
    }

    pub(crate) fn resolved_engine(&self) -> Engine {
        let t = self.resolved_threads().max(1);
        match self.parallel {
            ParallelMode::Auto | ParallelMode::Deterministic => Engine::Deterministic(t),
            ParallelMode::WorkStealing => Engine::WorkStealing(t),
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic wave-synchronous engine
// ---------------------------------------------------------------------

/// Nodes speculatively solved per wave. A *constant* (never derived from
/// the thread count): the wave partition — and with it the entire
/// exploration order — must be identical whether 1 or 64 threads execute
/// the LP solves.
const DET_WAVE: usize = 8;

/// An open node of the deterministic engine. `basis` is the parent's
/// optimal basis (shared, never mutated), making the node's LP solve a
/// pure function of the node itself.
struct DetNode {
    changes: Vec<(VarId, f64, f64)>,
    bound: f64,
    depth: usize,
    basis: Option<Arc<Basis>>,
}

impl DetNode {
    fn key(&self) -> (&[(VarId, f64, f64)], f64, usize) {
        (&self.changes, self.bound, self.depth)
    }
}

/// Heap wrapper: the canonically-smallest node pops first.
struct ByCanon(DetNode);

impl PartialEq for ByCanon {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for ByCanon {}
impl PartialOrd for ByCanon {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ByCanon {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, canonical minimum on top.
        canon_cmp(other.0.key(), self.0.key())
    }
}

/// One dispatched node-LP job.
struct Job {
    slot: usize,
    changes: Vec<(VarId, f64, f64)>,
    basis: Option<Arc<Basis>>,
}

/// Outcome of one node's relaxation LP, computed on a worker.
enum Eval {
    Solved {
        status: SolveStatus,
        x: Vec<f64>,
        objective: f64,
        degraded: bool,
        warm: bool,
        iterations: usize,
        basis: Option<Arc<Basis>>,
    },
    /// The wall-clock deadline interrupted the solve; the node stays open.
    Deadline,
    /// The LP exhausted its recovery ladder (or pivot budget): prune
    /// conservatively, optionally carrying the structured fault.
    Pruned(Option<SolverFault>),
    /// Irrecoverable LP failure — aborts the whole search.
    Fatal(LpError),
    /// The worker caught a panic while solving (should never happen; kept
    /// as a containment backstop so a worker bug cannot hang the search).
    Panicked(String),
}

/// Solves one node's relaxation on `simplex`: restores root bounds for
/// stale vars, applies the node's bound set, then solves from the parent
/// basis when one is attached (cold otherwise — never from the worker's
/// happenstance previous basis, which would break determinism).
fn eval_node(
    simplex: &mut Simplex,
    applied: &mut Vec<usize>,
    root_bounds: &[(f64, f64)],
    changes: &[(VarId, f64, f64)],
    basis: Option<&Basis>,
    deterministic: bool,
) -> Eval {
    for &j in applied.iter() {
        let (lo, hi) = root_bounds[j];
        if let Err(e) = simplex.set_var_bounds(VarId(j), lo, hi) {
            return Eval::Fatal(e);
        }
    }
    applied.clear();
    for &(v, lo, hi) in changes {
        if let Err(e) = simplex.set_var_bounds(v, lo, hi) {
            return Eval::Fatal(e);
        }
        applied.push(v.0);
    }
    let before = simplex.iterations();
    let res = match basis {
        Some(b) => simplex.resolve_from(b),
        // Deterministic mode must not warm-start from whatever basis this
        // worker happens to hold; the work-stealing mode wants exactly
        // that for dive children (the worker's basis *is* the parent's).
        None if deterministic => simplex.solve(),
        None => simplex.resolve(),
    };
    match res {
        Ok(sol) => Eval::Solved {
            basis: if sol.status == SolveStatus::Optimal {
                simplex.snapshot_basis().map(Arc::new)
            } else {
                None
            },
            status: sol.status,
            objective: sol.objective,
            degraded: sol.degraded,
            warm: simplex.last_solve_warm(),
            iterations: simplex.iterations() - before,
            x: sol.x,
        },
        Err(LpError::Fault(SolverFault::DeadlineExceeded)) => Eval::Deadline,
        Err(e) if e.is_recoverable() || matches!(e, LpError::IterationLimit) => {
            Eval::Pruned(e.fault().cloned())
        }
        Err(e) => Eval::Fatal(e),
    }
}

fn worker_simplex(
    cm: &CompiledModel,
    budget: &Budget,
    plan: Option<FaultPlan>,
    metrics: crate::metrics::MilpMetrics,
    backend: metaopt_lp::FactorBackend,
) -> Simplex {
    let mut s = Simplex::with_config(
        &cm.lp,
        metaopt_lp::SimplexConfig {
            backend,
            ..Default::default()
        },
    );
    s.set_deadline(budget.deadline());
    s.set_fault_plan(plan);
    s.set_metrics(metrics.lp);
    s
}

struct Det<'a> {
    cm: &'a CompiledModel,
    cfg: &'a MilpConfig,
    callback: &'a mut dyn IncumbentCallback,
    frontier: BinaryHeap<ByCanon>,
    incumbent: Option<(Vec<f64>, f64)>,
    nodes: usize,
    numerical_prunes: usize,
    degraded_nodes: usize,
    /// Node-axis incumbent trajectory — the deterministic replay clock,
    /// stored in checkpoints (bit-identical at any thread count).
    trajectory: Vec<(f64, f64)>,
    /// Wall-clock incumbent trajectory of *this run*, in seconds — what
    /// [`MilpSolution::trajectory`] reports, like every other engine.
    wall_trajectory: Vec<(f64, f64)>,
    last_improvement: Instant,
    last_stall_value: f64,
    stopped_early: bool,
    proven_bound: f64,
    budget: Budget,
    fault_plan: Option<FaultPlan>,
    faults: Vec<SolverFault>,
    callback_panics: usize,
    resumed: bool,
    lp_stats: LpSolveStats,
    start: Instant,
}

/// Entry point for the deterministic engine (dispatched from
/// `solve_resumable`).
pub(crate) fn solve_deterministic(
    cm: &CompiledModel,
    cfg: &MilpConfig,
    callback: &mut dyn IncumbentCallback,
    resume: Option<Checkpoint>,
    threads: usize,
    start: Instant,
) -> MilpResult<(MilpSolution, Option<Checkpoint>)> {
    let budget = cfg.effective_budget();
    let root_bounds: Vec<(f64, f64)> = (0..cm.lp.n_vars()).map(|j| cm.lp.bounds(VarId(j))).collect();
    let mut det = Det {
        cm,
        cfg,
        callback,
        frontier: BinaryHeap::new(),
        incumbent: None,
        nodes: 0,
        numerical_prunes: 0,
        degraded_nodes: 0,
        trajectory: Vec::new(),
        wall_trajectory: Vec::new(),
        // an:allow(AN001): the §3.3 stall rule measures real elapsed time
        // between incumbent improvements; determinism is preserved because
        // stall stops are always recorded as `stopped_early`.
        last_improvement: Instant::now(),
        last_stall_value: f64::INFINITY,
        stopped_early: false,
        proven_bound: f64::NEG_INFINITY,
        budget,
        fault_plan: cfg.fault_plan.clone(),
        faults: Vec::new(),
        callback_panics: 0,
        resumed: false,
        lp_stats: LpSolveStats::default(),
        start,
    };
    if let Some(cp) = resume {
        det.resumed = true;
        det.incumbent = cp.incumbent;
        det.nodes = cp.nodes;
        det.numerical_prunes = cp.numerical_prunes;
        det.degraded_nodes = cp.degraded_nodes;
        // Seed whichever trajectory matches the checkpoint's axis: the
        // replay clock from a deterministic checkpoint, the reported
        // wall-clock history from a seconds-axis one. Never both —
        // the units must not mix in one vector.
        match cp.traj_axis {
            TrajAxis::Nodes => det.trajectory = cp.trajectory,
            TrajAxis::Seconds => det.wall_trajectory = cp.trajectory,
        }
        det.last_stall_value = cp.last_stall_value;
        det.faults = cp.faults;
        for (changes, bound, depth) in cp.frontier {
            det.frontier.push(ByCanon(DetNode {
                changes,
                bound,
                depth,
                basis: None,
            }));
        }
    }
    // A fault plan's hit counters are shared by every simplex it is
    // installed on, so injection order is only canonical when one simplex
    // solves the waves in order.
    let outcome = if threads <= 1 || cfg.fault_plan.is_some() {
        let mut simplex = worker_simplex(
            cm,
            &budget,
            cfg.fault_plan.clone(),
            cfg.metrics.clone(),
            cfg.factor,
        );
        let mut applied: Vec<usize> = Vec::new();
        det.run(&mut |wave: &[DetNode]| {
            Ok(wave
                .iter()
                .map(|n| {
                    eval_node(
                        &mut simplex,
                        &mut applied,
                        &root_bounds,
                        &n.changes,
                        n.basis.as_deref(),
                        true,
                    )
                })
                .collect())
        })
    } else {
        std::thread::scope(|scope| {
            let (res_tx, res_rx) = mpsc::channel::<(usize, Eval)>();
            let job_txs: Vec<mpsc::Sender<Job>> = (0..threads)
                .map(|_| {
                    let (tx, rx) = mpsc::channel::<Job>();
                    let res_tx = res_tx.clone();
                    let rb = &root_bounds;
                    let plan = cfg.fault_plan.clone();
                    let metrics = cfg.metrics.clone();
                    let backend = cfg.factor;
                    scope.spawn(move || {
                        let mut simplex = worker_simplex(cm, &budget, plan, metrics, backend);
                        let mut applied: Vec<usize> = Vec::new();
                        while let Ok(Job {
                            slot,
                            changes,
                            basis,
                        }) = rx.recv()
                        {
                            let out = catch_unwind(AssertUnwindSafe(|| {
                                eval_node(
                                    &mut simplex,
                                    &mut applied,
                                    rb,
                                    &changes,
                                    basis.as_deref(),
                                    true,
                                )
                            }))
                            .unwrap_or_else(|_| Eval::Panicked("LP worker panicked".into()));
                            if res_tx.send((slot, out)).is_err() {
                                break;
                            }
                        }
                    });
                    tx
                })
                .collect();
            let r = det.run(&mut |wave: &[DetNode]| {
                for (slot, n) in wave.iter().enumerate() {
                    job_txs[slot % threads]
                        .send(Job {
                            slot,
                            changes: n.changes.clone(),
                            basis: n.basis.clone(),
                        })
                        .map_err(|_| MilpError::Model("parallel LP worker unavailable".into()))?;
                }
                let mut evals: Vec<Option<Eval>> = wave.iter().map(|_| None).collect();
                for _ in 0..wave.len() {
                    let (slot, out) = res_rx
                        .recv()
                        .map_err(|_| MilpError::Model("parallel LP worker disappeared".into()))?;
                    evals[slot] = Some(out);
                }
                Ok(evals
                    .into_iter()
                    .map(|e| e.unwrap_or_else(|| Eval::Panicked("missing worker result".into())))
                    .collect())
            });
            drop(job_txs);
            r
        })
    };
    outcome?;
    Ok(det.finish(start))
}

impl<'a> Det<'a> {
    fn fire_fault(&self, site: FaultSite) -> bool {
        self.fault_plan.as_ref().is_some_and(|p| p.fire(site))
    }

    fn incumbent_obj(&self) -> f64 {
        self.incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o)
    }

    fn open_bound(&self) -> f64 {
        let mut b = f64::INFINITY;
        if let Some(top) = self.frontier.peek() {
            b = b.min(top.0.bound);
        }
        b.min(self.incumbent_obj())
    }

    /// Records each strict improvement twice: on the node axis (the
    /// deterministic replay clock, kept for checkpoints) and on the wall
    /// clock (what the solution reports).
    fn record_incumbent(&mut self, values: Vec<f64>, min_obj: f64) {
        if min_obj < self.incumbent_obj() - 1e-12 {
            let improvement = if self.last_stall_value.is_finite() {
                (self.last_stall_value - min_obj).abs() / self.last_stall_value.abs().max(1.0)
            } else {
                f64::INFINITY
            };
            if improvement >= self.cfg.stall_improvement {
                // an:allow(AN001): stall-rule wall clock, as at the engine
                // start above.
                self.last_improvement = Instant::now();
                self.last_stall_value = min_obj;
            }
            self.incumbent = Some((values, min_obj));
            let obj = self.cm.restore_objective(min_obj);
            self.trajectory.push((self.nodes as f64, obj));
            self.wall_trajectory
                .push((self.start.elapsed().as_secs_f64(), obj));
            self.cfg.metrics.incumbents.inc();
            self.cfg.tracer.event(
                "milp.incumbent",
                vec![
                    ("engine", "deterministic".to_string()),
                    ("objective", format!("{obj}")),
                    ("nodes", self.nodes.to_string()),
                ],
            );
        }
    }

    fn propose(&mut self, relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        if self.cfg.callback_every == 0 || self.callback_panics >= MAX_CALLBACK_PANICS {
            return None;
        }
        let inject = self.fire_fault(FaultSite::CallbackPanic);
        match propose_contained(self.callback, relaxation, inject) {
            Ok(p) => p,
            Err(fault) => {
                self.callback_panics += 1;
                self.faults.push(fault);
                None
            }
        }
    }

    /// Stop rules, checked *between* waves only, so interruptions always
    /// land on a wave boundary (the property that makes node-budget
    /// checkpoints resume bit-exactly). Returns true to halt.
    fn pre_wave_stop(&mut self) -> bool {
        if self.budget.expired() {
            self.stopped_early = true;
            return true;
        }
        let stall_injected = self.fire_fault(FaultSite::StallNow);
        if stall_injected
            || self
                .cfg
                .stall_window
                .is_some_and(|w| self.incumbent.is_some() && self.last_improvement.elapsed() >= w)
        {
            if stall_injected {
                self.faults.push(SolverFault::StallDetected);
            }
            self.stopped_early = true;
            return true;
        }
        if self.nodes >= self.budget.max_nodes().unwrap_or(usize::MAX) {
            self.stopped_early = true;
            return true;
        }
        if let Some(target) = self.cfg.target_objective {
            let target_min = self.cm.restore_objective(target);
            if self.incumbent_obj() <= target_min + crate::CERT_TOL {
                self.stopped_early = true;
                return true;
            }
        }
        if let Some((_, inc)) = &self.incumbent {
            let bound = self.open_bound();
            let gap = (inc - bound) / inc.abs().max(1.0);
            if gap <= self.cfg.rel_gap {
                self.proven_bound = bound;
                return true;
            }
        }
        false
    }

    fn run(
        &mut self,
        eval_wave: &mut dyn FnMut(&[DetNode]) -> MilpResult<Vec<Eval>>,
    ) -> MilpResult<()> {
        // Seed the incumbent before the (potentially expensive) root
        // relaxation: domain callbacks can produce certified solutions from
        // structural knowledge alone, keeping the search anytime even when
        // the root LP consumes most of a tight budget.
        let origin = vec![0.0; self.cm.var_map.len()];
        if let Some((vals, model_obj)) = self.propose(&origin) {
            let min_obj = to_min_space(self.cm, model_obj);
            self.record_incumbent(vals, min_obj);
        }
        if !self.resumed {
            self.frontier.push(ByCanon(DetNode {
                changes: Vec::new(),
                bound: f64::NEG_INFINITY,
                depth: 0,
                basis: None,
            }));
        }
        loop {
            if self.pre_wave_stop() {
                return Ok(());
            }
            // Assemble the wave: the DET_WAVE canonically-best open nodes
            // that survive the incumbent prune.
            let mut wave: Vec<DetNode> = Vec::with_capacity(DET_WAVE);
            while wave.len() < DET_WAVE {
                match self.frontier.pop() {
                    Some(ByCanon(n)) => {
                        if n.bound < self.incumbent_obj() - 1e-9 {
                            wave.push(n);
                        }
                    }
                    None => break,
                }
            }
            if wave.is_empty() {
                // Tree exhausted: the incumbent (if any) is optimal.
                self.proven_bound = self.incumbent_obj();
                return Ok(());
            }
            self.cfg.metrics.waves.inc();
            let mut evals = eval_wave(&wave)?;
            // Certify strictly in canonical (wave) order.
            let mut push_back = false;
            for (node, slot) in wave.into_iter().zip(0..) {
                let eval = std::mem::replace(&mut evals[slot], Eval::Deadline);
                if push_back {
                    self.frontier.push(ByCanon(node));
                    continue;
                }
                self.certify(node, eval, &mut push_back)?;
            }
            if push_back {
                // A deadline interrupted the wave mid-flight; stop with
                // the untouched remainder back on the frontier.
                return Ok(());
            }
        }
    }

    /// Certifies one solved node (its LP already solved on a worker):
    /// prune, count, consult the callback, record an incumbent or branch,
    /// with children inheriting the node's optimal basis for their own
    /// warm starts.
    fn certify(&mut self, node: DetNode, eval: Eval, push_back: &mut bool) -> MilpResult<()> {
        // Certification-time prune re-check: an incumbent certified
        // earlier in this wave may have overtaken this node's bound.
        if node.bound >= self.incumbent_obj() - 1e-9 {
            return Ok(());
        }
        match eval {
            Eval::Deadline => {
                self.faults.push(SolverFault::DeadlineExceeded);
                self.stopped_early = true;
                self.frontier.push(ByCanon(node));
                *push_back = true;
                Ok(())
            }
            Eval::Pruned(fault) => {
                self.nodes += 1;
                self.cfg.metrics.nodes.inc();
                if let Some(f) = fault {
                    self.faults.push(f);
                }
                self.numerical_prunes += 1;
                Ok(())
            }
            Eval::Fatal(e) => Err(MilpError::Lp(e)),
            Eval::Panicked(msg) => Err(MilpError::Model(format!(
                "parallel LP worker panicked: {msg}"
            ))),
            Eval::Solved {
                status,
                x,
                objective,
                degraded,
                warm,
                iterations,
                basis,
            } => {
                self.nodes += 1;
                self.cfg.metrics.nodes.inc();
                self.lp_stats.record(warm, iterations);
                match status {
                    SolveStatus::Infeasible => return Ok(()),
                    SolveStatus::Unbounded => {
                        self.proven_bound = f64::NEG_INFINITY;
                        return Err(MilpError::Model(
                            "relaxation is unbounded; bound the outer variables".into(),
                        ));
                    }
                    SolveStatus::Optimal => {}
                }
                // A degraded relaxation point is not a valid relaxation
                // optimum: its objective must not prune the node or tighten
                // child bounds, so the node keeps its parent's bound.
                let obj = if degraded {
                    self.degraded_nodes += 1;
                    node.bound
                } else {
                    objective
                };
                if !degraded && obj >= self.incumbent_obj() - 1e-9 {
                    return Ok(()); // pruned by bound
                }
                if self.cfg.callback_every > 0
                    && (self.nodes - 1).is_multiple_of(self.cfg.callback_every)
                {
                    let relax_vals = self.cm.extract_values(&x);
                    if let Some((vals, model_obj)) = self.propose(&relax_vals) {
                        let min_obj = to_min_space(self.cm, model_obj);
                        self.record_incumbent(vals, min_obj);
                    }
                }
                match (
                    most_fractional_binary(self.cm, self.cfg.int_tol, &x),
                    most_violated_compl(self.cm, self.cfg.compl_tol, &x),
                ) {
                    (None, None) => {
                        // An ε-perturbed point is no trustworthy incumbent
                        // and offers nothing to branch on: prune it.
                        if degraded {
                            self.numerical_prunes += 1;
                        } else {
                            let vals = self.cm.extract_values(&x);
                            self.record_incumbent(vals, obj);
                        }
                    }
                    // Binary branching first: indicator structure usually
                    // dominates the conditional heuristics' search space.
                    (Some((v, value, _frac)), _) => {
                        let rounded = value.round().clamp(0.0, 1.0);
                        self.push_children(node, v, rounded, 1.0 - rounded, obj, basis);
                    }
                    (None, Some((mult, slack, mval, sval))) => {
                        let (first, second) = if mval <= sval {
                            (mult, slack)
                        } else {
                            (slack, mult)
                        };
                        let mut a = node.changes.clone();
                        a.push((first, 0.0, 0.0));
                        let mut b = node.changes;
                        b.push((second, 0.0, 0.0));
                        let depth = node.depth + 1;
                        self.frontier.push(ByCanon(DetNode {
                            changes: a,
                            bound: obj,
                            depth,
                            basis: basis.clone(),
                        }));
                        self.frontier.push(ByCanon(DetNode {
                            changes: b,
                            bound: obj,
                            depth,
                            basis,
                        }));
                    }
                }
                Ok(())
            }
        }
    }

    fn push_children(
        &mut self,
        node: DetNode,
        v: VarId,
        first: f64,
        second: f64,
        obj: f64,
        basis: Option<Arc<Basis>>,
    ) {
        let mut a = node.changes.clone();
        a.push((v, first, first));
        let mut b = node.changes;
        b.push((v, second, second));
        let depth = node.depth + 1;
        self.frontier.push(ByCanon(DetNode {
            changes: a,
            bound: obj,
            depth,
            basis: basis.clone(),
        }));
        self.frontier.push(ByCanon(DetNode {
            changes: b,
            bound: obj,
            depth,
            basis,
        }));
    }

    fn finish(mut self, start: Instant) -> (MilpSolution, Option<Checkpoint>) {
        let bound_min = if self.stopped_early {
            self.open_bound()
        } else {
            self.proven_bound
        };
        let checkpoint = if self.stopped_early {
            let mut frontier: Vec<FrontierNode> = self
                .frontier
                .drain()
                .map(|ByCanon(n)| (n.changes, n.bound, n.depth))
                .collect();
            // Canonical serialization order: identical frontiers produce
            // identical `to_text` bytes at every thread count.
            frontier.sort_by(|a, b| canon_cmp((&a.0, a.1, a.2), (&b.0, b.1, b.2)));
            if frontier.is_empty() {
                None
            } else {
                Some(Checkpoint {
                    frontier,
                    incumbent: self.incumbent.clone(),
                    nodes: self.nodes,
                    numerical_prunes: self.numerical_prunes,
                    degraded_nodes: self.degraded_nodes,
                    trajectory: self.trajectory.clone(),
                    traj_axis: TrajAxis::Nodes,
                    last_stall_value: self.last_stall_value,
                    faults: self.faults.clone(),
                })
            }
        } else {
            None
        };
        let (status, values, objective) = match (&self.incumbent, self.stopped_early) {
            (Some((vals, obj)), early) => {
                let gap = (obj - bound_min) / obj.abs().max(1.0);
                let st = if !early || gap <= self.cfg.rel_gap {
                    MilpStatus::Optimal
                } else {
                    MilpStatus::Feasible
                };
                (st, vals.clone(), *obj)
            }
            (None, true) => (MilpStatus::NoSolution, Vec::new(), f64::NAN),
            (None, false) => (MilpStatus::Infeasible, Vec::new(), f64::NAN),
        };
        let rel_gap = if objective.is_nan() {
            f64::INFINITY
        } else {
            ((objective - bound_min) / objective.abs().max(1.0)).max(0.0)
        };
        let solution = MilpSolution {
            status,
            values,
            objective: self.cm.restore_objective(objective),
            best_bound: self.cm.restore_objective(bound_min),
            rel_gap,
            nodes: self.nodes,
            lp_iterations: self.lp_stats.warm_iterations + self.lp_stats.cold_iterations,
            numerical_prunes: self.numerical_prunes,
            solve_time: start.elapsed(),
            trajectory: std::mem::take(&mut self.wall_trajectory),
            faults: std::mem::take(&mut self.faults),
            degraded_nodes: self.degraded_nodes,
            lp_stats: self.lp_stats,
        };
        (solution, checkpoint)
    }
}

// ---------------------------------------------------------------------
// Work-stealing engine
// ---------------------------------------------------------------------

/// An open node of the work-stealing engine. Nodes pushed to the shared
/// frontier carry their parent's basis so the stealing worker can still
/// warm-start; dive children stay on the local stack with no snapshot (the
/// worker's simplex already holds the parent basis).
struct WsNode {
    changes: Vec<(VarId, f64, f64)>,
    bound: f64,
    depth: usize,
    basis: Option<Arc<Basis>>,
}

/// Heap wrapper ordered so the smallest bound pops first.
struct WsOrd(WsNode);

impl PartialEq for WsOrd {
    fn eq(&self, other: &Self) -> bool {
        self.0.bound == other.0.bound
    }
}
impl Eq for WsOrd {}
impl PartialOrd for WsOrd {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for WsOrd {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .0
            .bound
            .partial_cmp(&self.0.bound)
            .unwrap_or(Ordering::Equal)
    }
}

struct WsFrontier {
    heap: BinaryHeap<WsOrd>,
    /// Workers currently parked in [`WsShared::steal`].
    idle: usize,
}

/// First-improver incumbent state plus everything that must move with it
/// under one lock (trajectory entries and §3.3 stall bookkeeping).
struct WsIncumbent {
    best: Option<(Vec<f64>, f64)>,
    trajectory: Vec<(f64, f64)>,
    last_improvement: Instant,
    last_stall_value: f64,
}

struct WsShared<'a> {
    cm: &'a CompiledModel,
    cfg: &'a MilpConfig,
    threads: usize,
    budget: Budget,
    target_min: Option<f64>,
    // lock-order: ws-frontier (terminal: the stop flag store and condvar
    // park protocol live under it; never held while taking another lock)
    frontier: Mutex<WsFrontier>,
    cv: Condvar,
    // lock-order: ws-inc (dropped before `request_stop` takes ws-frontier)
    inc: Mutex<WsIncumbent>,
    /// Min-space incumbent objective bits (`f64::INFINITY` when none):
    /// the lock-free read side of cooperative pruning.
    inc_bits: AtomicU64,
    /// Per-worker bound of the subtree it currently owns (`f64::INFINITY`
    /// bits when idle); combined with the heap top for the global dual
    /// bound of the gap stop rule.
    inflight: Vec<AtomicU64>,
    stop: AtomicBool,
    stopped_early: AtomicBool,
    deadline_noted: AtomicBool,
    /// Gap-rule conclusion: the proven dual bound, when the search ended
    /// by proof rather than interruption.
    // lock-order: ws-proven (dropped before `request_stop` takes ws-frontier)
    proven: Mutex<Option<f64>>,
    meter: NodeMeter,
    prunes: AtomicUsize,
    degraded: AtomicUsize,
    // lock-order: ws-faults (leaf: push/take only, nothing acquired under it)
    faults: Mutex<Vec<SolverFault>>,
    // lock-order: ws-fatal (dropped before `record_fatal` calls request_stop)
    fatal: Mutex<Option<MilpError>>,
    // lock-order: ws-stats (leaf: record/read only, nothing acquired under it)
    stats: Mutex<LpSolveStats>,
    start: Instant,
    /// Root bounds per LP variable, shared so every worker restores stale
    /// bound changes against the same reference.
    root_bounds_cache: Vec<(f64, f64)>,
}

impl<'a> WsShared<'a> {
    fn inc_obj(&self) -> f64 {
        f64::from_bits(self.inc_bits.load(AtOrd::Acquire))
    }

    fn request_stop(&self, early: bool) {
        if early {
            self.stopped_early.store(true, AtOrd::Release);
        }
        // The stop flag must be stored while holding the frontier lock:
        // a worker in `steal` checks the flag and then parks on the
        // condvar under that same lock, so storing + notifying without it
        // could land entirely inside a waiter's check-to-wait window —
        // the notification is lost and the worker parks forever.
        let fr = self.frontier.lock().unwrap();
        self.stop.store(true, AtOrd::Release);
        drop(fr);
        self.cv.notify_all();
    }

    fn record_fault(&self, f: SolverFault) {
        self.faults.lock().unwrap().push(f);
    }

    fn record_fatal(&self, e: MilpError) {
        let mut slot = self.fatal.lock().unwrap();
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.request_stop(true);
    }

    /// First-improver publication: the first thread to lock in a strict
    /// improvement wins; equal-or-worse latecomers are dropped.
    fn publish(&self, values: Vec<f64>, min_obj: f64) {
        let mut inc = self.inc.lock().unwrap();
        let cur = inc.best.as_ref().map_or(f64::INFINITY, |(_, o)| *o);
        if min_obj < cur - 1e-12 {
            let improvement = if inc.last_stall_value.is_finite() {
                (inc.last_stall_value - min_obj).abs() / inc.last_stall_value.abs().max(1.0)
            } else {
                f64::INFINITY
            };
            if improvement >= self.cfg.stall_improvement {
                // an:allow(AN001): stall-rule wall clock (work-stealing
                // engine makes no determinism claims at all).
                inc.last_improvement = Instant::now();
                inc.last_stall_value = min_obj;
            }
            inc.best = Some((values, min_obj));
            let t = self.start.elapsed().as_secs_f64();
            let obj = self.cm.restore_objective(min_obj);
            inc.trajectory.push((t, obj));
            self.inc_bits.store(min_obj.to_bits(), AtOrd::Release);
            self.cfg.metrics.incumbents.inc();
            self.cfg.tracer.event(
                "milp.incumbent",
                vec![
                    ("engine", "work_stealing".to_string()),
                    ("objective", format!("{obj}")),
                ],
            );
            if let Some(target) = self.target_min {
                if min_obj <= target + crate::CERT_TOL {
                    drop(inc);
                    self.request_stop(true);
                }
            }
        }
    }

    /// Pops the best surviving shared node, parking on the condvar when
    /// the heap is dry. Returns `None` when the search is over — either a
    /// stop was requested or every worker went idle with an empty heap
    /// (global exhaustion, detected by the idle count reaching the worker
    /// count).
    fn steal(&self, id: usize) -> Option<WsNode> {
        let mut fr = self.frontier.lock().unwrap();
        // The caller's local stack is dry, so it owns no subtree; clear
        // its in-flight slot under the frontier lock, pairing with the
        // publication below.
        self.inflight[id].store(f64::INFINITY.to_bits(), AtOrd::Release);
        loop {
            if self.stop.load(AtOrd::Acquire) {
                return None;
            }
            let mut got = None;
            while let Some(WsOrd(n)) = fr.heap.pop() {
                if n.bound < self.inc_obj() - 1e-9 {
                    got = Some(n);
                    break;
                }
            }
            if let Some(n) = got {
                // Publish the stolen subtree's bound while the frontier
                // lock is still held: a node must never be invisible to
                // `check_gap_stop` — at every instant it is either in the
                // heap or in an inflight slot, otherwise a concurrent gap
                // check could overestimate the dual bound and stop with a
                // wrong optimality proof.
                self.inflight[id].store(n.bound.to_bits(), AtOrd::Release);
                self.cfg.metrics.steals.inc();
                return Some(n);
            }
            fr.idle += 1;
            if fr.idle == self.threads {
                drop(fr);
                self.request_stop(false);
                return None;
            }
            fr = self.cv.wait(fr).unwrap();
            fr.idle -= 1;
        }
    }

    fn share_node(&self, node: WsNode) {
        let mut fr = self.frontier.lock().unwrap();
        fr.heap.push(WsOrd(node));
        drop(fr);
        self.cv.notify_one();
    }

    /// The gap stop rule: global dual bound = min(shared heap top, every
    /// worker's in-flight subtree bound), compared against the incumbent.
    fn check_gap_stop(&self) {
        let inc = self.inc_obj();
        if inc == f64::INFINITY {
            return;
        }
        let mut bound = inc;
        {
            let fr = self.frontier.lock().unwrap();
            if let Some(top) = fr.heap.peek() {
                bound = bound.min(top.0.bound);
            }
        }
        for slot in &self.inflight {
            bound = bound.min(f64::from_bits(slot.load(AtOrd::Acquire)));
        }
        let gap = (inc - bound) / inc.abs().max(1.0);
        if gap <= self.cfg.rel_gap {
            let mut proven = self.proven.lock().unwrap();
            if proven.is_none() {
                *proven = Some(bound);
            }
            drop(proven);
            self.request_stop(false);
        }
    }
}

fn ws_worker(sh: &WsShared<'_>, id: usize, cb_tx: &mpsc::Sender<Vec<f64>>) {
    let mut simplex = worker_simplex(
        sh.cm,
        &sh.budget,
        sh.cfg.fault_plan.clone(),
        sh.cfg.metrics.clone(),
        sh.cfg.factor,
    );
    let mut applied: Vec<usize> = Vec::new();
    let mut local: Vec<WsNode> = Vec::new();
    let park = |local: &mut Vec<WsNode>| {
        if !local.is_empty() {
            let mut fr = sh.frontier.lock().unwrap();
            for n in local.drain(..) {
                fr.heap.push(WsOrd(n));
            }
            drop(fr);
            sh.cv.notify_all();
        }
        sh.inflight[id].store(f64::INFINITY.to_bits(), AtOrd::Release);
    };
    loop {
        if sh.stop.load(AtOrd::Acquire) {
            park(&mut local);
            return;
        }
        // Cooperative pruning on the local dive stack.
        let mut node = None;
        while let Some(n) = local.pop() {
            if n.bound < sh.inc_obj() - 1e-9 {
                node = Some(n);
                break;
            }
        }
        let node = match node {
            Some(n) => {
                // Local pop: raise the slot from the parent's bound to this
                // node's. Children bounds dominate their parent's, so the
                // stale value in between only understates the dual bound —
                // conservative for the gap rule. Steals publish their bound
                // inside `steal` itself, under the frontier lock.
                sh.inflight[id].store(n.bound.to_bits(), AtOrd::Release);
                n
            }
            None => match sh.steal(id) {
                Some(n) => n,
                None => {
                    park(&mut local);
                    return;
                }
            },
        };
        // Global node allowance.
        if sh.meter.exhausted(&sh.budget) {
            sh.stopped_early.store(true, AtOrd::Release);
            local.push(node);
            park(&mut local);
            sh.request_stop(true);
            return;
        }
        let idx = sh.meter.charge(1);
        sh.cfg.metrics.nodes.inc();
        // Same containment as the deterministic engine's workers: a panic
        // inside the node evaluation must surface as `Eval::Panicked` (park
        // local nodes, release the inflight slot, stop the search) rather
        // than unwind past the frontier protocol — an unwinding worker
        // leaves its inflight slot populated, so the gap rule would keep
        // waiting on a bound that no thread will ever retire.
        let eval = catch_unwind(AssertUnwindSafe(|| {
            if sh
                .cfg
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.fire(FaultSite::EvalPanic))
            {
                // an:allow(AN202): chaos-injection site — unreachable unless
                // a FaultPlan arms EvalPanic, and the catch_unwind one line
                // up exists precisely to contain it.
                panic!("injected node-evaluation panic");
            }
            eval_node(
                &mut simplex,
                &mut applied,
                // Work-stealing workers re-derive root bounds from the
                // compiled LP (cheap relative to a node LP).
                &sh.root_bounds_cache,
                &node.changes,
                node.basis.as_deref(),
                false,
            )
        }))
        .unwrap_or_else(|_| Eval::Panicked("work-stealing LP worker panicked".into()));
        match eval {
            Eval::Deadline => {
                if !sh.deadline_noted.swap(true, AtOrd::AcqRel) {
                    sh.record_fault(SolverFault::DeadlineExceeded);
                }
                local.push(node);
                park(&mut local);
                sh.request_stop(true);
                return;
            }
            Eval::Pruned(fault) => {
                if let Some(f) = fault {
                    sh.record_fault(f);
                }
                sh.prunes.fetch_add(1, AtOrd::Relaxed);
            }
            Eval::Fatal(e) => {
                park(&mut local);
                sh.record_fatal(MilpError::Lp(e));
                return;
            }
            Eval::Panicked(msg) => {
                park(&mut local);
                sh.record_fatal(MilpError::Model(format!(
                    "parallel LP worker panicked: {msg}"
                )));
                return;
            }
            Eval::Solved {
                status,
                x,
                objective,
                degraded,
                warm,
                iterations,
                basis,
            } => {
                sh.stats.lock().unwrap().record(warm, iterations);
                match status {
                    SolveStatus::Infeasible => {
                        sh.check_gap_stop();
                        continue;
                    }
                    SolveStatus::Unbounded => {
                        park(&mut local);
                        sh.record_fatal(MilpError::Model(
                            "relaxation is unbounded; bound the outer variables".into(),
                        ));
                        return;
                    }
                    SolveStatus::Optimal => {}
                }
                let obj = if degraded {
                    sh.degraded.fetch_add(1, AtOrd::Relaxed);
                    node.bound
                } else {
                    objective
                };
                if !degraded && obj >= sh.inc_obj() - 1e-9 {
                    sh.check_gap_stop();
                    continue; // pruned by bound
                }
                if sh.cfg.callback_every > 0 && (idx - 1).is_multiple_of(sh.cfg.callback_every) {
                    // Ship the relaxation point to the calling thread; the
                    // callback itself is not Send.
                    let _ = cb_tx.send(sh.cm.extract_values(&x));
                }
                match (
                    most_fractional_binary(sh.cm, sh.cfg.int_tol, &x),
                    most_violated_compl(sh.cm, sh.cfg.compl_tol, &x),
                ) {
                    (None, None) => {
                        if degraded {
                            sh.prunes.fetch_add(1, AtOrd::Relaxed);
                        } else {
                            sh.publish(sh.cm.extract_values(&x), obj);
                        }
                    }
                    (Some((v, value, _frac)), _) => {
                        let rounded = value.round().clamp(0.0, 1.0);
                        let mut dive = node.changes.clone();
                        dive.push((v, rounded, rounded));
                        let mut alt = node.changes;
                        alt.push((v, 1.0 - rounded, 1.0 - rounded));
                        let depth = node.depth + 1;
                        sh.share_node(WsNode {
                            changes: alt,
                            bound: obj,
                            depth,
                            basis,
                        });
                        local.push(WsNode {
                            changes: dive,
                            bound: obj,
                            depth,
                            basis: None,
                        });
                    }
                    (None, Some((mult, slack, mval, sval))) => {
                        let (first, second) = if mval <= sval {
                            (mult, slack)
                        } else {
                            (slack, mult)
                        };
                        let mut dive = node.changes.clone();
                        dive.push((first, 0.0, 0.0));
                        let mut alt = node.changes;
                        alt.push((second, 0.0, 0.0));
                        let depth = node.depth + 1;
                        sh.share_node(WsNode {
                            changes: alt,
                            bound: obj,
                            depth,
                            basis,
                        });
                        local.push(WsNode {
                            changes: dive,
                            bound: obj,
                            depth,
                            basis: None,
                        });
                    }
                }
                sh.check_gap_stop();
            }
        }
    }
}

/// Entry point for the work-stealing engine (dispatched from
/// `solve_resumable`).
pub(crate) fn solve_work_stealing(
    cm: &CompiledModel,
    cfg: &MilpConfig,
    callback: &mut dyn IncumbentCallback,
    resume: Option<Checkpoint>,
    threads: usize,
    start: Instant,
) -> MilpResult<(MilpSolution, Option<Checkpoint>)> {
    let budget = cfg.effective_budget();
    let root_bounds: Vec<(f64, f64)> = (0..cm.lp.n_vars()).map(|j| cm.lp.bounds(VarId(j))).collect();
    let mut heap = BinaryHeap::new();
    let mut inc = WsIncumbent {
        best: None,
        trajectory: Vec::new(),
        // an:allow(AN001): stall-rule wall clock; see `publish`.
        last_improvement: Instant::now(),
        last_stall_value: f64::INFINITY,
    };
    let meter = NodeMeter::new();
    let mut seed_prunes = 0usize;
    let mut seed_degraded = 0usize;
    let mut seed_faults: Vec<SolverFault> = Vec::new();
    let resumed = resume.is_some();
    if let Some(cp) = resume {
        inc.best = cp.incumbent;
        // Only adopt a seconds-axis history; a deterministic checkpoint's
        // node-count trajectory must not mix into this wall-clock one.
        if cp.traj_axis == TrajAxis::Seconds {
            inc.trajectory = cp.trajectory;
        }
        inc.last_stall_value = cp.last_stall_value;
        meter.charge(cp.nodes);
        seed_prunes = cp.numerical_prunes;
        seed_degraded = cp.degraded_nodes;
        seed_faults = cp.faults;
        for (changes, bound, depth) in cp.frontier {
            heap.push(WsOrd(WsNode {
                changes,
                bound,
                depth,
                basis: None,
            }));
        }
    }
    if !resumed {
        heap.push(WsOrd(WsNode {
            changes: Vec::new(),
            bound: f64::NEG_INFINITY,
            depth: 0,
            basis: None,
        }));
    }
    let inc_bits = inc.best.as_ref().map_or(f64::INFINITY, |(_, o)| *o).to_bits();
    let sh = WsShared {
        cm,
        cfg,
        threads,
        budget,
        target_min: cfg.target_objective.map(|t| cm.restore_objective(t)),
        frontier: Mutex::new(WsFrontier { heap, idle: 0 }),
        cv: Condvar::new(),
        inc: Mutex::new(inc),
        inc_bits: AtomicU64::new(inc_bits),
        inflight: (0..threads)
            .map(|_| AtomicU64::new(f64::INFINITY.to_bits()))
            .collect(),
        stop: AtomicBool::new(false),
        stopped_early: AtomicBool::new(false),
        deadline_noted: AtomicBool::new(false),
        proven: Mutex::new(None),
        meter,
        prunes: AtomicUsize::new(seed_prunes),
        degraded: AtomicUsize::new(seed_degraded),
        faults: Mutex::new(seed_faults),
        fatal: Mutex::new(None),
        stats: Mutex::new(LpSolveStats::default()),
        start,
        root_bounds_cache: root_bounds,
    };
    let mut callback_panics = 0usize;
    // Seed the incumbent before the workers start, like the
    // deterministic engine's pre-root proposal.
    if cfg.callback_every > 0 {
        let origin = vec![0.0; cm.var_map.len()];
        let inject = cfg
            .fault_plan
            .as_ref()
            .is_some_and(|p| p.fire(FaultSite::CallbackPanic));
        match propose_contained(callback, &origin, inject) {
            Ok(Some((vals, model_obj))) => sh.publish(vals, to_min_space(cm, model_obj)),
            Ok(None) => {}
            Err(f) => {
                callback_panics += 1;
                sh.record_fault(f);
            }
        }
    }
    let (cb_tx, cb_rx) = mpsc::channel::<Vec<f64>>();
    std::thread::scope(|scope| {
        for id in 0..threads {
            let shr = &sh;
            let tx = cb_tx.clone();
            scope.spawn(move || ws_worker(shr, id, &tx));
        }
        drop(cb_tx);
        // The calling thread is the callback servicer and the wall-clock
        // stop-rule watchdog.
        loop {
            match cb_rx.recv_timeout(Duration::from_millis(5)) {
                Ok(relax) => {
                    if callback_panics < MAX_CALLBACK_PANICS {
                        let inject = cfg
                            .fault_plan
                            .as_ref()
                            .is_some_and(|p| p.fire(FaultSite::CallbackPanic));
                        match propose_contained(callback, &relax, inject) {
                            Ok(Some((vals, model_obj))) => {
                                sh.publish(vals, to_min_space(cm, model_obj));
                            }
                            Ok(None) => {}
                            Err(f) => {
                                callback_panics += 1;
                                sh.record_fault(f);
                            }
                        }
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
            if sh.stop.load(AtOrd::Acquire) {
                continue; // drain remaining proposals until workers exit
            }
            if sh.budget.expired() {
                sh.request_stop(true);
                continue;
            }
            let stall_injected = cfg
                .fault_plan
                .as_ref()
                .is_some_and(|p| p.fire(FaultSite::StallNow));
            let stalled = stall_injected
                || cfg.stall_window.is_some_and(|w| {
                    let inc = sh.inc.lock().unwrap();
                    inc.best.is_some() && inc.last_improvement.elapsed() >= w
                });
            if stalled {
                if stall_injected {
                    sh.record_fault(SolverFault::StallDetected);
                }
                sh.request_stop(true);
            }
        }
    });
    if let Some(e) = sh.fatal.lock().unwrap().take() {
        return Err(e);
    }
    Ok(ws_finish(&sh, start))
}

fn ws_finish(sh: &WsShared<'_>, start: Instant) -> (MilpSolution, Option<Checkpoint>) {
    let stopped_early = sh.stopped_early.load(AtOrd::Acquire);
    let mut inc = sh.inc.lock().unwrap();
    let incumbent = inc.best.take();
    let trajectory = std::mem::take(&mut inc.trajectory);
    let last_stall_value = inc.last_stall_value;
    drop(inc);
    let incumbent_obj = incumbent.as_ref().map_or(f64::INFINITY, |(_, o)| *o);
    let mut fr = sh.frontier.lock().unwrap();
    let mut frontier: Vec<FrontierNode> = fr
        .heap
        .drain()
        .map(|WsOrd(n)| (n.changes, n.bound, n.depth))
        .collect();
    drop(fr);
    frontier.sort_by(|a, b| canon_cmp((&a.0, a.1, a.2), (&b.0, b.1, b.2)));
    let proven = *sh.proven.lock().unwrap();
    let bound_min = if stopped_early {
        frontier
            .iter()
            .map(|&(_, b, _)| b)
            .fold(incumbent_obj, f64::min)
    } else {
        proven.unwrap_or(incumbent_obj)
    };
    let nodes = sh.meter.count();
    let numerical_prunes = sh.prunes.load(AtOrd::Relaxed);
    let degraded_nodes = sh.degraded.load(AtOrd::Relaxed);
    let faults = std::mem::take(&mut *sh.faults.lock().unwrap());
    let lp_stats = *sh.stats.lock().unwrap();
    let checkpoint = if stopped_early && !frontier.is_empty() {
        Some(Checkpoint {
            frontier: frontier.clone(),
            incumbent: incumbent.clone(),
            nodes,
            numerical_prunes,
            degraded_nodes,
            trajectory: trajectory.clone(),
            traj_axis: TrajAxis::Seconds,
            last_stall_value,
            faults: faults.clone(),
        })
    } else {
        None
    };
    let (status, values, objective) = match (&incumbent, stopped_early) {
        (Some((vals, obj)), early) => {
            let gap = (obj - bound_min) / obj.abs().max(1.0);
            let st = if !early || gap <= sh.cfg.rel_gap {
                MilpStatus::Optimal
            } else {
                MilpStatus::Feasible
            };
            (st, vals.clone(), *obj)
        }
        (None, true) => (MilpStatus::NoSolution, Vec::new(), f64::NAN),
        (None, false) => (MilpStatus::Infeasible, Vec::new(), f64::NAN),
    };
    let rel_gap = if objective.is_nan() {
        f64::INFINITY
    } else {
        ((objective - bound_min) / objective.abs().max(1.0)).max(0.0)
    };
    let solution = MilpSolution {
        status,
        values,
        objective: sh.cm.restore_objective(objective),
        best_bound: sh.cm.restore_objective(bound_min),
        rel_gap,
        nodes,
        lp_iterations: lp_stats.warm_iterations + lp_stats.cold_iterations,
        numerical_prunes,
        solve_time: start.elapsed(),
        trajectory,
        faults,
        degraded_nodes,
        lp_stats,
    };
    (solution, checkpoint)
}
