//! The finder workloads: `find_adversarial_gap` on B4 at a fixed node
//! budget (`b4-dp-bnb`: DP at T = 50, 50 nodes; `b4-pop-root`: POP 2 × 1,
//! root only).
//!
//! Untraced runs time whole finder calls. Traced runs also time each layer
//! through its own public entry point on the same model (encode,
//! modelcheck, compile, one cold root LP, the B&B search without the
//! callback, one certification), and alternate traced and untraced finder
//! calls so the tracing overhead is measured in the same run.

use crate::calib::{at_reference, Calibrator};
use crate::spans::{Recorder, SpanId};
use crate::stats::{median, peak_rss_mb, quantile, thread_cpu_seconds};
use crate::{Metric, Options, Report, Workload};
use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{
    check_adversarial_model, find_adversarial_gap, ConstrainedSet, DegradationLevel, FinderConfig,
    GapResult, HeuristicSpec, PopMode,
};
use metaopt_lp::{LpMetrics, Simplex};
use metaopt_milp::{MilpMetrics, CERT_TOL};
use metaopt_model::compile::compile;
use metaopt_obs::Registry;
use metaopt_server::Json;
use metaopt_te::opt::opt_max_flow;
use metaopt_te::pop::random_partitions;
use metaopt_te::TeInstance;
use metaopt_topology::builtin;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Instance builds per set-up batch. A batch runs before the first call
/// and again before every later untraced call, so the set-up samples span
/// the whole run; `setup_s` is their median.
const SETUP_BATCH: usize = 21;
/// Repetitions of the millisecond layers (encode, check, compile,
/// certify) in a traced run; each reports its median.
const SMALL_LAYER_REPS: usize = 5;
/// POP instantiations on `b4-pop-root` (2 partitions each). One keeps a
/// call near 1 s, so a run holds about 25 calls with a calibration point
/// beside each; with three, a call took 5–7 s and the host's speed swings
/// inside one call went untracked.
const POP_INSTANTIATIONS: usize = 1;
/// Seeded POP problems a `b4-pop-root` run rotates through, call by call.
/// One random partitioning's gap spread by 0.10 over ten seeds; a run's
/// mean over four averages most of that input variance out.
const POP_PROBLEMS: usize = 4;
/// B4 link capacity; DP's pin threshold is 5 % of it.
const CAPACITY: f64 = 1000.0;

/// One finder problem: the B4 workloads build it from the seed, the job
/// workload from a job spec.
pub struct Problem {
    pub inst: TeInstance,
    pub spec: HeuristicSpec,
    pub cs: ConstrainedSet,
    pub cfg: FinderConfig,
}

/// The problems a run's calls rotate through.
fn build_problems(workload: Workload, seed: u64) -> Result<Vec<Problem>, String> {
    let inst = TeInstance::all_pairs(builtin::b4(CAPACITY), 2).map_err(|e| e.to_string())?;
    let problem = |spec, max_nodes| {
        let mut cfg = FinderConfig::default();
        cfg.milp.max_nodes = max_nodes;
        Problem {
            inst: inst.clone(),
            spec,
            cs: ConstrainedSet::unconstrained(),
            cfg,
        }
    };
    Ok(match workload {
        // The DP cell has no random input; the seed only labels the run.
        Workload::B4DpBnb => {
            let dp = HeuristicSpec::DemandPinning {
                threshold: 0.05 * CAPACITY,
            };
            vec![problem(dp, 50)]
        }
        Workload::B4PopRoot => {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..POP_PROBLEMS)
                .map(|_| {
                    let pop = HeuristicSpec::Pop {
                        partitions: random_partitions(
                            inst.n_pairs(),
                            2,
                            POP_INSTANTIATIONS,
                            &mut rng,
                        ),
                        mode: PopMode::Average,
                    };
                    problem(pop, 1)
                })
                .collect()
        }
        Workload::Fig1Jobs => unreachable!("fig1-jobs is not a finder workload"),
    })
}

/// Exact work counters of one search. On the default single-thread path
/// they are a pure function of the input, so repetitions must agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    pub nodes: u64,
    pub pivots: u64,
    pub updates: u64,
    pub refactors: u64,
    pub warm_solves: u64,
    pub cold_solves: u64,
    pub incumbents: u64,
    pub recovery_steps: u64,
}

impl Work {
    pub fn of(m: &MilpMetrics, nodes: usize) -> Work {
        let lp = &m.lp;
        Work {
            nodes: nodes as u64,
            pivots: lp.pivots.get(),
            updates: lp.updates.get(),
            refactors: lp.refactors.get(),
            warm_solves: lp.warm_solves.get(),
            cold_solves: lp.cold_solves.get(),
            incumbents: m.incumbents.get(),
            recovery_steps: lp.recovery_cold_restart.get()
                + lp.recovery_equilibrate.get()
                + lp.recovery_perturb.get()
                + lp.recovery_best_feasible.get(),
        }
    }

    pub fn to_json(self) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        Json::obj(vec![
            ("nodes", n(self.nodes)),
            ("pivots", n(self.pivots)),
            ("updates", n(self.updates)),
            ("refactors", n(self.refactors)),
            ("warm_solves", n(self.warm_solves)),
            ("cold_solves", n(self.cold_solves)),
            ("incumbents", n(self.incumbents)),
            ("recovery_steps", n(self.recovery_steps)),
        ])
    }
}

/// `MilpMetrics` on a private registry, so counters are per call.
pub fn fresh_metrics() -> MilpMetrics {
    MilpMetrics::register(&Registry::new())
}

pub fn finder_call(p: &Problem) -> Result<(GapResult, Work), String> {
    let mut cfg = p.cfg.clone();
    cfg.milp.metrics = fresh_metrics();
    let r = find_adversarial_gap(&p.inst, &p.spec, &p.cs, &cfg).map_err(|e| e.to_string())?;
    let work = Work::of(&cfg.milp.metrics, r.nodes);
    Ok((r, work))
}

/// The finder's certification contract for one result.
fn check(r: &GapResult) -> Result<(), String> {
    if !(r.verified_gap - r.model_gap).abs().le(&CERT_TOL) {
        return Err(format!(
            "verified gap {} differs from model gap {}",
            r.verified_gap, r.model_gap
        ));
    }
    if !r.upper_bound.ge(&(r.verified_gap - CERT_TOL)) {
        return Err(format!(
            "upper bound {} below verified gap {}",
            r.upper_bound, r.verified_gap
        ));
    }
    if r.degradation != DegradationLevel::None {
        return Err(format!("degraded result: {}", r.degradation));
    }
    if !r.faults.is_empty() {
        return Err(format!("faults: {:?}", r.faults));
    }
    Ok(())
}

/// Finder calls made in one run, with their outputs checked.
#[derive(Default)]
pub struct Calls {
    untraced_s: Vec<f64>,
    /// On-CPU seconds of the untraced calls (the calling thread runs the
    /// whole single-thread search).
    untraced_cpu_s: Vec<f64>,
    /// Untraced calls at the reference host speed.
    untraced_ref_s: Vec<f64>,
    traced_s: Vec<f64>,
    gap_norm: Vec<f64>,
    bound_norm: Vec<f64>,
    /// Work counters of the first call on each problem, by problem index.
    first_work: Vec<Option<Work>>,
    mismatches: usize,
}

impl Calls {
    pub fn work_json(&self) -> Json {
        let first = self
            .first_work
            .iter()
            .map(|w| w.map_or(Json::Null, Work::to_json))
            .collect();
        Json::obj(vec![
            ("first", Json::Arr(first)),
            ("mismatched_calls", Json::Num(self.mismatches as f64)),
        ])
    }

    /// Work counters of the first call on the run's first problem.
    pub fn first(&self) -> Option<Work> {
        self.first_work.first().copied().flatten()
    }

    pub fn record(
        &mut self,
        report: &mut Report,
        (k, p): (usize, &Problem),
        out: Result<(GapResult, Work), String>,
        secs: f64,
        cpu_s: Option<f64>,
        traced: bool,
    ) -> Option<GapResult> {
        report.attempted += 1;
        let (r, work) = match out.and_then(|(r, w)| check(&r).map(|()| (r, w))) {
            Ok(x) => x,
            Err(e) => {
                report.failed += 1;
                report.problem(format!("finder call {}: {e}", report.attempted));
                return None;
            }
        };
        if self.first_work.len() <= k {
            self.first_work.resize(k + 1, None);
        }
        match self.first_work[k] {
            None => self.first_work[k] = Some(work),
            Some(first) if first != work => {
                self.mismatches += 1;
                report.problem(format!(
                    "work counters of call {} differ from the first on its problem: {} vs {}",
                    report.attempted,
                    work.to_json().render(),
                    first.to_json().render()
                ));
            }
            Some(_) => {}
        }
        let cap = p.inst.topo.total_capacity();
        self.gap_norm.push(r.verified_gap / cap);
        self.bound_norm.push(r.upper_bound / cap);
        if traced {
            self.traced_s.push(secs);
        } else {
            self.untraced_s.push(secs);
            self.untraced_cpu_s.extend(cpu_s);
        }
        Some(r)
    }
}

pub fn run(opts: &Options, rec: &Recorder) -> Result<Report, String> {
    let mut report = Report::default();

    // Set-up: the instance build, repeated; the first batch's last build
    // gives the problems the calls solve.
    let mut cal = Calibrator::new();
    let mut pass_before = cal.point();
    let mut setup = Vec::new();
    let mut setup_ref = Vec::new();
    let problems = setup_batch(rec, opts, &mut setup)?;
    rescale_new(&setup, &mut setup_ref, pass_before);
    let p = &problems[0];

    let mut calls = Calls::default();
    // One op id per finder call; 0 is the traced layer attribution.
    let mut op = 1u64;
    let mut layers = None;
    let untraced = Recorder::new(false);
    let mut in_setup = 0.0;
    let t0 = Instant::now();
    if opts.trace {
        layers = Some(attribute_layers(rec, p, &mut report)?);
        pass_before = cal.point();
    }
    let mut last_call_s = 0.0;
    // Calls rotate through the problems; a traced and an untraced call of
    // one round solve the same one.
    for k in (0..problems.len()).cycle() {
        // Traced runs alternate a traced and an untraced call.
        for traced in [opts.trace, false] {
            let r = if traced { rec } else { &untraced };
            if !traced && op > 1 {
                let t = Instant::now();
                setup_batch(rec, opts, &mut setup)?;
                rescale_new(&setup, &mut setup_ref, pass_before);
                in_setup += t.elapsed().as_secs_f64();
            }
            let p = &problems[k];
            let cpu0 = thread_cpu_seconds();
            let (out, secs) = r.time("core.find", op, SpanId::ROOT, || finder_call(p));
            let cpu = thread_cpu_seconds().zip(cpu0).map(|(b, a)| b - a);
            let t = Instant::now();
            let pass_after = cal.point();
            in_setup += t.elapsed().as_secs_f64();
            let pass = 0.5 * (pass_before + pass_after);
            pass_before = pass_after;
            last_call_s = secs;
            let r = calls.record(&mut report, (k, p), out, secs, cpu, traced);
            if r.is_some() && !traced {
                // The single-thread call is on the CPU throughout.
                let on_cpu = cpu.unwrap_or(secs).min(secs);
                calls.untraced_ref_s.push(at_reference(secs, on_cpu, pass));
            }
            if let (Some(r), Some(l)) = (r, layers.as_mut()) {
                if traced && l.certify_s.is_empty() {
                    l.certify_s = certify(rec, p, &r.demands, op, &mut report);
                }
            }
            op += 1;
            if !opts.trace {
                break;
            }
        }
        // Start no call that would end past the measuring time.
        if t0.elapsed().as_secs_f64() + last_call_s >= opts.seconds {
            break;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64() - in_setup;
    let setup_s = median(&setup).expect("at least one set-up batch");

    report.details.push(("work", calls.work_json()));
    report.details.push((
        "finder",
        Json::obj(vec![
            (
                "seed_used",
                Json::Bool(opts.workload == Workload::B4PopRoot),
            ),
            ("max_nodes", Json::Num(p.cfg.milp.max_nodes as f64)),
            ("pairs", Json::Num(p.inst.n_pairs() as f64)),
            (
                "heuristics",
                Json::Arr(problems.iter().map(|q| Json::str(q.spec.label())).collect()),
            ),
            ("untraced_call_s", nums(&calls.untraced_s)),
            ("untraced_call_cpu_s", nums(&calls.untraced_cpu_s)),
            ("untraced_call_ref_s", nums(&calls.untraced_ref_s)),
            ("calibration_pass_s", nums(&cal.passes)),
            ("traced_call_s", nums(&calls.traced_s)),
            ("setup_s", nums(&setup)),
        ]),
    ));

    let ok = calls.untraced_s.len();
    let e2e = &mut report.end_to_end;
    push_latency(e2e, &calls.untraced_s);
    if let Some(v) = median(&calls.untraced_ref_s) {
        e2e.push(Metric::new("op_p50_ref_s", "s", v, ok));
    }
    if ok > 0 {
        e2e.push(Metric::new(
            "gap_norm",
            "ratio",
            calls.gap_norm.iter().sum::<f64>() / calls.gap_norm.len() as f64,
            calls.gap_norm.len(),
        ));
        e2e.push(Metric::new(
            "bound_norm",
            "ratio",
            median(&calls.bound_norm).unwrap_or(0.0),
            ok,
        ));
    }
    let done = ok + calls.traced_s.len();
    e2e.push(Metric::new("ops_per_s", "1/s", done as f64 / elapsed, done));
    if let Some(cpu) = median(&calls.untraced_cpu_s) {
        e2e.push(Metric::new(
            "cpu_s_per_op",
            "s",
            cpu,
            calls.untraced_cpu_s.len(),
        ));
    }
    push_common(&mut report, &setup, &setup_ref);

    if let Some(l) = layers {
        report
            .per_layer
            .push(Metric::new("te.instance_s", "s", setup_s, setup.len()));
        l.finish(&calls, &mut report);
        let overhead = match (median(&calls.traced_s), median(&calls.untraced_s)) {
            (Some(t), Some(u)) => Metric::new("trace.overhead_s", "s", t - u, calls.traced_s.len()),
            _ => Metric::missing(
                "trace.overhead_s",
                "s",
                "no successful traced/untraced call pair",
            ),
        };
        report.per_layer.push(overhead);
    }
    Ok(report)
}

/// Builds the workload's problems `SETUP_BATCH` times, appending each
/// build's seconds to `setup`; returns the last build.
fn setup_batch(
    rec: &Recorder,
    opts: &Options,
    setup: &mut Vec<f64>,
) -> Result<Vec<Problem>, String> {
    let mut problems = None;
    for _ in 0..SETUP_BATCH {
        let (p, secs) = rec.time("te.instance", setup.len() as u64, SpanId::ROOT, || {
            build_problems(opts.workload, opts.seed)
        });
        setup.push(secs);
        problems = Some(p?);
    }
    Ok(problems.expect("SETUP_BATCH > 0"))
}

pub fn nums(xs: &[f64]) -> Json {
    Json::Arr(xs.iter().map(|&s| Json::Num(s)).collect())
}

/// Median and tail of the untraced operation times. Only the median is
/// gated: job latency is bimodal (a few percent of jobs wait one extra
/// 20 ms accept poll), so the 95th percentile jumps between the modes from
/// run to run, and the 99th follows the host's fsync tail latency.
pub fn push_latency(e2e: &mut Vec<Metric>, xs: &[f64]) {
    let n = xs.len();
    for (name, q) in [("op_p50_s", 0.5), ("op_p95_s", 0.95), ("op_p99_s", 0.99)] {
        if let Some(v) = quantile(xs, q) {
            e2e.push(Metric::new(name, "s", v, n));
        }
    }
}

/// Appends the set-up samples not yet rescaled, at the reference host
/// speed (set-up is on the CPU throughout) given the pass time `pass_s`
/// measured next to them.
pub fn rescale_new(raw: &[f64], at_ref: &mut Vec<f64>, pass_s: f64) {
    let n = at_ref.len();
    at_ref.extend(raw[n..].iter().map(|&s| at_reference(s, s, pass_s)));
}

/// `ok_rate`, `setup_s` and `peak_rss_mb`, which every workload reports.
/// `setup_s` is the median set-up at the reference host speed;
/// `setup_raw_s` is the median as measured.
pub fn push_common(report: &mut Report, setup_raw: &[f64], setup_ref: &[f64]) {
    let ok_rate = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    let attempted = report.attempted as usize;
    let e2e = &mut report.end_to_end;
    e2e.push(Metric::new("ok_rate", "ratio", ok_rate, attempted));
    for (name, xs) in [("setup_s", setup_ref), ("setup_raw_s", setup_raw)] {
        if let Some(v) = median(xs) {
            e2e.push(Metric::new(name, "s", v, xs.len()));
        }
    }
    if let Some(rss) = peak_rss_mb() {
        e2e.push(Metric::new("peak_rss_mb", "MiB", rss, 1));
    }
}

/// Per-layer timings from the traced attribution pass.
pub struct Layers {
    encode_s: Vec<f64>,
    check_s: Vec<f64>,
    compile_s: Vec<f64>,
    pub certify_s: Vec<f64>,
    stats: metaopt_model::ModelStats,
    lp_rows: usize,
    lp_vars: usize,
    lp_nnz: usize,
    root_s: f64,
    root_work: Work,
    milp_s: f64,
    milp_work: Work,
}

/// Times each layer through its public entry point on the workload's
/// model (op 0 in the span file).
pub fn attribute_layers(
    rec: &Recorder,
    p: &Problem,
    report: &mut Report,
) -> Result<Layers, String> {
    let root = rec.open("attribution", 0, SpanId::ROOT);
    let mut encode_s = Vec::new();
    let mut check_s = Vec::new();
    let mut compile_s = Vec::new();
    let mut am = None;
    let mut cm = None;
    for _ in 0..SMALL_LAYER_REPS {
        let (built, secs) = rec.time("core.encode", 0, root, || {
            build_adversarial_model(&p.inst, &p.spec, &p.cs, &p.cfg)
        });
        encode_s.push(secs);
        let built = built.map_err(|e| e.to_string())?;
        let (diag, secs) = rec.time("modelcheck.check", 0, root, || {
            check_adversarial_model(&p.inst, &built)
        });
        check_s.push(secs);
        if diag.has_errors() {
            report.problem(format!("modelcheck: {}", diag.summary()));
        }
        let (compiled, secs) = rec.time("model.compile", 0, root, || compile(&built.model));
        compile_s.push(secs);
        cm = Some(compiled.map_err(|e| e.to_string())?);
        am = Some(built);
    }
    let am = am.expect("SMALL_LAYER_REPS > 0");
    let cm = cm.expect("SMALL_LAYER_REPS > 0");

    let lp_metrics = LpMetrics::register(&Registry::new());
    let (sol, root_s) = rec.time("lp.root", 0, root, || {
        let mut sx = Simplex::new(&cm.lp);
        sx.set_metrics(lp_metrics.clone());
        sx.solve()
    });
    if let Err(e) = sol {
        report.problem(format!("root LP: {e}"));
    }
    let root_work = Work::of(
        &MilpMetrics {
            lp: lp_metrics,
            ..MilpMetrics::disabled()
        },
        0,
    );

    let mut mc = p.cfg.milp_config();
    mc.metrics = fresh_metrics();
    let (sol, milp_s) = rec.time("milp.search", 0, root, || {
        metaopt_milp::solve(&am.model, &mc)
    });
    let milp_work = match sol {
        Ok(s) => Work::of(&mc.metrics, s.nodes),
        Err(e) => {
            report.problem(format!("B&B search: {e}"));
            Work::of(&mc.metrics, 0)
        }
    };
    rec.close(root);
    Ok(Layers {
        encode_s,
        check_s,
        compile_s,
        certify_s: Vec::new(),
        stats: am.stats(),
        lp_rows: cm.lp.n_rows(),
        lp_vars: cm.lp.n_vars(),
        lp_nnz: cm.lp.nnz(),
        root_s,
        root_work,
        milp_s,
        milp_work,
    })
}

/// One certification is what the incumbent callback pays per candidate:
/// the real heuristic plus the real OPT on concrete demands.
pub fn certify(
    rec: &Recorder,
    p: &Problem,
    demands: &[f64],
    op: u64,
    report: &mut Report,
) -> Vec<f64> {
    let mut out = Vec::new();
    for _ in 0..SMALL_LAYER_REPS {
        let (res, secs) = rec.time("te.certify", op, SpanId::ROOT, || {
            let heu = p
                .spec
                .evaluate(&p.inst, demands)
                .map_err(|e| e.to_string())?;
            let opt = opt_max_flow(&p.inst, demands).map_err(|e| e.to_string())?;
            Ok::<_, String>((heu, opt.total_flow))
        });
        if let Err(e) = res {
            report.problem(format!("certify: {e}"));
        }
        out.push(secs);
    }
    out
}

impl Layers {
    /// Pushes the finder-path layer metrics; `calls` holds the traced
    /// finder calls whose median is `core.find_s`.
    pub fn finish(self, calls: &Calls, report: &mut Report) {
        let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
        let encode = med(&self.encode_s);
        let check = med(&self.check_s);
        let find = median(&calls.traced_s);
        let core = calls.first();
        let out = &mut report.per_layer;
        out.push(Metric::new(
            "core.encode_s",
            "s",
            encode,
            self.encode_s.len(),
        ));
        out.push(Metric::count("core.vars", self.stats.n_vars as u64));
        out.push(Metric::count("core.linear", self.stats.n_linear as u64));
        out.push(Metric::count("core.sos", self.stats.n_sos as u64));
        out.push(Metric::count("core.binary", self.stats.n_binary as u64));
        out.push(Metric::new(
            "modelcheck.check_s",
            "s",
            check,
            self.check_s.len(),
        ));
        out.push(Metric::new(
            "model.compile_s",
            "s",
            med(&self.compile_s),
            self.compile_s.len(),
        ));
        out.push(Metric::count("lp.rows", self.lp_rows as u64));
        out.push(Metric::count("lp.vars", self.lp_vars as u64));
        out.push(Metric::count("lp.nnz", self.lp_nnz as u64));
        push_lp_root(out, self.root_s, self.root_work);
        push_milp(out, self.milp_s, self.milp_work);
        push_core(out, find, calls.traced_s.len(), core);
        out.push(Metric::new(
            "core.bound_norm",
            "ratio",
            median(&calls.bound_norm).unwrap_or(f64::NAN),
            calls.bound_norm.len(),
        ));
        out.push(Metric::new(
            "te.certify_s",
            "s",
            med(&self.certify_s),
            self.certify_s.len(),
        ));
        out.push(callback_estimate(
            find,
            self.milp_s,
            encode,
            check,
            core,
            self.milp_work,
        ));
    }
}

fn push_lp_root(out: &mut Vec<Metric>, secs: f64, w: Work) {
    out.push(Metric::new("lp.root_s", "s", secs, 1));
    out.push(Metric::count("lp.root_pivots", w.pivots));
    out.push(Metric::count("lp.root_updates", w.updates));
    out.push(Metric::count("lp.root_refactors", w.refactors));
    out.push(Metric::new(
        "lp.root_us_per_pivot",
        "us",
        1e6 * secs / w.pivots.max(1) as f64,
        1,
    ));
}

fn push_milp(out: &mut Vec<Metric>, secs: f64, w: Work) {
    out.push(Metric::new("milp.search_s", "s", secs, 1));
    out.push(Metric::count("milp.nodes", w.nodes));
    out.push(Metric::count("milp.pivots", w.pivots));
    out.push(Metric::count("milp.refactors", w.refactors));
    out.push(Metric::count("milp.warm_solves", w.warm_solves));
    out.push(Metric::count("milp.cold_solves", w.cold_solves));
    out.push(Metric::new(
        "milp.pivots_per_node",
        "count",
        w.pivots as f64 / w.nodes.max(1) as f64,
        1,
    ));
    out.push(Metric::new(
        "milp.us_per_pivot",
        "us",
        1e6 * secs / w.pivots.max(1) as f64,
        1,
    ));
    out.push(Metric::count("milp.recovery_steps", w.recovery_steps));
    let solves = w.warm_solves + w.cold_solves;
    out.push(Metric::new(
        "milp.warm_ratio",
        "ratio",
        w.warm_solves as f64 / solves.max(1) as f64,
        1,
    ));
}

fn push_core(out: &mut Vec<Metric>, find: Option<f64>, samples: usize, w: Option<Work>) {
    match find {
        Some(s) => out.push(Metric::new("core.find_s", "s", s, samples)),
        None => out.push(Metric::missing(
            "core.find_s",
            "s",
            "no successful traced finder call",
        )),
    }
    let w = w.unwrap_or(Work {
        nodes: 0,
        pivots: 0,
        updates: 0,
        refactors: 0,
        warm_solves: 0,
        cold_solves: 0,
        incumbents: 0,
        recovery_steps: 0,
    });
    out.push(Metric::count("core.nodes", w.nodes));
    out.push(Metric::count("core.pivots", w.pivots));
    out.push(Metric::count("core.incumbents", w.incumbents));
    out.push(Metric::count("core.warm_solves", w.warm_solves));
    out.push(Metric::count("core.cold_solves", w.cold_solves));
    out.push(Metric::count("core.refactors", w.refactors));
}

/// `core.find_s − milp.search_s − core.encode_s − modelcheck.check_s`:
/// the callback's share, valid only when the finder and the bare search
/// explored the same tree (equal pivot counts).
fn callback_estimate(
    find: Option<f64>,
    milp_s: f64,
    encode_s: f64,
    check_s: f64,
    core: Option<Work>,
    milp: Work,
) -> Metric {
    const NAME: &str = "core.callback_est_s";
    match (find, core) {
        (Some(f), Some(c)) if c.pivots == milp.pivots => {
            Metric::new(NAME, "s", f - milp_s - encode_s - check_s, 1)
        }
        (Some(_), Some(c)) => Metric::missing(
            NAME,
            "s",
            &format!(
                "finder and bare search explored different trees ({} vs {} pivots)",
                c.pivots, milp.pivots
            ),
        ),
        _ => Metric::missing(NAME, "s", "no successful traced finder call"),
    }
}
