//! `perfbench` — the workspace's end-to-end benchmark with per-layer
//! attribution. See `perfbench/README.md` for the workloads, the metrics
//! and the prediction table.
//!
//! ```text
//! perfbench --workload <b4-dp-bnb|b4-pop-root|fig1-jobs> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full report (every metric with unit and sample count, work
//! counters, environment, span summary). Run from the repository root:
//! scratch state goes to `.bench_work/`.

#![forbid(unsafe_code)]

mod calib;
mod finder;
mod jobs;
mod spans;
mod stats;

use metaopt_server::Json;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, in result-line order (untraced runs).
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_p50_ref_s", "s"),
    ("gap_norm", "ratio"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload measures, in result-line order
/// (traced runs). Layer metrics that only some workloads exercise appear
/// in the full report line only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("te.instance_s", "s"),
    ("core.encode_s", "s"),
    ("core.vars", "count"),
    ("core.linear", "count"),
    ("core.sos", "count"),
    ("core.binary", "count"),
    ("modelcheck.check_s", "s"),
    ("model.compile_s", "s"),
    ("lp.rows", "count"),
    ("lp.vars", "count"),
    ("lp.nnz", "count"),
    ("lp.root_s", "s"),
    ("lp.root_pivots", "count"),
    ("lp.root_updates", "count"),
    ("lp.root_refactors", "count"),
    ("lp.root_us_per_pivot", "us"),
    ("milp.search_s", "s"),
    ("milp.nodes", "count"),
    ("milp.pivots", "count"),
    ("milp.refactors", "count"),
    ("milp.warm_solves", "count"),
    ("milp.cold_solves", "count"),
    ("milp.pivots_per_node", "count"),
    ("milp.us_per_pivot", "us"),
    ("milp.recovery_steps", "count"),
    ("milp.warm_ratio", "ratio"),
    ("core.find_s", "s"),
    ("core.nodes", "count"),
    ("core.pivots", "count"),
    ("core.incumbents", "count"),
    ("core.warm_solves", "count"),
    ("core.cold_solves", "count"),
    ("core.refactors", "count"),
    ("core.bound_norm", "ratio"),
    ("te.certify_s", "s"),
    ("trace.overhead_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    B4DpBnb,
    B4PopRoot,
    Fig1Jobs,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "b4-dp-bnb" => Some(Workload::B4DpBnb),
            "b4-pop-root" => Some(Workload::B4PopRoot),
            "fig1-jobs" => Some(Workload::Fig1Jobs),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::B4DpBnb => "b4-dp-bnb",
            Workload::B4PopRoot => "b4-pop-root",
            Workload::Fig1Jobs => "fig1-jobs",
        }
    }
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for journals and span files.
    pub work_dir: PathBuf,
}

const USAGE: &str =
    "usage: perfbench --workload <b4-dp-bnb|b4-pop-root|fig1-jobs> --seed N --seconds S --trace 0|1";

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    );
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad --seconds `{value}`"))?;
                }
                "--trace" => {
                    trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace `{value}` (want 0 or 1)")),
                    };
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            work_dir: PathBuf::from(".bench_work"),
        })
    }
}

/// One measured quantity: `value` is `None` when the workload does not
/// exercise it, with `note` saying why.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: usize,
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
        Metric {
            name,
            unit,
            value: Some(value),
            samples,
            note: None,
        }
    }

    pub fn count(name: &'static str, value: u64) -> Metric {
        Metric::new(name, "count", value as f64, 1)
    }

    pub fn missing(name: &'static str, unit: &'static str, why: &str) -> Metric {
        Metric {
            name,
            unit,
            value: None,
            samples: 0,
            note: Some(why.to_string()),
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value", self.value.map_or(Json::Null, Json::Num)),
            ("unit", Json::str(self.unit)),
            ("samples", Json::Num(self.samples as f64)),
        ];
        if let Some(n) = &self.note {
            pairs.push(("note", Json::str(n.clone())));
        }
        Json::obj(pairs)
    }
}

/// What one workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the outputs were judged incorrect (empty when correct).
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub details: Vec<(&'static str, Json)>,
}

impl Report {
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// The resolved solver defaults the program runs with, and any
/// `METAOPT_*` override present in the environment.
fn environment() -> (Json, bool) {
    let milp = metaopt_milp::MilpConfig::default();
    let threads = milp.resolved_threads();
    // `ParallelMode::Auto` resolves to the serial engine at one thread and
    // the deterministic wave engine above it.
    let engine = if threads <= 1 {
        "serial"
    } else {
        "deterministic"
    };
    let hardware_threads = std::thread::available_parallelism().map_or(0, usize::from);
    let mut overrides: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("METAOPT_"))
        .collect();
    overrides.sort();
    let non_default = !overrides.is_empty();
    let json = Json::obj(vec![
        ("engine", Json::str(engine)),
        ("factor", Json::str(milp.factor.name())),
        ("threads", Json::Num(threads as f64)),
        ("hardware_threads", Json::Num(hardware_threads as f64)),
        (
            "overrides",
            Json::Obj(
                overrides
                    .into_iter()
                    .map(|(k, v)| (k, Json::Str(v)))
                    .collect(),
            ),
        ),
        ("default_path", Json::Bool(!non_default)),
    ]);
    (json, non_default)
}

fn result_line(report: &Report, trace: bool) -> Result<Json, String> {
    let (names, pool) = if trace {
        (PER_LAYER, &report.per_layer)
    } else {
        (END_TO_END, &report.end_to_end)
    };
    let mut metrics = Vec::new();
    for (name, unit) in names {
        let m = pool
            .iter()
            .find(|m| m.name == *name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        let value = m
            .value
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} has no value"))?;
        metrics.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(*unit)),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(report.problems.is_empty())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]))
}

/// Writes the recorded spans to `.bench_work/spans/` and summarizes
/// self and total time per layer.
fn span_summary(rec: &spans::Recorder, opts: &Options) -> Json {
    let path = opts.work_dir.join("spans").join(format!(
        "{}-seed{}.ndjson",
        opts.workload.name(),
        opts.seed
    ));
    let written = match rec.write_ndjson(&path) {
        Ok(()) => Json::str(path.display().to_string()),
        Err(e) => Json::str(format!("not written: {e}")),
    };
    let layers = rec
        .layers()
        .into_iter()
        .map(|(name, l)| {
            let v = Json::obj(vec![
                ("count", Json::Num(l.count as f64)),
                ("total_s", Json::Num(l.total_s)),
                ("self_s", Json::Num(l.self_s)),
            ]);
            (name.to_string(), v)
        })
        .collect();
    Json::obj(vec![("file", written), ("layers", Json::Obj(layers))])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    // The job server's sandbox self-execs this binary in worker mode,
    // exactly as `gapserver --worker`.
    if args.get(1).is_some_and(|a| a == "--worker") {
        let code = metaopt_campaign::worker_main().clamp(0, 255);
        return ExitCode::from(u8::try_from(code).expect("clamped to 0..=255"));
    }
    let opts = match Options::parse(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (env, non_default) = environment();
    let rec = spans::Recorder::new(opts.trace);
    let outcome = match opts.workload {
        Workload::B4DpBnb | Workload::B4PopRoot => finder::run(&opts, &rec),
        Workload::Fig1Jobs => jobs::run(&opts, &rec),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&report, opts.trace) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut full = vec![
        ("workload", Json::str(opts.workload.name())),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Bool(opts.trace)),
        ("environment", env),
        ("non_default", Json::Bool(non_default)),
        (
            "problems",
            Json::Arr(report.problems.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "end_to_end",
            Json::Obj(
                report
                    .end_to_end
                    .iter()
                    .map(|m| (m.name.to_string(), m.to_json()))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Obj(
                report
                    .per_layer
                    .iter()
                    .map(|m| (m.name.to_string(), m.to_json()))
                    .collect(),
            ),
        ),
    ];
    full.append(&mut report.details);
    if opts.trace {
        full.push(("spans", span_summary(&rec, &opts)));
    }
    println!("{}", Json::obj(full).render());
    println!("{}", line.render());
    ExitCode::SUCCESS
}
