//! The `fig1-jobs` workload: the production path. An in-process
//! `GapServer` runs with gapserver's defaults (2 workers, sandboxed cells
//! self-exec'd through `--worker`, a durable journal, a live registry and
//! tracer); only the per-client quota is raised so it never binds.
//!
//! Load is a closed loop of `CLIENTS` client threads. Each submits the
//! next job of a seeded mix of fig-1 DP/POP sweep jobs (`POST /jobs`),
//! waits on the job's events route until the stream ends, then reads the
//! result (`GET /jobs/{id}`). A job counts as correct only with a `202`
//! ack, a terminal `done` event, and an outcome identical to a reference
//! in-process `drive_cell` run of the same spec, computed at set-up.

use crate::calib::{at_reference, Calibrator};
use crate::finder::{self, Calls, Problem, Work};
use crate::spans::{Recorder, SpanId};
use crate::stats::{cpu_seconds, median, quantile};
use crate::{Metric, Options, Report};
use metaopt_campaign::{
    drive_cell, run_cell_sandboxed, CellDriveEnd, CellOutcome, CellSpec, SandboxConfig, SandboxEnd,
    SandboxLimits, SolverObs, SystemClock,
};
use metaopt_obs::trace::DEFAULT_RING_CAPACITY;
use metaopt_obs::{Registry, Tracer};
use metaopt_server::client::{request, Response};
use metaopt_server::{parse_submit, serve, GapServer, Json, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop clients (the 2-thread box this benchmark was sized on).
const CLIENTS: usize = 2;
/// Distinct job specs in the mix, half DP and half POP.
const POOL: usize = 8;
/// Set-ups before the load; one more runs between each two load
/// segments, so the samples span the run and `setup_s` is their median.
/// A set-up boots a throwaway server and computes the reference outcome
/// of every job in the mix in-process. The references (CPU-bound) are
/// most of it; the boot alone is bound by the journal's fsyncs, whose
/// latency drifted by up to 75 % within half an hour on a shared host.
const SETUPS_BEFORE_LOAD: usize = 2;
/// The load runs in this many segments. Each ends with a calibration
/// point that rescales its jobs' CPU time, so the host's speed is sampled
/// every few seconds.
const SEGMENTS: usize = 8;
/// Jobs a run completes at least, so the reported p99 has ten samples
/// beyond it.
const MIN_JOBS: u64 = 1000;
/// Hard stop for the load phase, whatever `--seconds` or `MIN_JOBS` say.
const MAX_LOAD_SECS: f64 = 100.0;
/// Repetitions of the single-cell timings in a traced run.
const CELL_REPS: usize = 5;
const HTTP_TIMEOUT: Duration = Duration::from_secs(15);
/// Link capacity of the fig-1 triangle.
const FIG1_CAP: f64 = 100.0;

/// One job spec of the mix: the submission body without the client.
struct MixSpec {
    label: String,
    heuristic: String,
}

impl MixSpec {
    fn body(&self, client: &str) -> String {
        format!(
            concat!(
                "{{\"client\":\"{}\",\"label\":\"{}\",",
                "\"topology\":{{\"kind\":\"fig1\",\"cap\":{}}},",
                "\"heuristic\":{},",
                "\"sweep\":{{\"lo\":0.0,\"hi\":100.0,\"resolution\":5.0}},",
                "\"budget\":{{\"probe_cap_nodes\":4000,\"slice_nodes\":64}}}}"
            ),
            client, self.label, FIG1_CAP, self.heuristic
        )
    }

    fn cell_spec(&self) -> Result<CellSpec, String> {
        parse_submit(self.body("reference").as_bytes())
            .map(|req| req.spec)
            .map_err(|e| format!("job spec {} does not parse: {e}", self.label))
    }
}

/// The seeded job mix. DP thresholds are drawn one per stratum of
/// `[10, 90)` (so every mix spans the same range of gaps); POP
/// instantiation counts and partition seeds are drawn freely.
fn job_mix(seed: u64) -> Vec<MixSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let strata = (POOL / 2) as u32;
    let width = 80 / strata;
    (0..POOL)
        .map(|i| {
            if i % 2 == 0 {
                let t = 10 + width * (i as u32 / 2) + rng.gen_range(0..width);
                MixSpec {
                    label: format!("dp-{i}"),
                    heuristic: format!("{{\"kind\":\"dp\",\"threshold\":{t}.0}}"),
                }
            } else {
                let insts: u32 = rng.gen_range(1u32..=3);
                let s: u32 = rng.gen_range(0u32..=u32::MAX);
                MixSpec {
                    label: format!("pop-{i}"),
                    heuristic: format!(
                        "{{\"kind\":\"pop\",\"n_parts\":2,\"n_insts\":{insts},\"seed\":{s}}}"
                    ),
                }
            }
        })
        .collect()
}

/// In-process `drive_cell`: the reference outcome and its solver counters.
fn drive_inproc(spec: &CellSpec) -> Result<(CellOutcome, Work), String> {
    let obs = SolverObs {
        metrics: finder::fresh_metrics(),
        tracer: Tracer::disabled(),
    };
    let end = drive_cell(
        spec,
        0,
        None,
        None,
        None,
        &SystemClock,
        &obs,
        &mut |_| Ok(()),
        &mut || false,
    )
    .map_err(|e| e.to_string())?;
    match end {
        CellDriveEnd::Finished(o) => {
            let work = Work::of(&obs.metrics, o.nodes);
            Ok((o, work))
        }
        other => Err(format!("cell {} ended {other:?}", spec.label)),
    }
}

fn drive_sandboxed(sandbox: &SandboxConfig, spec: &CellSpec) -> Result<CellOutcome, String> {
    let end = run_cell_sandboxed(
        sandbox,
        spec,
        0,
        None,
        None,
        None,
        &SystemClock,
        &Tracer::disabled(),
        &mut |_| Ok(()),
        &mut || false,
    )
    .map_err(|e| e.to_string())?;
    match end {
        SandboxEnd::Finished(o) => Ok(o),
        other => Err(format!("sandboxed cell {} ended {other:?}", spec.label)),
    }
}

/// A booted server with its acceptor and worker threads.
struct Running {
    server: Arc<GapServer>,
    addr: String,
    acceptor: JoinHandle<std::io::Result<()>>,
    workers: Vec<JoinHandle<()>>,
}

fn boot(dir: &Path, sandbox: &SandboxConfig) -> Result<Running, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let server = GapServer::open(ServerConfig {
        name: "perfbench".into(),
        dir: dir.to_path_buf(),
        sandbox: Some(sandbox.clone()),
        registry: Registry::new(),
        tracer: Tracer::new(Arc::new(SystemClock), DEFAULT_RING_CAPACITY),
        quota_burst: 1e9,
        quota_per_sec: 1e9,
        ..ServerConfig::default()
    })
    .map_err(|e| format!("open server: {e}"))?;
    let workers = server.start_workers();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?
        .to_string();
    let s = Arc::clone(&server);
    let acceptor = std::thread::spawn(move || serve(&s, listener));
    Ok(Running {
        server,
        addr,
        acceptor,
        workers,
    })
}

fn shutdown(r: Running) -> Result<(), String> {
    r.server.drain("benchmark done");
    let served = r
        .acceptor
        .join()
        .map_err(|_| "acceptor panicked".to_string())?;
    served.map_err(|e| format!("serve: {e}"))?;
    for w in r.workers {
        w.join().map_err(|_| "server worker panicked".to_string())?;
    }
    Ok(())
}

/// Set-up samples of one run.
#[derive(Default)]
struct Setups {
    secs: Vec<f64>,
    boot_s: Vec<f64>,
    /// `secs` at the reference host speed.
    ref_s: Vec<f64>,
    references: Option<Vec<String>>,
}

/// One set-up: boot a throwaway server in `dir` and compute the reference
/// outcome of every job in `mix`; the server is shut down afterwards,
/// outside the timed part. Every set-up must reproduce the same outcomes.
fn set_up(
    rec: &Recorder,
    dir: &Path,
    sandbox: &SandboxConfig,
    mix: &[MixSpec],
    setups: &mut Setups,
    report: &mut Report,
) -> Result<(), String> {
    let op = setups.secs.len() as u64;
    let t = Instant::now();
    let (server, boot_s) = rec.time("server.boot", op, SpanId::ROOT, || boot(dir, sandbox));
    let server = server?;
    let (refs, _) = rec.time("campaign.reference", op, SpanId::ROOT, || {
        mix.iter()
            .map(|m| Ok(drive_inproc(&m.cell_spec()?)?.0.encode()))
            .collect::<Result<Vec<String>, String>>()
    });
    let secs = t.elapsed().as_secs_f64();
    shutdown(server)?;
    let refs = refs?;
    match &setups.references {
        None => setups.references = Some(refs),
        Some(first) if *first != refs => {
            report.problem("reference outcomes differ between set-ups".to_string());
        }
        Some(_) => {}
    }
    setups.secs.push(secs);
    setups.boot_s.push(boot_s);
    Ok(())
}

/// One closed-loop client's state, kept across load segments.
struct Client {
    name: String,
    rng: StdRng,
    order: Vec<usize>,
    jobs: usize,
}

impl Client {
    fn new(c: usize, seed: u64) -> Client {
        Client {
            name: format!("bench-{c}"),
            rng: StdRng::seed_from_u64(seed ^ (0x9e37_79b9 * (c as u64 + 1))),
            order: Vec::new(),
            jobs: 0,
        }
    }

    /// Every pool spec once per cycle, in a seeded order.
    fn next_spec(&mut self, pool: usize) -> usize {
        if self.order.is_empty() {
            self.order = (0..pool).collect();
            for k in (1..pool).rev() {
                self.order.swap(k, self.rng.gen_range(0..=k));
            }
        }
        self.order.pop().expect("refilled above")
    }
}

fn call(addr: &str, method: &str, path: &str, body: Option<&[u8]>) -> Result<Response, String> {
    request(addr, method, path, body, HTTP_TIMEOUT).map_err(|e| format!("{method} {path}: {e}"))
}

/// Sums every series of each counter family in a Prometheus exposition.
fn scrape(addr: &str) -> Result<BTreeMap<String, f64>, String> {
    let resp = call(addr, "GET", "/metrics", None)?;
    if resp.status != 200 {
        return Err(format!("GET /metrics: HTTP {}", resp.status));
    }
    let mut out = BTreeMap::new();
    for line in resp.text().lines().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let family = series.split('{').next().unwrap_or(series).to_string();
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(family).or_insert(0.0) += v;
        }
    }
    Ok(out)
}

/// One closed-loop job as the client saw it.
struct JobSample {
    traced: bool,
    latency_s: f64,
    submit_s: f64,
    result_get_s: f64,
    gap: Option<f64>,
    /// `latency_s` at the reference host speed, set after its segment.
    ref_s: f64,
}

/// Submits one job, waits for its event stream to end, reads the result
/// and compares it with the reference outcome.
fn one_job(
    rec: &Recorder,
    addr: &str,
    body: &str,
    reference: &str,
    op: u64,
    traced: bool,
) -> Result<JobSample, String> {
    let noop = Recorder::new(false);
    let r = if traced { rec } else { &noop };
    let t0 = Instant::now();
    let job = r.open("job", op, SpanId::ROOT);
    let (resp, submit_s) = r.time("server.submit", op, job, || {
        call(addr, "POST", "/jobs", Some(body.as_bytes()))
    });
    let resp = resp?;
    if resp.status != 202 {
        return Err(format!("submit: HTTP {} {}", resp.status, resp.text()));
    }
    let id = Json::parse(&resp.text())
        .ok()
        .and_then(|v| v.get("id").and_then(Json::as_u64))
        .ok_or("submit: 202 without a job id")?;
    let (events, _) = r.time("server.events_wait", op, job, || {
        call(addr, "GET", &format!("/jobs/{id}/events"), None)
    });
    let events = events?;
    let last = events
        .text()
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| Json::parse(l).ok())
        .and_then(|v| v.get("event").and_then(Json::as_str).map(str::to_string));
    if last.as_deref() != Some("done") {
        return Err(format!("job {id}: event stream ended with {last:?}"));
    }
    let (result, result_get_s) = r.time("server.result_get", op, job, || {
        call(addr, "GET", &format!("/jobs/{id}"), None)
    });
    r.close(job);
    let latency_s = t0.elapsed().as_secs_f64();
    let result = result?;
    let parsed = Json::parse(&result.text()).map_err(|e| format!("job {id}: bad body: {e}"))?;
    let outcome = parsed.get("result");
    let wire = outcome
        .and_then(|o| o.get("outcome_wire"))
        .and_then(Json::as_str);
    if result.status != 200 || wire != Some(reference) {
        return Err(format!(
            "job {id}: result {:?} differs from the reference {reference:?}",
            wire
        ));
    }
    Ok(JobSample {
        traced,
        latency_s,
        submit_s,
        result_get_s,
        gap: outcome
            .and_then(|o| o.get("verified_gap"))
            .and_then(Json::as_f64),
        ref_s: latency_s,
    })
}

pub fn run(opts: &Options, rec: &Recorder) -> Result<Report, String> {
    let mut report = Report::default();
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let sandbox = SandboxConfig {
        program: exe,
        args: vec!["--worker".to_string()],
        limits: SandboxLimits::default(),
    };
    let name = format!("{}-{}", opts.workload.name(), std::process::id());
    let dir: PathBuf = opts.work_dir.join(&name);
    let boot_dir: PathBuf = opts.work_dir.join(format!("{name}-boot"));

    let mix = job_mix(opts.seed);
    let mut setups = Setups::default();
    let mut cal = Calibrator::new();
    let mut pass = cal.point();
    for _ in 0..SETUPS_BEFORE_LOAD {
        set_up(rec, &boot_dir, &sandbox, &mix, &mut setups, &mut report)?;
        let after = cal.point();
        finder::rescale_new(&setups.secs, &mut setups.ref_s, 0.5 * (pass + after));
        pass = after;
    }
    let references = setups.references.clone().expect("SETUPS_BEFORE_LOAD > 0");
    let (server, boot_s) = rec.time("server.boot", 0, SpanId::ROOT, || boot(&dir, &sandbox));
    setups.boot_s.push(boot_s);
    let server = server?;

    if opts.trace {
        cell_layers(rec, &mix[0].cell_spec()?, &sandbox, &mut report)?;
    }

    let before = scrape(&server.addr)?;
    let samples: Mutex<Vec<JobSample>> = Mutex::new(Vec::new());
    let failures: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let attempted = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let next_op = AtomicU64::new(1);
    let mut clients: Vec<Client> = (0..CLIENTS).map(|c| Client::new(c, opts.seed)).collect();
    let mut elapsed = 0.0;
    let mut cpu_s = 0.0;
    let mut pass_before = cal.point();
    for seg in 1..=SEGMENTS {
        let first = samples.lock().expect("sample list poisoned").len();
        let until = opts.seconds * seg as f64 / SEGMENTS as f64;
        let last = seg == SEGMENTS;
        let start = elapsed;
        let t0 = Instant::now();
        let cpu0 = cpu_seconds();
        std::thread::scope(|scope| {
            for client in &mut clients {
                let (mix, references, samples, failures) = (&mix, &references, &samples, &failures);
                let (attempted, completed, next_op, addr) =
                    (&attempted, &completed, &next_op, &server.addr);
                scope.spawn(move || loop {
                    let secs = start + t0.elapsed().as_secs_f64();
                    let enough =
                        secs >= until && (!last || completed.load(Ordering::SeqCst) >= MIN_JOBS);
                    if enough || secs >= MAX_LOAD_SECS {
                        break;
                    }
                    let k = client.next_spec(mix.len());
                    let op = next_op.fetch_add(1, Ordering::SeqCst);
                    let traced = opts.trace && client.jobs.is_multiple_of(2);
                    client.jobs += 1;
                    attempted.fetch_add(1, Ordering::SeqCst);
                    let body = mix[k].body(&client.name);
                    match one_job(rec, addr, &body, &references[k], op, traced) {
                        Ok(s) => {
                            completed.fetch_add(1, Ordering::SeqCst);
                            samples.lock().expect("sample list poisoned").push(s);
                        }
                        Err(e) => failures.lock().expect("failure list poisoned").push(e),
                    }
                });
            }
        });
        elapsed += t0.elapsed().as_secs_f64();
        let seg_cpu = cpu_seconds()
            .zip(cpu0)
            .map(|(b, a)| b - a)
            .ok_or("process CPU time is unavailable")?;
        cpu_s += seg_cpu;
        // The segment's CPU seconds per job (server, clients and worker
        // children together) are the on-CPU part of each job's latency.
        let pass_after = cal.point();
        let pass = 0.5 * (pass_before + pass_after);
        let mut seg_samples = samples.lock().expect("sample list poisoned");
        let seg_jobs = seg_samples.len() - first;
        let on_cpu = seg_cpu / seg_jobs.max(1) as f64;
        for s in &mut seg_samples[first..] {
            s.ref_s = at_reference(s.latency_s, on_cpu.min(s.latency_s), pass);
        }
        drop(seg_samples);
        if !last {
            set_up(rec, &boot_dir, &sandbox, &mix, &mut setups, &mut report)?;
            pass_before = cal.point();
            let pass = 0.5 * (pass_after + pass_before);
            finder::rescale_new(&setups.secs, &mut setups.ref_s, pass);
        }
    }
    let after = scrape(&server.addr)?;
    shutdown(server)?;
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&boot_dir);

    let samples = samples.into_inner().expect("sample list poisoned");
    let failures = failures.into_inner().expect("failure list poisoned");
    report.attempted += attempted.load(Ordering::SeqCst);
    report.failed += failures.len() as u64;
    for f in failures {
        report.problem(f);
    }
    let done = samples.len();
    let untraced: Vec<&JobSample> = samples.iter().filter(|s| !s.traced).collect();
    let lat: Vec<f64> = untraced.iter().map(|s| s.latency_s).collect();
    let lat_ref: Vec<f64> = untraced.iter().map(|s| s.ref_s).collect();
    let (fig1, ..) = mix[0].cell_spec()?.build().map_err(|e| e.to_string())?;
    let cap = fig1.topo.total_capacity();
    let gaps: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.gap)
        .map(|g| g / cap)
        .collect();

    let e2e = &mut report.end_to_end;
    finder::push_latency(e2e, &lat);
    if let Some(v) = median(&lat_ref) {
        e2e.push(Metric::new("op_p50_ref_s", "s", v, lat_ref.len()));
    }
    e2e.push(Metric::new("ops_per_s", "1/s", done as f64 / elapsed, done));
    if done > 0 {
        e2e.push(Metric::new("cpu_s_per_op", "s", cpu_s / done as f64, done));
    }
    if !gaps.is_empty() {
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        e2e.push(Metric::new("gap_norm", "ratio", mean, gaps.len()));
    }
    finder::push_common(&mut report, &setups.secs, &setups.ref_s);
    report.end_to_end.push(Metric::new(
        "server.boot_s",
        "s",
        median(&setups.boot_s).expect("booted at least once"),
        setups.boot_s.len(),
    ));

    let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
    let per_job = |v: f64| v / done.max(1) as f64;
    let server_layers = vec![
        Metric::new(
            "campaign.journal_appends_per_job",
            "count",
            per_job(delta("metaopt_campaign_journal_appends_total")),
            done,
        ),
        Metric::new(
            "campaign.journal_fsyncs_per_job",
            "count",
            per_job(delta("metaopt_campaign_journal_fsyncs_total")),
            done,
        ),
        Metric::new(
            "server.workers_spawned_per_job",
            "count",
            per_job(delta("metaopt_server_workers_spawned_total")),
            done,
        ),
        Metric::new(
            "server.workers_killed",
            "count",
            delta("metaopt_server_workers_killed_total"),
            1,
        ),
        Metric::new(
            "campaign.retries",
            "count",
            delta("metaopt_server_jobs_retried_total") + delta("metaopt_campaign_retries_total"),
            1,
        ),
        Metric::new(
            "server.shed",
            "count",
            delta("metaopt_server_shed_total"),
            1,
        ),
    ];
    if opts.trace {
        let traced: Vec<&JobSample> = samples.iter().filter(|s| s.traced).collect();
        let submit: Vec<f64> = traced.iter().map(|s| s.submit_s).collect();
        let get: Vec<f64> = traced.iter().map(|s| s.result_get_s).collect();
        let lat_traced: Vec<f64> = traced.iter().map(|s| s.latency_s).collect();
        let out = &mut report.per_layer;
        if let (Some(p50), Some(p95), Some(g)) =
            (median(&submit), quantile(&submit, 0.95), median(&get))
        {
            out.push(Metric::new("server.submit_p50_s", "s", p50, submit.len()));
            out.push(Metric::new("server.submit_p95_s", "s", p95, submit.len()));
            out.push(Metric::new("server.result_get_p50_s", "s", g, get.len()));
        }
        out.extend(server_layers);
        let overhead = match (median(&lat_traced), median(&lat)) {
            (Some(t), Some(u)) => Metric::new("trace.overhead_s", "s", t - u, lat_traced.len()),
            _ => Metric::missing(
                "trace.overhead_s",
                "s",
                "no successful traced/untraced job pair",
            ),
        };
        out.push(overhead);
    } else {
        report.details.push((
            "server_layers",
            Json::Obj(
                server_layers
                    .iter()
                    .map(|m| (m.name.to_string(), m.value.map_or(Json::Null, Json::Num)))
                    .collect(),
            ),
        ));
    }
    report.details.push((
        "jobs",
        Json::obj(vec![
            ("clients", Json::Num(CLIENTS as f64)),
            (
                "mix",
                Json::Arr(mix.iter().map(|m| Json::str(m.heuristic.clone())).collect()),
            ),
            (
                "references",
                Json::Arr(references.iter().map(|r| Json::str(r.clone())).collect()),
            ),
            ("completed", Json::Num(done as f64)),
            ("load_s", Json::Num(elapsed)),
            ("setup_s", finder::nums(&setups.secs)),
            ("boot_s", finder::nums(&setups.boot_s)),
            ("calibration_pass_s", finder::nums(&cal.passes)),
        ]),
    ));
    Ok(report)
}

/// Traced-run layers of one job spec: the finder path on its model (what
/// admission and every sweep probe run), and one cell driven in-process
/// and in a sandboxed child.
fn cell_layers(
    rec: &Recorder,
    spec: &CellSpec,
    sandbox: &SandboxConfig,
    report: &mut Report,
) -> Result<(), String> {
    let mut instance_s = Vec::new();
    let mut problem = None;
    for _ in 0..CELL_REPS {
        let (built, secs) = rec.time("te.instance", 0, SpanId::ROOT, || spec.build());
        instance_s.push(secs);
        let (inst, heu, cs, cfg) = built.map_err(|e| e.to_string())?;
        problem = Some(Problem {
            inst,
            spec: heu,
            cs,
            cfg,
        });
    }
    let p = problem.expect("CELL_REPS > 0");
    report.per_layer.push(Metric::new(
        "te.instance_s",
        "s",
        median(&instance_s).expect("CELL_REPS > 0"),
        CELL_REPS,
    ));
    let mut layers = finder::attribute_layers(rec, &p, report)?;
    let mut calls = Calls::default();
    for op in 1..=CELL_REPS as u64 {
        let (out, secs) = rec.time("core.find", op, SpanId::ROOT, || finder::finder_call(&p));
        if let Some(r) = calls.record(report, (0, &p), out, secs, None, true) {
            if layers.certify_s.is_empty() {
                layers.certify_s = finder::certify(rec, &p, &r.demands, op, report);
            }
        }
    }
    layers.finish(&calls, report);
    report.details.push(("work", calls.work_json()));

    let mut inproc = Vec::new();
    let mut sandboxed = Vec::new();
    let mut cell_work = None;
    for _ in 0..CELL_REPS {
        let (out, secs) = rec.time("campaign.cell_inproc", 0, SpanId::ROOT, || {
            drive_inproc(spec)
        });
        let (outcome, work) = out?;
        inproc.push(secs);
        cell_work = Some(work);
        let (out, secs) = rec.time("campaign.cell_sandboxed", 0, SpanId::ROOT, || {
            drive_sandboxed(sandbox, spec)
        });
        if out? != outcome {
            report.problem(format!(
                "sandboxed cell {} differs from in-process",
                spec.label
            ));
        }
        sandboxed.push(secs);
    }
    let (a, b) = (
        median(&inproc).expect("CELL_REPS > 0"),
        median(&sandboxed).expect("CELL_REPS > 0"),
    );
    let out = &mut report.per_layer;
    out.push(Metric::new("campaign.cell_inproc_s", "s", a, CELL_REPS));
    out.push(Metric::new("campaign.cell_sandboxed_s", "s", b, CELL_REPS));
    out.push(Metric::new(
        "campaign.sandbox_overhead_s",
        "s",
        b - a,
        CELL_REPS,
    ));
    // Solver counters of one cell, from the in-process drive: sandboxed
    // children do not report theirs to the server's /metrics.
    report
        .details
        .push(("cell_work", cell_work.map_or(Json::Null, Work::to_json)));
    Ok(())
}
