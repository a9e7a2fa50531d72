//! Process isolation for cell execution: the blast-radius containment
//! layer.
//!
//! `catch_unwind` contains panics, but it cannot contain the failure
//! modes a gap-finding campaign is *built* to provoke: a KKT encoding
//! whose MILP explodes to tens of gigabytes, an abort in a dependency, a
//! runaway loop that never reaches a tick boundary. The only containment
//! boundary the kernel actually enforces is a process, so the supervisor
//! ([`run_cell_sandboxed`]) executes each cell attempt in a child
//! process — `gapserver --worker`, a self-exec of the same binary — and
//! polices it from outside:
//!
//! * **Heartbeat liveness.** The child emits a `beat` frame on a fixed
//!   interval; silence past the configured window means the child is
//!   wedged (livelocked, stopped, or swapping to death) and it is killed.
//! * **Wall-clock limit.** Measured by the supervisor from spawn, so no
//!   amount of child misbehaviour can evade it.
//! * **RSS limit.** The supervisor polls `/proc/<pid>/statm` (Linux) and
//!   kills on breach — the OOM that used to take the whole server down
//!   now takes down one attempt.
//!
//! Kills are deliberate (`SIGKILL`, no grace: the child is by definition
//! not trustworthy at that point) and map to the retryable
//! `killed_oom` / `killed_deadline` / `killed_heartbeat` failure kinds
//! ([`metaopt_resilience::WorkerKillReason`]).
//!
//! ## IPC protocol
//!
//! Frames are journal envelopes ([`crate::journal::encode_line`]) over
//! the child's stdin/stdout — one `J1 <len> <crc> <payload>\n` line per
//! frame, so torn and corrupt frames are detected exactly like torn
//! journal tails. Payload vocabulary:
//!
//! ```text
//! parent → child
//!   spec <threads> <deadline_ms|-> <beat_ms> <cellspec…>   the work
//!   resume <sweep-state…>                                  optional checkpoint
//!   go                                                     start driving
//!   stop                                                   drain to a tick boundary
//! child → parent
//!   ready                                                  spec accepted
//!   beat                                                   liveness heartbeat
//!   ckpt <sweep-state…>                                    durable tick boundary
//!   done <outcome…>                                        certified completion
//!   fail <kind> <detail>                                   attempt failed
//!   stopped                                                drained after `stop`
//! ```
//!
//! The parent journals `ckpt` frames *before* acknowledging anything
//! (the same write-ahead discipline as in-process execution), so a child
//! killed mid-tick loses at most one tick, exactly like `kill -9` of the
//! whole server. Any child exit without a terminal frame is reported as
//! the retryable `worker_exit` failure kind.
//!
//! Lease fencing — the guarantee that a zombie child which *outlives*
//! its supervisor's patience can never write over a retried attempt's
//! record — lives one layer up, in the server's claim table: results
//! only enter the journal through the supervisor, and the supervisor
//! stamps each claim with a monotone fencing token checked at record
//! time. See `DESIGN.md` §16.

use crate::cell::{decode_sweep_state, encode_sweep_state, CellOutcome, CellSpec};
use crate::journal::{decode_line, encode_line};
use crate::runner::{drive_cell, CellDriveEnd, SolverObs};
use crate::{wire, CampaignError, Clock, SystemClock};
use metaopt_core::SweepState;
use metaopt_resilience::WorkerKillReason;
use std::io::{BufRead, BufReader, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Resource ceilings the supervisor enforces on one worker child.
#[derive(Debug, Clone)]
pub struct SandboxLimits {
    /// Wall-clock ceiling for the whole attempt, measured from spawn by
    /// the *supervisor* (`None` = unlimited). Breach ⇒ `killed_deadline`.
    pub wall: Option<Duration>,
    /// Resident-set ceiling in bytes (`None` = unlimited; only enforced
    /// where `/proc` exists). Breach ⇒ `killed_oom`.
    pub rss_bytes: Option<u64>,
    /// Maximum silence (no frame of any kind) before the child is
    /// presumed wedged. Breach ⇒ `killed_heartbeat`.
    pub heartbeat: Duration,
}

impl Default for SandboxLimits {
    fn default() -> Self {
        SandboxLimits {
            wall: None,
            rss_bytes: None,
            heartbeat: Duration::from_secs(10),
        }
    }
}

/// How to launch worker children.
#[derive(Debug, Clone)]
pub struct SandboxConfig {
    /// The worker executable — in production the server's own binary
    /// (self-exec), so parent and child can never skew versions.
    pub program: PathBuf,
    /// Arguments selecting worker mode (e.g. `["--worker"]`).
    pub args: Vec<String>,
    /// Enforced ceilings.
    pub limits: SandboxLimits,
}

/// How one sandboxed attempt ended, from the supervisor's viewpoint.
#[derive(Debug)]
pub enum SandboxEnd {
    /// The child certified completion.
    Finished(CellOutcome),
    /// The child reported a failure (same taxonomy as
    /// [`CellDriveEnd::Failed`]), or died without a terminal frame
    /// (`kind = "worker_exit"`).
    Failed {
        /// Failure-taxonomy kind.
        kind: String,
        /// Free-form detail for the fault history.
        detail: String,
    },
    /// The supervisor killed the child for a limit breach. Retryable —
    /// this is the containment working, not the work failing.
    Killed(WorkerKillReason),
    /// `stop()` was honoured; the last journaled checkpoint is the exact
    /// resume point.
    Stopped,
}

/// Frames the reader thread forwards to the supervisor loop.
enum WorkerFrame {
    Payload(String),
    /// Stdout closed (child exited or crashed); payload is a best-effort
    /// description of any decode error that preceded it.
    Eof(Option<String>),
}

/// Runs one cell attempt in a supervised child process. The signature
/// mirrors [`drive_cell`] — same checkpoint write-ahead contract, same
/// stop semantics — with the failure surface widened by the kill
/// taxonomy. `Err` is reserved for `on_checkpoint` (journal) failures;
/// everything that goes wrong *in or to the child* is a [`SandboxEnd`].
#[allow(clippy::too_many_arguments)]
pub fn run_cell_sandboxed(
    config: &SandboxConfig,
    spec: &CellSpec,
    threads_override: usize,
    _retired: Option<std::convert::Infallible>,
    resume: Option<&SweepState>,
    cell_deadline: Option<Instant>,
    clock: &dyn Clock,
    tracer: &metaopt_obs::Tracer,
    on_checkpoint: &mut dyn FnMut(&SweepState) -> Result<(), CampaignError>,
    stop: &mut dyn FnMut() -> bool,
) -> Result<SandboxEnd, CampaignError> {
    let _span = tracer.span(
        "sandbox.attempt",
        vec![("label", spec.label.clone())],
    );
    let mut cmd = Command::new(&config.program);
    cmd.args(&config.args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // an:allow(AN104): this spawns a *process*, not a thread — panic
    // containment is structural (a child crash is an Eof frame, handled
    // below), and AN106 pins all process spawns to this module.
    let child = cmd.spawn();
    let mut child = match child {
        Ok(c) => c,
        Err(e) => {
            // Spawn failure is environmental (fork limits, missing
            // binary); surface it as a retryable attempt failure so the
            // retry/quarantine policy governs it like any other fault.
            return Ok(SandboxEnd::Failed {
                kind: "worker_exit".into(),
                detail: format!("spawn {}: {e}", config.program.display()),
            });
        }
    };
    let pid = child.id();
    tracer.event("sandbox.spawn", vec![("pid", pid.to_string())]);

    let beat_ms = (config.limits.heartbeat.as_millis() as u64 / 4).clamp(25, 1_000);
    let deadline_tok = match cell_deadline {
        Some(d) => d
            .saturating_duration_since(clock.now())
            .as_millis()
            .to_string(),
        None => "-".into(),
    };
    // Ship the work. Write failures here mean the child died instantly;
    // the reader's Eof path below reports it.
    if let Some(stdin) = child.stdin.as_mut() {
        let mut frames = vec![format!(
            "spec {threads_override} {deadline_tok} {beat_ms} {}",
            spec.encode()
        )];
        if let Some(state) = resume {
            frames.push(format!("resume {}", encode_sweep_state(state)));
        }
        frames.push("go".into());
        for frame in frames {
            let _ = stdin.write_all(encode_line(&frame).as_bytes());
        }
        let _ = stdin.flush();
    }

    let (tx, rx) = mpsc::channel();
    let stdout = child.stdout.take();
    let reader = std::thread::spawn(move || {
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let Some(stdout) = stdout else {
                let _ = tx.send(WorkerFrame::Eof(Some("no stdout pipe".into())));
                return;
            };
            let mut decode_err = None;
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                match decode_line(&line) {
                    Ok(payload) => {
                        if tx.send(WorkerFrame::Payload(payload)).is_err() {
                            return; // supervisor gone; stop reading
                        }
                    }
                    Err(why) => {
                        // A corrupt frame means the child is unsound;
                        // stop reading and let the supervisor kill it.
                        decode_err = Some(format!("corrupt worker frame: {why}"));
                        break;
                    }
                }
            }
            let _ = tx.send(WorkerFrame::Eof(decode_err));
        }));
    });

    let started = clock.now();
    let mut last_frame = started;
    let mut stop_sent: Option<Instant> = None;
    let end = loop {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(WorkerFrame::Payload(payload)) => {
                last_frame = clock.now();
                let (kind, body) = payload.split_once(' ').unwrap_or((payload.as_str(), ""));
                match kind {
                    "ready" | "beat" => {}
                    "ckpt" => {
                        let state = match decode_sweep_state(body) {
                            Ok(s) => s,
                            Err(why) => {
                                kill_child(&mut child, tracer, "corrupt_ckpt");
                                break SandboxEnd::Failed {
                                    kind: "worker_exit".into(),
                                    detail: format!("corrupt checkpoint frame: {why}"),
                                };
                            }
                        };
                        if let Err(e) = on_checkpoint(&state) {
                            // Journal trouble is the *supervisor's*
                            // failure: put the child down and propagate.
                            kill_child(&mut child, tracer, "journal_error");
                            let _ = reader.join();
                            return Err(e);
                        }
                    }
                    "done" => match CellOutcome::decode(body) {
                        Ok(outcome) => break SandboxEnd::Finished(outcome),
                        Err(why) => {
                            kill_child(&mut child, tracer, "corrupt_done");
                            break SandboxEnd::Failed {
                                kind: "worker_exit".into(),
                                detail: format!("corrupt done frame: {why}"),
                            };
                        }
                    },
                    "fail" => {
                        let (fkind, detail) = decode_fail_body(body);
                        break SandboxEnd::Failed {
                            kind: fkind,
                            detail,
                        };
                    }
                    "stopped" => break SandboxEnd::Stopped,
                    other => {
                        kill_child(&mut child, tracer, "unknown_frame");
                        break SandboxEnd::Failed {
                            kind: "worker_exit".into(),
                            detail: format!("unknown worker frame `{other}`"),
                        };
                    }
                }
            }
            Ok(WorkerFrame::Eof(decode_err)) => {
                // Child gone without a terminal frame: reap and report.
                let status = child.wait().map(|s| s.to_string());
                let detail = match (decode_err, status) {
                    (Some(why), _) => why,
                    (None, Ok(st)) => format!("worker exited without a result ({st})"),
                    (None, Err(e)) => format!("worker exited without a result (wait: {e})"),
                };
                tracer.event("sandbox.worker_exit", vec![("pid", pid.to_string())]);
                let _ = reader.join();
                return Ok(SandboxEnd::Failed {
                    kind: "worker_exit".into(),
                    detail,
                });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // Reader thread died; treat like Eof.
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Ok(SandboxEnd::Failed {
                    kind: "worker_exit".into(),
                    detail: "worker reader thread lost".into(),
                });
            }
        }

        let now = clock.now();
        if let Some(wall) = config.limits.wall {
            if now.saturating_duration_since(started) > wall {
                kill_child(&mut child, tracer, "deadline");
                break SandboxEnd::Killed(WorkerKillReason::Deadline);
            }
        }
        if now.saturating_duration_since(last_frame) > config.limits.heartbeat {
            kill_child(&mut child, tracer, "heartbeat");
            break SandboxEnd::Killed(WorkerKillReason::Heartbeat);
        }
        if let Some(limit) = config.limits.rss_bytes {
            if let Some(rss) = probe_rss_bytes(pid) {
                if rss > limit {
                    kill_child(&mut child, tracer, "oom");
                    break SandboxEnd::Killed(WorkerKillReason::Oom);
                }
            }
        }
        match stop_sent {
            None => {
                if stop() {
                    if let Some(stdin) = child.stdin.as_mut() {
                        let _ = stdin.write_all(encode_line("stop").as_bytes());
                        let _ = stdin.flush();
                    }
                    stop_sent = Some(now);
                }
            }
            Some(at) => {
                // The child gets one heartbeat window to drain to a tick
                // boundary; past that it is killed, which is equivalent
                // for the caller (last durable ckpt is the resume point).
                if now.saturating_duration_since(at) > config.limits.heartbeat {
                    kill_child(&mut child, tracer, "stop_grace");
                    break SandboxEnd::Stopped;
                }
            }
        }
    };
    // Reap whatever is left; terminal frames mean the child is exiting
    // on its own, kills already reaped inside kill_child.
    drop(child.stdin.take());
    let _ = child.wait();
    let _ = reader.join();
    Ok(end)
}

/// SIGKILL + reap. No grace: by the time the supervisor kills, the child
/// is either breaching a resource ceiling or not talking.
fn kill_child(child: &mut Child, tracer: &metaopt_obs::Tracer, why: &'static str) {
    tracer.event(
        "sandbox.kill",
        vec![("pid", child.id().to_string()), ("why", why.to_string())],
    );
    let _ = child.kill();
    let _ = child.wait();
}

/// Resident set of `pid` in bytes, where the OS exposes it.
#[cfg(target_os = "linux")]
fn probe_rss_bytes(pid: u32) -> Option<u64> {
    let statm = std::fs::read_to_string(format!("/proc/{pid}/statm")).ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

#[cfg(not(target_os = "linux"))]
fn probe_rss_bytes(_pid: u32) -> Option<u64> {
    None
}

fn decode_fail_body(body: &str) -> (String, String) {
    let (kind_tok, detail_tok) = body.split_once(' ').unwrap_or((body, ""));
    let kind = wire::unescape(kind_tok).unwrap_or_else(|_| "worker_exit".into());
    let detail = wire::unescape(detail_tok).unwrap_or_default();
    (kind, detail)
}

// ---------------------------------------------------------------------
// The child side
// ---------------------------------------------------------------------

/// Entry point for `gapserver --worker`: speaks the sandbox protocol on
/// stdin/stdout, drives exactly one cell, exits. Returns the process
/// exit code. Never panics out — the drive loop is `catch_unwind`-
/// contained by [`drive_cell`] itself, and protocol errors exit nonzero
/// (the supervisor reports `worker_exit`).
pub fn worker_main() -> i32 {
    let out = Arc::new(Mutex::new(std::io::stdout()));

    let mut spec: Option<CellSpec> = None;
    let mut threads_override = 0usize;
    let mut deadline_ms: Option<u64> = None;
    let mut beat_ms = 250u64;
    let mut resume: Option<SweepState> = None;

    // Setup phase: read frames until `go`.
    // `Stdin` (not its lock) so the watcher thread can take the reader.
    let mut reader = BufReader::new(std::io::stdin());
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return 2, // parent gone before go
            Ok(_) => {}
        }
        let payload = match decode_line(line.trim_end_matches('\n')) {
            Ok(p) => p,
            Err(_) => return 2,
        };
        let (kind, body) = payload.split_once(' ').unwrap_or((payload.as_str(), ""));
        match kind {
            "spec" => {
                let mut tok = body.splitn(4, ' ');
                let Ok(threads) = wire::parse_usize(tok.next().unwrap_or(""), "threads") else {
                    return 2;
                };
                let dl_tok = tok.next().unwrap_or("-");
                let bt_tok = tok.next().unwrap_or("");
                let Some(spec_body) = tok.next() else { return 2 };
                threads_override = threads;
                deadline_ms = if dl_tok == "-" {
                    None
                } else {
                    match wire::parse_u64(dl_tok, "deadline") {
                        Ok(ms) => Some(ms),
                        Err(_) => return 2,
                    }
                };
                if let Ok(ms) = wire::parse_u64(bt_tok, "beat") {
                    beat_ms = ms.clamp(25, 5_000);
                }
                match CellSpec::decode(spec_body) {
                    Ok(s) => spec = Some(s),
                    Err(_) => return 2,
                }
                if write_frame(&out, "ready").is_err() {
                    return 2;
                }
            }
            "resume" => match decode_sweep_state(body) {
                Ok(state) => resume = Some(state),
                Err(_) => return 2,
            },
            "go" => break,
            "stop" => return 0, // stopped before starting: nothing to drain
            _ => return 2,
        }
    }
    let Some(spec) = spec else { return 2 };

    let clock = SystemClock;
    let cell_deadline = deadline_ms.map(|ms| clock.now() + Duration::from_millis(ms));

    // Heartbeat thread: proof-of-life on a fixed cadence, independent of
    // tick boundaries (a long MILP solve must not read as a wedge). The
    // pause is a condvar wait, not a sleep, so a finished cell can wake
    // it immediately — otherwise every worker exit (and therefore every
    // supervisor slot) would pay out the rest of a beat window.
    let beating = Arc::new((Mutex::new(true), Condvar::new()));
    let beat_out = Arc::clone(&out);
    let beat_flag = Arc::clone(&beating);
    let beat_thread = std::thread::spawn(move || {
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let (alive, wake) = &*beat_flag;
            loop {
                // lock-order: the beat flag is never held across
                // write_frame (which takes the stdout lock).
                if !*alive.lock().expect("beat flag lock poisoned") {
                    return;
                }
                if write_frame(&beat_out, "beat").is_err() {
                    return; // parent gone; the drive loop will find out
                }
                let guard = alive.lock().expect("beat flag lock poisoned");
                let (guard, _) = wake
                    .wait_timeout_while(guard, Duration::from_millis(beat_ms), |a| *a)
                    .expect("beat flag lock poisoned");
                if !*guard {
                    return;
                }
            }
        }));
    });

    // Stdin watcher: a `stop` frame (or stdin EOF — supervisor died)
    // requests drain-to-checkpoint.
    let stop_flag = Arc::new(AtomicBool::new(false));
    let watcher_flag = Arc::clone(&stop_flag);
    let watcher = std::thread::spawn(move || {
        let _ = catch_unwind(AssertUnwindSafe(move || {
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break, // EOF: orphaned worker drains
                    Ok(_) => {
                        if decode_line(line.trim_end_matches('\n')).as_deref() == Ok("stop") {
                            break;
                        }
                    }
                }
            }
            watcher_flag.store(true, Ordering::SeqCst);
        }));
    });

    let obs = SolverObs {
        metrics: metaopt_milp::MilpMetrics::default(),
        tracer: metaopt_obs::Tracer::disabled(),
    };
    let ckpt_out = Arc::clone(&out);
    let mut on_checkpoint = |state: &SweepState| -> Result<(), CampaignError> {
        write_frame(&ckpt_out, &format!("ckpt {}", encode_sweep_state(state)))
            .map_err(|e| CampaignError::Io(format!("worker stdout: {e}")))
    };
    let stop_read = Arc::clone(&stop_flag);
    let mut stop = move || stop_read.load(Ordering::SeqCst);

    let end = drive_cell(
        &spec,
        threads_override,
        None,
        resume,
        cell_deadline,
        &clock,
        &obs,
        &mut on_checkpoint,
        &mut stop,
    );

    {
        let (alive, wake) = &*beating;
        *alive.lock().expect("beat flag lock poisoned") = false;
        wake.notify_all();
    }
    let code = match end {
        Ok(CellDriveEnd::Finished(outcome)) => {
            frame_or_die(&out, &format!("done {}", outcome.encode()))
        }
        Ok(CellDriveEnd::Failed { kind, detail }) => frame_or_die(
            &out,
            &format!("fail {} {}", wire::escape(&kind), wire::escape(&detail)),
        ),
        Ok(CellDriveEnd::Stopped) => frame_or_die(&out, "stopped"),
        // on_checkpoint failed = stdout to the supervisor is gone; there
        // is no one left to tell.
        Err(_) => 2,
    };
    let _ = beat_thread.join();
    // The watcher blocks on stdin; exiting the process releases it, so
    // join only if it already finished.
    if watcher.is_finished() {
        let _ = watcher.join();
    }
    code
}

/// Writes one framed payload, atomically with respect to the heartbeat
/// thread, and flushes (frames are the parent's liveness signal — a
/// buffered beat is a missed beat).
fn write_frame(out: &Mutex<std::io::Stdout>, payload: &str) -> std::io::Result<()> {
    // lock-order: campaign.sandbox_stdout (leaf: nothing acquired under it)
    let mut out = out.lock().expect("worker stdout lock poisoned");
    out.write_all(encode_line(payload).as_bytes())?;
    out.flush()
}

fn frame_or_die(out: &Mutex<std::io::Stdout>, payload: &str) -> i32 {
    if write_frame(out, payload).is_ok() {
        0
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_default_to_liveness_only() {
        let limits = SandboxLimits::default();
        assert!(limits.wall.is_none());
        assert!(limits.rss_bytes.is_none());
        assert!(limits.heartbeat > Duration::ZERO);
    }

    #[test]
    fn fail_body_decodes_with_escapes() {
        let body = format!("{} {}", wire::escape("solver"), wire::escape("lp blew up"));
        let (kind, detail) = decode_fail_body(&body);
        assert_eq!(kind, "solver");
        assert_eq!(detail, "lp blew up");
        // Degenerate bodies never panic.
        let (kind, detail) = decode_fail_body("");
        assert_eq!(kind, "");
        assert_eq!(detail, "");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rss_probe_reads_own_process() {
        let rss = probe_rss_bytes(std::process::id()).expect("self statm");
        assert!(rss > 0);
    }
}
