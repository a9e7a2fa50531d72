//! Differential equivalence harness for the parallel branch-and-bound
//! engines, run on the real paper encodings (fig-1 triangle, Demand
//! Pinning and POP adversarial-gap programs):
//!
//! * `ParallelMode::Deterministic` at 1, 2, and 8 threads must produce
//!   **bit-identical** certified results — objective, dual bound, node
//!   count, and the full `Checkpoint::to_text` serialization of an
//!   interrupted search — and all of them must match the engine's
//!   1-thread baseline — with or without a seeded fault plan.
//! * `ParallelMode::WorkStealing` is timing-dependent by design, so it is
//!   held to the certification bar instead: the same optimal objective
//!   within `CERT_TOL` and a closed gap.
//!
//! The models are built through `metaopt-core`'s encoders (a dev-only
//! dependency cycle, which cargo permits) so the harness exercises exactly
//! the mixed binary/complementarity structures the engines exist for.

use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{ConstrainedSet, FinderConfig, HeuristicSpec, PopMode};
use metaopt_milp::{
    solve, solve_resumable, Checkpoint, FactorBackend, FaultPlan, FaultSite, IncumbentCallback,
    MilpConfig, MilpResult, MilpSolution, MilpStatus, ParallelMode, CERT_TOL,
};
use metaopt_model::Model;
use metaopt_te::pop::Partition;
use metaopt_te::TeInstance;
use metaopt_topology::synth::figure1_triangle;

fn fig1() -> TeInstance {
    let (t, [n1, n2, n3]) = figure1_triangle(100.0);
    TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap()
}

/// The fig-1 Demand Pinning adversarial program (binary branching).
fn dp_model() -> Model {
    let inst = fig1();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    let cfg = FinderConfig::default();
    build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
        .unwrap()
        .model
}

/// The fig-1 POP adversarial program (complementarity/SOS1 branching).
fn pop_model() -> Model {
    let inst = fig1();
    // Two fixed 2-way partitions: deterministic, no RNG involved.
    let spec = HeuristicSpec::Pop {
        partitions: vec![
            Partition {
                assignment: vec![0, 1, 0],
                n_parts: 2,
            },
            Partition {
                assignment: vec![1, 0, 1],
                n_parts: 2,
            },
        ],
        mode: PopMode::Average,
    };
    let cfg = FinderConfig::default();
    build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
        .unwrap()
        .model
}

fn det_cfg(threads: usize) -> MilpConfig {
    det_cfg_with(threads, FactorBackend::default())
}

fn det_cfg_with(threads: usize, factor: FactorBackend) -> MilpConfig {
    MilpConfig {
        threads,
        parallel: ParallelMode::Deterministic,
        factor,
        ..MilpConfig::default()
    }
}

const BACKENDS: [FactorBackend; 2] = [FactorBackend::Dense, FactorBackend::SparseLU];

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Exact (bit-level) signature of a certified solve.
fn signature(sol: &MilpSolution) -> (u64, u64, usize, usize) {
    (
        sol.objective.to_bits(),
        sol.best_bound.to_bits(),
        sol.nodes,
        sol.numerical_prunes,
    )
}

struct NoCb;
impl IncumbentCallback for NoCb {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        None
    }
}

/// Deterministic engine, full solve: the signature is identical at every
/// thread count, on both paper encodings — under each factorization
/// backend separately. (Across backends the floating-point arithmetic
/// differs, so bit-identity is required per backend, while the certified
/// objectives must still agree to `CERT_TOL` between backends.)
#[test]
fn deterministic_solves_are_bit_identical_across_thread_counts() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        let mut by_backend: Vec<f64> = Vec::new();
        for backend in BACKENDS {
            let mut baseline = None;
            for threads in THREAD_COUNTS {
                let sol = solve(&model, &det_cfg_with(threads, backend)).unwrap();
                assert_eq!(
                    sol.status,
                    MilpStatus::Optimal,
                    "{name} ({backend}) at {threads} threads did not certify"
                );
                let sig = signature(&sol);
                match &baseline {
                    None => {
                        by_backend.push(sol.objective);
                        baseline = Some(sig);
                    }
                    Some(b) => assert_eq!(
                        &sig, b,
                        "{name} ({backend}): thread count {threads} changed the certified result"
                    ),
                }
            }
        }
        let (d, s) = (by_backend[0], by_backend[1]);
        assert!(
            (d - s).abs() <= CERT_TOL * (1.0 + d.abs()),
            "{name}: dense {d} vs sparse {s} exceeded CERT_TOL"
        );
    }
}

/// Deterministic engine, interrupted solve: a node budget stops every run
/// on the same wave boundary, so the checkpoint — down to its exact
/// `to_text` bytes — is identical at every thread count.
#[test]
fn deterministic_checkpoints_serialize_identically() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        for budget_nodes in [1usize, 5, 9, 17] {
            let mut texts: Vec<Option<String>> = Vec::new();
            for threads in THREAD_COUNTS {
                let cfg = MilpConfig {
                    max_nodes: budget_nodes,
                    ..det_cfg(threads)
                };
                let (_, cp) = solve_resumable(&model, &cfg, &mut NoCb, None).unwrap();
                texts.push(cp.map(|c| c.to_text()));
            }
            for pair in texts.windows(2) {
                assert_eq!(
                    pair[0], pair[1],
                    "{name}: checkpoint text diverged across thread counts at {budget_nodes} nodes"
                );
            }
        }
    }
}

/// Deterministic engine, interrupt + resume: stopping at a node budget and
/// resuming yields the same certified signature as an uninterrupted run,
/// at every thread count.
#[test]
fn deterministic_resume_matches_uninterrupted_run() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        for threads in THREAD_COUNTS {
            let full = solve(&model, &det_cfg(threads)).unwrap();
            let cfg = MilpConfig {
                max_nodes: 9,
                ..det_cfg(threads)
            };
            let (first, cp) = solve_resumable(&model, &cfg, &mut NoCb, None).unwrap();
            let resumed = match cp {
                Some(cp) => {
                    // Round-trip the checkpoint through its text form, as
                    // the campaign journal does.
                    let cp = Checkpoint::from_text(&cp.to_text()).unwrap();
                    let relaxed = det_cfg(threads);
                    let (sol, rest) = solve_resumable(&model, &relaxed, &mut NoCb, Some(cp)).unwrap();
                    assert!(rest.is_none(), "{name}: resumed run still interrupted");
                    sol
                }
                None => first,
            };
            assert_eq!(
                signature(&resumed),
                signature(&full),
                "{name} at {threads} threads: resume diverged from uninterrupted run"
            );
        }
    }
}

/// The reported `MilpSolution::trajectory` is wall-clock seconds in every
/// engine — the deterministic engine's node-axis replay trajectory stays
/// internal to its checkpoint. A node-count axis would exceed the
/// (sub-second) fig-1 solve time, which is what this guards against.
#[test]
fn deterministic_trajectory_is_wall_clock() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        for threads in THREAD_COUNTS {
            let sol = solve(&model, &det_cfg(threads)).unwrap();
            assert!(
                !sol.trajectory.is_empty(),
                "{name} at {threads} threads: no incumbent improvements recorded"
            );
            let secs = sol.solve_time.as_secs_f64();
            for &(t, _) in &sol.trajectory {
                assert!(
                    (0.0..=secs).contains(&t),
                    "{name} at {threads} threads: trajectory timestamp {t} outside \
                     [0, {secs}]s — node counts leaked into the seconds axis"
                );
            }
        }
    }
}

/// Resuming a deterministic checkpoint on the *work-stealing* engine must
/// not splice the checkpoint's node-axis trajectory into that engine's
/// wall-clock one: units never mix in a reported trajectory.
#[test]
fn cross_engine_resume_never_mixes_trajectory_units() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        let cfg = MilpConfig {
            max_nodes: 9,
            ..det_cfg(8)
        };
        let (_, cp) = solve_resumable(&model, &cfg, &mut NoCb, None).unwrap();
        let Some(cp) = cp else { continue };
        let cp = Checkpoint::from_text(&cp.to_text()).unwrap();
        let ws = MilpConfig {
            parallel: ParallelMode::WorkStealing,
            ..MilpConfig::default()
        };
        let (sol, rest) = solve_resumable(&model, &ws, &mut NoCb, Some(cp)).unwrap();
        assert!(rest.is_none(), "{name}: ws resume still interrupted");
        assert_eq!(sol.status, MilpStatus::Optimal, "{name}: resume did not certify");
        let secs = sol.solve_time.as_secs_f64();
        for &(t, _) in &sol.trajectory {
            assert!(
                (0.0..=secs).contains(&t),
                "{name}: work-stealing resume reported timestamp {t} outside [0, {secs}]s — \
                 node-axis checkpoint entries leaked into the wall-clock trajectory"
            );
        }
    }
}

/// Work-stealing engine: nondeterministic visit order, but the certified
/// objective must match the default engine's within `CERT_TOL` and the gap
/// must close, at every thread count.
#[test]
fn work_stealing_certifies_same_objective() {
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        let reference = solve(&model, &MilpConfig::default()).unwrap();
        assert_eq!(reference.status, MilpStatus::Optimal);
        for threads in THREAD_COUNTS {
            let cfg = MilpConfig {
                threads,
                parallel: ParallelMode::WorkStealing,
                ..MilpConfig::default()
            };
            let sol = solve(&model, &cfg).unwrap();
            assert_eq!(
                sol.status,
                MilpStatus::Optimal,
                "{name} work-stealing at {threads} threads did not certify"
            );
            assert!(
                (sol.objective - reference.objective).abs()
                    <= CERT_TOL * (1.0 + reference.objective.abs()),
                "{name} at {threads} threads: work-stealing objective {} vs default {}",
                sol.objective,
                reference.objective
            );
            assert!(
                sol.rel_gap <= cfg.rel_gap + CERT_TOL,
                "{name} at {threads} threads: gap {} not closed",
                sol.rel_gap
            );
        }
    }
}

/// `ParallelMode::Auto` runs the deterministic engine at one thread and
/// above — and agrees with the explicit deterministic engine's certified
/// objective within `CERT_TOL`.
#[test]
fn auto_mode_matches_deterministic_certification() {
    let model = dp_model();
    let reference = solve(&model, &det_cfg(1)).unwrap();
    for threads in [1usize, 8] {
        let sol = solve(
            &model,
            &MilpConfig {
                threads,
                ..MilpConfig::default()
            },
        )
        .unwrap();
        assert_eq!(sol.status, MilpStatus::Optimal);
        assert!(
            (sol.objective - reference.objective).abs()
                <= CERT_TOL * (1.0 + reference.objective.abs()),
            "auto at {threads} threads: objective {} vs deterministic {}",
            sol.objective,
            reference.objective
        );
    }
}

/// Everything a solve reports except wall-clock readings, bit for bit.
fn replay_signature(r: &MilpResult<MilpSolution>) -> String {
    match r {
        Ok(s) => format!(
            "{:?} {:x} {:x} {:x} nodes={} pivots={} prunes={} degraded={} {:?} {:?} {:?} {:?}",
            s.status,
            s.objective.to_bits(),
            s.best_bound.to_bits(),
            s.rel_gap.to_bits(),
            s.nodes,
            s.lp_iterations,
            s.numerical_prunes,
            s.degraded_nodes,
            s.lp_stats,
            s.faults,
            s.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            s.trajectory
                .iter()
                .map(|(_, v)| v.to_bits())
                .collect::<Vec<_>>(),
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// A seeded fault plan under `ParallelMode::Auto` replays identically at
/// 1 and 8 threads, and identically to the explicit deterministic engine:
/// with a plan installed the waves are solved inline, so faults fire in
/// canonical wave order whatever `threads` says.
#[test]
fn seeded_fault_plans_replay_identically_across_thread_counts() {
    let runs_of = [
        (ParallelMode::Auto, 1usize),
        (ParallelMode::Auto, 8),
        (ParallelMode::Deterministic, 8),
    ];
    let mut fired_total = 0;
    for (name, model) in [("dp", dp_model()), ("pop", pop_model())] {
        for seed in 0..12u64 {
            let runs: Vec<(String, Vec<usize>)> = runs_of
                .into_iter()
                .map(|(parallel, threads)| {
                    let plan = FaultPlan::from_seed(seed);
                    let cfg = MilpConfig {
                        threads,
                        parallel,
                        fault_plan: Some(plan.clone()),
                        ..MilpConfig::default()
                    };
                    let sig = replay_signature(&solve(&model, &cfg));
                    let fired = FaultSite::ALL.iter().map(|&s| plan.fired(s)).collect();
                    (sig, fired)
                })
                .collect();
            for (run, (parallel, threads)) in runs.iter().zip(runs_of).skip(1) {
                assert_eq!(
                    run, &runs[0],
                    "{name} seed {seed}: {parallel:?} at {threads} threads diverged from Auto at 1"
                );
            }
            fired_total += runs[0].1.iter().sum::<usize>();
        }
    }
    assert!(fired_total > 0, "no seeded plan fired a fault");
}
