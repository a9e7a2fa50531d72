//! Differential test harness for the simplex engines: on random bounded,
//! feasible-by-construction LPs, the cold two-phase primal, the warm dual
//! re-solve, and a fresh solver warm-started through the [`Basis`]
//! snapshot API (`resolve_from`) must all tell the same story — equal
//! status, objectives agreeing to 1e-9, and primally feasible points.
//!
//! This is the equivalence oracle the parallel branch-and-bound engines
//! lean on: a child node's LP re-solved from its parent's basis snapshot
//! on *any* worker must be interchangeable with a cold solve of the same
//! node. Shrink-friendly proptest generators cover the random space; a
//! fixed seed matrix (overridable per CI shard via `CHAOS_SEED`, same
//! convention as the chaos suite) pins a deterministic regression set.

//! The harness runs twice over every LP: once along the three warm/cold
//! solve paths under the default (sparse LU) backend, and once
//! as a **dense-vs-sparse differential** — the same LP solved under
//! [`FactorBackend::Dense`] and [`FactorBackend::SparseLU`] must agree on
//! status and objective to 1e-9 on every path, and whenever the two
//! backends land on the *same* optimal basis, their primal values, duals,
//! reduced costs, and basis snapshots must agree elementwise to 1e-9
//! (degenerate LPs can have several optimal bases, so the elementwise
//! comparison is gated on basis agreement; the objective comparison is
//! not).

use metaopt_lp::{
    Basis, FactorBackend, LpProblem, RowSense, Simplex, SimplexConfig, SolveStatus, VarId,
};
use proptest::prelude::*;

const OBJ_TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-6;

fn solver_with(backend: FactorBackend, p: &LpProblem) -> Simplex {
    Simplex::with_config(
        p,
        SimplexConfig {
            backend,
            ..SimplexConfig::default()
        },
    )
}

/// A randomly generated LP that is bounded (every variable boxed) and
/// feasible (every row anchored around the activity of an interior point).
#[derive(Debug, Clone)]
struct RandomLp {
    problem: LpProblem,
    n: usize,
}

fn build_lp(
    vars: &[(f64, f64, f64)],
    rows: &[(Vec<Option<f64>>, usize, f64)],
    anchor: &[f64],
) -> RandomLp {
    let mut p = LpProblem::new();
    let mut ids = Vec::new();
    let mut point = Vec::new();
    for (i, (lo_off, width, obj)) in vars.iter().enumerate() {
        let lo = *lo_off;
        let hi = lo + width;
        ids.push(p.add_var(lo, hi, *obj).unwrap());
        point.push(lo + anchor[i] * width);
    }
    for (coeffs, sense_sel, margin) in rows {
        let entries: Vec<(usize, f64)> = coeffs
            .iter()
            .enumerate()
            .filter_map(|(j, c)| c.map(|v| (j, v)))
            .collect();
        if entries.is_empty() {
            continue;
        }
        let act: f64 = entries.iter().map(|(j, c)| c * point[*j]).sum();
        let it = entries.iter().map(|(j, c)| (ids[*j], *c));
        match sense_sel {
            0 => p.add_row(RowSense::Le, act + margin, it).unwrap(),
            1 => p.add_row(RowSense::Ge, act - margin, it).unwrap(),
            _ => p.add_row(RowSense::Eq, act, it).unwrap(),
        };
    }
    RandomLp {
        problem: p,
        n: vars.len(),
    }
}

fn random_lp_strategy() -> impl Strategy<Value = RandomLp> {
    (2usize..8, 1usize..10).prop_flat_map(|(n, m)| {
        let var_data = proptest::collection::vec((-5.0f64..5.0, 0.1f64..8.0, -4.0f64..4.0), n);
        let row_data = proptest::collection::vec(
            (
                proptest::collection::vec(proptest::option::weighted(0.6, -3.0f64..3.0), n),
                0usize..3,
                0.5f64..6.0,
            ),
            m,
        );
        let anchor = proptest::collection::vec(0.0f64..1.0, n);
        (var_data, row_data, anchor)
            .prop_map(|(vars, rows, anchor)| build_lp(&vars, &rows, &anchor))
    })
}

/// The feasibility half of the differential oracle: the returned basic
/// solution respects every variable box and every row range.
fn assert_feasible(p: &LpProblem, x: &[f64], context: &str) {
    let viol = p.max_violation(x);
    assert!(
        viol <= FEAS_TOL,
        "{context}: row violation {viol} exceeds {FEAS_TOL}"
    );
    for (j, &xj) in x.iter().enumerate().take(p.n_vars()) {
        let (lo, hi) = p.bounds(VarId(j));
        assert!(
            xj >= lo - FEAS_TOL && xj <= hi + FEAS_TOL,
            "{context}: x[{j}] = {xj} outside [{lo}, {hi}]"
        );
    }
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        (a - b).abs() <= OBJ_TOL * (1.0 + b.abs()),
        "{what}: {a} vs {b} (diff {})",
        (a - b).abs()
    );
}

/// Runs the three-way differential on one LP and one bound tightening:
///
/// 1. **primal** — cold two-phase solve of the modified problem,
/// 2. **dual-warm** — the original solver, warm dual re-solve after the
///    in-place bound change,
/// 3. **snapshot-warm** — a *fresh* solver on the modified problem,
///    warm-started from the original optimal basis via `resolve_from`
///    (exactly what a parallel branch-and-bound worker does with a stolen
///    node's parent basis).
///
/// All three must agree on status; when optimal, objectives agree to
/// `OBJ_TOL` and every returned basic solution is feasible.
fn differential(rlp: &RandomLp, which: usize, shrink: f64) {
    let mut warm = Simplex::new(&rlp.problem);
    let first = warm.solve().expect("base solve failed");
    assert_eq!(first.status, SolveStatus::Optimal);
    assert_feasible(&rlp.problem, &first.x, "base solve");
    let snapshot: Option<Basis> = warm.snapshot_basis();

    let j = which % rlp.n;
    let v = VarId(j);
    let (lo, hi) = rlp.problem.bounds(v);
    let mid = lo + (hi - lo) * shrink;
    let (nlo, nhi) = (lo, mid.max(lo));

    // 1. Cold primal on the modified problem.
    let mut p2 = rlp.problem.clone();
    p2.set_bounds(v, nlo, nhi).unwrap();
    let cold = Simplex::new(&p2).solve().expect("cold solve failed");

    // 2. Warm dual re-solve on the original solver.
    warm.set_var_bounds(v, nlo, nhi).unwrap();
    let dual_warm = warm.resolve().expect("warm resolve failed");

    assert_eq!(
        dual_warm.status, cold.status,
        "dual-warm status diverged from cold"
    );
    if cold.status == SolveStatus::Optimal {
        assert_close(dual_warm.objective, cold.objective, "dual-warm vs cold");
        assert_feasible(&p2, &cold.x, "cold solve");
        assert_feasible(&p2, &dual_warm.x, "dual-warm resolve");
    }

    // 3. Fresh solver warm-started from the snapshot basis.
    if let Some(basis) = snapshot {
        let mut fresh = Simplex::new(&p2);
        let from_snapshot = fresh.resolve_from(&basis).expect("resolve_from failed");
        assert_eq!(
            from_snapshot.status, cold.status,
            "snapshot-warm status diverged from cold"
        );
        if cold.status == SolveStatus::Optimal {
            assert_close(
                from_snapshot.objective,
                cold.objective,
                "snapshot-warm vs cold",
            );
            assert_feasible(&p2, &from_snapshot.x, "snapshot-warm resolve");
        }
    }
}

/// Elementwise 1e-9 agreement between two solutions, used only when both
/// backends produced the same optimal basis.
fn assert_solutions_identical(
    a: &metaopt_lp::Solution,
    b: &metaopt_lp::Solution,
    context: &str,
) {
    for (j, (va, vb)) in a.x.iter().zip(&b.x).enumerate() {
        assert!(
            (va - vb).abs() <= OBJ_TOL * (1.0 + vb.abs()),
            "{context}: x[{j}] dense {va} vs sparse {vb}"
        );
    }
    for (i, (va, vb)) in a.duals.iter().zip(&b.duals).enumerate() {
        assert!(
            (va - vb).abs() <= OBJ_TOL * (1.0 + vb.abs()),
            "{context}: dual[{i}] dense {va} vs sparse {vb}"
        );
    }
    for (j, (va, vb)) in a.reduced_costs.iter().zip(&b.reduced_costs).enumerate() {
        assert!(
            (va - vb).abs() <= OBJ_TOL * (1.0 + vb.abs()),
            "{context}: rc[{j}] dense {va} vs sparse {vb}"
        );
    }
}

/// The dense-vs-sparse differential on one LP and one bound tightening:
/// both backends walk the cold, dual-warm, and snapshot-warm paths; every
/// path must agree on status and (when optimal) objective to 1e-9, with
/// feasible points. Basis snapshots cross the backend boundary — a dense
/// snapshot warm-starts a sparse solver. When the two backends' optimal
/// bases coincide, the full solutions must be elementwise identical to
/// 1e-9 (basis status included, by `Basis` equality).
fn backend_differential(rlp: &RandomLp, which: usize, shrink: f64) {
    let mut dense = solver_with(FactorBackend::Dense, &rlp.problem);
    let mut sparse = solver_with(FactorBackend::SparseLU, &rlp.problem);
    let d0 = dense.solve().expect("dense base solve failed");
    let s0 = sparse.solve().expect("sparse base solve failed");
    assert_eq!(d0.status, s0.status, "base status diverged");
    assert_eq!(d0.status, SolveStatus::Optimal);
    assert_close(d0.objective, s0.objective, "base dense vs sparse");
    assert_feasible(&rlp.problem, &d0.x, "dense base");
    assert_feasible(&rlp.problem, &s0.x, "sparse base");
    let dense_snap = dense.snapshot_basis();
    let sparse_snap = sparse.snapshot_basis();
    if dense_snap == sparse_snap {
        assert_solutions_identical(&d0, &s0, "base (same basis)");
    }

    let j = which % rlp.n;
    let v = VarId(j);
    let (lo, hi) = rlp.problem.bounds(v);
    // An unbounded box (the max-flow encodings leave `hi` open) tightens
    // to a finite one; `(hi - lo) * 0.0` would otherwise be NaN.
    let mid = if hi.is_finite() {
        lo + (hi - lo) * shrink
    } else {
        lo + 10.0 * shrink
    };
    let (nlo, nhi) = (lo, mid.max(lo));
    let mut p2 = rlp.problem.clone();
    p2.set_bounds(v, nlo, nhi).unwrap();

    // Cold path.
    let dc = solver_with(FactorBackend::Dense, &p2)
        .solve()
        .expect("dense cold failed");
    let sc = solver_with(FactorBackend::SparseLU, &p2)
        .solve()
        .expect("sparse cold failed");
    assert_eq!(dc.status, sc.status, "cold status diverged");
    if dc.status == SolveStatus::Optimal {
        assert_close(dc.objective, sc.objective, "cold dense vs sparse");
        assert_feasible(&p2, &dc.x, "dense cold");
        assert_feasible(&p2, &sc.x, "sparse cold");
    }

    // Dual-warm path.
    dense.set_var_bounds(v, nlo, nhi).unwrap();
    sparse.set_var_bounds(v, nlo, nhi).unwrap();
    let dw = dense.resolve().expect("dense warm failed");
    let sw = sparse.resolve().expect("sparse warm failed");
    assert_eq!(dw.status, dc.status, "dense warm vs cold status");
    assert_eq!(sw.status, sc.status, "sparse warm vs cold status");
    if dc.status == SolveStatus::Optimal {
        assert_close(dw.objective, dc.objective, "dense warm vs cold");
        assert_close(sw.objective, dc.objective, "sparse warm vs dense cold");
    }

    // Snapshot-warm path, crossing the backend boundary both ways: the
    // `Basis` snapshot is pivot-level state, so a basis taken under one
    // backend must warm-start the other.
    if let (Some(db), Some(sb)) = (dense_snap, sparse_snap) {
        let mut d_from_s = solver_with(FactorBackend::Dense, &p2);
        let mut s_from_d = solver_with(FactorBackend::SparseLU, &p2);
        let dx = d_from_s
            .resolve_from(&sb)
            .expect("dense from sparse snapshot failed");
        let sx = s_from_d
            .resolve_from(&db)
            .expect("sparse from dense snapshot failed");
        assert_eq!(dx.status, dc.status, "cross-snapshot dense status");
        assert_eq!(sx.status, dc.status, "cross-snapshot sparse status");
        if dc.status == SolveStatus::Optimal {
            assert_close(dx.objective, dc.objective, "dense-from-sparse vs cold");
            assert_close(sx.objective, dc.objective, "sparse-from-dense vs cold");
            assert_feasible(&p2, &dx.x, "dense-from-sparse");
            assert_feasible(&p2, &sx.x, "sparse-from-dense");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dense and sparse backends agree on random bounded feasible LPs
    /// along every solve path.
    #[test]
    fn backends_agree_on_random_lps(
        rlp in random_lp_strategy(),
        which in 0usize..8,
        shrink in 0.0f64..1.0,
    ) {
        backend_differential(&rlp, which, shrink);
    }

    /// The three-way differential holds on random bounded feasible LPs
    /// under a random single-variable tightening.
    #[test]
    fn engines_agree_on_random_lps(
        rlp in random_lp_strategy(),
        which in 0usize..8,
        shrink in 0.0f64..1.0,
    ) {
        differential(&rlp, which, shrink);
    }

    /// Re-installing a solver's *own* optimal basis and re-solving is a
    /// no-op: same objective to 1e-9, zero additional pivots needed to
    /// leave dual feasibility (the solve must come back warm).
    #[test]
    fn reinstalling_own_basis_is_stationary(rlp in random_lp_strategy()) {
        let mut s = Simplex::new(&rlp.problem);
        let first = s.solve().expect("base solve failed");
        prop_assert_eq!(first.status, SolveStatus::Optimal);
        if let Some(basis) = s.snapshot_basis() {
            let again = s.resolve_from(&basis).expect("re-install failed");
            prop_assert_eq!(again.status, SolveStatus::Optimal);
            assert_close(again.objective, first.objective, "re-install vs base");
            assert!(
                s.last_solve_warm(),
                "re-solving from own optimal basis fell back to a cold start"
            );
        }
    }

    /// A basis snapshot from a *differently shaped* problem is rejected as
    /// an error (never silently installed).
    #[test]
    fn mismatched_basis_is_rejected(rlp in random_lp_strategy()) {
        let mut s = Simplex::new(&rlp.problem);
        prop_assert_eq!(s.solve().expect("base").status, SolveStatus::Optimal);
        if let Some(basis) = s.snapshot_basis() {
            let mut bigger = rlp.problem.clone();
            bigger.add_var(0.0, 1.0, 0.0).unwrap();
            let mut other = Simplex::new(&bigger);
            prop_assert!(other.install_basis(&basis).is_err());
        }
    }
}

// --- deterministic seed matrix ------------------------------------------

/// Tiny xorshift so the fixed-seed regression set needs no RNG dependency.
struct XorShift(u64);

impl XorShift {
    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform-ish f64 in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn seeded_lp(rng: &mut XorShift) -> RandomLp {
    let n = 2 + rng.below(6);
    let m = 1 + rng.below(9);
    let vars: Vec<(f64, f64, f64)> = (0..n)
        .map(|_| {
            (
                rng.in_range(-5.0, 5.0),
                rng.in_range(0.1, 8.0),
                rng.in_range(-4.0, 4.0),
            )
        })
        .collect();
    let rows: Vec<(Vec<Option<f64>>, usize, f64)> = (0..m)
        .map(|_| {
            let coeffs = (0..n)
                .map(|_| (rng.unit() < 0.6).then(|| rng.in_range(-3.0, 3.0)))
                .collect();
            (coeffs, rng.below(3), rng.in_range(0.5, 6.0))
        })
        .collect();
    let anchor: Vec<f64> = (0..n).map(|_| rng.unit()).collect();
    build_lp(&vars, &rows, &anchor)
}

/// The pinned regression set: 64 LPs per seed, each differentially tested
/// under 4 tightenings. The default seed matrix is fixed; CI shards can
/// redirect it with `CHAOS_SEED` (one `u64`), the same convention the
/// chaos suite uses.
#[test]
fn seeded_differential_matrix() {
    let seeds: Vec<u64> = match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be a u64")],
        Err(_) => vec![0x9E3779B97F4A7C15, 0xD1B54A32D192ED03, 42],
    };
    for seed in seeds {
        let mut rng = XorShift(seed | 1);
        for case in 0..64 {
            let rlp = seeded_lp(&mut rng);
            for tightening in 0..4 {
                let which = rng.below(rlp.n);
                let shrink = rng.unit();
                let ctx = format!("seed {seed:#x} case {case} tightening {tightening}");
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    differential(&rlp, which, shrink);
                    backend_differential(&rlp, which, shrink);
                }));
                assert!(r.is_ok(), "differential failed at {ctx}");
            }
        }
    }
}

// --- real traffic-engineering encodings ----------------------------------

/// The paper's figure-1 triangle as a max-flow LP (the demand/capacity
/// structure every gap-finding run ultimately solves): dense and sparse
/// must agree along every path, across a sweep of demand tightenings.
#[test]
fn backends_agree_on_fig1_max_flow() {
    // Figure 1 is directed (1→2→3), so only the three forward pairs route.
    let (topo, [n1, n2, n3]) = metaopt_topology::synth::figure1_triangle(10.0);
    let pairs = vec![(n1, n3), (n1, n2), (n2, n3)];
    let inst =
        metaopt_te::instance::TeInstance::with_pairs(topo, pairs, 2).expect("fig-1 instance");
    let mut rng = XorShift(0xABCDEF12345);
    for case in 0..24 {
        let demands: Vec<f64> = (0..inst.n_pairs())
            .map(|_| rng.in_range(0.0, 12.0))
            .collect();
        let (lp, _) = metaopt_te::flow::opt_max_flow_lp(&inst, &demands).expect("fig-1 lp");
        let rlp = RandomLp {
            n: lp.n_vars(),
            problem: lp,
        };
        let which = rng.below(rlp.n);
        let shrink = rng.unit();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend_differential(&rlp, which, shrink);
        }));
        assert!(r.is_ok(), "fig-1 backend differential failed at case {case}");
    }
}

/// Same oracle on synthesized connected topologies — bigger, sparser
/// bases where the two backends take genuinely different arithmetic
/// paths to the same optimum.
#[test]
fn backends_agree_on_synth_topologies() {
    let mut rng = XorShift(0x5EED_CAFE);
    for (n_nodes, extra) in [(6usize, 3usize), (8, 5), (10, 6)] {
        let topo = metaopt_topology::synth::random_connected(n_nodes, extra, 8.0, rng.next_u64());
        let inst = metaopt_te::instance::TeInstance::all_pairs(topo, 2).expect("synth instance");
        let demands: Vec<f64> = (0..inst.n_pairs())
            .map(|_| rng.in_range(0.0, 6.0))
            .collect();
        let (lp, _) = metaopt_te::flow::opt_max_flow_lp(&inst, &demands).expect("synth lp");
        let rlp = RandomLp {
            n: lp.n_vars(),
            problem: lp,
        };
        let which = rng.below(rlp.n);
        let shrink = rng.unit();
        backend_differential(&rlp, which, shrink);
    }
}
