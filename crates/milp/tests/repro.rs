//! Focused regression for a knapsack instance where B&B once returned a
//! suboptimal incumbent (warm-start / pruning interplay).

use metaopt_milp::{solve, MilpConfig, MilpStatus};
use metaopt_model::{LinExpr, Model, ObjSense, Sense};

#[test]
fn knapsack_regression_three_items() {
    let vw = [
        (7.285389842171149, 5.923197672253469),
        (7.355751409052462, 8.589582874134125),
        (0.5, 4.156345345380891),
    ];
    let cap_frac = 0.739425013809368;
    let total_w: f64 = vw.iter().map(|(_, w)| w).sum();
    let cap = total_w * cap_frac;

    let mut m = Model::new();
    let zs: Vec<_> = (0..3)
        .map(|i| m.add_binary(format!("z{i}")).unwrap())
        .collect();
    let mut wsum = LinExpr::zero();
    let mut vsum = LinExpr::zero();
    for (i, (v, w)) in vw.iter().enumerate() {
        wsum.add_term(zs[i], *w);
        vsum.add_term(zs[i], *v);
    }
    m.constrain(wsum, Sense::Le, cap).unwrap();
    m.set_objective(ObjSense::Max, vsum).unwrap();
    let sol = solve(&m, &MilpConfig::default()).unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal);

    let mut best = 0.0f64;
    for mask in 0..8u32 {
        let (mut wv, mut vv) = (0.0, 0.0);
        for (i, (v, w)) in vw.iter().enumerate() {
            if mask >> i & 1 == 1 {
                wv += w;
                vv += v;
            }
        }
        if wv <= cap + 1e-9 {
            best = best.max(vv);
        }
    }
    assert!(
        (sol.objective - best).abs() <= 1e-6,
        "bnb {} vs brute {} (nodes {}, bound {})",
        sol.objective,
        best,
        sol.nodes,
        sol.best_bound
    );
}

/// The default engine is bit-deterministic run to run: identical node
/// counts, pivot counts, and warm/cold LP accounting. Guards the node
/// bound bookkeeping, which must iterate its bound sets in a
/// deterministic (ordered) sequence — a hash-ordered container there once
/// made pivot counts wobble across processes.
#[test]
fn default_engine_stats_are_bit_identical_across_runs() {
    let mut m = Model::new();
    let mut w = LinExpr::zero();
    let mut v = LinExpr::zero();
    for i in 0..18 {
        let z = m.add_binary(format!("z{i}")).unwrap();
        let weight = 3.0 + ((i * 29) % 11) as f64;
        w.add_term(z, weight);
        v.add_term(z, weight + 4.0);
    }
    m.constrain(w, Sense::Le, 40.0).unwrap();
    m.set_objective(ObjSense::Max, v).unwrap();

    let cfg = MilpConfig::default();
    let a = solve(&m, &cfg).unwrap();
    let b = solve(&m, &cfg).unwrap();
    assert_eq!(a.status, MilpStatus::Optimal);
    assert_eq!(a.status, b.status);
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(a.best_bound.to_bits(), b.best_bound.to_bits());
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.lp_iterations, b.lp_iterations);
    assert_eq!(a.lp_stats.warm_solves, b.lp_stats.warm_solves);
    assert_eq!(a.lp_stats.cold_solves, b.lp_stats.cold_solves);
}
