//! Counter determinism: observation must not perturb computation, and the
//! computation must not perturb observation. Two identical solves with two
//! fresh registries have to render **byte-identical** Prometheus text —
//! every `metaopt_milp_*` and `metaopt_lp_*` counter is driven purely by
//! the deterministic search (no wall-clock family exists at this layer),
//! so any divergence is a scheduling leak into the counters.
//!
//! Also pins the non-triviality side: the counters actually move (nodes,
//! waves, pivots, solves all positive after a real branch-and-bound run),
//! so the byte-equality assertion is not vacuously comparing zeros.

use metaopt_core::finder::build_adversarial_model;
use metaopt_core::{ConstrainedSet, FinderConfig, HeuristicSpec};
use metaopt_milp::{solve, MilpConfig, MilpMetrics, MilpStatus};
use metaopt_model::Model;
use metaopt_obs::Registry;
use metaopt_te::TeInstance;
use metaopt_topology::synth::figure1_triangle;

fn dp_model() -> Model {
    let (t, [n1, n2, n3]) = figure1_triangle(100.0);
    let inst = TeInstance::with_pairs(t, vec![(n1, n3), (n1, n2), (n2, n3)], 2).unwrap();
    let spec = HeuristicSpec::DemandPinning { threshold: 50.0 };
    let cfg = FinderConfig::default();
    build_adversarial_model(&inst, &spec, &ConstrainedSet::unconstrained(), &cfg)
        .unwrap()
        .model
}

/// One instrumented solve on a fresh registry; returns the rendered
/// exposition text and the solved node count.
fn instrumented_solve(model: &Model, threads: usize) -> (String, usize) {
    let registry = Registry::new();
    let cfg = MilpConfig {
        threads,
        metrics: MilpMetrics::register(&registry),
        ..MilpConfig::default()
    };
    let sol = solve(model, &cfg).unwrap();
    assert_eq!(sol.status, MilpStatus::Optimal, "solve did not certify");
    (registry.render(), sol.nodes)
}

/// Extracts the value of an unlabelled sample line from rendered text.
fn sample(render: &str, name: &str) -> f64 {
    let line = render
        .lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .unwrap_or_else(|| panic!("family `{name}` missing from exposition"));
    line[name.len() + 1..].trim().parse().unwrap()
}

/// Two identical deterministic solves render byte-identical counter text,
/// at 1 thread and in the multi-worker deterministic engine.
#[test]
fn identical_solves_render_identical_counters() {
    let model = dp_model();
    for threads in [1, 4] {
        let (first, nodes_a) = instrumented_solve(&model, threads);
        let (second, nodes_b) = instrumented_solve(&model, threads);
        assert_eq!(nodes_a, nodes_b, "node counts diverged at {threads} threads");
        assert_eq!(
            first, second,
            "counter exposition diverged between identical solves at {threads} threads"
        );
    }
}

/// The instrumented counters actually observe the search: nodes match the
/// solution's certified node count exactly, and the simplex families are
/// all live.
#[test]
fn counters_reflect_the_certified_search() {
    let model = dp_model();
    let (render, nodes) = instrumented_solve(&model, 1);
    assert_eq!(
        sample(&render, "metaopt_milp_nodes_total") as usize,
        nodes,
        "nodes counter must equal the certified node count"
    );
    assert!(sample(&render, "metaopt_milp_waves_total") > 0.0);
    assert!(sample(&render, "metaopt_lp_pivots_total") > 0.0);
    assert!(sample(&render, "metaopt_lp_solves_total{mode=\"warm\"}") > 0.0);
}
