//! Checkpoint text serialization: exact round-trips on real budget-expired
//! frontiers, resume-equivalence across the text boundary, and property
//! tests that corrupted or truncated checkpoint text is rejected with an
//! error — never a panic, never a silently different search state.

use metaopt_milp::{
    solve, solve_resumable, Checkpoint, IncumbentCallback, MilpConfig, MilpStatus, CERT_TOL,
};
use metaopt_model::{LinExpr, Model, ObjSense, Sense};
use proptest::prelude::*;

struct NoCallback;
impl IncumbentCallback for NoCallback {
    fn propose(&mut self, _relaxation: &[f64]) -> Option<(Vec<f64>, f64)> {
        None
    }
}

/// A knapsack big enough that a tiny node budget expires mid-tree.
fn hard_knapsack(n: usize) -> Model {
    let mut m = Model::new();
    let mut wsum = LinExpr::zero();
    let mut vsum = LinExpr::zero();
    let mut total_w = 0.0;
    for i in 0..n {
        let z = m.add_binary(format!("z{i}")).unwrap();
        // Correlated weights/values make the LP bound loose → deep trees.
        let w = 3.0 + (i as f64 * 1.37).sin().abs() * 5.0;
        let v = w + 0.1 + (i as f64 * 2.11).cos().abs();
        wsum.add_term(z, w);
        vsum.add_term(z, v);
        total_w += w;
    }
    m.constrain(wsum, Sense::Le, total_w * 0.45).unwrap();
    m.set_objective(ObjSense::Max, vsum).unwrap();
    m
}

/// Runs until the node budget expires, returning the live checkpoint.
fn expired_checkpoint(m: &Model, max_nodes: usize) -> Checkpoint {
    let cfg = MilpConfig {
        max_nodes,
        ..MilpConfig::default()
    };
    let (sol, cp) = solve_resumable(m, &cfg, &mut NoCallback, None).unwrap();
    assert_ne!(sol.status, MilpStatus::Optimal, "budget must expire");
    cp.expect("an open frontier must survive the budget")
}

#[test]
fn real_frontier_round_trips_exactly() {
    let m = hard_knapsack(14);
    for max_nodes in [3, 9, 25] {
        let cp = expired_checkpoint(&m, max_nodes);
        let text = cp.to_text();
        let back = Checkpoint::from_text(&text).unwrap();
        // Bit-exact: re-serializing the parsed checkpoint reproduces the
        // original text, including every f64 bit pattern.
        assert_eq!(back.to_text(), text);
    }
}

#[test]
fn resume_through_text_matches_resume_in_memory() {
    let m = hard_knapsack(14);
    let cp = expired_checkpoint(&m, 7);
    let text = cp.to_text();
    let full = MilpConfig::default();

    let (direct, rest_a) = solve_resumable(&m, &full, &mut NoCallback, Some(cp)).unwrap();
    let parsed = Checkpoint::from_text(&text).unwrap();
    let (via_text, rest_b) = solve_resumable(&m, &full, &mut NoCallback, Some(parsed)).unwrap();

    assert!(rest_a.is_none() && rest_b.is_none());
    assert_eq!(direct.status, via_text.status);
    assert_eq!(direct.objective.to_bits(), via_text.objective.to_bits());
    assert_eq!(direct.nodes, via_text.nodes);
    assert_eq!(direct.values, via_text.values);

    // And both agree with a from-scratch solve on the answer (node counts
    // differ — that is the point of resuming).
    let scratch = solve(&m, &full).unwrap();
    assert!((scratch.objective - direct.objective).abs() < 1e-9);
}

/// `hard_knapsack(14)` stopped at 25 nodes by the retired serial engine,
/// as its `to_text` journaled it: a seconds-axis trajectory, an incumbent,
/// and a frontier in that engine's dive-first order.
const SERIAL_ENGINE_CHECKPOINT: &str = include_str!("fixtures/serial_checkpoint_knapsack14.txt");

/// Campaign journals written before the deterministic engine became the
/// default still resume: the default engine certifies the uninterrupted
/// solve's objective and reports the journaled seconds-axis history as
/// the start of its wall-clock trajectory.
#[test]
fn serial_engine_checkpoint_resumes_on_default_engine() {
    let m = hard_knapsack(14);
    let cp = Checkpoint::from_text(SERIAL_ENGINE_CHECKPOINT).unwrap();
    assert_eq!(cp.nodes_processed(), 25);
    assert!(cp.has_incumbent());
    let journaled = [
        (0x3f2b_2f0e_131b_c434, 0x4045_e7a3_4588_56a8),
        (0x3f40_3e19_48d9_ec23, 0x4046_c447_1e00_9d06),
    ]
    .map(|(t, v)| (f64::from_bits(t), f64::from_bits(v)));

    let cfg = MilpConfig::default();
    let full = solve(&m, &cfg).unwrap();
    let (resumed, rest) = solve_resumable(&m, &cfg, &mut NoCallback, Some(cp)).unwrap();
    assert!(rest.is_none(), "resumed run still interrupted");
    assert_eq!(full.status, MilpStatus::Optimal);
    assert_eq!(resumed.status, MilpStatus::Optimal);
    assert!(
        (resumed.objective - full.objective).abs() <= CERT_TOL * (1.0 + full.objective.abs()),
        "resumed optimum {} vs uninterrupted {}",
        resumed.objective,
        full.objective
    );
    assert!(resumed.nodes > 25, "node count must carry across");
    assert_eq!(resumed.trajectory[..2], journaled);
}

#[test]
fn truncated_text_is_rejected() {
    let m = hard_knapsack(12);
    let cp = expired_checkpoint(&m, 9);
    let text = cp.to_text();
    let lines: Vec<&str> = text.lines().collect();
    // Every strict line-prefix of a valid checkpoint is invalid (the `end`
    // sentinel is how a torn tail is detected).
    for keep in 0..lines.len() {
        let cut = lines[..keep].join("\n");
        assert!(
            Checkpoint::from_text(&cut).is_err(),
            "accepted a {keep}-line truncation"
        );
    }
    assert!(Checkpoint::from_text(&text).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary text never panics the parser (the vendored proptest has
    /// no regex strategies; build strings from char vectors).
    #[test]
    fn arbitrary_text_never_panics(
        chars in proptest::collection::vec(' '..'\u{7f}', 0..300),
        newlines in proptest::collection::vec(0usize..300, 0..10),
    ) {
        let mut bytes: Vec<char> = chars;
        for &at in &newlines {
            if at < bytes.len() {
                bytes[at] = '\n';
            }
        }
        let s: String = bytes.into_iter().collect();
        let _ = Checkpoint::from_text(&s);
    }

    /// Line-level mutations of a real checkpoint either fail to parse or
    /// (when the mutation is semantically harmless) reproduce a checkpoint
    /// that re-serializes cleanly — from_text never panics and never
    /// returns something its own to_text can't round-trip.
    #[test]
    fn mutated_real_checkpoints_never_panic(
        drop_line in 0usize..40,
        dup_line in 0usize..40,
        // '{' is the char after 'z': the vendored proptest only has
        // exclusive char ranges.
        garbage_chars in proptest::collection::vec('a'..'{', 0..30),
        insert_at in 0usize..40,
    ) {
        let garbage: String = garbage_chars.into_iter().collect();
        let m = hard_knapsack(12);
        let cp = expired_checkpoint(&m, 9);
        let text = cp.to_text();
        let lines: Vec<String> = text.lines().map(str::to_string).collect();

        let mut dropped = lines.clone();
        if drop_line < dropped.len() {
            dropped.remove(drop_line);
        }
        let mut duped = lines.clone();
        if dup_line < duped.len() {
            let l = duped[dup_line].clone();
            duped.insert(dup_line, l);
        }
        let mut inserted = lines.clone();
        inserted.insert(insert_at.min(inserted.len()), garbage);

        for mutant in [dropped, duped, inserted] {
            let joined = mutant.join("\n");
            if let Ok(parsed) = Checkpoint::from_text(&joined) {
                let re = parsed.to_text();
                prop_assert!(Checkpoint::from_text(&re).is_ok());
            }
        }
    }
}
