//! Basis snapshot/install — the warm-start handoff between branch-and-bound
//! nodes.
//!
//! A [`Basis`] records *where every variable lives* (basic position or which
//! bound it rests at) without any numerical payload: the basis inverse, the
//! variable values, and the bounds are all recomputed on install. That makes
//! a snapshot cheap to clone and share across threads, and — crucially for
//! the deterministic parallel mode — makes the re-solve started from it a
//! pure function of (problem, bound changes, snapshot), independent of
//! whichever worker's `Simplex` performs it.
//!
//! The intended lifecycle in branch-and-bound: solve the parent node's LP,
//! [`Simplex::snapshot_basis`] its optimal basis, create the two children by
//! tightening a single variable's bounds, and start each child's solve with
//! [`Simplex::resolve_from`] (in `dual.rs`) — install the parent basis, then
//! let the dual simplex repair the one freshly violated bound in a handful
//! of pivots instead of re-solving from scratch.

use super::{Simplex, VarState};
use crate::{LpError, LpResult};

/// An opaque snapshot of a simplex basis: the basic/nonbasic status of the
/// `n` structural and `m` logical variables plus the variable occupying each
/// basis position. Carries no factorization and no values, so it stays valid
/// (and cheaply cloneable/shareable) across bound changes and across solver
/// instances built from the same problem shape.
///
/// Stored compactly — one byte per variable and four per basis position —
/// because branch-and-bound keeps one snapshot alive per open node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Location tag (`TAG_*`) of each of the `n + m` variables; the
    /// position of a basic variable is recorded in `order`.
    pub(crate) tags: Vec<u8>,
    /// Variable index occupying each of the `m` basis positions.
    pub(crate) order: Vec<u32>,
}

const TAG_BASIC: u8 = 0;
const TAG_AT_LOWER: u8 = 1;
const TAG_AT_UPPER: u8 = 2;
const TAG_FREE_ZERO: u8 = 3;

impl Basis {
    /// Number of basis positions (= rows of the source problem).
    pub fn n_rows(&self) -> usize {
        self.order.len()
    }

    /// Number of variables covered (structural + logical).
    pub fn n_cols(&self) -> usize {
        self.tags.len()
    }
}

impl Simplex {
    /// Snapshots the current basis, or `None` when no factorized basis
    /// exists yet or phase-I artificial variables are still basic (such a
    /// basis cannot be transplanted into a solver that has no artificial
    /// columns; callers simply cold-start instead).
    pub fn snapshot_basis(&self) -> Option<Basis> {
        let total = self.n + self.m;
        if self.basis.len() != self.m {
            return None;
        }
        if self.basis.iter().any(|&j| j >= total) {
            return None; // an artificial is basic
        }
        let tags = self.state[..total]
            .iter()
            .map(|s| match s {
                VarState::Basic(_) => TAG_BASIC,
                VarState::AtLower => TAG_AT_LOWER,
                VarState::AtUpper => TAG_AT_UPPER,
                VarState::FreeZero => TAG_FREE_ZERO,
            })
            .collect();
        let order = self
            .basis
            .iter()
            .map(|&j| u32::try_from(j).ok())
            .collect::<Option<Vec<u32>>>()?;
        Some(Basis { tags, order })
    }

    /// Installs a snapshot taken from a solver of the same problem shape:
    /// adopts its basic/nonbasic assignment, snaps nonbasic variables onto
    /// the *current* bounds (which may have moved since the snapshot —
    /// that is the whole point), refactorizes, and recomputes basic values.
    ///
    /// Fails with [`LpError::BadIndex`] on a shape mismatch and with a
    /// recoverable singular-basis fault when the snapshot basis is singular
    /// for the current column data; after a failure the solver is left for
    /// a cold [`Simplex::solve`] to rebuild from scratch.
    pub fn install_basis(&mut self, b: &Basis) -> LpResult<()> {
        let total = self.n + self.m;
        if b.tags.len() != total || b.order.len() != self.m {
            return Err(LpError::BadIndex(format!(
                "basis shaped {}x{} does not fit problem with {} vars / {} rows",
                b.order.len(),
                b.tags.len(),
                self.n,
                self.m
            )));
        }
        // Every position must name a distinct variable tagged basic, and
        // no other variable may carry the basic tag.
        let mut claimed = vec![false; total];
        for (pos, &j) in b.order.iter().enumerate() {
            let j = j as usize;
            if j >= total || b.tags[j] != TAG_BASIC || std::mem::replace(&mut claimed[j], true) {
                return Err(LpError::BadIndex(format!(
                    "basis position {pos} and state of variable {j} disagree"
                )));
            }
        }
        if let Some(j) = (0..total).find(|&j| b.tags[j] == TAG_BASIC && !claimed[j]) {
            return Err(LpError::BadIndex(format!(
                "variable {j} is tagged basic but holds no basis position"
            )));
        }
        self.drop_artificials();
        self.basis.clear();
        self.basis.extend(b.order.iter().map(|&j| j as usize));
        for (pos, &j) in self.basis.iter().enumerate() {
            self.state[j] = VarState::Basic(pos);
        }
        // Nonbasic variables onto their recorded bound, with the same
        // preferred-bound fallback as a cold start when that bound is not
        // finite under the current box.
        for j in 0..total {
            let (lo, hi) = (self.lo[j], self.hi[j]);
            let (state, x) = match b.tags[j] {
                TAG_BASIC => continue,
                TAG_AT_UPPER if hi.is_finite() => (VarState::AtUpper, hi),
                TAG_FREE_ZERO if lo > 0.0 => (VarState::AtLower, lo),
                TAG_FREE_ZERO if hi < 0.0 => (VarState::AtUpper, hi),
                TAG_FREE_ZERO => (VarState::FreeZero, 0.0),
                _ if lo.is_finite() => (VarState::AtLower, lo),
                _ if hi.is_finite() => (VarState::AtUpper, hi),
                _ => (VarState::FreeZero, 0.0),
            };
            self.state[j] = state;
            self.x[j] = x;
        }
        self.refactor()?;
        self.recompute_basics();
        self.degen_run = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::{Basis, TAG_BASIC};
    use crate::{LpError, LpProblem, RowSense, Simplex};

    fn solved() -> (Simplex, Basis) {
        let mut p = LpProblem::new();
        let x = p.add_var(0.0, 3.0, -1.0).unwrap();
        let y = p.add_var(0.0, 3.0, -1.0).unwrap();
        p.add_row(RowSense::Le, 4.0, [(x, 1.0), (y, 2.0)]).unwrap();
        p.add_row(RowSense::Le, 5.0, [(x, 2.0), (y, 1.0)]).unwrap();
        let mut s = Simplex::new(&p);
        s.solve().unwrap();
        let b = s.snapshot_basis().unwrap();
        (s, b)
    }

    #[test]
    fn snapshot_round_trips_and_inconsistent_tags_are_rejected() {
        let (mut s, b) = solved();
        s.install_basis(&b).unwrap();
        assert_eq!(s.snapshot_basis().as_ref(), Some(&b));

        let nonbasic = (0..b.tags.len()).find(|&j| b.tags[j] != TAG_BASIC).unwrap();
        // Two positions naming one variable.
        let mut dup = b.clone();
        dup.order[1] = dup.order[0];
        // A position naming a nonbasic variable.
        let mut to_nonbasic = b.clone();
        to_nonbasic.order[0] = u32::try_from(nonbasic).unwrap();
        // A basic tag that holds no position.
        let mut extra = b.clone();
        extra.tags[nonbasic] = TAG_BASIC;
        for bad in [dup, to_nonbasic, extra] {
            assert!(matches!(s.install_basis(&bad), Err(LpError::BadIndex(_))));
        }
        // A rejected snapshot leaves the installed basis untouched.
        assert_eq!(s.snapshot_basis().as_ref(), Some(&b));
    }
}
