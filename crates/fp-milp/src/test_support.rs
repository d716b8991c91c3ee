//! Test-only switches and probes into the solver internals.
//!
//! Hidden from docs and semver guarantees. Production solves run every
//! internal at a fixed value; this module is the one way to flip them from
//! outside the crate, so the differential suites can compare the default
//! solver against its oracles — the dense tableau (`sparse_equivalence`),
//! cold node solves (`warm_equivalence`), unstrengthened solves
//! (`strengthen_equivalence`, `strengthen_regression`) — and stress the
//! numerics knobs. It also measures internal invariants, such as the
//! LU + eta-file basis round-trip, that have no business in the public
//! API. Nothing here is stable.

use crate::model::Model;
use crate::options::{SolveOptions, FEAS_TOL, OPT_TOL};
use crate::simplex::{LpConfig, LpOutcome, LpProblem, SparseRow, Workspace};

/// Forces the sparse revised kernel (`true`) or the dense reference tableau
/// (`false`) regardless of the size rule.
#[must_use]
pub fn force_kernel(mut opts: SolveOptions, sparse: bool) -> SolveOptions {
    opts.switches.kernel = Some(sparse);
    opts
}

/// Whether a default solve whose root LP has `rows` rows and
/// `structural_cols` columns runs on the sparse kernel: the solver's own
/// size rule.
#[must_use]
pub fn size_rule_picks_sparse(rows: usize, structural_cols: usize) -> bool {
    SolveOptions::default()
        .switches
        .sparse_kernel(rows, structural_cols)
}

/// Solves every node LP cold (two-phase primal) instead of warm-starting
/// the dual simplex from the parent basis; also ignores any basis store.
#[must_use]
pub fn cold(mut opts: SolveOptions) -> SolveOptions {
    opts.switches.warm_start = false;
    opts
}

/// Skips root strengthening: no big-M tightening, probing or root cuts.
#[must_use]
pub fn unstrengthened(mut opts: SolveOptions) -> SolveOptions {
    opts.switches.strengthen = false;
    opts
}

/// Keeps strengthening on but with zero probing and root-cut budgets.
#[must_use]
pub fn starved(mut opts: SolveOptions) -> SolveOptions {
    opts.switches.probe_budget = 0;
    opts.switches.max_cuts = 0;
    opts
}

/// Caps dual pivots per warm attempt before the node re-solves cold
/// (`0` = auto).
#[must_use]
pub fn warm_pivot_cap(mut opts: SolveOptions, cap: usize) -> SolveOptions {
    opts.switches.warm_pivot_cap = cap;
    opts
}

/// Sets the eta updates tolerated between sparse refactorizations
/// (`0` = auto; ignored by the dense kernel).
#[must_use]
pub fn refactor_interval(mut opts: SolveOptions, interval: usize) -> SolveOptions {
    opts.switches.refactor_interval = interval;
    opts
}

/// What [`sparse_root_lp_probe`] measured on one root-LP solve.
#[derive(Debug, Clone, Copy)]
pub struct LuProbe {
    /// Root relaxation objective in minimization form (objective offset
    /// included), or `None` when the LP is infeasible/unbounded/limited.
    pub objective: Option<f64>,
    /// `max_i ‖B·(B⁻¹·e_i) − e_i‖_∞` over every basis column, with `B⁻¹`
    /// applied through the kernel's LU factors *plus the live eta file* and
    /// `B` through the raw constraint columns of the final basis.
    pub roundtrip: f64,
    /// Simplex pivots the solve spent.
    pub pivots: usize,
    /// Basis (re)factorizations performed.
    pub refactors: usize,
    /// Eta-file updates recorded over the whole solve (monotone counter;
    /// refactorizations do not rewind it).
    pub etas: usize,
    /// Eta columns still live in the product-form file at the probe point
    /// (the final accuracy refresh is suppressed so the file is *not*
    /// cleared before measuring).
    pub live_etas: usize,
}

/// Solves `model`'s root LP relaxation cold on the sparse kernel with the
/// given `refactor_interval` (`0` = auto) and probes the resulting basis
/// representation. The final accuracy refactorization is suppressed, so
/// after K pivots with a large interval the round-trip exercises an LU
/// factorization plus K eta updates — exactly the accumulated state the
/// equivalence argument depends on.
pub fn sparse_root_lp_probe(model: &Model, refactor_interval: usize) -> LuProbe {
    let (c, c_offset) = model.min_objective();
    let rows: Vec<SparseRow> = model
        .cons
        .iter()
        .map(|con| {
            (
                con.expr.iter().map(|(v, a)| (v.index(), a)).collect(),
                con.cmp,
                con.rhs,
            )
        })
        .collect();
    let lb: Vec<f64> = model.vars.iter().map(|d| d.lb).collect();
    let ub: Vec<f64> = model.vars.iter().map(|d| d.ub).collect();
    let p = LpProblem {
        ncols: model.vars.len(),
        rows: &rows,
        c: &c,
        lb: &lb,
        ub: &ub,
    };
    let cfg = LpConfig {
        feas_tol: FEAS_TOL,
        opt_tol: OPT_TOL,
        deadline: None,
        warm_pivot_cap: 0,
        sparse: true,
        refactor_interval,
    };
    let mut ws = Workspace::new();
    ws.sp.final_refresh = false;
    let (out, info) = ws.solve(&p, None, &cfg);
    LuProbe {
        objective: match out {
            LpOutcome::Optimal { obj, .. } => Some(obj + c_offset),
            _ => None,
        },
        roundtrip: ws.sp.roundtrip_residual(),
        pivots: info.pivots,
        refactors: info.refactors,
        etas: ws.sp.eta_updates,
        live_etas: ws.sp.live_etas(),
    }
}
