//! Solver configuration.

use crate::basis_store::BasisStore;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cooperative cancellation handle polled at branch-and-bound node
/// boundaries (and between root cut rounds).
///
/// The default flag is *disabled*: it never trips and costs one `Option`
/// check per poll. A live flag ([`StopFlag::new`]) can be cloned into a
/// solve and [triggered](StopFlag::trigger) from another thread; the search
/// stops at its next node boundary and reports its best incumbent (or
/// [`SolveError::LimitWithoutIncumbent`](crate::SolveError) when none
/// exists), exactly like a node or time limit binding.
#[derive(Debug, Clone, Default)]
pub struct StopFlag(Option<Arc<AtomicBool>>);

impl StopFlag {
    /// A live flag, initially unset.
    #[must_use]
    pub fn new() -> Self {
        StopFlag(Some(Arc::new(AtomicBool::new(false))))
    }

    /// The disabled flag that never trips (what [`Default`] returns).
    #[must_use]
    pub fn disabled() -> Self {
        StopFlag(None)
    }

    /// Requests cancellation. Safe to call from any thread, idempotent, and
    /// a no-op on a disabled flag.
    pub fn trigger(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_set(&self) -> bool {
        self.0.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// Two flags are equal when they share the same underlying cell (or are
/// both disabled) — handle identity, not current state, so configs holding
/// cloned flags compare equal.
impl PartialEq for StopFlag {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Feasibility tolerance for simplex basic values and constraint checks.
pub(crate) const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost optimality tolerance.
pub(crate) const OPT_TOL: f64 = 1e-9;
/// How far from integral a value may be and still count as integral.
pub(crate) const INT_TOL: f64 = 1e-6;
/// Maximum fixpoint passes of the classic presolve loop.
pub(crate) const PRESOLVE_PASSES: usize = 4;
/// Work budget for 0-1 probing: tentative fix-and-propagate runs (a
/// single-binary probe costs two, a co-occurring pair probe four).
const PROBE_BUDGET: usize = 512;
/// Maximum cutting planes appended to the root LP across all rounds.
const MAX_CUTS: usize = 64;
/// Root LPs with at least this many `rows + structural columns` run on the
/// sparse revised kernel; smaller ones keep the dense tableau. Forcing the
/// sparse kernel on the small side (xerox10's topology LPs) moved the
/// paper-deck flow to another optimal vertex and made it about 1.6x slower
/// (DESIGN.md §5.2).
const SPARSE_MIN_DIMS: usize = 48;

/// Solver internals that production never changes. [`Default`] fills them
/// with the constants above; the differential test suites flip them (dense
/// oracle, cold solves, unstrengthened solves, stress budgets) through
/// [`crate::test_support`], the only way to reach them from outside the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Switches {
    /// Forces the sparse (`Some(true)`) or dense (`Some(false)`) kernel;
    /// `None` picks by size ([`SPARSE_MIN_DIMS`]).
    pub(crate) kernel: Option<bool>,
    /// Warm-start node LPs from the parent basis via the dual simplex.
    pub(crate) warm_start: bool,
    /// Run root strengthening (big-M tightening, probing, root cuts).
    pub(crate) strengthen: bool,
    /// Dual pivots per warm attempt before re-solving cold (`0` = auto).
    pub(crate) warm_pivot_cap: usize,
    /// Eta updates between sparse refactorizations (`0` = auto).
    pub(crate) refactor_interval: usize,
    /// See [`PROBE_BUDGET`].
    pub(crate) probe_budget: usize,
    /// See [`MAX_CUTS`].
    pub(crate) max_cuts: usize,
}

impl Switches {
    const PRODUCTION: Switches = Switches {
        kernel: None,
        warm_start: true,
        strengthen: true,
        warm_pivot_cap: 0,
        refactor_interval: 0,
        probe_budget: PROBE_BUDGET,
        max_cuts: MAX_CUTS,
    };

    /// Whether a solve whose root LP has these dimensions runs on the
    /// sparse kernel.
    pub(crate) fn sparse_kernel(&self, rows: usize, structural_cols: usize) -> bool {
        self.kernel
            .unwrap_or(rows + structural_cols >= SPARSE_MIN_DIMS)
    }
}

/// Limits and hooks for [`Model::solve_with`](crate::Model::solve_with).
///
/// The paper calls LINDO "as a procedure": a black box with node and time
/// limits. This is that surface. The defaults are sized for the
/// floorplanner's augmentation subproblems (tens of binaries, a few hundred
/// constraints); the limits exist so a pathological subproblem degrades to
/// "best incumbent found" instead of hanging, which keeps the
/// successive-augmentation loop linear-time in practice (Table 1's claim).
/// Tolerances, presolve and strengthening budgets, and the simplex kernel
/// are fixed inside the solver (the kernel is picked from the root LP's
/// size).
///
/// ```
/// let opts = fp_milp::SolveOptions::default().with_node_limit(1_000);
/// assert_eq!(opts.node_limit, 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Maximum branch-and-bound nodes explored.
    pub node_limit: usize,
    /// Wall-clock budget for the whole solve.
    pub time_limit: Duration,
    /// An externally known objective value (in the model's sense) that the
    /// search must strictly beat — typically the cost of a solution another
    /// solver already holds. Branch-and-bound prunes against it from the
    /// first node and only installs incumbents strictly better than it, so
    /// a solve can never return a solution at or worse than this bound; if
    /// nothing better exists the solve reports
    /// [`SolveError::Infeasible`](crate::SolveError) (proven) or
    /// [`SolveError::LimitWithoutIncumbent`](crate::SolveError) (limit
    /// bound first). For `Maximize` models the value acts as a lower
    /// cutoff. Non-finite values (the default, `f64::INFINITY`) disable it.
    pub initial_upper_bound: f64,
    /// Cooperative cancellation flag polled at node boundaries; see
    /// [`StopFlag`]. Disabled by default.
    pub stop: StopFlag,
    /// Cross-solve root-basis store (see [`BasisStore`]). When set, the
    /// solve fetches a root basis under [`Self::basis_load_key`] before the
    /// tree starts (unless the root cut loop already committed one of its
    /// own) and publishes its committed root basis under
    /// [`Self::basis_publish_key`] afterwards. `None` (the default) keeps
    /// warm starts strictly within one solve.
    pub basis_store: Option<Arc<BasisStore>>,
    /// Store key the root basis is *fetched* under — typically the base
    /// instance's fingerprint (an ECO re-solve loads the base job's basis).
    pub basis_load_key: u64,
    /// Store key the committed root basis is *published* under — typically
    /// this instance's own fingerprint.
    pub basis_publish_key: u64,
    /// Internals fixed in production; see [`Switches`].
    pub(crate) switches: Switches,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            node_limit: 200_000,
            time_limit: Duration::from_secs(120),
            initial_upper_bound: f64::INFINITY,
            stop: StopFlag::disabled(),
            basis_store: None,
            basis_load_key: 0,
            basis_publish_key: 0,
            switches: Switches::PRODUCTION,
        }
    }
}

impl SolveOptions {
    /// Returns options with the given node limit.
    #[must_use]
    pub fn with_node_limit(mut self, nodes: usize) -> Self {
        self.node_limit = nodes;
        self
    }

    /// Returns options with the given time limit.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = limit;
        self
    }

    /// Returns options with an externally known objective cutoff the search
    /// must strictly beat (non-finite disables; see
    /// [`Self::initial_upper_bound`]).
    #[must_use]
    pub fn with_initial_upper_bound(mut self, bound: f64) -> Self {
        self.initial_upper_bound = bound;
        self
    }

    /// Returns options polling the given cooperative cancellation flag at
    /// node boundaries.
    #[must_use]
    pub fn with_stop(mut self, stop: StopFlag) -> Self {
        self.stop = stop;
        self
    }

    /// Returns options wired to a cross-solve [`BasisStore`]: the root LP
    /// is seeded from the basis stored under `load_key` and the committed
    /// root basis is published under `publish_key` (pass the same key for
    /// plain repeat-traffic warm starts).
    #[must_use]
    pub fn with_basis_store(
        mut self,
        store: Arc<BasisStore>,
        load_key: u64,
        publish_key: u64,
    ) -> Self {
        self.basis_store = Some(store);
        self.basis_load_key = load_key;
        self.basis_publish_key = publish_key;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let o = SolveOptions::default()
            .with_node_limit(5)
            .with_time_limit(Duration::from_millis(10));
        assert_eq!(o.node_limit, 5);
        assert_eq!(o.time_limit, Duration::from_millis(10));
    }

    #[test]
    fn defaults_are_sane() {
        let o = SolveOptions::default();
        const {
            assert!(FEAS_TOL > 0.0 && FEAS_TOL < 1e-3);
            assert!(INT_TOL >= FEAS_TOL / 10.0);
            assert!(PRESOLVE_PASSES >= 1);
        }
        assert!(o.node_limit > 1_000);
        assert_eq!(o.switches, Switches::PRODUCTION);
        assert!(o.switches.warm_start && o.switches.strengthen);
        assert_eq!(o.switches.kernel, None);
        assert!(o.switches.probe_budget > 0 && o.switches.max_cuts > 0);
        assert!(o.initial_upper_bound.is_infinite());
        assert!(!o.stop.is_set());
    }

    #[test]
    fn stop_flag_semantics() {
        let disabled = StopFlag::disabled();
        disabled.trigger();
        assert!(!disabled.is_set());

        let live = StopFlag::new();
        assert!(!live.is_set());
        let clone = live.clone();
        live.trigger();
        assert!(clone.is_set(), "clones share the underlying cell");

        // Identity equality: a clone is equal, a fresh flag is not.
        assert_eq!(live, clone);
        assert_ne!(live, StopFlag::new());
        assert_eq!(StopFlag::disabled(), StopFlag::default());
    }

    #[test]
    fn portfolio_builders() {
        let stop = StopFlag::new();
        let o = SolveOptions::default()
            .with_initial_upper_bound(42.5)
            .with_stop(stop.clone());
        assert_eq!(o.initial_upper_bound, 42.5);
        assert_eq!(o.stop, stop);
    }

    #[test]
    fn kernel_size_rule_boundary() {
        let size_rule = Switches::PRODUCTION;
        // 47 dims stay on the dense tableau, 48 go sparse, however the
        // dimensions split between rows and columns.
        assert!(!size_rule.sparse_kernel(47, 0));
        assert!(!size_rule.sparse_kernel(20, 27));
        assert!(size_rule.sparse_kernel(48, 0));
        assert!(size_rule.sparse_kernel(21, 27));
        // Knapsack-sized stays dense, placement-sized goes sparse.
        assert!(!size_rule.sparse_kernel(1, 22));
        assert!(size_rule.sparse_kernel(32, 21));
        // A forced kernel ignores the dimensions entirely.
        let forced = |sparse| Switches {
            kernel: Some(sparse),
            ..Switches::PRODUCTION
        };
        assert!(forced(true).sparse_kernel(0, 0));
        assert!(!forced(false).sparse_kernel(1_000, 1_000));
    }

    #[test]
    fn basis_store_builder() {
        let o = SolveOptions::default();
        assert!(o.basis_store.is_none());
        let store = Arc::new(BasisStore::new(8));
        let o = o.with_basis_store(Arc::clone(&store), 3, 9);
        assert!(o.basis_store.is_some());
        assert_eq!((o.basis_load_key, o.basis_publish_key), (3, 9));
        // Identity equality, like StopFlag: a clone of the handle is equal.
        assert_eq!(o.clone(), o);
    }
}
