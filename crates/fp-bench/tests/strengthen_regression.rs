//! Regression pins for the model-strengthening layer on the seeded bench
//! instances.
//!
//! These live in `fp-bench` (not `fp-milp`) because they pin behavior on
//! the shared generators from [`fp_bench::instances`] — the same models the
//! `milp_snapshot` binary measures — without making `fp-milp` depend on its
//! own benchmark crate.

use fp_bench::instances::knapsack;
use fp_milp::test_support::unstrengthened;
use fp_milp::{Optimality, SolveOptions};

/// knapsack18 (seed 4) is the instance where unconditionally committed root
/// cut rounds used to *grow* the tree (301 nodes with strengthening vs 135
/// without, a 0.449x "reduction"). With cut rounds gated on a proven root
/// bound improvement, strengthening must never leave the tree larger than
/// the strengthen-off baseline.
#[test]
fn knapsack18_strengthen_never_grows_the_tree() {
    let model = knapsack(18, 4);
    let off = model
        .solve_with(&unstrengthened(
            SolveOptions::default().with_node_limit(200_000),
        ))
        .expect("knapsack is feasible by construction");
    let on = model
        .solve_with(&SolveOptions::default().with_node_limit(200_000))
        .expect("knapsack is feasible by construction");
    assert_eq!(off.optimality(), Optimality::Proven);
    assert_eq!(on.optimality(), Optimality::Proven);
    assert!(
        (off.objective() - on.objective()).abs() <= 1e-9 * (1.0 + off.objective().abs()),
        "strengthening changed the optimum: {} vs {}",
        on.objective(),
        off.objective()
    );
    assert!(
        on.stats().nodes <= off.stats().nodes,
        "strengthening grew the tree: {} nodes with cuts vs {} without",
        on.stats().nodes,
        off.stats().nodes
    );
}
