//! Floorplan optimization with a *given topology* (paper §2.5).
//!
//! When the relative position of every module pair is known, all integer
//! variables vanish: for each pair only the single active non-overlap
//! inequality is kept, leaving a pure LP with `2K` position variables (plus
//! one `Δw` per flexible module) and `K(K−1)/2 + 2K` rows — one non-overlap
//! row per pair and two chip-bound rows per module, plus four distance rows
//! per connected pair under a wirelength objective. The paper proposes this
//! for shape optimization; here it also serves as a **compaction pass** —
//! re-solving the entire chip's coordinates (and flexible shapes) at once
//! after successive augmentation, something the per-step MILPs cannot do
//! globally.

use crate::config::FloorplanConfig;
use crate::envelope::ShapeSpec;
use crate::error::FloorplanError;
use crate::placement::{Floorplan, PlacedModule};
use fp_geom::GEOM_EPS;
use fp_milp::{LinExpr, Model, Sense, SolveError, SolveOptions};
use fp_netlist::Netlist;
use std::time::Instant;

/// The relative position of an ordered module pair `(i, j)` — which of the
/// four disjuncts of system (2) is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `i` is to the left of `j`.
    LeftOf,
    /// `i` is to the right of `j`.
    RightOf,
    /// `i` is below `j`.
    Below,
    /// `i` is above `j`.
    Above,
}

/// Extracts the topology of an existing floorplan: for every pair, the
/// separating relation with the largest slack.
///
/// # Errors
///
/// [`FloorplanError::TopologyMismatch`] if some pair of envelopes overlaps
/// (no separating relation exists).
pub fn extract_topology(
    floorplan: &Floorplan,
) -> Result<Vec<(usize, usize, Relation)>, FloorplanError> {
    let placed: Vec<&PlacedModule> = floorplan.iter().collect();
    let mut out = Vec::new();
    for i in 0..placed.len() {
        for j in i + 1..placed.len() {
            let (a, b) = (placed[i].envelope, placed[j].envelope);
            // Gap of each candidate relation; pick the widest non-negative.
            let candidates = [
                (Relation::LeftOf, b.x - a.right()),
                (Relation::RightOf, a.x - b.right()),
                (Relation::Below, b.y - a.top()),
                (Relation::Above, a.y - b.top()),
            ];
            let best = candidates
                .iter()
                .max_by(|x, y| x.1.total_cmp(&y.1))
                .expect("four candidates");
            if best.1 < -GEOM_EPS {
                return Err(FloorplanError::TopologyMismatch(format!(
                    "{} and {} overlap; no separating relation",
                    placed[i].id, placed[j].id
                )));
            }
            out.push((i, j, best.0));
        }
    }
    Ok(out)
}

/// Re-optimizes module coordinates (and flexible shapes) for the fixed
/// topology of `floorplan`, minimizing chip height. Orientations are kept
/// as placed. Returns the compacted floorplan.
///
/// The result is never taller than the input (the input is feasible for the
/// LP), which the integration tests assert.
///
/// The LP runs on the rest of the run budget: its time limit is clamped to
/// [`FloorplanConfig::deadline`] and it polls [`FloorplanConfig::stop`]. A
/// time-out or a cancel returns the input floorplan unchanged, so the pass
/// stays best-effort polish.
///
/// # Errors
///
/// * [`FloorplanError::TopologyMismatch`] for overlapping inputs,
/// * [`FloorplanError::Solver`] if the LP fails (indicates a bug: the input
///   placement is always a feasible witness).
pub fn optimize_topology(
    floorplan: &Floorplan,
    netlist: &Netlist,
    config: &FloorplanConfig,
) -> Result<Floorplan, FloorplanError> {
    let placed: Vec<&PlacedModule> = floorplan.iter().collect();
    if placed.is_empty() {
        return Ok(floorplan.clone());
    }
    let relations = extract_topology(floorplan)?;
    let chip_w = floorplan.chip_width();

    let specs: Vec<ShapeSpec> = placed
        .iter()
        .map(|p| ShapeSpec::from_module(p.id, netlist.module(p.id), config))
        .collect();

    let mut model = Model::new(Sense::Minimize);
    let h_ub = floorplan.chip_height();
    let ychip = model.add_continuous("y_chip", 0.0, h_ub);

    // Positions; orientation fixed to the placed one, Δw re-optimized.
    let vars: Vec<(fp_milp::Var, fp_milp::Var, Option<fp_milp::Var>)> = placed
        .iter()
        .zip(&specs)
        .map(|(p, spec)| {
            let name = netlist.module(p.id).name().to_string();
            let x = model.add_continuous(format!("x_{name}"), 0.0, chip_w);
            let y = model.add_continuous(format!("y_{name}"), 0.0, h_ub);
            let dw = spec
                .has_dw
                .then(|| model.add_continuous(format!("dw_{name}"), 0.0, spec.dw_max));
            (x, y, dw)
        })
        .collect();

    // Envelope dimension expressions with the *fixed* orientation folded in.
    let env_w = |k: usize| -> LinExpr {
        let spec = &specs[k];
        let z = placed[k].rotated;
        let mut e = LinExpr::constant(spec.we0 + if z { spec.wez } else { 0.0 });
        if let Some(dw) = vars[k].2 {
            e.add_term(dw, spec.wed);
        }
        e
    };
    let env_h = |k: usize| -> LinExpr {
        let spec = &specs[k];
        let z = placed[k].rotated;
        let mut e = LinExpr::constant(spec.he0 + if z { spec.hez } else { 0.0 });
        if let Some(dw) = vars[k].2 {
            e.add_term(dw, spec.hed);
        }
        e
    };

    // Chip bounds.
    for (k, v) in vars.iter().enumerate() {
        model.add_le(v.0 + env_w(k), chip_w);
        let row = v.1 + env_h(k) - ychip;
        model.add_le(row, 0.0);
    }

    // One active non-overlap row per pair (§2.5: "only one inequality is
    // needed" per pair, integer variables eliminated).
    for &(i, j, rel) in &relations {
        match rel {
            Relation::LeftOf => {
                let row = vars[i].0 + env_w(i) - vars[j].0;
                model.add_le(row, 0.0);
            }
            Relation::RightOf => {
                let row = vars[j].0 + env_w(j) - vars[i].0;
                model.add_le(row, 0.0);
            }
            Relation::Below => {
                let row = vars[i].1 + env_h(i) - vars[j].1;
                model.add_le(row, 0.0);
            }
            Relation::Above => {
                let row = vars[j].1 + env_h(j) - vars[i].1;
                model.add_le(row, 0.0);
            }
        }
    }

    // Objective: chip area (W·height), plus the configured wirelength term
    // — §2.5 allows "chip area, interconnection length ... or any
    // combinations"; with all relations fixed this stays a pure LP.
    let mut objective = LinExpr::new();
    objective.add_term(ychip, chip_w);
    let lambda = config.objective.lambda();
    if lambda > 0.0 {
        let span = chip_w.max(h_ub);
        for i in 0..placed.len() {
            for j in i + 1..placed.len() {
                let c = netlist.connectivity(placed[i].id, placed[j].id);
                if c <= 0.0 {
                    continue;
                }
                let dx = model.add_continuous(format!("dx_{i}_{j}"), 0.0, span);
                let dy = model.add_continuous(format!("dy_{i}_{j}"), 0.0, span);
                let cx = |k: usize| {
                    let mut e = LinExpr::from(vars[k].0);
                    e += env_w(k) * 0.5;
                    e
                };
                let cy = |k: usize| {
                    let mut e = LinExpr::from(vars[k].1);
                    e += env_h(k) * 0.5;
                    e
                };
                model.add_le(cx(i) - cx(j) - dx, 0.0);
                model.add_le(cx(j) - cx(i) - dx, 0.0);
                model.add_le(cy(i) - cy(j) - dy, 0.0);
                model.add_le(cy(j) - cy(i) - dy, 0.0);
                objective.add_term(dx, lambda * c);
                objective.add_term(dy, lambda * c);
            }
        }
    }
    model.set_objective(objective);
    let mut options = SolveOptions::default().with_stop(config.stop.clone());
    if let Some(d) = config.deadline {
        let remaining = d.saturating_duration_since(Instant::now());
        options.time_limit = options.time_limit.min(remaining);
    }
    let sol = match model.solve_with(&options) {
        Ok(sol) => sol,
        Err(SolveError::LimitWithoutIncumbent) => return Ok(floorplan.clone()),
        Err(e) => return Err(FloorplanError::Solver(e)),
    };

    let new_placed = placed
        .iter()
        .zip(&specs)
        .zip(&vars)
        .map(|((p, spec), &(x, y, dw))| {
            let dw_val = dw.map_or(0.0, |v| sol.value(v).clamp(0.0, spec.dw_max));
            let (rect, envelope, rotated) = spec.realize(
                sol.value(x).max(0.0),
                sol.value(y).max(0.0),
                p.rotated,
                dw_val,
            );
            PlacedModule {
                id: p.id,
                rect,
                envelope,
                rotated,
            }
        })
        .collect();
    Ok(Floorplan::new(chip_w, new_placed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_geom::Rect;
    use fp_netlist::generator::ProblemGenerator;
    use fp_netlist::{Module, ModuleId};

    fn place(id: usize, x: f64, y: f64, w: f64, h: f64) -> PlacedModule {
        PlacedModule {
            id: ModuleId(id),
            rect: Rect::new(x, y, w, h),
            envelope: Rect::new(x, y, w, h),
            rotated: false,
        }
    }

    #[test]
    fn extract_relations() {
        let fp = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 3.0, 3.0), place(1, 5.0, 0.0, 3.0, 3.0)],
        );
        let rel = extract_topology(&fp).unwrap();
        assert_eq!(rel, vec![(0, 1, Relation::LeftOf)]);
    }

    #[test]
    fn extract_rejects_overlap() {
        let fp = Floorplan::new(
            10.0,
            vec![place(0, 0.0, 0.0, 4.0, 4.0), place(1, 2.0, 2.0, 4.0, 4.0)],
        );
        assert!(matches!(
            extract_topology(&fp),
            Err(FloorplanError::TopologyMismatch(_))
        ));
    }

    #[test]
    fn compaction_removes_slack() {
        // A floorplan with deliberate gaps: module 1 floats at y = 5 above
        // module 0 (height 2). Compaction must drop it to y = 2.
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("a", 4.0, 2.0, false)).unwrap();
        nl.add_module(Module::rigid("b", 4.0, 2.0, false)).unwrap();
        let fp = Floorplan::new(
            4.0,
            vec![place(0, 0.0, 0.0, 4.0, 2.0), place(1, 0.0, 5.0, 4.0, 2.0)],
        );
        let cfg = FloorplanConfig::default();
        let compact = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!((compact.chip_height() - 4.0).abs() < 1e-6);
        assert!(compact.is_valid());
    }

    #[test]
    fn compaction_never_increases_height() {
        let nl = ProblemGenerator::new(9, 17).generate();
        let cfg = FloorplanConfig::default();
        let fp = crate::greedy::bottom_left(&nl, &cfg).unwrap();
        let compact = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!(compact.is_valid(), "{:?}", compact.violations());
        assert!(compact.chip_height() <= fp.chip_height() + 1e-6);
    }

    #[test]
    fn soft_shapes_reoptimized() {
        // Rigid 4x4 and a soft area-8 module stacked on a 6-wide chip; the
        // topology LP can reshape the soft one but "Below" keeps the stack.
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("r", 4.0, 4.0, false)).unwrap();
        nl.add_module(Module::flexible("s", 8.0, 0.5, 2.0)).unwrap();
        let fp = Floorplan::new(
            6.0,
            vec![
                place(0, 0.0, 0.0, 4.0, 4.0),
                // soft placed as 2x4 beside the rigid module
                place(1, 4.0, 0.0, 2.0, 4.0),
            ],
        );
        let cfg = FloorplanConfig::default();
        let out = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!(out.is_valid());
        assert!(out.chip_height() <= fp.chip_height() + 1e-6);
        let soft = out.placement(ModuleId(1)).unwrap();
        assert!((soft.rect.area() - 8.0).abs() < 1e-6);
    }

    #[test]
    fn wirelength_objective_pulls_connected_pair() {
        use crate::config::Objective;
        use fp_netlist::Net;
        // Three modules in a row with horizontal slack; a & c connected.
        // Pure-area compaction leaves x positions free (height-optimal
        // anyway); the wirelength term must drag a and c together.
        let mut nl = Netlist::new("t");
        let a = nl.add_module(Module::rigid("a", 2.0, 2.0, false)).unwrap();
        nl.add_module(Module::rigid("b", 2.0, 2.0, false)).unwrap();
        let c = nl.add_module(Module::rigid("c", 2.0, 2.0, false)).unwrap();
        nl.add_net(Net::new("ac", [a, c])).unwrap();
        let fp = Floorplan::new(
            12.0,
            vec![
                place(0, 0.0, 0.0, 2.0, 2.0),
                place(1, 5.0, 0.0, 2.0, 2.0),
                place(2, 10.0, 0.0, 2.0, 2.0),
            ],
        );
        let cfg = FloorplanConfig::default()
            .with_objective(Objective::AreaPlusWirelength { lambda: 1.0 });
        let out = optimize_topology(&fp, &nl, &cfg).unwrap();
        assert!(out.is_valid());
        let pa = out.placement(ModuleId(0)).unwrap().rect.center();
        let pc = out.placement(ModuleId(2)).unwrap().rect.center();
        // Relations keep a left of b left of c, so the best distance is
        // a..b..c packed: centers 4 apart (vs 10 initially).
        assert!(
            pa.manhattan(&pc) <= 4.0 + 1e-6,
            "distance {} not compacted",
            pa.manhattan(&pc)
        );
        assert!(out.chip_height() <= fp.chip_height() + 1e-9);
    }

    #[test]
    fn spent_budget_returns_the_input_unchanged() {
        let nl = ProblemGenerator::new(9, 17).generate();
        let cfg = FloorplanConfig::default();
        let fp = crate::greedy::bottom_left(&nl, &cfg).unwrap();
        assert_ne!(optimize_topology(&fp, &nl, &cfg).unwrap(), fp);

        let expired = cfg.clone().with_deadline(Some(Instant::now()));
        assert_eq!(optimize_topology(&fp, &nl, &expired).unwrap(), fp);

        let stop = fp_milp::StopFlag::new();
        stop.trigger();
        let cancelled = cfg.with_stop(stop);
        assert_eq!(optimize_topology(&fp, &nl, &cancelled).unwrap(), fp);
    }

    #[test]
    fn empty_floorplan_passthrough() {
        let nl = Netlist::new("t");
        let fp = Floorplan::new(5.0, Vec::new());
        let out = optimize_topology(&fp, &nl, &FloorplanConfig::default()).unwrap();
        assert!(out.is_empty());
    }
}
