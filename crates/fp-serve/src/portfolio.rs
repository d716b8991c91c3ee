//! Deadline-aware solver portfolio: race heterogeneous backends on one
//! job, share the incumbent, cancel the losers.
//!
//! Three backends cover complementary regimes:
//!
//! * **milp** — the paper's successive-augmentation pipeline plus the
//!   improvement loop: slow, highest quality. Under a tight deadline the
//!   shared incumbent is injected into every step MILP as a
//!   branch-and-bound cutoff, letting a fast heuristic answer prune the
//!   search or abort it outright.
//! * **annealer** — the Wong-Liu slicing annealer (`fp-slicing`),
//!   width-constrained to the job's chip width and legalized onto the
//!   skyline so its answer lives on the same fixed outline.
//! * **analytic** — smoothed gradient descent (`fp-analytic`), the
//!   fastest to a decent placement on tight budgets.
//!
//! The race runs each backend on its own thread under one shared
//! deadline. When plenty of budget remains the race is **best-of-N**
//! (wait for everyone, pick the lowest cost); under a tight deadline it
//! degrades to **any-of-N** (first legal answer wins and the rest are
//! cancelled through their cooperative [`StopFlag`]s). Either way every
//! leg's outcome is published as an [`Event::BackendDone`] and the race
//! as an [`Event::Portfolio`].

use fp_core::{
    Floorplan, FloorplanConfig, FloorplanError, Floorplanner, LegalizeItem, Objective,
    SharedIncumbent, StopFlag,
};
use fp_netlist::Netlist;
use fp_obs::{Event, Phase, Tracer};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Remaining budget below which the race switches from best-of-N to
/// any-of-N (first legal answer wins).
const ANY_OF_THRESHOLD: Duration = Duration::from_millis(250);

/// One raceable solver backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Successive-augmentation MILP pipeline + improvement loop.
    Milp,
    /// Wong-Liu slicing annealer, legalized onto the shared outline.
    Annealer,
    /// Smoothed analytical placement (`fp-analytic`).
    Analytic,
}

impl Backend {
    /// Stable lowercase name used in responses and trace events.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Milp => "milp",
            Backend::Annealer => "annealer",
            Backend::Analytic => "analytic",
        }
    }

    /// Parses one backend name (the inverse of [`Backend::as_str`]).
    #[must_use]
    pub fn parse(s: &str) -> Option<Backend> {
        match s.trim() {
            "milp" => Some(Backend::Milp),
            "annealer" => Some(Backend::Annealer),
            "analytic" => Some(Backend::Analytic),
            _ => None,
        }
    }

    /// Parses a comma-separated backend list, rejecting unknown names
    /// and duplicates.
    ///
    /// # Errors
    ///
    /// Names the first unknown or repeated backend.
    pub fn parse_list(s: &str) -> Result<Vec<Backend>, String> {
        let mut out = Vec::new();
        for name in s.split(',').filter(|n| !n.trim().is_empty()) {
            let b = Backend::parse(name).ok_or_else(|| {
                format!(
                    "unknown backend '{}' (expected milp, annealer or analytic)",
                    name.trim()
                )
            })?;
            if out.contains(&b) {
                return Err(format!("duplicate backend '{}'", b.as_str()));
            }
            out.push(b);
        }
        Ok(out)
    }
}

/// The winning result of one race.
#[derive(Debug)]
pub struct RaceOutcome {
    /// The winner's legal floorplan.
    pub floorplan: Floorplan,
    /// Stable name of the winning backend.
    pub winner: &'static str,
}

/// Objective cost of a floorplan under the job's objective — the metric
/// the best-of-N decision and the shared incumbent use.
fn cost_of(fp: &Floorplan, netlist: &Netlist, objective: Objective) -> f64 {
    match objective {
        Objective::Area => fp.chip_area(),
        Objective::AreaPlusWirelength { lambda } => {
            fp.chip_area() + lambda * fp.center_wirelength(netlist)
        }
    }
}

/// Runs the full MILP pipeline (augment → improve), mirroring the
/// sequential ladder. `incumbent` is `Some` only under a tight deadline
/// (any-of mode): the shared cell then feeds every step MILP an external
/// branch-and-bound cutoff, so a heuristic leg that already answered
/// lets this leg prune hard or abort instead of burning the rest of the
/// budget on a provably losing search. In best-of mode no incumbent is
/// injected — the leg must reproduce the ladder's exact answer, which is
/// what makes the race's cost provably never worse than the ladder's
/// (abort-on-incumbent reasons at the augmentation level and cannot
/// account for gains the improvement rung would have made).
fn milp_leg(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    stop: &StopFlag,
    incumbent: Option<Arc<SharedIncumbent>>,
    improve_rounds: usize,
) -> Result<Floorplan, FloorplanError> {
    let config = fp_config
        .clone()
        .with_stop(stop.clone())
        .with_incumbent(incumbent);
    let result = Floorplanner::with_config(netlist, config.clone()).run()?;
    let mut fp = result.floorplan;
    let expired = config.deadline.is_some_and(|d| Instant::now() >= d);
    if improve_rounds > 0 && !expired && !stop.is_set() {
        if let Ok(better) = fp_core::improve(&fp, netlist, &config, improve_rounds) {
            fp = better;
        }
    }
    Ok(fp)
}

/// Runs the slicing annealer width-constrained to the job's chip width,
/// then legalizes its tree bottom-row-first onto the shared outline.
fn annealer_leg(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    stop: &StopFlag,
    seed: u64,
) -> Result<Floorplan, FloorplanError> {
    let width = fp_core::derive_chip_width(netlist, fp_config)?;
    let mut annealer = fp_slicing::SlicingAnnealer::new(netlist);
    annealer
        .with_seed(seed ^ 0x511C_1986)
        .with_deadline(fp_config.deadline)
        .with_stop(stop.clone())
        .with_max_width(Some(width));
    let result = annealer.run();
    // The slicing tree's own coordinates carry the placement intent:
    // legalize modules bottom row first so the skyline reproduces the
    // tree's stacking order on the shared outline.
    let mut order: Vec<(f64, f64, LegalizeItem)> = result
        .floorplan
        .iter()
        .map(|m| {
            let module = netlist.module(m.id);
            let width_adjust = if module.is_flexible() {
                (module.width_range().1 - m.rect.w).max(0.0)
            } else {
                0.0
            };
            (
                m.rect.y,
                m.rect.x,
                LegalizeItem {
                    id: m.id,
                    rotated: m.rotated,
                    width_adjust,
                },
            )
        })
        .collect();
    order.sort_by(|a, b| {
        a.0.total_cmp(&b.0)
            .then(a.1.total_cmp(&b.1))
            .then(a.2.id.cmp(&b.2.id))
    });
    let items: Vec<LegalizeItem> = order.into_iter().map(|(_, _, item)| item).collect();
    fp_core::legalize(netlist, fp_config, &items)
}

/// Runs smoothed analytical placement; `fp-analytic` legalizes its own
/// answer onto the same skyline, so the result is always legal.
fn analytic_leg(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    stop: &StopFlag,
    seed: u64,
) -> Result<Floorplan, FloorplanError> {
    let config = fp_analytic::AnalyticConfig::default()
        .with_seed(seed)
        .with_floorplan(fp_config.clone().with_stop(stop.clone()));
    fp_analytic::place(netlist, &config).map(|r| r.floorplan)
}

/// Races `backends` on one job and returns the winner, or `None` when
/// every leg failed (the caller then falls back to the greedy skyline).
///
/// Each finishing leg publishes its `(cost, height)` to the shared
/// incumbent; under a tight deadline (any-of mode) the MILP leg reads it
/// as a branch-and-bound cutoff, so a fast heuristic answer tightens the
/// search mid-race (see `milp_leg` for why best-of mode does not
/// inject it). Losers are cancelled through their stop flags:
/// immediately in any-of-N mode, and after the decision in best-of-N
/// (where everyone runs to completion anyway).
pub fn race(
    netlist: &Netlist,
    fp_config: &FloorplanConfig,
    backends: &[Backend],
    improve_rounds: usize,
    seed: u64,
    tracer: &Tracer,
) -> Option<RaceOutcome> {
    let started = Instant::now();
    let incumbent = Arc::new(SharedIncumbent::default());
    let stops: Vec<StopFlag> = backends.iter().map(|_| StopFlag::new()).collect();
    let any_of = fp_config
        .deadline
        .is_some_and(|d| d.saturating_duration_since(started) < ANY_OF_THRESHOLD);
    let objective = fp_config.objective;

    let (tx, rx) = mpsc::channel::<(usize, Result<Floorplan, FloorplanError>, u64)>();
    let mut results: Vec<Option<(Result<Floorplan, FloorplanError>, u64)>> =
        (0..backends.len()).map(|_| None).collect();
    let mut first_ok: Option<usize> = None;
    std::thread::scope(|scope| {
        for (i, backend) in backends.iter().enumerate() {
            let tx = tx.clone();
            let stop = stops[i].clone();
            let incumbent = Arc::clone(&incumbent);
            scope.spawn(move || {
                let leg_started = Instant::now();
                let outcome = match backend {
                    Backend::Milp => {
                        let shared = any_of.then(|| Arc::clone(&incumbent));
                        milp_leg(netlist, fp_config, &stop, shared, improve_rounds)
                    }
                    Backend::Annealer => annealer_leg(netlist, fp_config, &stop, seed),
                    Backend::Analytic => analytic_leg(netlist, fp_config, &stop, seed),
                };
                if let Ok(fp) = &outcome {
                    incumbent.publish(cost_of(fp, netlist, objective), fp.chip_height());
                }
                let micros = leg_started.elapsed().as_micros() as u64;
                let _ = tx.send((i, outcome, micros));
            });
        }
        drop(tx);
        while let Ok((i, outcome, micros)) = rx.recv() {
            if outcome.is_ok() && first_ok.is_none() {
                first_ok = Some(i);
                if any_of {
                    // First legal answer wins: cancel everyone else and
                    // keep draining (cancelled legs exit quickly).
                    for stop in &stops {
                        stop.trigger();
                    }
                }
            }
            results[i] = Some((outcome, micros));
        }
    });

    // Pick the winner: first legal answer under a tight deadline, lowest
    // cost otherwise (ties break toward the earlier backend in the list,
    // which keeps the decision deterministic).
    let winner = if any_of {
        first_ok
    } else {
        results
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Some((Ok(fp), _)) => Some((i, cost_of(fp, netlist, objective))),
                _ => None,
            })
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .map(|(i, _)| i)
    };

    for (i, backend) in backends.iter().enumerate() {
        let (cost, micros) = match &results[i] {
            Some((Ok(fp), micros)) => (cost_of(fp, netlist, objective), *micros),
            Some((Err(_), micros)) => (f64::NAN, *micros),
            None => (f64::NAN, 0),
        };
        tracer.emit(
            Phase::Serve,
            Event::BackendDone {
                backend: backend.as_str(),
                micros,
                cost,
                won: winner == Some(i),
            },
        );
    }
    tracer.emit(
        Phase::Serve,
        Event::Portfolio {
            backends: backends.len(),
            winner: winner.map_or("none", |i| backends[i].as_str()),
            micros: started.elapsed().as_micros() as u64,
        },
    );

    let idx = winner?;
    let (Ok(floorplan), _) = results.swap_remove(idx)? else {
        return None;
    };
    Some(RaceOutcome {
        floorplan,
        winner: backends[idx].as_str(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Milp, Backend::Annealer, Backend::Analytic] {
            assert_eq!(Backend::parse(b.as_str()), Some(b));
        }
        assert_eq!(Backend::parse("nope"), None);
    }

    #[test]
    fn backend_lists_parse_and_reject_garbage() {
        assert_eq!(
            Backend::parse_list("milp, annealer,analytic").unwrap(),
            vec![Backend::Milp, Backend::Annealer, Backend::Analytic]
        );
        assert_eq!(Backend::parse_list("").unwrap(), Vec::new());
        assert!(Backend::parse_list("milp,quantum").is_err());
        assert!(Backend::parse_list("milp,milp").is_err());
    }

    #[test]
    fn race_returns_a_legal_floorplan_and_names_the_winner() {
        let netlist = fp_netlist::generator::ProblemGenerator::new(7, 21).generate();
        let config = FloorplanConfig::default();
        let outcome = race(
            &netlist,
            &config,
            &[Backend::Annealer, Backend::Analytic],
            0,
            0xFEED,
            &Tracer::disabled(),
        )
        .expect("heuristic backends always produce a floorplan");
        assert!(outcome.floorplan.is_valid());
        assert_eq!(outcome.floorplan.len(), 7);
        assert!(matches!(outcome.winner, "annealer" | "analytic"));
    }

    #[test]
    fn any_of_race_under_expired_deadline_still_answers() {
        let netlist = fp_netlist::generator::ProblemGenerator::new(6, 5).generate();
        let config = FloorplanConfig::default()
            .with_deadline(Some(Instant::now() + Duration::from_millis(1)));
        let outcome = race(
            &netlist,
            &config,
            &[Backend::Annealer, Backend::Analytic],
            0,
            7,
            &Tracer::disabled(),
        )
        .expect("heuristic legs answer even on a spent budget");
        assert!(outcome.floorplan.is_valid());
    }
}
