//! The batch workloads: decks through parse → augment → improve → route.

use crate::report::{Metrics, Outcome};
use crate::spans::Spans;
use crate::stats::{fastest, mean, median, share};
use crate::text::{prefix_names, shuffle_lines};
use crate::{Args, SplitMix};
use fp_core::{improve_traced, FloorplanConfig, Floorplanner, RunStats, StepOutcome, StepStats};
use fp_netlist::{decks, format};
use fp_obs::{Collector, Tracer};
use fp_route::{route, RouteConfig, RouteReport};
use std::time::{Duration, Instant};

/// Generator seed of the GSRC-style decks. Deck content stays fixed (as
/// the real GSRC suites are fixed files): content-seeded decks swing the
/// flow time by 2-3x and some hit the step node limit (see `README.md`).
const GSRC_DECK_SEED: u64 = 1;
/// GSRC-style deck sizes of `gsrc-scale`. The §2.5 topology LP grows
/// steeply with n (about 0.4 s per call at n=100, 1.9 s at 130 and 40 s at
/// 200 on a 2-core host), so the decks stop at 130.
const GSRC_SIZES: [usize; 2] = [100, 130];
/// Set-ups timed before the first pass and again after every deck's flow,
/// after one untimed warm-up set-up; `setup_s` is the fastest of them all.
/// A set-up takes about a millisecond and runs up to 1.9x slower while the
/// shared host is busy, in phases of about a second, so the median of a
/// run follows how long the host was busy; the fastest set-up does not
/// (see `README.md`).
const SETUP_REPS: usize = 5;

/// Which deck family a batch run takes through the flow.
#[derive(Debug, Clone, Copy)]
pub enum DeckSet {
    /// The paper-era MCNC decks ami33 and xerox10, in seeded declaration
    /// order.
    Paper,
    /// GSRC-style decks at n=100 and n=130, modules renamed per seed.
    Gsrc,
}

/// A deck as the flow receives it: the netlist text the parser reads.
struct Deck {
    name: String,
    text: String,
}

/// The deck set of `seed`, each rewritten deck checked to parse back to
/// the design it came from.
fn make_decks(set: DeckSet, seed: u64) -> Result<Vec<Deck>, String> {
    let mut rng = SplitMix::new(seed);
    let designs = match set {
        DeckSet::Paper => vec![fp_netlist::ami33(), fp_netlist::xerox10()],
        DeckSet::Gsrc => GSRC_SIZES
            .iter()
            .map(|&n| decks::gsrc_style(n, GSRC_DECK_SEED))
            .collect(),
    };
    let prefix = format!("s{:x}_", rng.next_u64() & 0xffff);
    designs
        .iter()
        .map(|nl| {
            let text = match set {
                DeckSet::Paper => shuffle_lines(&format::write(nl), &mut rng),
                DeckSet::Gsrc => prefix_names(&format::write(nl), &prefix),
            };
            let back = format::parse(&text).map_err(|e| format!("{}: {e}", nl.name()))?;
            if (back.num_modules(), back.num_nets()) != (nl.num_modules(), nl.num_nets())
                || back.total_module_area() != nl.total_module_area()
            {
                return Err(format!("{}: rewritten deck is another design", nl.name()));
            }
            Ok(Deck {
                name: nl.name().to_string(),
                text,
            })
        })
        .collect()
}

/// Everything one deck's flow reports.
#[derive(Debug, Clone, Default)]
struct Flow {
    parse_s: f64,
    augment_s: f64,
    improve_s: f64,
    route_s: f64,
    aug_steps: Vec<StepStats>,
    reopt_steps: Vec<StepStats>,
    fallbacks: usize,
    height_gain_pct: f64,
    util_pct: f64,
    routed_util_pct: f64,
    adjust_ratio: f64,
    overflow_edges: usize,
    /// Placement, routed area and solver counts, hashed; equal across
    /// passes of one seed when the flow is deterministic.
    digest: u64,
    /// Why the flow's output is wrong, if it is.
    defect: Option<String>,
}

impl Flow {
    fn steps(&self) -> impl Iterator<Item = &StepStats> {
        self.aug_steps.iter().chain(&self.reopt_steps)
    }

    fn nonoptimal(&self) -> usize {
        self.steps()
            .filter(|s| s.outcome != StepOutcome::Optimal)
            .count()
    }
}

/// FNV-1a, for placement digests.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One deck through the whole flow, each public call timed (and spanned
/// when `spans` is given). The solver runs serially: with more threads the
/// step answers depend on timing.
fn run_flow(deck: &Deck, tracer: &Tracer, spans: Option<&mut Spans>) -> Result<Flow, String> {
    let mut spans = spans;
    let mut timed = |layer: &'static str, start: Instant| -> f64 {
        let s = start.elapsed().as_secs_f64();
        if let Some(sp) = spans.as_deref_mut() {
            sp.push(layer, &deck.name, start, s);
        }
        s
    };
    let mut flow = Flow::default();

    let t = Instant::now();
    let netlist = format::parse(&deck.text).map_err(|e| format!("{}: parse: {e}", deck.name))?;
    flow.parse_s = timed("netlist.parse", t);

    let config = FloorplanConfig::default()
        .with_solver_threads(1)
        .with_tracer(tracer.clone());
    let t = Instant::now();
    let placed = Floorplanner::with_config(&netlist, config.clone())
        .run()
        .map_err(|e| format!("{}: augment: {e}", deck.name))?;
    flow.augment_s = timed("augment", t);
    flow.fallbacks = placed.stats.greedy_fallbacks();
    flow.aug_steps = placed.stats.steps.clone();

    let mut reopt = RunStats::default();
    let t = Instant::now();
    let improved = improve_traced(&placed.floorplan, &netlist, &config, 1, &mut reopt)
        .map_err(|e| format!("{}: improve: {e}", deck.name))?;
    flow.improve_s = timed("improve", t);
    flow.reopt_steps = reopt.steps;

    let route_config = RouteConfig {
        tracer: tracer.clone(),
        ..RouteConfig::default()
    };
    let t = Instant::now();
    let routing = route(&improved, &netlist, &route_config)
        .map_err(|e| format!("{}: route: {e}", deck.name))?;
    flow.route_s = timed("route", t);

    let h0 = placed.floorplan.chip_height();
    flow.height_gain_pct = (h0 - improved.chip_height()) / h0 * 100.0;
    let module_area = netlist.total_module_area();
    flow.util_pct = module_area / improved.chip_area() * 100.0;
    let final_area = routing.adjustment.final_area();
    flow.routed_util_pct = module_area / final_area * 100.0;
    flow.adjust_ratio = final_area / improved.chip_area();
    flow.overflow_edges = RouteReport::of(&routing).overflowed_edges;

    if !placed.floorplan.is_valid() {
        flow.defect = Some(format!(
            "augmented floorplan invalid: {:?}",
            placed.floorplan.violations()
        ));
    } else if !improved.is_valid() {
        flow.defect = Some(format!(
            "improved floorplan invalid: {:?}",
            improved.violations()
        ));
    } else if improved.len() != netlist.num_modules() {
        flow.defect = Some(format!(
            "{} of {} modules placed",
            improved.len(),
            netlist.num_modules()
        ));
    } else if flow.nonoptimal() > 0 {
        flow.defect = Some(format!("{} steps stopped on a limit", flow.nonoptimal()));
    }

    let mut words = Vec::new();
    for m in improved.iter() {
        words.extend([m.id.index() as u64, u64::from(m.rotated)]);
        words.extend([m.rect.x, m.rect.y, m.rect.w, m.rect.h].map(f64::to_bits));
    }
    words.push(final_area.to_bits());
    for s in flow.steps() {
        words.extend([s.nodes, s.simplex_iterations, s.binaries].map(|c| c as u64));
    }
    flow.digest = fnv(words);
    Ok(flow)
}

/// One pass of the deck set, with its wall time.
struct Pass {
    wall_s: f64,
    flows: Vec<Result<Flow, String>>,
}

/// One pass of the deck set; `between` runs after every flow, outside the
/// pass's wall time.
fn run_pass(
    decks: &[Deck],
    tracer: &Tracer,
    mut spans: Option<&mut Spans>,
    between: &mut impl FnMut() -> Result<(), String>,
) -> Result<Pass, String> {
    let mut wall_s = 0.0;
    let mut flows = Vec::with_capacity(decks.len());
    for d in decks {
        let t = Instant::now();
        flows.push(run_flow(d, tracer, spans.as_deref_mut()));
        wall_s += t.elapsed().as_secs_f64();
        between()?;
    }
    Ok(Pass { wall_s, flows })
}

/// Counts attempted and failed flows over `passes`. A flow fails when it
/// errs, fails a check, or differs from the first pass's flow of the same
/// deck (a non-deterministic answer).
fn tally(decks: &[Deck], passes: &[&Pass], out: &mut Outcome) {
    let reference: Vec<Option<u64>> = passes[0]
        .flows
        .iter()
        .map(|f| f.as_ref().ok().map(|f| f.digest))
        .collect();
    for pass in passes {
        for (i, flow) in pass.flows.iter().enumerate() {
            out.attempted += 1;
            let problem = match flow {
                Err(e) => Some(e.clone()),
                Ok(f) if f.defect.is_some() => f.defect.clone(),
                Ok(f) if Some(f.digest) != reference[i] => Some(format!(
                    "digest {:016x} differs from the first pass",
                    f.digest
                )),
                Ok(_) => None,
            };
            if let Some(p) = problem {
                out.failed += 1;
                eprintln!("perfbench: {}: {p}", decks[i].name);
            }
        }
    }
}

/// Runs a batch workload for `args.seconds`.
pub fn run(set: DeckSet, args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let time_setups = |setups: &mut Vec<f64>| -> Result<Vec<Deck>, String> {
        let mut decks = Vec::new();
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            decks = make_decks(set, args.seed)?;
            setups.push(t.elapsed().as_secs_f64());
        }
        Ok(decks)
    };
    make_decks(set, args.seed)?;
    let decks = time_setups(&mut setups)?;
    // Later set-ups must rebuild the same decks.
    let mut between = || -> Result<(), String> {
        let again = time_setups(&mut setups)?;
        if again.iter().map(|d| &d.text).ne(decks.iter().map(|d| &d.text)) {
            return Err("set-up is not deterministic: decks differ".to_string());
        }
        Ok(())
    };
    for d in &decks {
        println!("deck {}", d.name);
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut spans = Spans::default();
    let collector = Collector::new();
    let tracer = Tracer::new(collector.clone());
    // At least two passes, so the determinism check always has a pair.
    while plain.len() < 2 || started.elapsed() < budget {
        plain.push(run_pass(&decks, &Tracer::disabled(), None, &mut between)?);
        if args.trace {
            traced.push(run_pass(&decks, &tracer, Some(&mut spans), &mut between)?);
        }
    }

    let mut out = Outcome::default();
    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    tally(&decks, &all, &mut out);
    for (d, f) in decks.iter().zip(&plain[0].flows) {
        if let Ok(f) = f {
            println!(
                "  {:<16} util {:6.2}%  routed {:6.2}%  digest {:016x}",
                d.name, f.util_pct, f.routed_util_pct, f.digest
            );
        }
    }
    let ok_flows: Vec<&Flow> = plain[0]
        .flows
        .iter()
        .filter_map(|f| f.as_ref().ok())
        .collect();
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let flow_s = median(&walls).unwrap_or(0.0);
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "{} passes, flow_s median {flow_s:.3} [{}]",
        plain.len(),
        shown.join(" ")
    );

    let m = &mut out.metrics;
    if args.trace {
        per_layer(m, &traced, flow_s);
        m.set("obs.records", collector.len() as f64 / traced.len() as f64);
        m.set("obs.spans", spans.len() as f64);
        spans.write(args)?;
    } else {
        m.set("setup_s", fastest(&setups).unwrap_or(0.0));
        println!("setup_s fastest of {} set-ups", setups.len());
        m.set("solve_ms", flow_s * 1e3);
        m.set(
            "util_pct",
            mean(&ok_flows.iter().map(|f| f.util_pct).collect::<Vec<_>>()),
        );
        let ok = plain[0]
            .flows
            .iter()
            .filter(|f| f.as_ref().is_ok_and(|f| f.defect.is_none()));
        m.set("ok_share", share(ok.count(), decks.len()));
    }
    Ok(out)
}

/// Per-layer metrics of the traced passes: times are medians over passes
/// of per-pass sums; counts are per pass (equal across passes).
fn per_layer(m: &mut Metrics, traced: &[Pass], plain_flow_s: f64) {
    let flows_of =
        |p: &Pass| -> Vec<Flow> { p.flows.iter().filter_map(|f| f.clone().ok()).collect() };
    let time = |f: &dyn Fn(&[Flow]) -> f64| -> f64 {
        let xs: Vec<f64> = traced.iter().map(|p| f(&flows_of(p))).collect();
        median(&xs).unwrap_or(0.0)
    };
    let sum = |fl: &[Flow], f: &dyn Fn(&Flow) -> f64| -> f64 { fl.iter().map(f).sum() };
    let step_sum = |fl: &[Flow], f: &dyn Fn(&StepStats) -> f64| -> f64 {
        fl.iter().flat_map(Flow::steps).map(f).sum()
    };

    let traced_flow_s = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>()).unwrap_or(0.0);
    m.set("batch.flow_s", traced_flow_s);
    m.set(
        "obs.trace_overhead_pct",
        (traced_flow_s / plain_flow_s - 1.0) * 100.0,
    );
    m.set(
        "netlist.parse_ms",
        time(&|fl| sum(fl, &|f| f.parse_s)) * 1e3,
    );
    m.set("augment.s", time(&|fl| sum(fl, &|f| f.augment_s)));
    m.set(
        "augment.overhead_s",
        time(&|fl| {
            sum(fl, &|f| {
                f.augment_s
                    - f.aug_steps
                        .iter()
                        .map(|s| s.elapsed.as_secs_f64())
                        .sum::<f64>()
            })
        }),
    );
    let step_s = time(&|fl| step_sum(fl, &|s| s.elapsed.as_secs_f64()));
    m.set("milp.step_s", step_s);
    m.set(
        "milp.max_step_s",
        time(&|fl| {
            fl.iter()
                .flat_map(Flow::steps)
                .map(|s| s.elapsed.as_secs_f64())
                .fold(0.0, f64::max)
        }),
    );
    m.set("improve.s", time(&|fl| sum(fl, &|f| f.improve_s)));
    let reopt_s = |f: &Flow| {
        f.reopt_steps
            .iter()
            .map(|s| s.elapsed.as_secs_f64())
            .sum::<f64>()
    };
    m.set("improve.reopt_s", time(&|fl| sum(fl, &reopt_s)));
    m.set(
        "improve.topology_s",
        time(&|fl| sum(fl, &|f| f.improve_s - reopt_s(f))),
    );
    m.set("route.s", time(&|fl| sum(fl, &|f| f.route_s)));

    let Some(first) = traced.first() else { return };
    let fl = flows_of(first);
    let count =
        |f: &dyn Fn(&StepStats) -> usize| fl.iter().flat_map(Flow::steps).map(f).sum::<usize>();
    let nodes = count(&|s| s.nodes);
    m.set(
        "augment.steps",
        fl.iter().map(|f| f.aug_steps.len()).sum::<usize>() as f64,
    );
    m.set(
        "augment.fallbacks",
        fl.iter().map(|f| f.fallbacks).sum::<usize>() as f64,
    );
    m.set("milp.nodes", nodes as f64);
    m.set("milp.us_per_node", step_s * 1e6 / nodes.max(1) as f64);
    m.set(
        "milp.pivots_per_node",
        count(&|s| s.simplex_iterations) as f64 / nodes.max(1) as f64,
    );
    m.set(
        "milp.warm_share",
        share(
            count(&|s| s.warm_nodes),
            count(&|s| s.warm_nodes + s.cold_nodes),
        ),
    );
    m.set("milp.refactors", count(&|s| s.refactorizations) as f64);
    m.set("milp.etas", count(&|s| s.eta_updates) as f64);
    m.set("milp.rows_tightened", count(&|s| s.rows_tightened) as f64);
    m.set("milp.binaries_fixed", count(&|s| s.binaries_fixed) as f64);
    m.set("milp.cuts_added", count(&|s| s.cuts_added) as f64);
    m.set(
        "milp.max_binaries",
        fl.iter()
            .flat_map(Flow::steps)
            .map(|s| s.binaries)
            .max()
            .unwrap_or(0) as f64,
    );
    m.set(
        "milp.nonoptimal_steps",
        fl.iter().map(Flow::nonoptimal).sum::<usize>() as f64,
    );
    m.set(
        "improve.height_gain_pct",
        mean(&fl.iter().map(|f| f.height_gain_pct).collect::<Vec<_>>()),
    );
    m.set(
        "route.overflow_edges",
        fl.iter().map(|f| f.overflow_edges).sum::<usize>() as f64,
    );
    m.set(
        "route.adjust_ratio",
        mean(&fl.iter().map(|f| f.adjust_ratio).collect::<Vec<_>>()),
    );
    m.set(
        "route.routed_util_pct",
        mean(&fl.iter().map(|f| f.routed_util_pct).collect::<Vec<_>>()),
    );
}
