//! The service workloads: a TCP client against an in-process
//! `fp_serve::Server`.

use crate::report::Outcome;
use crate::schedule::{self, Arrival, Class};
use crate::spans::Spans;
use crate::stats::{fastest, mean, median, share, tail};
use crate::text::prefix_names;
use crate::{Args, SplitMix};
use fp_netlist::{decks, format, generator::ProblemGenerator, Netlist};
use fp_obs::{Collector, Event, EventKind, Tracer};
use fp_serve::fingerprint::{fingerprint, FingerprintParams};
use fp_serve::{Backend, JobRequest, JobResponse, ServeConfig, Server};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Modules per `serve-mix` design.
const MIX_MODULES: usize = 16;
/// Generator seeds of the `serve-mix` fresh-job designs. Every fresh job
/// sends one of them under names no earlier job used, so the cache misses
/// while the solve work stays a fixed mix: content-seeded instances swing
/// the fresh-job median 3x between workload seeds (see `README.md`).
const FRESH_DESIGNS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Generator seeds of the hot set: the designs repeats and ECO deltas use.
const HOT_DESIGNS: [u64; 3] = [101, 102, 103];
/// Offered load of `serve-mix`, jobs/s: low enough that the workers stay
/// short of saturation when a shared host runs 1.5x slower.
const MIX_RATE: f64 = 4.0;
/// A `serve-mix` answer counts toward goodput only within this latency.
const GOODPUT_LIMIT_MS: f64 = 1000.0;
/// Deadlines of `deadline-race` jobs, alternating: under 250 ms the
/// portfolio takes the first legal answer (any-of-N), above it the best of
/// all legs (best-of-N).
const RACE_DEADLINES_MS: [u64; 2] = [100, 400];
/// Set-ups per run of `serve-mix` and of `deadline-race`, timed before the
/// measured part and again after it; `setup_s` is the fastest of both
/// halves, as in the batch workloads.
/// One untimed set-up comes first, as warm-up: the first set-up in a
/// process pays for fresh heap pages and is up to twice as slow. A
/// `serve-mix` set-up solves the hot bases (~0.5 s).
const SETUP_REPS: (usize, usize) = (3, 10);
/// How long to wait for answers after the last send.
const DRAIN: Duration = Duration::from_secs(30);

/// One line-protocol connection to the server.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    partial: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        // One small line each way per job: Nagle would dominate latency.
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            stream,
            reader,
            partial: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// The next response line, or `None` when none arrives within `wait`.
    fn recv(&mut self, wait: Duration) -> Result<Option<String>, String> {
        let wait = wait.max(Duration::from_millis(1));
        self.reader
            .get_ref()
            .set_read_timeout(Some(wait))
            .map_err(|e| e.to_string())?;
        // `read_until` keeps the bytes of a line cut short by the timeout
        // in `partial`, so the next call completes it.
        match self.reader.read_until(b'\n', &mut self.partial) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) if self.partial.ends_with(b"\n") => {
                let line = String::from_utf8_lossy(&self.partial)
                    .trim_end()
                    .to_string();
                self.partial.clear();
                Ok(Some(line))
            }
            Ok(_) => Ok(None),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Sends one request line and waits for its answer.
    fn call(&mut self, line: &str) -> Result<JobResponse, String> {
        self.send(line)?;
        let answer = self.recv(DRAIN)?.ok_or("no answer within the drain time")?;
        JobResponse::decode(&answer)
    }
}

/// A job prepared before the run: its wire line and what a correct answer
/// looks like.
struct Job {
    class: &'static str,
    line: String,
    modules: usize,
    fingerprint: u64,
}

impl Job {
    fn new(class: &'static str, req: &JobRequest, answer: &Netlist) -> Job {
        let params = FingerprintParams {
            width: req.width,
            lambda: req.lambda,
            rotation: req.rotation,
            route: req.route,
        };
        Job {
            class,
            line: req.encode(),
            modules: answer.num_modules(),
            fingerprint: fingerprint(answer, &params),
        }
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
pub struct Seen {
    /// Latency from the job's due time to its answer; `None` when no
    /// answer arrived.
    pub latency_ms: Option<f64>,
    /// Answered `ok` and passed every correctness check.
    pub correct: bool,
    /// Refused at admission.
    pub shed: bool,
    /// Answered with the greedy degradation.
    pub degraded: bool,
    /// The job's own deadline (0 = none).
    pub deadline_ms: u64,
}

/// Share of sent jobs answered correctly, not degraded and within
/// `limit_ms`. Shed, failed and unanswered jobs count as misses.
pub fn goodput(seen: &[Seen], limit_ms: f64) -> f64 {
    let good = seen
        .iter()
        .filter(|s| {
            s.correct && !s.shed && !s.degraded && s.latency_ms.is_some_and(|l| l <= limit_ms)
        })
        .count();
    share(good, seen.len())
}

/// Share of sent jobs answered correctly within their own deadline, as the
/// client measured it. Shed, failed and unanswered jobs count as misses.
pub fn deadline_hits(seen: &[Seen]) -> f64 {
    let hit = seen
        .iter()
        .filter(|s| s.correct && !s.shed && s.latency_ms.is_some_and(|l| l <= s.deadline_ms as f64))
        .count();
    share(hit, seen.len())
}

/// Why `resp` is not a correct answer to `job`, if it is not.
fn check(job: &Job, resp: &JobResponse) -> Option<String> {
    if !resp.ok {
        return Some(format!("not ok: {}", resp.error));
    }
    let rects = match resp.placement_entries() {
        Ok(r) => r,
        Err(e) => return Some(format!("placement does not parse: {e}")),
    };
    if rects.len() != job.modules {
        return Some(format!("{} of {} modules placed", rects.len(), job.modules));
    }
    for (i, a) in rects.iter().enumerate() {
        for b in &rects[i + 1..] {
            let ox = (a.x + a.w).min(b.x + b.w) - a.x.max(b.x);
            let oy = (a.y + a.h).min(b.y + b.h) - a.y.max(b.y);
            if ox > 1e-6 && oy > 1e-6 {
                return Some(format!("{} overlaps {}", a.name, b.name));
            }
        }
    }
    if resp.fingerprint != job.fingerprint {
        return Some(format!(
            "fingerprint {:016x}, expected {:016x}",
            resp.fingerprint, job.fingerprint
        ));
    }
    None
}

/// A job's answer as received.
struct Received {
    resp: JobResponse,
    at: Instant,
    sent: Instant,
}

/// Sends `jobs` (index, due offset in seconds) over one connection at their
/// due times from `start`, reading answers in between; then drains.
fn drive(
    addr: SocketAddr,
    jobs: &[(usize, f64, &str)],
    start: Instant,
) -> Result<Vec<(usize, Received)>, String> {
    let mut conn = Conn::open(addr)?;
    let mut sent: Vec<Instant> = Vec::with_capacity(jobs.len());
    let mut got: Vec<(JobResponse, Instant)> = Vec::with_capacity(jobs.len());
    let mut next = 0;
    let mut drain_until = None;
    while got.len() < jobs.len() {
        let now = Instant::now();
        if let Some((_, at, line)) = jobs.get(next) {
            let due = start + Duration::from_secs_f64(*at);
            if now >= due {
                conn.send(line)?;
                sent.push(Instant::now());
                next += 1;
                continue;
            }
            if let Some(l) = conn.recv(due - now)? {
                got.push((JobResponse::decode(&l)?, Instant::now()));
            }
        } else {
            let until = *drain_until.get_or_insert(now + DRAIN);
            if now >= until {
                break;
            }
            if let Some(l) = conn.recv(until - now)? {
                got.push((JobResponse::decode(&l)?, Instant::now()));
            }
        }
    }
    // Request ids are the jobs' global indices.
    Ok(got
        .into_iter()
        .filter_map(|(resp, at)| {
            let k = jobs.iter().position(|j| j.0 as u64 == resp.id)?;
            let sent = *sent.get(k)?;
            Some((jobs[k].0, Received { resp, at, sent }))
        })
        .collect())
}

/// Binds a server on a free local port.
fn start_server(config: ServeConfig) -> Result<Server, String> {
    Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))
}

/// The `serve-mix` inputs: hot-set bases (solved into the server's cache)
/// and the scheduled jobs.
struct MixSetup {
    server: Server,
    schedule: Vec<Arrival>,
    jobs: Vec<Job>,
}

/// Generator design `seed` with every module name prefixed by `prefix`.
fn design(seed: u64, prefix: &str) -> Result<Netlist, String> {
    let nl = ProblemGenerator::new(MIX_MODULES, seed).generate();
    format::parse(&prefix_names(&format::write(&nl), prefix)).map_err(|e| e.to_string())
}

fn mix_setup(args: &Args, tracer: &Tracer) -> Result<MixSetup, String> {
    let server = start_server(ServeConfig::default().with_tracer(tracer.clone()))?;
    let tag = format!("r{:x}_", SplitMix::new(args.seed).next_u64() & 0xffff);
    let hot = HOT_DESIGNS
        .iter()
        .map(|&s| design(s, &tag))
        .collect::<Result<Vec<_>, _>>()?;
    // Solving the bases puts them in the cache, where repeats read them and
    // ECO deltas find their base placements.
    let mut conn = Conn::open(server.local_addr())?;
    let mut base_keys = Vec::with_capacity(hot.len());
    for (i, nl) in hot.iter().enumerate() {
        let job = Job::new("base", &JobRequest::new(u64::MAX - i as u64, nl), nl);
        let resp = conn.call(&job.line)?;
        if let Some(p) = check(&job, &resp) {
            return Err(format!("hot base {i}: {p}"));
        }
        base_keys.push(resp.fingerprint);
    }
    let schedule = schedule::open_loop(
        args.seed,
        MIX_RATE,
        args.seconds,
        (FRESH_DESIGNS.len(), hot.len()),
        MIX_MODULES,
    );
    let mut jobs = Vec::with_capacity(schedule.len());
    for (id, a) in schedule.iter().enumerate() {
        let class = a.class.name();
        let req_id = id as u64;
        let job = match a.class {
            Class::Fresh { design: d } => {
                let nl = design(FRESH_DESIGNS[d], &format!("f{id}_{tag}"))?;
                Job::new(class, &JobRequest::new(req_id, &nl), &nl)
            }
            Class::Repeat { hot: k } => Job::new(class, &JobRequest::new(req_id, &hot[k]), &hot[k]),
            Class::Eco {
                hot: k,
                module,
                w,
                h,
            } => {
                let script = format!("mod! {tag}m{module:02} rigid {w} {h} rot");
                let ops = fp_serve::parse_delta_ops(&script)?;
                let edited = fp_serve::apply_delta(&hot[k], &ops)?.netlist;
                let req = JobRequest::new(req_id, &hot[k])
                    .with_eco(script)
                    .with_eco_base(base_keys[k]);
                Job::new(class, &req, &edited)
            }
        };
        jobs.push(job);
    }
    Ok(MixSetup {
        server,
        schedule,
        jobs,
    })
}

/// Repeats a set-up `reps` times, adding each set-up time to `times`, and
/// returns the last set-up.
fn timed_setup<T>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, String>,
    discard: &mut impl FnMut(T),
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..reps {
        let t = Instant::now();
        let s = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(s) {
            discard(old);
        }
    }
    kept.ok_or_else(|| "no set-up ran".to_string())
}

/// Runs `serve-mix`: the open-loop schedule over two connections.
pub fn run_mix(args: &Args) -> Result<Outcome, String> {
    let collector = Collector::new();
    let tracer = if args.trace {
        Tracer::new(collector.clone())
    } else {
        Tracer::disabled()
    };
    let mut setup_times = Vec::new();
    let mut discard = |old: MixSetup| {
        old.server.shutdown();
    };
    discard(mix_setup(args, &tracer)?);
    let setup = timed_setup(
        SETUP_REPS.0,
        &mut setup_times,
        || mix_setup(args, &tracer),
        &mut discard,
    )?;
    collector.clear();
    let MixSetup {
        server,
        schedule,
        jobs,
    } = setup;
    let (hits0, misses0) = server.cache_stats();
    let (warm0, cold0) = server.solver_stats();

    let mut spans = Spans::default();
    let addr = server.local_addr();
    let halves: [Vec<(usize, f64, &str)>; 2] = [0, 1].map(|t| {
        schedule
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == t)
            .map(|(i, a)| (i, a.at, jobs[i].line.as_str()))
            .collect()
    });
    let start = Instant::now() + Duration::from_millis(20);
    let received = std::thread::scope(|s| {
        let handles = halves
            .iter()
            .map(|h| s.spawn(move || drive(addr, h, start)))
            .collect::<Vec<_>>();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let (hits, misses) = server.cache_stats();
    let (warm, cold) = server.solver_stats();
    let report = server.shutdown();
    if !args.trace {
        let last = timed_setup(
            SETUP_REPS.0,
            &mut setup_times,
            || mix_setup(args, &tracer),
            &mut discard,
        )?;
        discard(last);
    }
    println!(
        "server: accepted {} completed {} shed {} malformed {}",
        report.accounting.accepted,
        report.accounting.completed,
        report.accounting.shed,
        report.accounting.malformed
    );

    let mut seen = vec![Seen::default(); jobs.len()];
    let mut resps: Vec<Option<Received>> = (0..jobs.len()).map(|_| None).collect();
    let mut out = Outcome {
        attempted: jobs.len() as u64,
        ..Outcome::default()
    };
    for (i, r) in received.into_iter().flatten() {
        let due = start + Duration::from_secs_f64(schedule[i].at);
        let s = &mut seen[i];
        s.latency_ms = Some(r.at.saturating_duration_since(due).as_secs_f64() * 1e3);
        s.shed = r.resp.is_shed();
        s.degraded = r.resp.degraded;
        match check(&jobs[i], &r.resp) {
            None => s.correct = true,
            Some(p) => eprintln!("perfbench: job {i} ({}): {p}", jobs[i].class),
        }
        if args.trace {
            spans.push(
                jobs[i].class,
                &i.to_string(),
                due,
                s.latency_ms.unwrap_or(0.0) / 1e3,
            );
        }
        resps[i] = Some(r);
    }
    out.failed = seen.iter().filter(|s| !s.correct).count() as u64;

    let class_ms = |class: &str| -> Vec<f64> {
        jobs.iter()
            .zip(&seen)
            .filter(|(j, s)| j.class == class && s.correct)
            .filter_map(|(_, s)| s.latency_ms)
            .collect()
    };
    let all_ms: Vec<f64> = seen
        .iter()
        .filter(|s| s.correct)
        .filter_map(|s| s.latency_ms)
        .collect();
    let answered: Vec<&JobResponse> = resps.iter().flatten().map(|r| &r.resp).collect();
    let util = mean(
        &answered
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.utilization * 100.0)
            .collect::<Vec<_>>(),
    );
    let fresh_p50 = median(&class_ms("fresh")).unwrap_or(0.0);
    let (tail_p, tail_ms) = tail(&all_ms).unwrap_or((50.0, median(&all_ms).unwrap_or(0.0)));
    let good = goodput(&seen, GOODPUT_LIMIT_MS);
    for class in ["fresh", "repeat", "eco"] {
        let ms = class_ms(class);
        println!(
            "  {class:<7} n {:>4}  p50 {:>9.2} ms",
            ms.len(),
            median(&ms).unwrap_or(0.0)
        );
    }
    println!(
        "  all     n {:>4}  p{tail_p:.0} {tail_ms:.2} ms  goodput {good:.4}",
        all_ms.len()
    );

    let m = &mut out.metrics;
    if !args.trace {
        m.set("setup_s", fastest(&setup_times).unwrap_or(0.0));
        m.set("solve_ms", fresh_p50);
        m.set("util_pct", util);
        m.set("ok_share", good);
        return Ok(out);
    }
    m.set("serve.fresh_p50_ms", fresh_p50);
    m.set(
        "serve.repeat_p50_ms",
        median(&class_ms("repeat")).unwrap_or(0.0),
    );
    m.set("serve.eco_p50_ms", median(&class_ms("eco")).unwrap_or(0.0));
    m.set("serve.tail_ms", tail_ms);
    m.set("serve.goodput_share", good);
    let front: Vec<f64> = resps
        .iter()
        .flatten()
        .map(|r| r.at.duration_since(r.sent).as_secs_f64() * 1e3 - r.resp.micros as f64 / 1e3)
        .collect();
    m.set("serve.front_ms", median(&front).unwrap_or(0.0));
    let fresh_server: Vec<f64> = resps
        .iter()
        .zip(&jobs)
        .filter(|(_, j)| j.class == "fresh")
        .filter_map(|(r, _)| r.as_ref().map(|r| r.resp.micros as f64 / 1e3))
        .collect();
    m.set(
        "serve.fresh_server_ms",
        median(&fresh_server).unwrap_or(0.0),
    );
    m.set("serve.solver_nodes", (warm + cold - warm0 - cold0) as f64);
    let lookups = (hits + misses - hits0 - misses0) as usize;
    m.set(
        "serve.cache_hit_share",
        share((hits - hits0) as usize, lookups),
    );
    m.set(
        "serve.coalesced_share",
        share(
            answered.iter().filter(|r| r.coalesced).count(),
            answered.len(),
        ),
    );
    let eco: Vec<&JobResponse> = answered
        .iter()
        .copied()
        .filter(|r| r.eco_total > 0)
        .collect();
    let eco_hits: Vec<&&JobResponse> = eco.iter().filter(|r| r.eco_base_hit).collect();
    m.set("serve.eco_base_hit_share", share(eco_hits.len(), eco.len()));
    m.set(
        "serve.eco_replaced_mean",
        mean(
            &eco_hits
                .iter()
                .map(|r| r.eco_replaced as f64)
                .collect::<Vec<_>>(),
        ),
    );
    for (name, tier) in [
        ("serve.basis_hot", "hot"),
        ("serve.basis_warm", "warm"),
        ("serve.basis_cold", "cold"),
    ] {
        let n = collector
            .of_kind(EventKind::EcoJob)
            .iter()
            .filter(|r| matches!(r.event, Event::EcoJob { basis, .. } if basis == tier))
            .count();
        m.set(name, n as f64);
    }
    m.set("serve.shed", seen.iter().filter(|s| s.shed).count() as f64);
    m.set(
        "serve.degraded",
        seen.iter().filter(|s| s.degraded).count() as f64,
    );
    let late: Vec<f64> = resps
        .iter()
        .enumerate()
        .filter_map(|(i, r)| {
            let due = start + Duration::from_secs_f64(schedule[i].at);
            r.as_ref()
                .map(|r| r.sent.saturating_duration_since(due).as_secs_f64() * 1e3)
        })
        .collect();
    m.set("serve.gen_late_ms", mean(&late));
    m.set("obs.records", collector.len() as f64);
    m.set("obs.spans", spans.len() as f64);
    spans.write(args)?;
    Ok(out)
}

/// Jobs per second of run time that `deadline-race` prepares: more than a
/// closed loop can send when every other job waits out a 400 ms deadline.
const RACE_JOBS_PER_S: f64 = 6.0;

/// The `deadline-race` jobs: ami49-class and 33-module decks alternate in
/// pairs, and deadlines alternate within each pair, so each deck kind meets
/// both deadlines.
fn race_jobs(args: &Args) -> Vec<(Netlist, Job, u64)> {
    let mut rng = SplitMix::new(args.seed ^ 0x4ace);
    let n = (args.seconds * RACE_JOBS_PER_S).ceil() as usize + 2;
    (0..n)
        .map(|j| {
            let seed = rng.next_u64();
            let deck = if (j / 2) % 2 == 0 {
                decks::ami49_class(seed)
            } else {
                ProblemGenerator::new(33, seed).generate()
            };
            let deadline_ms = RACE_DEADLINES_MS[j % 2];
            let req = JobRequest::new(j as u64, &deck).with_deadline_ms(deadline_ms);
            let job = Job::new("race", &req, &deck);
            (deck, job, deadline_ms)
        })
        .collect()
}

/// Runs `deadline-race`: one closed-loop client against a server racing
/// the MILP ladder, the slicing annealer and the analytic placer.
pub fn run_race(args: &Args) -> Result<Outcome, String> {
    let collector = Collector::new();
    let tracer = if args.trace {
        Tracer::new(collector.clone())
    } else {
        Tracer::disabled()
    };
    let config = ServeConfig::default()
        .with_backends(vec![Backend::Milp, Backend::Annealer, Backend::Analytic])
        .with_tracer(tracer);
    let mut setup_times = Vec::new();
    let mut setup = || Ok((start_server(config.clone())?, race_jobs(args)));
    let mut discard = |(old, _): (Server, _)| {
        old.shutdown();
    };
    discard(setup()?);
    let (server, jobs) = timed_setup(SETUP_REPS.1, &mut setup_times, &mut setup, &mut discard)?;
    collector.clear();
    let mut conn = Conn::open(server.local_addr())?;
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut seen = Vec::new();
    let mut resps = Vec::new();
    let mut spans = Spans::default();
    // At least one job of each deadline class.
    for (j, (_, job, deadline_ms)) in jobs.iter().enumerate() {
        if j >= 2 && started.elapsed() >= budget {
            break;
        }
        let t = Instant::now();
        let resp = conn.call(&job.line)?;
        let latency = t.elapsed().as_secs_f64();
        if args.trace {
            let layer = if *deadline_ms < 250 {
                "race.any_of"
            } else {
                "race.best_of"
            };
            spans.push(layer, &j.to_string(), t, latency);
        }
        let problem = check(job, &resp);
        if let Some(p) = &problem {
            eprintln!("perfbench: race job {j}: {p}");
        }
        seen.push(Seen {
            latency_ms: Some(latency * 1e3),
            correct: problem.is_none(),
            shed: resp.is_shed(),
            degraded: resp.degraded,
            deadline_ms: *deadline_ms,
        });
        resps.push(resp);
    }
    drop(conn);
    server.shutdown();
    if !args.trace {
        let last = timed_setup(SETUP_REPS.1, &mut setup_times, &mut setup, &mut discard)?;
        discard(last);
    }

    let mut out = Outcome {
        attempted: seen.len() as u64,
        failed: seen.iter().filter(|s| !s.correct).count() as u64,
        ..Outcome::default()
    };
    let of_class = |d: u64| -> Vec<usize> {
        (0..seen.len())
            .filter(|&i| seen[i].deadline_ms == d)
            .collect()
    };
    let best_of = of_class(RACE_DEADLINES_MS[1]);
    let best_ms: Vec<f64> = best_of.iter().filter_map(|&i| seen[i].latency_ms).collect();
    let util = mean(
        &resps
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.utilization * 100.0)
            .collect::<Vec<_>>(),
    );
    let hits = deadline_hits(&seen);
    for d in RACE_DEADLINES_MS {
        let idx = of_class(d);
        let sub: Vec<Seen> = idx.iter().map(|&i| seen[i].clone()).collect();
        let ms: Vec<f64> = sub.iter().filter_map(|s| s.latency_ms).collect();
        let server_ms: Vec<f64> = idx.iter().map(|&i| resps[i].micros as f64 / 1e3).collect();
        println!(
            "  deadline {d:>4} ms: n {:>3}  hit {:.3}  client p50 {:.1} ms  server p50 {:.1} ms  degraded {}",
            idx.len(),
            deadline_hits(&sub),
            median(&ms).unwrap_or(0.0),
            median(&server_ms).unwrap_or(0.0),
            sub.iter().filter(|s| s.degraded).count()
        );
    }

    let m = &mut out.metrics;
    if !args.trace {
        m.set("setup_s", fastest(&setup_times).unwrap_or(0.0));
        m.set("solve_ms", median(&best_ms).unwrap_or(0.0));
        m.set("util_pct", util);
        m.set("ok_share", hits);
        return Ok(out);
    }
    m.set("race.deadline_hit_share", hits);
    for (name, backend) in [
        ("race.wins_milp", "milp"),
        ("race.wins_annealer", "annealer"),
        ("race.wins_analytic", "analytic"),
    ] {
        m.set(
            name,
            resps.iter().filter(|r| r.backend == backend).count() as f64,
        );
    }
    let overshoot: Vec<f64> = best_of
        .iter()
        .map(|&i| resps[i].micros as f64 / 1e3 - seen[i].deadline_ms as f64)
        .collect();
    m.set("race.overshoot_ms", median(&overshoot).unwrap_or(0.0));
    m.set(
        "serve.degraded",
        seen.iter().filter(|s| s.degraded).count() as f64,
    );
    m.set("serve.shed", seen.iter().filter(|s| s.shed).count() as f64);
    m.set("obs.records", collector.len() as f64);

    // The portfolio legs on their own, unbounded, on the first decks the
    // race ran: what each costs before any deadline cuts it short.
    let mut analytic_ms = Vec::new();
    let mut anneal_ms = Vec::new();
    for (i, (nl, _, _)) in jobs.iter().take(4).enumerate() {
        let item = format!("deck{i}");
        let t = Instant::now();
        std::hint::black_box(
            fp_analytic::place(nl, &fp_analytic::AnalyticConfig::default())
                .map_err(|e| format!("analytic place: {e}"))?,
        );
        let s = t.elapsed().as_secs_f64();
        spans.push("analytic.place", &item, t, s);
        analytic_ms.push(s * 1e3);
        let t = Instant::now();
        std::hint::black_box(
            fp_slicing::SlicingAnnealer::new(nl)
                .with_seed(i as u64)
                .run(),
        );
        let s = t.elapsed().as_secs_f64();
        spans.push("slicing.anneal", &item, t, s);
        anneal_ms.push(s * 1e3);
    }
    m.set("analytic.place_ms", median(&analytic_ms).unwrap_or(0.0));
    m.set("slicing.anneal_ms", median(&anneal_ms).unwrap_or(0.0));
    m.set("obs.spans", spans.len() as f64);
    spans.write(args)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(
        latency_ms: Option<f64>,
        correct: bool,
        shed: bool,
        degraded: bool,
        deadline_ms: u64,
    ) -> Seen {
        Seen {
            latency_ms,
            correct,
            shed,
            degraded,
            deadline_ms,
        }
    }

    #[test]
    fn goodput_counts_shed_failed_slow_and_degraded_jobs_as_misses() {
        let jobs = [
            seen(Some(100.0), true, false, false, 0),  // good
            seen(Some(1000.0), true, false, false, 0), // good, at the limit
            seen(Some(1001.0), true, false, false, 0), // too slow
            seen(Some(5.0), true, false, true, 0),     // degraded
            seen(Some(1.0), false, true, false, 0),    // shed
            seen(Some(50.0), false, false, false, 0),  // failed a check
            seen(None, false, false, false, 0),        // never answered
        ];
        assert_eq!(goodput(&jobs, 1000.0), 2.0 / 7.0);
        assert_eq!(goodput(&[], 1000.0), 0.0);
    }

    #[test]
    fn deadline_hits_count_shed_and_failed_jobs_as_misses() {
        let jobs = [
            seen(Some(90.0), true, false, false, 100),  // hit
            seen(Some(90.0), true, false, true, 100),   // degraded but on time: hit
            seen(Some(101.0), true, false, false, 100), // late
            seen(Some(10.0), false, true, false, 400),  // shed
            seen(Some(10.0), false, false, false, 400), // failed
            seen(None, false, false, false, 400),       // never answered
        ];
        assert_eq!(deadline_hits(&jobs), 2.0 / 6.0);
    }
}
