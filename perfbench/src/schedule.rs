//! The seeded open-loop arrival schedule of `serve-mix`.

use crate::SplitMix;

/// Share of jobs that are fresh instances (cache writes and solves).
pub const FRESH_SHARE: f64 = 0.4;
/// Share of jobs that repeat a hot-set instance (cache reads, coalescing).
pub const REPEAT_SHARE: f64 = 0.4;
// The remaining 20% are single-module ECO deltas against a hot-set base.

/// What a scheduled job asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Fresh-pool design `design` under names no earlier job used.
    Fresh { design: usize },
    /// Hot-set instance `hot` again.
    Repeat { hot: usize },
    /// A one-module edit of hot-set base `hot`: module `module` resized to
    /// `w × h`.
    Eco {
        hot: usize,
        module: usize,
        w: u32,
        h: u32,
    },
}

impl Class {
    /// Short class name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Class::Fresh { .. } => "fresh",
            Class::Repeat { .. } => "repeat",
            Class::Eco { .. } => "eco",
        }
    }
}

/// One scheduled job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the job is due, in seconds from the start of the run.
    pub at: f64,
    /// What it asks for.
    pub class: Class,
}

/// `rate × seconds` arrivals over `[0, seconds)`, all drawn from `seed`.
///
/// The schedule is stratified so that seeds differ in order and timing, not
/// in how much of each kind of work they send: exactly 40% fresh, 40%
/// repeat and 20% ECO jobs in shuffled order, fresh jobs cycling through the
/// `fresh` designs, and each job due in its own slot of the window, so gaps
/// stay within 0.5–1.5× the mean gap. (Poisson arrivals and free class
/// draws swing the fresh-job median by about ±20% between seeds.) `hot` is
/// the hot-set size and `modules` the module count of every design.
pub fn open_loop(
    seed: u64,
    rate: f64,
    seconds: f64,
    (fresh, hot): (usize, usize),
    modules: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix::new(seed ^ 0x5e7e_0001);
    let n = (rate * seconds).round() as usize;
    let n_fresh = (n as f64 * FRESH_SHARE).round() as usize;
    let n_repeat = (n as f64 * REPEAT_SHARE).round() as usize;
    let mut kinds: Vec<u8> = (0..n)
        .map(|i| u8::from(i >= n_fresh) + u8::from(i >= n_fresh + n_repeat))
        .collect();
    shuffle(&mut kinds, &mut rng);
    let mut designs: Vec<usize> = (0..n_fresh).map(|i| i % fresh).collect();
    shuffle(&mut designs, &mut rng);

    // Each job sits in its own slot of the window, jittered by up to a
    // quarter gap either way.
    let gap = seconds / n as f64;
    let mut out = Vec::with_capacity(n);
    for (i, kind) in kinds.into_iter().enumerate() {
        let at = (i as f64 + 0.5 + (rng.unit() - 0.5) / 2.0) * gap;
        let class = match kind {
            0 => Class::Fresh {
                design: designs.pop().expect("one design per fresh job"),
            },
            1 => Class::Repeat {
                hot: rng.range(0, hot as u64 - 1) as usize,
            },
            _ => Class::Eco {
                hot: rng.range(0, hot as u64 - 1) as usize,
                module: rng.range(0, modules as u64 - 1) as usize,
                w: rng.range(2, 9) as u32,
                h: rng.range(2, 9) as u32,
            },
        };
        out.push(Arrival { at, class });
    }
    out
}

fn shuffle<T>(xs: &mut [T], rng: &mut SplitMix) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.range(0, i as u64) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        assert_eq!(
            open_loop(3, 6.0, 20.0, (8, 3), 16),
            open_loop(3, 6.0, 20.0, (8, 3), 16)
        );
        assert_ne!(
            open_loop(3, 6.0, 20.0, (8, 3), 16),
            open_loop(4, 6.0, 20.0, (8, 3), 16)
        );
    }

    #[test]
    fn arrivals_are_ordered_inside_the_window() {
        let s = open_loop(11, 6.0, 20.0, (8, 3), 16);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(s.iter().all(|a| (0.0..20.0).contains(&a.at)));
    }

    #[test]
    fn rate_and_mix_match_the_targets() {
        let s = open_loop(5, 6.0, 20.0, (8, 3), 16);
        assert_eq!(s.len(), 120);
        let count = |name| s.iter().filter(|a| a.class.name() == name).count();
        assert_eq!(
            (count("fresh"), count("repeat"), count("eco")),
            (48, 48, 24)
        );
        // Fresh jobs spread evenly over the designs.
        for d in 0..8 {
            let uses = s
                .iter()
                .filter(|a| a.class == Class::Fresh { design: d })
                .count();
            assert_eq!(uses, 6);
        }
        // Gaps stay within 0.5-1.5x the mean, so the rate holds locally.
        assert!(s
            .windows(2)
            .all(|w| (w[1].at - w[0].at) <= 1.5 / 6.0 + 1e-9));
        assert!(s
            .windows(2)
            .all(|w| (w[1].at - w[0].at) >= 0.5 / 6.0 - 1e-9));
        for a in &s {
            match a.class {
                Class::Repeat { hot } => assert!(hot < 3),
                Class::Eco { hot, module, w, h } => {
                    assert!(hot < 3 && module < 16);
                    assert!((2..=9).contains(&w) && (2..=9).contains(&h));
                }
                Class::Fresh { design } => assert!(design < 8),
            }
        }
    }
}
