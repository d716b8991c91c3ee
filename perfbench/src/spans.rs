//! Timed spans around the benchmark's calls into each layer, kept in
//! memory during a traced run and written out when it ends.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Directory, relative to the working directory, that traced runs write
/// their spans to.
const OUT_DIR: &str = ".perfbench-out";

/// One timed call.
struct Span {
    layer: &'static str,
    item: String,
    start_us: u128,
    dur_us: f64,
}

/// Spans of one run, timed against the run's first instant.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    /// Records a call into `layer` for `item` that began at `start` and
    /// took `secs`.
    pub fn push(&mut self, layer: &'static str, item: &str, start: Instant, secs: f64) {
        self.spans.push(Span {
            layer,
            item: item.to_string(),
            start_us: start.saturating_duration_since(self.origin).as_micros(),
            dur_us: secs * 1e6,
        });
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Prints the time-by-layer table and writes every span as one JSON
    /// line to `OUT_DIR/<workload>-seed<seed>.jsonl`.
    ///
    /// # Errors
    ///
    /// Describes a failed write.
    pub fn write(&self, args: &Args) -> Result<(), String> {
        let mut by_layer: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        let mut lines = String::new();
        for s in &self.spans {
            let e = by_layer.entry(s.layer).or_default();
            e.0 += 1;
            e.1 += s.dur_us;
            let _ = writeln!(
                lines,
                "{{\"layer\": \"{}\", \"item\": \"{}\", \"start_us\": {}, \"dur_us\": {:.1}}}",
                s.layer, s.item, s.start_us, s.dur_us
            );
        }
        println!("time by layer (traced run):");
        for (layer, (n, us)) in &by_layer {
            println!("  {layer:<18} {n:>6} calls {:>12.1} ms", us / 1e3);
        }
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/{}-seed{}.jsonl", args.workload, args.seed);
        std::fs::write(&path, lines).map_err(|e| format!("{path}: {e}"))
    }
}
