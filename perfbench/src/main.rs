//! `perfbench` — the repository benchmark: end-to-end metrics on four
//! workloads, plus a traced mode that breaks each run down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch-text --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end set ([`END_TO_END`]), measured untraced; with
//! `--trace 1` they are the per-layer set ([`PER_LAYER`]). See
//! `perfbench/README.md` for what each workload and metric means.

mod batch;
mod calib;
mod rng;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// End-to-end metrics, with units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput", "1/s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cold_p50_us", "us"),
    ("ingest_p50_us", "us"),
];

/// Per-layer metrics of the traced mode, with units, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.extract_self_ms", "ms"),
    ("datasets.extract_calls", "count"),
    ("text.tokens", "count"),
    ("text.stem_cache_hit_ratio", "ratio"),
    ("ontology.index_build_ms", "ms"),
    ("ontology.index_entries", "count"),
    ("ontology.query_self_ms", "ms"),
    ("ontology.query_calls", "count"),
    ("core.plan_self_ms", "ms"),
    ("core.shard_self_ms", "ms"),
    ("core.assemble_self_ms", "ms"),
    ("core.edges", "count"),
    ("core.candidates", "count"),
    ("core.greedy_self_ms", "ms"),
    ("core.lazy_self_ms", "ms"),
    ("core.gain_evals", "count"),
    ("solver.ilp_self_ms", "ms"),
    ("solver.rr_self_ms", "ms"),
    ("solver.pivots", "count"),
    ("solver.bb_nodes", "count"),
    ("solver.bb_pruned_ratio", "ratio"),
    ("runtime.worker_busy_ratio", "ratio"),
    ("runtime.update_p50_us", "us"),
    ("runtime.build_p50_us", "us"),
    ("artifact.encode_ms", "ms"),
    ("artifact.open_ms", "ms"),
    ("artifact.block_decode_p50_us", "us"),
    ("json.parse_p50_us", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.miss_p50_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.remainder_p50_us", "us"),
    ("serve.generator_lag_p99_us", "us"),
    ("serve.rejected", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// How many times a batch workload's run repeats its set-up; `setup_s`
/// is the median. (`serve-mixed` boots once per segment; see `serve`.)
pub const SETUPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (items summarized, requests sent).
    pub attempted: u64,
    /// Operations that failed (failed items, non-2xx or broken requests).
    pub failed: u64,
    /// Metric values by name; must hold exactly the mode's metric set.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Rescale the end-to-end figures to the reference host speed (see
    /// `calib`): times divide by `slowdown`, the throughput multiplies.
    /// The raw figures go to stderr.
    pub fn normalize(&mut self, slowdown: f64) {
        eprintln!(
            "perfbench: host slowdown {slowdown:.4}; raw metrics {:?}",
            self.metrics
        );
        for (name, v) in self.metrics.iter_mut() {
            match *name {
                "throughput" => *v *= slowdown,
                "peak_rss_mb" => {}
                _ => *v /= slowdown,
            }
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing --{name}"));
    let workload = get("workload")?.to_owned();
    let seed = get("seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
    })
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Microseconds since `t`.
pub fn micros(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn render_json(outcome: &Outcome, table: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let v = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("workload did not report '{name}'"))?;
        if !v.is_finite() {
            return Err(format!("metric '{name}' is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some(extra) = outcome
        .metrics
        .keys()
        .find(|k| !table.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("workload reported unknown metric '{extra}'"));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload batch-text|pairs-snomed|pairs-exact|serve-mixed \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "batch-text" => batch::run(batch::Kind::Text, &args),
        "pairs-snomed" => batch::run(batch::Kind::Snomed, &args),
        "pairs-exact" => batch::run(batch::Kind::Exact, &args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    match render_json(&outcome, table) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
