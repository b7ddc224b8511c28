//! # osa-runtime — deterministic parallel batch summarization
//!
//! The paper's experiments summarize every item of a corpus (1000
//! doctors, 60 phones); this crate provides the batch engine that shards
//! that work across a [`std::thread::scope`] worker pool while keeping
//! the output **byte-identical regardless of thread count**.
//!
//! Three layers:
//!
//! * [`BatchJob`] — a generic work queue over a slice. Workers steal item
//!   indices from a shared atomic counter, reuse a per-worker
//!   [`WorkerScratch`], and write results into slots keyed by item index,
//!   so the result order (and content) never depends on scheduling.
//! * [`BatchReport`] — the aggregate: per-item results in item order plus
//!   throughput and latency statistics (items/s, p50/p95 via
//!   [`osa_eval::LatencyHistogram`]).
//! * [`summarize_corpus`] — the domain driver: a [`BatchJob`] whose
//!   per-item work is the one per-item pipeline,
//!   [`incremental::ItemArtifacts`] (extraction → coverage graph →
//!   summarization), traced per item, with per-item RNG seeds derived
//!   from `(corpus_seed, item_id)` by [`item_seed`] so randomized
//!   algorithms are also schedule-independent.
//!
//! `ItemArtifacts` is the only per-item pipeline: besides the batch it
//! backs [`summarize_one`], the serve daemon, `osars summarize --item N`
//! (which reads the graph between its [`graph`](incremental::ItemArtifacts::graph)
//! and [`try_solve`](incremental::ItemArtifacts::try_solve) stages for
//! `--explain`) and `osars evaluate`'s greedy row.
//!
//! Determinism contract: for a fixed corpus and [`BatchOptions`], the
//! `results` of the report are identical for any `jobs` value. Only the
//! timing fields differ between runs.

mod fault;
pub mod incremental;

pub use fault::{
    injected_panic, quiet_injected_panics, Fault, FaultPlan, InjectedPanic, ItemFailure,
};

use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use osa_core::{
    CoverageGraph, Granularity, GraphBuildScratch, GraphImpl, GreedySummarizer, IlpSummarizer,
    LazyGreedySummarizer, LocalSearchSummarizer, Pair, RandomizedRounding, Summarizer, Summary,
};
use osa_datasets::{Corpus, ExtractImpl, ExtractedItem, Extractor};
use osa_eval::{LatencyHistogram, Stopwatch};
use osa_ontology::{AncestorImpl, Hierarchy, NodeId};
use osa_text::ExtractScratch;

/// Upper bound on the resolved worker count: more threads than this only
/// adds scheduler pressure, and an accidental huge `--jobs` (or
/// `usize::MAX`) must not try to spawn that many OS threads.
pub const MAX_JOBS: usize = 512;

/// Resolve a `--jobs` value: `0` means "use every available core". The
/// result is always in `1..=`[`MAX_JOBS`].
///
/// This is the single place `--jobs` semantics live; CLI and bench bins
/// must route through it rather than re-deriving "0 = all cores".
pub fn effective_jobs(jobs: usize) -> usize {
    let resolved = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    };
    resolved.clamp(1, MAX_JOBS)
}

/// Pre-warm the hierarchy's cached ancestor index for `ancestor` so a
/// subsequent worker fan-out shares it instead of serializing on the
/// `OnceLock` initialization. Only the selected index is built — a
/// segmented run never materializes the dense closure.
pub fn warm_ancestor_index(h: &Hierarchy, ancestor: AncestorImpl) {
    match ancestor {
        AncestorImpl::Dense => {
            let _ = h.ancestor_index();
        }
        AncestorImpl::Segmented => {
            let _ = h.segment_index();
        }
    }
}

/// Derive a per-item RNG seed from the corpus seed and the item's stable
/// index (SplitMix64-style mix). Randomized algorithms seeded this way
/// produce the same stream for an item no matter which worker runs it or
/// in what order.
pub fn item_seed(corpus_seed: u64, item_id: u64) -> u64 {
    let mut z = corpus_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(item_id.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-worker reusable buffers. One scratch lives for a worker's whole
/// run, so allocation cost amortizes across all the items it processes.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// Distinct-pair staging buffer (output of [`compress_into`](Self::compress_into)).
    pub pair_buf: Vec<Pair>,
    /// Multiplicities matching `pair_buf`.
    pub weight_buf: Vec<u64>,
    /// Dense dedup scratch reused by the indexed coverage-graph builds.
    pub graph_build: GraphBuildScratch,
    /// Buffers and per-worker caches of the interned extraction path.
    pub extract: ExtractScratch,
    compress_map: HashMap<(NodeId, u64), usize>,
}

impl WorkerScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`osa_core::compress_pairs`] into the reused buffers: collapse
    /// duplicate pairs to `(distinct pairs, multiplicities)` without
    /// allocating new vectors per item. First-occurrence order is
    /// preserved, so the result is input-deterministic.
    pub fn compress_into(&mut self, pairs: &[Pair]) -> (&[Pair], &[u64]) {
        self.pair_buf.clear();
        self.weight_buf.clear();
        self.compress_map.clear();
        for p in pairs {
            let key = (p.concept, p.sentiment.to_bits());
            match self.compress_map.get(&key) {
                Some(&i) => self.weight_buf[i] += 1,
                None => {
                    self.compress_map.insert(key, self.pair_buf.len());
                    self.pair_buf.push(*p);
                    self.weight_buf.push(1);
                }
            }
        }
        (&self.pair_buf, &self.weight_buf)
    }
}

/// A parallel batch over a slice of work items.
///
/// ```
/// use osa_runtime::BatchJob;
/// let squares = BatchJob::new(&[1u64, 2, 3, 4]).jobs(2).run(|_, _, &x| x * x);
/// assert_eq!(squares.results, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug)]
pub struct BatchJob<'a, T> {
    items: &'a [T],
    jobs: usize,
    retries: u32,
}

impl<'a, T: Sync> BatchJob<'a, T> {
    /// A batch over `items`, single-threaded and without retries until
    /// [`jobs`](Self::jobs) and [`retries`](Self::retries) say otherwise.
    pub fn new(items: &'a [T]) -> Self {
        BatchJob {
            items,
            jobs: 1,
            retries: 0,
        }
    }

    /// Set the worker count (`0` = all available cores). The pool never
    /// exceeds the number of items.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Set the retry budget per item: a panicking item runs again, with a
    /// fresh scratch, up to `retries` more times (default 0).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Run `work` over every item and collect a [`BatchReport`].
    ///
    /// `work` receives the worker's scratch, the item's index and the
    /// item itself. Results land in item order: a pre-sized
    /// `Vec<Option<_>>` is indexed by item, so scheduling cannot permute
    /// the output.
    ///
    /// Panic contract: every `work` call executes under
    /// [`std::panic::catch_unwind`], so one poisoned item never tears
    /// down the caller (or, in a daemon, the process). A panicking
    /// attempt replaces the worker's scratch and, within the
    /// [`retries`](Self::retries) budget, runs the item again; an item
    /// whose every attempt panics is dropped from
    /// `results`/`per_item_micros` and surfaced as an [`ItemFailure`] in
    /// [`BatchReport::failed`]. Items that succeed after a panic count in
    /// [`BatchReport::retried`]. Like `results`, `failed` and `retried`
    /// are jobs-invariant: an item's attempts depend only on `work`.
    pub fn run<R, F>(&self, work: F) -> BatchReport<R>
    where
        R: Send,
        F: Fn(&mut WorkerScratch, usize, &T) -> R + Sync,
    {
        let jobs = effective_jobs(self.jobs).min(self.items.len()).max(1);
        let wall = Stopwatch::start();
        // An item's result and latency, or its last panic message; both
        // with the attempts it took.
        type Slot<R> = (Result<(R, f64), String>, u32);
        let run_one = |scratch: &mut WorkerScratch, i: usize, item: &T| -> Slot<R> {
            let mut attempt = 0u32;
            let (caught, us) = Stopwatch::time(|| loop {
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| work(scratch, i, item)));
                attempt += 1;
                match caught {
                    Ok(r) => break Ok(r),
                    Err(payload) => {
                        // The panic may have left the scratch caches
                        // mid-update; they are only performance state, so
                        // replace rather than trying to repair.
                        *scratch = WorkerScratch::new();
                        if attempt > self.retries {
                            break Err(panic_message(payload.as_ref()));
                        }
                    }
                }
            });
            (caught.map(|r| (r, us)), attempt)
        };
        let mut slots: Vec<Option<Slot<R>>> = (0..self.items.len()).map(|_| None).collect();
        let obs = osa_obs::global();
        obs.set_gauge("runtime.jobs", jobs as i64);
        // Message of a panic that escaped the per-item isolation and
        // killed a worker thread outright (should be impossible — the
        // loop body is fully wrapped — but a daemon must not trust
        // "should").
        let mut worker_panic: Option<String> = None;

        if jobs == 1 {
            // Inline path: no thread spawn cost for sequential runs.
            let mut scratch = WorkerScratch::new();
            let mut completed = 0usize;
            for (i, item) in self.items.iter().enumerate() {
                let slot = run_one(&mut scratch, i, item);
                completed += slot.0.is_ok() as usize;
                slots[i] = Some(slot);
            }
            record_worker_stats(completed);
        } else {
            let steal_timing = obs.enabled();
            let next = AtomicUsize::new(0);
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..jobs)
                    .map(|_| {
                        s.spawn(|| {
                            let mut scratch = WorkerScratch::new();
                            let mut done: Vec<(usize, Slot<R>)> = Vec::new();
                            // Queue-acquisition latencies, merged into the
                            // registry once at worker exit.
                            let mut steals = osa_obs::RawHistogram::new();
                            loop {
                                let steal_start = steal_timing.then(std::time::Instant::now);
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let in_range = i < self.items.len();
                                if let Some(t) = steal_start {
                                    if in_range {
                                        steals.record_duration(t.elapsed());
                                    }
                                }
                                let Some(item) = self.items.get(i) else {
                                    break;
                                };
                                done.push((i, run_one(&mut scratch, i, item)));
                            }
                            record_worker_stats(done.iter().filter(|(_, s)| s.0.is_ok()).count());
                            if steal_timing {
                                osa_obs::global()
                                    .histogram("runtime.steal.us")
                                    .merge(&steals);
                            }
                            done
                        })
                    })
                    .collect();
                for h in handles {
                    // A worker panic must not abort the whole batch: keep
                    // joining the remaining workers and convert whatever
                    // items this one had claimed into failures below.
                    match h.join() {
                        Ok(done) => {
                            for (i, slot) in done {
                                slots[i] = Some(slot);
                            }
                        }
                        Err(payload) => {
                            worker_panic = Some(panic_message(payload.as_ref()));
                        }
                    }
                }
            });
        }

        let mut results = Vec::with_capacity(slots.len());
        let mut per_item_micros = Vec::with_capacity(slots.len());
        let mut latency = LatencyHistogram::new();
        let mut failed = Vec::new();
        let mut retried = 0u64;
        let mut attempts_total = 0u64;
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Some((Ok((r, us)), attempts)) => {
                    attempts_total += u64::from(attempts);
                    retried += u64::from(attempts > 1);
                    latency.record(us);
                    per_item_micros.push(us);
                    results.push(r);
                }
                Some((Err(message), attempts)) => {
                    attempts_total += u64::from(attempts);
                    failed.push(ItemFailure {
                        item: i,
                        attempts,
                        message,
                    });
                }
                // Claimed by a worker that died before reporting — the
                // worker-level panic message (if any) is the best
                // attribution available.
                None => failed.push(ItemFailure {
                    item: i,
                    attempts: 1,
                    message: worker_panic
                        .clone()
                        .unwrap_or_else(|| "worker thread died before reporting".to_owned()),
                }),
            }
        }
        obs.add("runtime.items.attempts", attempts_total);
        if !failed.is_empty() {
            obs.add("runtime.items.failed", failed.len() as u64);
        }
        if retried > 0 {
            obs.add("runtime.items.retried", retried);
        }
        BatchReport {
            results,
            per_item_micros,
            latency,
            wall_micros: wall.micros(),
            jobs,
            stages: Vec::new(),
            traces: Vec::new(),
            failed,
            retried,
        }
    }
}

/// Best-effort text of a caught panic payload. Typed
/// [`InjectedPanic`] markers (see [`injected_panic`]) unwrap to their
/// carried message, so failure reports read the same whether a panic
/// was injected or genuine.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(p) = payload.downcast_ref::<InjectedPanic>() {
        p.0.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_owned()
    }
}

/// Publish one worker's end-of-run stats to the global registry.
/// `runtime.items.completed` totals to the batch size for any worker
/// count; the per-worker item histogram and the scratch-reuse counter
/// are schedule-dependent by nature.
fn record_worker_stats(items_done: usize) {
    let obs = osa_obs::global();
    if !obs.enabled() {
        return;
    }
    obs.add("runtime.items.completed", items_done as u64);
    obs.add(
        "runtime.scratch.reuses",
        items_done.saturating_sub(1) as u64,
    );
    obs.observe("runtime.worker.items", items_done as f64);
}

/// Wall time spent in one pipeline stage, aggregated over a batch's
/// items.
#[derive(Debug, Clone)]
pub struct StageStats {
    /// Stage name — the span name the stage records under (`extract`,
    /// `graph.build`, `solve.<algorithm>`).
    pub name: String,
    /// Per-item latencies of this stage, in microseconds.
    pub latency: LatencyHistogram,
}

impl StageStats {
    /// Aggregate per-item stage latencies under `name`.
    pub fn new(name: impl Into<String>, micros: impl IntoIterator<Item = f64>) -> Self {
        let mut latency = LatencyHistogram::new();
        for us in micros {
            latency.record(us);
        }
        StageStats {
            name: name.into(),
            latency,
        }
    }

    /// One row per stage the traces' roots have as direct children, in
    /// first-appearance order, each aggregating every tree's total for
    /// that stage ([`osa_obs::TraceTree::stage_totals`]).
    pub fn from_traces(trees: &[osa_obs::TraceTree]) -> Vec<Self> {
        let mut stages: Vec<StageStats> = Vec::new();
        for tree in trees {
            for (name, us) in tree.stage_totals() {
                let us = us as f64;
                match stages.iter_mut().find(|s| s.name == name) {
                    Some(s) => s.latency.record(us),
                    None => stages.push(StageStats::new(name, [us])),
                }
            }
        }
        stages
    }

    /// Total microseconds spent in this stage.
    pub fn total_micros(&self) -> f64 {
        self.latency.total()
    }
}

/// Results and timing of one batch run.
///
/// `results` and `per_item_micros` are in item order. Only the timing
/// fields vary between runs; the results are deterministic.
#[derive(Debug, Clone)]
pub struct BatchReport<R> {
    /// Per-item results, indexed by item.
    pub results: Vec<R>,
    /// Per-item wall latency in microseconds, indexed by item.
    pub per_item_micros: Vec<f64>,
    /// The same latencies as a percentile-queryable histogram.
    pub latency: LatencyHistogram,
    /// End-to-end wall time of the batch in microseconds.
    pub wall_micros: f64,
    /// Worker count actually used.
    pub jobs: usize,
    /// Per-stage latency breakdown (empty unless the batch driver
    /// recorded stages, as [`summarize_corpus`] does from `traces`).
    pub stages: Vec<StageStats>,
    /// One span tree per successful item, in item order (empty unless
    /// the batch driver traced its items, as [`summarize_corpus`] does).
    pub traces: Vec<osa_obs::TraceTree>,
    /// Items whose every attempt panicked (after the
    /// [`BatchJob::retries`] budget). Failed items are absent from
    /// `results`/`per_item_micros` (which stay aligned with each other).
    /// Like `results`, jobs-invariant.
    pub failed: Vec<ItemFailure>,
    /// Items that succeeded after at least one panicking attempt.
    pub retried: u64,
}

impl<R> BatchReport<R> {
    /// Number of items processed.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Was the batch empty?
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Throughput over the batch's wall time.
    pub fn items_per_sec(&self) -> f64 {
        if self.wall_micros <= 0.0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.wall_micros / 1e6)
    }

    /// One-line human-readable stats block (for stderr — the numbers are
    /// not deterministic, unlike the results).
    pub fn render_stats(&self) -> String {
        let p50 = self.latency.p50().unwrap_or(0.0);
        let p95 = self.latency.p95().unwrap_or(0.0);
        format!(
            "{} items in {:.1}ms on {} worker{}: {:.1} items/s, per-item p50 {:.0}µs p95 {:.0}µs",
            self.len(),
            self.wall_micros / 1e3,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.items_per_sec(),
            p50,
            p95,
        )
    }

    /// Aligned per-stage breakdown table (empty string when no stages
    /// were recorded). Shares are of summed stage time, not wall time:
    /// with multiple workers the stages overlap.
    pub fn render_stage_table(&self) -> String {
        if self.stages.is_empty() {
            return String::new();
        }
        let grand: f64 = self.stages.iter().map(StageStats::total_micros).sum();
        let mut out = format!(
            "{:<24} {:>12} {:>10} {:>10} {:>10} {:>7}\n",
            "stage", "total ms", "mean µs", "p50 µs", "p95 µs", "share"
        );
        for s in &self.stages {
            let total = s.total_micros();
            let count = s.latency.count().max(1) as f64;
            out.push_str(&format!(
                "{:<24} {:>12.2} {:>10.1} {:>10.1} {:>10.1} {:>6.1}%\n",
                s.name,
                total / 1e3,
                total / count,
                s.latency.p50().unwrap_or(0.0),
                s.latency.p95().unwrap_or(0.0),
                if grand > 0.0 {
                    100.0 * total / grand
                } else {
                    0.0
                },
            ));
        }
        // Failure accounting rides along with the stage breakdown: both
        // fields are zero unless fault isolation saw panics.
        out.push_str(&format!(
            "{:<24} {:>12} {:>10}\n",
            "faults",
            format!("failed {}", self.failed.len()),
            format!("retried {}", self.retried),
        ));
        out
    }
}

impl BatchReport<ItemSummary> {
    /// The canonical stdout rendering of one batch of summaries — the
    /// deterministic payload `osars summarize --item all` prints and the
    /// differential harness byte-compares across implementations and
    /// worker counts. One block per item, in item order; under fault
    /// injection, failed items are simply absent (their indices live in
    /// [`failed`](BatchReport::failed)).
    pub fn render_items(&self) -> String {
        let mut out = String::new();
        for item in &self.results {
            out.push_str(&render_item_summary(item));
        }
        out
    }
}

/// Render one [`ItemSummary`] exactly as the batch CLI prints it.
pub fn render_item_summary(item: &ItemSummary) -> String {
    let mut out = format!(
        "item {} ({}): cost {} (root-only {}), {} of {} candidates, {} pairs\n",
        item.item,
        item.name,
        item.summary.cost,
        item.root_cost,
        item.summary.selected.len(),
        item.num_candidates,
        item.num_pairs
    );
    for line in &item.rendered {
        out.push_str(&format!("  • {line}\n"));
    }
    out
}

/// Which summarization algorithm a batch runs per item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchAlgorithm {
    /// Greedy (Algorithm 2, CELF evaluation).
    Greedy,
    /// The same greedy engine under its historical "lazy" name.
    LazyGreedy,
    /// Exact ILP via branch & bound.
    Ilp,
    /// LP relaxation + randomized rounding (Algorithm 1), seeded per
    /// item from `(corpus_seed, item_id)`.
    RandomizedRounding,
    /// Swap-based local search.
    LocalSearch,
}

impl BatchAlgorithm {
    /// Parse the CLI spelling (`greedy|lazy|ilp|rr|local-search`).
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "greedy" => BatchAlgorithm::Greedy,
            "lazy" => BatchAlgorithm::LazyGreedy,
            "ilp" => BatchAlgorithm::Ilp,
            "rr" => BatchAlgorithm::RandomizedRounding,
            "local-search" => BatchAlgorithm::LocalSearch,
            _ => return None,
        })
    }

    /// The CLI spelling of this algorithm (inverse of
    /// [`from_name`](Self::from_name)).
    pub fn name(self) -> &'static str {
        match self {
            BatchAlgorithm::Greedy => "greedy",
            BatchAlgorithm::LazyGreedy => "lazy",
            BatchAlgorithm::Ilp => "ilp",
            BatchAlgorithm::RandomizedRounding => "rr",
            BatchAlgorithm::LocalSearch => "local-search",
        }
    }

    /// The span name this algorithm's solve stage records under.
    pub fn span_name(self) -> &'static str {
        match self {
            BatchAlgorithm::Greedy => "solve.greedy",
            BatchAlgorithm::LazyGreedy => "solve.lazy",
            BatchAlgorithm::Ilp => "solve.ilp",
            BatchAlgorithm::RandomizedRounding => "solve.rr",
            BatchAlgorithm::LocalSearch => "solve.local-search",
        }
    }

    /// Is this one of the two names of the greedy engine? Both select
    /// identically and warm-start from cached initial keys.
    pub fn is_greedy(self) -> bool {
        matches!(self, BatchAlgorithm::Greedy | BatchAlgorithm::LazyGreedy)
    }

    /// Instantiate the summarizer; `seed` only matters for randomized
    /// algorithms.
    pub fn summarizer(self, seed: u64) -> Box<dyn Summarizer> {
        match self {
            BatchAlgorithm::Greedy => Box::new(GreedySummarizer),
            BatchAlgorithm::LazyGreedy => Box::new(LazyGreedySummarizer),
            BatchAlgorithm::Ilp => Box::new(IlpSummarizer),
            BatchAlgorithm::RandomizedRounding => Box::new(RandomizedRounding::with_seed(seed)),
            BatchAlgorithm::LocalSearch => Box::new(LocalSearchSummarizer::default()),
        }
    }
}

/// Options of a corpus-wide batch summarization.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker count (`0` = all cores).
    pub jobs: usize,
    /// Summary size per item.
    pub k: usize,
    /// Sentiment threshold ε.
    pub eps: f64,
    /// Candidate granularity (pairs / sentences / reviews).
    pub granularity: Granularity,
    /// The per-item algorithm.
    pub algorithm: BatchAlgorithm,
    /// Seed mixed with each item's index for randomized algorithms.
    pub corpus_seed: u64,
    /// Ancestor-index implementation the indexed builder walks (dense
    /// closure by default; segmented for SNOMED-scale hierarchies).
    /// Byte-identical output either way — the `osars check` ancestor
    /// axis enforces it.
    pub ancestor_impl: AncestorImpl,
    /// Deterministic fault injection: `Some` wraps every item's work in
    /// its planned [`Fault`] (see [`Fault::apply`]). The batch runs the
    /// same code either way; `None` (the default) injects nothing.
    pub fault_plan: Option<FaultPlan>,
    /// Retry budget per item under a `fault_plan` (attempts beyond the
    /// first, see [`BatchJob::retries`]). A batch without a plan never
    /// retries: a genuine panic in the pipeline is deterministic, so it
    /// fails after one attempt.
    pub retries: u32,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 1,
            k: 5,
            eps: 0.5,
            granularity: Granularity::Sentences,
            algorithm: BatchAlgorithm::Greedy,
            corpus_seed: 42,
            ancestor_impl: AncestorImpl::Dense,
            fault_plan: None,
            retries: 1,
        }
    }
}

/// One item's batch result.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemSummary {
    /// Item index in the corpus.
    pub item: usize,
    /// Item display name.
    pub name: String,
    /// The selected summary.
    pub summary: Summary,
    /// Extracted pair count (before any compression).
    pub num_pairs: usize,
    /// Candidate count of the item's coverage graph.
    pub num_candidates: usize,
    /// Cost of the root-only (empty) summary.
    pub root_cost: u64,
    /// One display line per selected candidate.
    pub rendered: Vec<String>,
}

/// Summarize every item of `corpus` in parallel.
///
/// Each item runs the one per-item pipeline: extraction (the `extract`
/// stage), [`ItemArtifacts::from_extracted_with_graph`](incremental::ItemArtifacts::from_extracted_with_graph)
/// (the `graph.build` stage) and
/// [`ItemArtifacts::solve`](incremental::ItemArtifacts::solve), recorded
/// on its own [`osa_obs::Trace`] (id = item index) under a
/// `summarize_one` root span. The trees ride on the report as
/// [`BatchReport::traces`], and [`BatchReport::stages`] aggregates their
/// stage totals. Tracing only observes: the results are the same whether
/// or not anyone reads the trees.
///
/// Byte-identical output for any `opts.jobs`: results are collected by
/// item index and randomized algorithms draw from
/// [`item_seed`]`(opts.corpus_seed, item)`. Under `opts.fault_plan` each
/// item's work runs inside its planned [`Fault`], with `opts.retries`
/// retries.
pub fn summarize_corpus(corpus: &Corpus, opts: &BatchOptions) -> BatchReport<ItemSummary> {
    let h = &corpus.hierarchy;
    let extractor = Extractor::from_hierarchy(h);
    let items: Vec<_> = corpus.indexed_items().collect();
    // Warm the shared ancestor-index cache before fan-out so workers
    // don't serialize on the `OnceLock` initialization.
    warm_ancestor_index(h, opts.ancestor_impl);
    let obs = osa_obs::global();
    // Attempts so far per item: the fault wrapper's attempt number.
    let attempts: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
    let report = BatchJob::new(&items)
        .jobs(opts.jobs)
        .retries(opts.fault_plan.map_or(0, |_| opts.retries))
        .run(|scratch, i, &(idx, item)| {
            let fault = opts.fault_plan.map_or(Fault::None, |p| p.fault_for(idx));
            let attempt = attempts[i].fetch_add(1, Ordering::Relaxed);
            let work = || {
                let trace = osa_obs::Trace::new(idx as u64);
                let summary = {
                    let _root = trace.span("summarize_one");
                    let (ex, _us) = obs.time_traced("extract", Some(&trace), || {
                        extractor.extract(item, ExtractImpl::Interned, &mut scratch.extract)
                    });
                    let (artifacts, graph) = incremental::ItemArtifacts::from_extracted_with_graph(
                        h,
                        opts,
                        opts,
                        item,
                        ex,
                        scratch,
                        Some(&trace),
                    );
                    artifacts.solve(h, opts, idx, item, &graph, scratch, Some(&trace))
                };
                (summary, trace.tree())
            };
            fault.apply(idx, attempt, work, |(s, _)| s.num_pairs > 0)
        });
    let (results, traces): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    BatchReport {
        results,
        per_item_micros: report.per_item_micros,
        latency: report.latency,
        wall_micros: report.wall_micros,
        jobs: report.jobs,
        stages: StageStats::from_traces(&traces),
        traces,
        failed: report.failed,
        retried: report.retried,
    }
}

/// Summarize a single corpus item with a caller-owned scratch:
/// [`ItemArtifacts::build`](incremental::ItemArtifacts::build) then
/// [`summarize`](incremental::ItemArtifacts::summarize), under `fault`
/// (usually [`Fault::None`]; see [`Fault::apply`], as attempt 0).
///
/// This is the per-item pipeline [`summarize_corpus`] runs, so for
/// identical `(corpus, opts)` the returned [`ItemSummary`] — and
/// therefore [`render_item_summary`]'s text — is byte-identical to the
/// matching block of a batch run at any `--jobs`. `opts.jobs` and
/// `opts.fault_plan` are ignored.
///
/// Returns `None` when `item` is out of range. Panics propagate to the
/// caller — wrap in `catch_unwind` (as the batch engine does) to
/// isolate poisoned items.
pub fn summarize_one(
    corpus: &Corpus,
    extractor: &Extractor,
    opts: &BatchOptions,
    scratch: &mut WorkerScratch,
    item: usize,
    fault: Fault,
) -> Option<ItemSummary> {
    let it = corpus.items.get(item)?;
    let h = &corpus.hierarchy;
    let work = || {
        incremental::ItemArtifacts::build(h, extractor, opts, it, scratch)
            .summarize(h, opts, item, it, scratch, None)
    };
    Some(fault.apply(item, 0, work, |s| s.num_pairs > 0))
}

/// The coverage graph the pipeline solves for one extracted item under
/// `opts`, built by `imp`: weighted pairs at `Pairs` granularity,
/// sentence or review groups otherwise. At `Pairs` the graph is built
/// over the compressed pairs [`WorkerScratch::compress_into`] staged in
/// `scratch`, so stage them first. Production passes
/// [`GraphImpl::Indexed`]; the naive builder is the reference the tests
/// and `osars check` compare it with.
pub fn item_graph(
    hierarchy: &Hierarchy,
    ex: &ExtractedItem,
    opts: &BatchOptions,
    imp: GraphImpl,
    scratch: &mut WorkerScratch,
) -> CoverageGraph {
    let groups = match opts.granularity {
        Granularity::Pairs => {
            return CoverageGraph::for_weighted_pairs_with_ancestor(
                hierarchy,
                &scratch.pair_buf,
                &scratch.weight_buf,
                opts.eps,
                imp,
                opts.ancestor_impl,
                &mut scratch.graph_build,
            )
        }
        Granularity::Sentences => ex.sentence_groups(),
        Granularity::Reviews => ex.review_groups(),
    };
    CoverageGraph::for_groups_with_ancestor(
        hierarchy,
        &ex.pairs,
        &groups,
        opts.eps,
        opts.granularity,
        imp,
        opts.ancestor_impl,
        &mut scratch.graph_build,
    )
}

/// Render the selected candidates and assemble the [`ItemSummary`] —
/// the tail of [`ItemArtifacts::summarize`](incremental::ItemArtifacts::summarize),
/// shared with the reference pipeline of `osars check`.
#[allow(clippy::too_many_arguments)]
pub fn finish_item_summary(
    hierarchy: &osa_ontology::Hierarchy,
    granularity: Granularity,
    idx: usize,
    item: &osa_datasets::Item,
    ex: &osa_datasets::ExtractedItem,
    pair_buf: &[osa_core::Pair],
    weight_buf: &[u64],
    graph: &CoverageGraph,
    summary: osa_core::Summary,
) -> ItemSummary {
    let rendered = summary
        .selected
        .iter()
        .map(|&sel| match granularity {
            Granularity::Pairs => {
                let p = pair_buf[sel];
                format!(
                    "{} = {:+.2} (×{})",
                    hierarchy.name(p.concept),
                    p.sentiment,
                    weight_buf[sel]
                )
            }
            Granularity::Sentences => ex.sentences[sel].text.clone(),
            Granularity::Reviews => {
                let first = ex.sentences[ex.reviews[sel].clone()].first();
                let text = first.map_or("(empty review)", |s| s.text.as_str());
                format!("review #{sel}: {text} …")
            }
        })
        .collect();
    ItemSummary {
        item: idx,
        name: item.name.clone(),
        summary,
        num_pairs: ex.pairs.len(),
        num_candidates: graph.num_candidates(),
        root_cost: graph.root_cost(),
        rendered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_item_order_regardless_of_jobs() {
        let items: Vec<usize> = (0..97).collect();
        for jobs in [1, 2, 3, 8] {
            let report = BatchJob::new(&items).jobs(jobs).run(|_, i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(report.len(), 97);
            assert_eq!(report.jobs, jobs.min(97));
            for (i, r) in report.results.iter().enumerate() {
                assert_eq!(*r, i * 10);
            }
            assert_eq!(report.latency.count(), 97);
            assert_eq!(report.per_item_micros.len(), 97);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let items: Vec<u8> = Vec::new();
        let report = BatchJob::new(&items).jobs(4).run(|_, _, &x| x);
        assert!(report.is_empty());
        assert_eq!(report.items_per_sec(), 0.0);
        // Stats line must not panic on empty percentiles.
        assert!(report.render_stats().contains("0 items"));
    }

    #[test]
    fn more_jobs_than_items_clamps() {
        let items = [1, 2, 3];
        let report = BatchJob::new(&items).jobs(64).run(|_, _, &x| x);
        assert_eq!(report.jobs, 3);
        assert_eq!(report.results, vec![1, 2, 3]);
    }

    #[test]
    fn scratch_persists_within_a_worker() {
        // With one worker the same scratch visits every item: seed the
        // pair buffer's capacity on the first item and observe that the
        // allocation survives (capacity never shrinks below first use).
        let items: Vec<usize> = (0..10).collect();
        let report = BatchJob::new(&items).jobs(1).run(|scratch, i, _| {
            if i == 0 {
                scratch.pair_buf.reserve(4096);
            }
            scratch.pair_buf.capacity()
        });
        assert!(report.results.iter().all(|&c| c >= 4096));
    }

    #[test]
    fn compress_into_matches_compress_pairs() {
        use osa_ontology::HierarchyBuilder;
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let a = b.add_node("a");
        b.add_edge(r, a).unwrap();
        let _h = b.build().unwrap();
        let pairs = vec![
            Pair::new(a, 0.5),
            Pair::new(a, 0.5),
            Pair::new(a, -0.5),
            Pair::new(r, 0.0),
            Pair::new(a, 0.5),
        ];
        let (expect_u, expect_w) = osa_core::compress_pairs(&pairs);
        let mut scratch = WorkerScratch::new();
        // Run twice to prove the clear() between items works.
        for _ in 0..2 {
            let (u, w) = scratch.compress_into(&pairs);
            assert_eq!(u, expect_u.as_slice());
            assert_eq!(w, expect_w.as_slice());
        }
    }

    #[test]
    fn item_seed_mixes_both_arguments() {
        assert_ne!(item_seed(1, 0), item_seed(1, 1));
        assert_ne!(item_seed(1, 0), item_seed(2, 0));
        assert_eq!(item_seed(7, 3), item_seed(7, 3));
    }

    #[test]
    fn effective_jobs_resolves_zero() {
        assert!(effective_jobs(0) >= 1);
        assert!(effective_jobs(0) <= MAX_JOBS);
        assert_eq!(effective_jobs(5), 5);
    }

    #[test]
    fn effective_jobs_clamps_huge_requests() {
        assert_eq!(effective_jobs(usize::MAX), MAX_JOBS);
        assert_eq!(effective_jobs(MAX_JOBS + 1), MAX_JOBS);
        assert_eq!(effective_jobs(MAX_JOBS), MAX_JOBS);
    }

    #[test]
    fn stage_table_renders_every_stage() {
        let report = BatchReport {
            results: vec![(), ()],
            per_item_micros: vec![10.0, 20.0],
            latency: LatencyHistogram::new(),
            wall_micros: 30.0,
            jobs: 1,
            stages: vec![
                StageStats::new("extract", [5.0, 10.0]),
                StageStats::new("graph.build", [2.0, 3.0]),
                StageStats::new("solve.greedy", [3.0, 7.0]),
            ],
            traces: Vec::new(),
            failed: Vec::new(),
            retried: 0,
        };
        let table = report.render_stage_table();
        for name in ["extract", "graph.build", "solve.greedy", "share"] {
            assert!(table.contains(name), "{table}");
        }
        // Shares sum to ~100%.
        assert!(table.contains("50.0%"), "{table}");
        // The fault footer is always present, zero without injection.
        assert!(table.contains("failed 0"), "{table}");
        assert!(table.contains("retried 0"), "{table}");
        // No stages → no table.
        let bare = BatchJob::new(&[1]).run(|_, _, &x| x);
        assert_eq!(bare.render_stage_table(), "");
    }

    #[test]
    fn stages_aggregate_the_traces_stage_totals() {
        let tree = |id| {
            let trace = osa_obs::Trace::new(id);
            {
                let _root = trace.span("summarize_one");
                drop(trace.span("extract"));
                drop(trace.span("graph.build"));
                {
                    // Nested spans are part of their stage, not a stage.
                    let _solve = trace.span("solve.greedy");
                    drop(trace.span("inner"));
                }
                drop(trace.span("graph.build"));
            }
            trace.tree()
        };
        let stages = StageStats::from_traces(&[tree(0), tree(1), tree(2)]);
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["extract", "graph.build", "solve.greedy"]);
        // One sample per tree, repeated spans of a stage summed.
        assert!(stages.iter().all(|s| s.latency.count() == 3));
    }

    #[test]
    fn algorithm_names_round_trip() {
        for name in ["greedy", "lazy", "ilp", "rr", "local-search"] {
            let alg = BatchAlgorithm::from_name(name).unwrap();
            let _ = alg.summarizer(1);
        }
        assert!(BatchAlgorithm::from_name("nope").is_none());
    }

    #[test]
    fn batch_options_default_injects_no_faults() {
        assert_eq!(BatchOptions::default().fault_plan, None);
    }

    /// One attempt counter per item: a retried closure reads its attempt
    /// number from here.
    fn attempt_counters(n: usize) -> Vec<AtomicU32> {
        (0..n).map(|_| AtomicU32::new(0)).collect()
    }

    #[test]
    fn run_retries_contain_panics() {
        quiet_injected_panics();
        let items: Vec<usize> = (0..20).collect();
        let attempts = attempt_counters(items.len());
        // Item 3 always panics; item 7 panics on attempt 0 only.
        let report = BatchJob::new(&items).jobs(4).retries(1).run(|_, i, &x| {
            let attempt = attempts[i].fetch_add(1, Ordering::Relaxed);
            if x == 3 || (x == 7 && attempt == 0) {
                injected_panic(format!("injected failure on {x}"));
            }
            x * 2
        });
        assert_eq!(report.results.len(), 19);
        assert_eq!(report.retried, 1);
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.failed[0].item, 3);
        assert_eq!(report.failed[0].attempts, 2);
        assert!(report.failed[0].message.contains("injected failure on 3"));
        // Item 7 survived its retry; only item 3 is missing.
        let expect: Vec<usize> = items.iter().filter(|&&x| x != 3).map(|x| x * 2).collect();
        assert_eq!(report.results, expect);
    }

    #[test]
    fn run_retry_accounting_is_jobs_invariant() {
        quiet_injected_panics();
        let items: Vec<usize> = (0..50).collect();
        let run = |jobs: usize| {
            let attempts = attempt_counters(items.len());
            BatchJob::new(&items).jobs(jobs).retries(2).run(|_, i, &x| {
                let attempt = attempts[i].fetch_add(1, Ordering::Relaxed);
                // Sticky failures on multiples of 7, transient on
                // multiples of 5 — pure functions of the item, so
                // scheduling can't change which items fail or retry.
                if x % 7 == 0 || (x % 5 == 0 && attempt == 0) {
                    injected_panic(format!("injected ({x}, {attempt})"));
                }
                x
            })
        };
        let base = run(1);
        assert!(!base.failed.is_empty());
        assert!(base.retried > 0);
        for jobs in [3, 8] {
            let r = run(jobs);
            assert_eq!(r.results, base.results, "jobs={jobs}");
            assert_eq!(r.failed, base.failed, "jobs={jobs}");
            assert_eq!(r.retried, base.retried, "jobs={jobs}");
        }
    }

    #[test]
    fn run_retry_replaces_scratch_after_a_panic() {
        quiet_injected_panics();
        let items: Vec<usize> = vec![0, 1];
        let attempts = attempt_counters(items.len());
        // Item 0 poisons the scratch then panics on its first attempt;
        // its retry and item 1 (same worker, jobs=1) must each see a
        // fresh scratch.
        let report = BatchJob::new(&items)
            .jobs(1)
            .retries(1)
            .run(|scratch, i, _| {
                if attempts[i].fetch_add(1, Ordering::Relaxed) == 0 && i == 0 {
                    scratch.pair_buf.reserve(1 << 16);
                    injected_panic("injected poison".to_owned());
                }
                scratch.pair_buf.capacity()
            });
        assert!(report.failed.is_empty());
        assert_eq!(report.retried, 1);
        assert!(report.results.iter().all(|&c| c < (1 << 16)));
    }

    #[test]
    fn run_with_retries_but_no_panics_matches_run() {
        let items: Vec<usize> = (0..10).collect();
        let plain = BatchJob::new(&items).jobs(2).run(|_, _, &x| x + 1);
        let retrying = BatchJob::new(&items)
            .jobs(2)
            .retries(1)
            .run(|_, _, &x| x + 1);
        assert_eq!(retrying.results, plain.results);
        assert!(retrying.failed.is_empty());
        assert_eq!(retrying.retried, 0);
    }

    #[test]
    fn run_survives_a_panicking_closure() {
        // The headline regression pin: before the panic-safe joins, a
        // panic on the non-isolated path reached
        // `h.join().expect("batch worker panicked")` and aborted the
        // caller. Now it must land in `BatchReport::failed` with the
        // original message, identically for any worker count.
        quiet_injected_panics();
        let items: Vec<usize> = (0..30).collect();
        let work = |_: &mut WorkerScratch, _: usize, &x: &usize| {
            if x % 9 == 4 {
                injected_panic(format!("injected poison on {x}"));
            }
            x * 3
        };
        // Items 4, 13, 22 panic.
        for jobs in [1usize, 2, 4, 8] {
            let report = BatchJob::new(&items).jobs(jobs).run(work);
            let failed_items: Vec<usize> = report.failed.iter().map(|f| f.item).collect();
            assert_eq!(failed_items, vec![4, 13, 22], "jobs={jobs}");
            for f in &report.failed {
                assert_eq!(f.attempts, 1, "plain run never retries");
                assert!(f
                    .message
                    .contains(&format!("injected poison on {}", f.item)));
            }
            // Failed items are dropped; survivors keep item order.
            let expect: Vec<usize> = items
                .iter()
                .filter(|&&x| x % 9 != 4)
                .map(|x| x * 3)
                .collect();
            assert_eq!(report.results, expect, "jobs={jobs}");
            assert_eq!(report.per_item_micros.len(), report.results.len());
            assert_eq!(report.latency.count(), report.results.len());
        }
    }

    #[test]
    fn run_scratch_is_replaced_after_a_panic_on_the_plain_path() {
        quiet_injected_panics();
        let items: Vec<usize> = vec![0, 1];
        // Item 0 poisons the scratch then panics; item 1 (same worker,
        // jobs=1) must see a fresh scratch.
        let report = BatchJob::new(&items).jobs(1).run(|scratch, _, &x| {
            if x == 0 {
                scratch.pair_buf.reserve(1 << 16);
                injected_panic("injected poison".to_owned());
            }
            scratch.pair_buf.capacity()
        });
        assert_eq!(report.failed.len(), 1);
        assert_eq!(report.results, vec![0]); // fresh scratch: no capacity carried over
        assert!(report.results[0] < (1 << 16));
    }

    #[test]
    fn failure_attempts_match_actual_executions() {
        quiet_injected_panics();
        // Satellite pin: `BatchReport.failed[..].attempts` (the number
        // `/metrics` aggregates into `runtime.items.attempts`) must equal
        // the number of times the work closure actually ran, under a
        // deterministic seeded plan, for any worker count.
        let items: Vec<usize> = (0..60).collect();
        let plan = FaultPlan {
            transient_panic_rate: 0.2,
            sticky_panic_rate: 0.2,
            ..FaultPlan::none(2026)
        };
        for jobs in [1usize, 4] {
            let execs = attempt_counters(items.len());
            let report = BatchJob::new(&items).jobs(jobs).retries(2).run(|_, i, &x| {
                let attempt = execs[i].fetch_add(1, Ordering::Relaxed);
                plan.fault_for(x).apply(x, attempt, || x, |_| false)
            });
            assert!(
                !report.failed.is_empty(),
                "seed must produce sticky failures"
            );
            assert!(report.retried > 0, "seed must produce transient failures");
            for f in &report.failed {
                assert_eq!(
                    f.attempts,
                    execs[f.item].load(Ordering::Relaxed),
                    "item {} jobs={jobs}",
                    f.item
                );
                assert_eq!(f.attempts, 3, "retry limit 2 → exactly 3 executions");
            }
            // Transient items: exactly one extra execution each.
            let total: u32 = execs.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            let expected =
                items.len() as u32 + report.retried as u32 + report.failed.len() as u32 * 2;
            assert_eq!(total, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn render_items_matches_the_cli_shape() {
        let report = BatchReport {
            results: vec![ItemSummary {
                item: 2,
                name: "thing".to_owned(),
                summary: Summary {
                    selected: vec![0],
                    cost: 9,
                },
                num_pairs: 4,
                num_candidates: 3,
                root_cost: 12,
                rendered: vec!["line one".to_owned()],
            }],
            per_item_micros: vec![1.0],
            latency: LatencyHistogram::new(),
            wall_micros: 1.0,
            jobs: 1,
            stages: Vec::new(),
            traces: Vec::new(),
            failed: Vec::new(),
            retried: 0,
        };
        assert_eq!(
            report.render_items(),
            "item 2 (thing): cost 9 (root-only 12), 1 of 3 candidates, 4 pairs\n  • line one\n"
        );
    }
}
