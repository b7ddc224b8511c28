//! # osa-serve — the long-lived summarization daemon
//!
//! The ROADMAP's production target: load a corpus **once** (interned
//! vocabulary, concept automaton, warmed `AncestorIndex`), then answer
//! summary queries over plain HTTP/1.1 on `std::net` — no external
//! dependencies, thread-per-connection, `osa-json` bodies.
//!
//! ## Endpoints
//!
//! * `GET /summary/{item}?k=..&eps=..&algo=..&granularity=..&ancestor-impl=..`
//!   — summarize one item (an unknown query key answers 400). The JSON
//!   body's `"text"` field is
//!   byte-identical to the item's block in `osars summarize --item all`
//!   output for the same parameters (pinned by the differential tests).
//! * `POST /reviews` — `{"item": N, "reviews": ["...", {"text": "..."}]}`
//!   ingests new reviews **incrementally**: only the edited item's
//!   revision counter is bumped, its cached pipeline artifacts are
//!   extended (new reviews re-extracted, graph deltas merged, CELF
//!   keys maintained), and every other item's cache entries stay valid
//!   by construction.
//! * `GET /metrics` — the global `osa-obs` registry in Prometheus-style
//!   text exposition.
//! * `GET /healthz` — liveness plus the current epoch.
//! * `GET /debug/traces` — recent flight-recorder trace summaries
//!   (newest first, `?n=` limits the count).
//! * `GET /debug/traces/{id}` — one retained trace's full span tree;
//!   `?format=chrome` exports Chrome `trace_event` JSON instead.
//!
//! ## Tracing
//!
//! Every `/summary/{item}` request carries a request-scoped
//! [`osa_obs::Trace`]: the connection thread opens the `serve.request`
//! root span, the worker records its queue wait and threads the trace
//! through the summarization pipeline (`extract` → `graph.build` →
//! `solve.*` become child spans with their counters attached). A lazy
//! artifact boot decodes an item's block as `artifact.decode` instead of
//! running `extract`, and a revision's first `graph.build` also holds
//! the plan and shard its cached artifacts keep. Completed
//! traces go to the [`FlightRecorder`] under **tail sampling** — errors
//! and slow requests are always retained, healthy traffic is sampled —
//! and successful responses echo the per-stage durations in a
//! `Server-Timing` header whose totals agree exactly with the stored
//! trace (both are computed from the same span tree).
//!
//! ## Failure containment
//!
//! Requests run on a fixed worker pool behind a **bounded admission
//! queue**: overflow is refused immediately with 503 (backpressure, not
//! collapse), a request older than the configured deadline answers 504
//! without doing the work, and the actual summarization executes under
//! [`std::panic::catch_unwind`] with the per-worker scratch replaced
//! after a panic — one poisoned request answers 500 while the daemon
//! keeps serving (the PR 5 isolation contract, now load-bearing).
//!
//! ## Caching and versioned snapshots
//!
//! Summaries are cached in an [`lru::LruCache`] keyed by
//! `(item, item revision, k, eps, algorithm, granularity, ancestor
//! impl)`. The edited item's **revision** is part of the key,
//! so a `POST /reviews` to item 7 makes only item 7's older entries
//! unreachable *by construction* — every other item keeps answering
//! from cache, and stale summaries age out of the LRU tail.
//!
//! The served state is a persistent snapshot in the `cfx-storage2`
//! `VersionedHashMap` commit-tree shape: an [`EpochState`] holds one
//! `Arc<ItemVersion>` per item, a successor shares every unedited
//! item's `Arc` and replaces exactly one, and retired snapshots sit in
//! a bounded history deque whose eviction (the change-root advancing)
//! drops the last reference to any `ItemVersion` no live snapshot
//! shares. In-flight requests clone the snapshot `Arc` and are
//! untouched by concurrent publishes.

pub mod http;
mod loadgen;
pub mod lru;
pub mod recorder;

pub use loadgen::{run_loadgen, LoadgenOptions, LoadgenReport};
pub use recorder::{CompletedTrace, FlightRecorder, KeepReason};

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use http::{read_request, write_response, ParseError, Request};
use lru::LruCache;
use osa_core::{CoverageGraph, Granularity};
use osa_datasets::{Corpus, ExtractImpl, ExtractedItem, Extractor, Item, Review};
use osa_obs::{Trace, TraceTree};
use osa_ontology::{AncestorImpl, Hierarchy};
use osa_runtime::incremental::ItemArtifacts;
use osa_runtime::{
    effective_jobs, injected_panic, panic_message, render_item_summary, BatchAlgorithm,
    BatchOptions, ItemSummary, WorkerScratch,
};

/// Configuration of [`serve`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker pool size (`0` = all available cores).
    pub workers: usize,
    /// Bounded admission queue depth; a request arriving while the queue
    /// holds this many waiting jobs is refused with 503.
    pub queue_depth: usize,
    /// Per-request deadline in milliseconds, measured from admission; a
    /// job whose turn comes after the deadline answers 504 without
    /// doing the work. `0` disables deadlines.
    pub deadline_ms: u64,
    /// LRU summary-cache capacity in entries (`0` disables caching).
    pub cache_capacity: usize,
    /// Pre-compute every item's summary for the default parameters at
    /// startup, so the cache is hot before the first request.
    pub warm: bool,
    /// Flight-recorder slow threshold in milliseconds: a request whose
    /// root span lasts at least this long is always retained. `0`
    /// disables the slow rule (errors are still always kept).
    pub slow_ms: u64,
    /// Read/write timeout applied to every accepted socket, in
    /// milliseconds — a slow-dripping client is disconnected instead of
    /// pinning its connection thread forever. `0` disables timeouts.
    pub conn_timeout_ms: u64,
    /// Maximum concurrently open connections; excess connections are
    /// answered `503` and closed immediately. `0` means unlimited.
    pub max_conns: usize,
    /// Default summarization parameters; `GET /summary` query parameters
    /// override `k`/`eps`/`algorithm`/`granularity`/`ancestor_impl` per
    /// request. `jobs`, `fault_plan` and `retries` are ignored by the
    /// daemon.
    pub defaults: BatchOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 0,
            queue_depth: 128,
            deadline_ms: 10_000,
            cache_capacity: 4096,
            warm: false,
            slow_ms: 500,
            conn_timeout_ms: 60_000,
            max_conns: 0,
            defaults: BatchOptions::default(),
        }
    }
}

/// Retired snapshots kept alive for stragglers; evicting the oldest is
/// the change-root advancing — it drops the last `Arc` to any
/// [`ItemVersion`] no newer snapshot shares.
const HISTORY_LIMIT: usize = 8;

/// One item at one revision, plus that revision's lazily built
/// pipeline artifacts (interned extraction, mergeable graph plan/shard,
/// exact CELF keys). The artifacts are built at most once per revision
/// — on first demand or incrementally during ingest — and shared by
/// every snapshot that contains this version.
struct ItemVersion {
    /// Per-item revision counter; starts at 0, +1 per ingest to this
    /// item. Part of every cache key.
    rev: u64,
    source: ItemSource,
    artifacts: OnceLock<Arc<ItemArtifacts>>,
}

/// Where an [`ItemVersion`]'s reviews (and, for artifact boots, its
/// extraction output) come from.
enum ItemSource {
    /// Materialized reviews, plus the stored extraction output when the
    /// daemon booted from an eagerly decoded artifact. `preextracted` is
    /// consumed (cloned) by the first artifact build of this revision —
    /// the artifact cold-boot path skips the extraction pass entirely.
    /// Always `None` after an ingest (appended reviews are re-extracted
    /// incrementally anyway).
    Ready {
        item: Item,
        preextracted: Option<ExtractedItem>,
    },
    /// An undecoded block inside a compiled artifact (`serve
    /// --artifacts` lazy boot). Decoded at most once, on first touch —
    /// boot never pays a per-review decode, and an item nobody requests
    /// is never materialized.
    Lazy {
        store: osa_artifact::ItemStore,
        index: usize,
        cell: OnceLock<(Item, ExtractedItem)>,
    },
}

impl ItemVersion {
    /// This version's reviews, decoding the artifact block on first
    /// touch for lazy boots.
    fn item(&self) -> &Item {
        match &self.source {
            ItemSource::Ready { item, .. } => item,
            ItemSource::Lazy { .. } => &self.materialized().0,
        }
    }

    /// Materialized `(item, extraction)` for a lazy source. The whole
    /// payload was checksum-verified at open, so a block failing to
    /// decode here is an encoder bug; the panic stays inside the
    /// panic-isolated worker (the request answers 500).
    fn materialized(&self) -> &(Item, ExtractedItem) {
        let ItemSource::Lazy { store, index, cell } = &self.source else {
            unreachable!("materialized() is only called on lazy sources");
        };
        cell.get_or_init(|| {
            store
                .item(*index)
                .expect("checksum-verified artifact block decodes")
        })
    }

    /// This revision's extraction output, for its first artifact build:
    /// the stored one when present (artifact boots), otherwise a run of
    /// the extraction pipeline. Only that run is timed as the `extract`
    /// stage; decoding a lazy boot's block is the `artifact.decode`
    /// stage, and an eager boot's stored output is just cloned.
    fn extraction(
        &self,
        extractor: &Extractor,
        scratch: &mut WorkerScratch,
        trace: Option<&Trace>,
    ) -> ExtractedItem {
        let obs = osa_obs::global();
        match &self.source {
            ItemSource::Ready {
                preextracted: Some(ex),
                ..
            } => ex.clone(),
            ItemSource::Ready {
                item,
                preextracted: None,
            } => {
                obs.time_traced("extract", trace, || {
                    extractor.extract(item, ExtractImpl::Interned, &mut scratch.extract)
                })
                .0
            }
            ItemSource::Lazy { .. } => {
                obs.time_traced("artifact.decode", trace, || self.materialized().1.clone())
                    .0
            }
        }
    }

    /// This revision's pipeline artifacts, built under `artifact_opts`
    /// at most once, and the coverage graph under `opts`: one
    /// `graph.build` sample per call, which holds the plan and shard of
    /// a first build as well as the graph's assembly.
    fn artifacts_and_graph(
        &self,
        hierarchy: &Hierarchy,
        extractor: &Extractor,
        artifact_opts: &BatchOptions,
        opts: &BatchOptions,
        scratch: &mut WorkerScratch,
        trace: Option<&Trace>,
    ) -> (&Arc<ItemArtifacts>, CoverageGraph) {
        let mut fresh = None;
        let artifacts = self.artifacts.get_or_init(|| {
            let ex = self.extraction(extractor, scratch, trace);
            let (artifacts, graph) = ItemArtifacts::from_extracted_with_graph(
                hierarchy,
                artifact_opts,
                opts,
                self.item(),
                ex,
                scratch,
                trace,
            );
            fresh = Some(graph);
            Arc::new(artifacts)
        });
        let graph = fresh.unwrap_or_else(|| artifacts.graph(hierarchy, opts, scratch, trace));
        (artifacts, graph)
    }
}

/// One immutable versioned snapshot. `POST /reviews` builds a successor
/// **outside** the state lock (cloning only the edited item and the
/// `Arc` pointer vector) and publishes it with a short write-lock swap,
/// so in-flight requests keep the snapshot they started with and
/// readers never wait behind a rebuild.
struct EpochState {
    name: String,
    hierarchy: Arc<Hierarchy>,
    extractor: Arc<Extractor>,
    items: Vec<Arc<ItemVersion>>,
    /// Snapshot version — the number of successful ingests so far
    /// (surfaced by `/healthz` and [`ServerHandle::epoch`]).
    version: u64,
}

impl EpochState {
    /// Boot-time snapshot: every item at revision 0. `preextracted`
    /// (from a compiled artifact) seeds each item's extraction output so
    /// no boot-path request ever runs the extraction pipeline.
    fn new(
        corpus: Corpus,
        extractor: Extractor,
        preextracted: Option<Vec<ExtractedItem>>,
        ancestor: AncestorImpl,
    ) -> Self {
        // Warm the selected ancestor index before the state becomes
        // visible, so no request pays the one-off build. Under the
        // segmented impl this only creates the empty row memo; each row
        // fills on its first query.
        osa_runtime::warm_ancestor_index(&corpus.hierarchy, ancestor);
        let Corpus {
            name,
            hierarchy,
            items,
        } = corpus;
        let mut pre: Vec<Option<ExtractedItem>> = match preextracted {
            Some(v) => {
                assert_eq!(v.len(), items.len(), "one ExtractedItem per item");
                v.into_iter().map(Some).collect()
            }
            None => (0..items.len()).map(|_| None).collect(),
        };
        EpochState {
            name,
            hierarchy: Arc::new(hierarchy),
            extractor: Arc::new(extractor),
            items: items
                .into_iter()
                .zip(pre.iter_mut())
                .map(|(item, pre)| {
                    Arc::new(ItemVersion {
                        rev: 0,
                        source: ItemSource::Ready {
                            item,
                            preextracted: pre.take(),
                        },
                        artifacts: OnceLock::new(),
                    })
                })
                .collect(),
            version: 0,
        }
    }

    /// Boot-time snapshot over a lazily opened artifact: every item at
    /// revision 0 pointing at its undecoded block. Boot cost is the
    /// artifact's prelude (hierarchy + block table) — independent of
    /// review volume.
    fn new_lazy(artifact: osa_artifact::LazyArtifact, ancestor: AncestorImpl) -> Self {
        let osa_artifact::LazyArtifact {
            hierarchy,
            corpus_name,
            store,
        } = artifact;
        osa_runtime::warm_ancestor_index(&hierarchy, ancestor);
        let extractor = Extractor::from_hierarchy(&hierarchy);
        EpochState {
            name: corpus_name,
            hierarchy: Arc::new(hierarchy),
            extractor: Arc::new(extractor),
            items: (0..store.len())
                .map(|index| {
                    Arc::new(ItemVersion {
                        rev: 0,
                        source: ItemSource::Lazy {
                            store: store.clone(),
                            index,
                            cell: OnceLock::new(),
                        },
                        artifacts: OnceLock::new(),
                    })
                })
                .collect(),
            version: 0,
        }
    }
}

/// Cache key: every parameter that affects the response body, including
/// the **item's revision** — an ingest to one item leaves every other
/// item's entries reachable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    rev: u64,
    item: usize,
    k: usize,
    eps_bits: u64,
    algo: &'static str,
    granularity: u8,
    ancestor: u8,
}

fn cache_key(p: &SummaryParams, rev: u64) -> CacheKey {
    CacheKey {
        rev,
        item: p.item,
        k: p.opts.k,
        eps_bits: p.opts.eps.to_bits(),
        algo: p.opts.algorithm.name(),
        granularity: p.opts.granularity as u8,
        ancestor: p.opts.ancestor_impl as u8,
    }
}

/// Test/benchmark fault injection requested via the `inject` query
/// parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inject {
    None,
    /// Panic inside the worker (exercises the 500 isolation path).
    Panic,
    /// Sleep before computing (exercises queue backpressure/deadlines).
    DelayMs(u64),
}

/// A validated `GET /summary` request.
#[derive(Debug, Clone)]
struct SummaryParams {
    item: usize,
    opts: BatchOptions,
    inject: Inject,
}

/// A request the connection thread could not turn into work.
#[derive(Debug)]
struct HttpError {
    status: u16,
    message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

struct SummaryOk {
    body: String,
    key: CacheKey,
}

type WorkerReply = Result<SummaryOk, HttpError>;

struct Job {
    params: SummaryParams,
    admitted: Instant,
    deadline: Option<Instant>,
    reply: mpsc::Sender<WorkerReply>,
    /// The request's trace; the connection thread holds the root span
    /// open while the worker adds child spans, and the two never run
    /// concurrently (the connection blocks on the reply channel), so the
    /// open-span stack stays well-nested.
    trace: Arc<Trace>,
}

struct Shared {
    state: RwLock<Arc<EpochState>>,
    /// Serializes concurrent ingests: successors are built under this
    /// mutex (not the state lock), so readers keep snapshotting freely
    /// while at most one successor is under construction. It guards the
    /// ingest's own scratch, whose buffers and memos (the stem memo, the
    /// graph build's slot table) then last across POSTs.
    ingest: Mutex<WorkerScratch>,
    /// Bounded history of retired snapshots (see [`HISTORY_LIMIT`]).
    history: Mutex<VecDeque<Arc<EpochState>>>,
    /// The signature per-item artifacts are built under (the daemon
    /// defaults with per-request knobs normalized).
    artifact_opts: BatchOptions,
    cache: Mutex<LruCache<CacheKey, String>>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    opts: ServeOptions,
    shutdown: AtomicBool,
    /// Open sockets, for the `serve.connections` gauge.
    connections: AtomicU64,
    /// Completed-trace ring with tail sampling.
    recorder: FlightRecorder,
    /// Monotonic trace-id source (one id per `/summary` request).
    trace_seq: AtomicU64,
    /// Workers currently inside `compute`, for the background sampler.
    workers_busy: AtomicU64,
}

impl Shared {
    fn snapshot(&self) -> Arc<EpochState> {
        self.state.read().expect("state lock").clone()
    }
}

/// A running daemon. Keep the handle alive for as long as the server
/// should accept connections; [`shutdown`](Self::shutdown) stops it and
/// joins every pool thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current snapshot version: the number of successful ingests.
    pub fn epoch(&self) -> u64 {
        self.shared.snapshot().version
    }

    /// Current revision of one item (`None` if out of range).
    pub fn item_rev(&self, item: usize) -> Option<u64> {
        self.shared.snapshot().items.get(item).map(|iv| iv.rev)
    }

    /// Stop accepting, drain the queue, and join every pool thread.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.sampler.take() {
            let _ = t.join();
        }
    }

    fn begin_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        // Wake the blocking accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort: initiate shutdown but do not join (joining in
        // drop could deadlock if dropped from a pool thread).
        self.begin_shutdown();
    }
}

/// Start the daemon on `addr` (e.g. `127.0.0.1:7878`; port 0 binds an
/// ephemeral port — read it back from [`ServerHandle::addr`]).
///
/// Enables the global `osa-obs` registry so `GET /metrics` has data.
pub fn serve(corpus: Corpus, addr: &str, opts: ServeOptions) -> std::io::Result<ServerHandle> {
    serve_prepared(corpus, None, addr, opts)
}

/// [`serve`], but optionally booting from a compiled artifact's
/// pre-extracted items (`osars serve --artifacts`). With `preextracted`
/// present the daemon never runs the extraction pipeline at boot: cache
/// warm-up and first-touch requests start from the stored
/// [`ExtractedItem`]s, which is what makes artifact cold-start I/O-bound.
pub fn serve_prepared(
    corpus: Corpus,
    preextracted: Option<Vec<ExtractedItem>>,
    addr: &str,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    osa_obs::global().set_enabled(true);

    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let ancestor = opts.defaults.ancestor_impl;
    let state = Arc::new(EpochState::new(corpus, extractor, preextracted, ancestor));
    launch(listener, bound, state, opts)
}

/// [`serve`], but booting from a lazily opened compiled artifact
/// (`osars serve --artifacts`). Boot decodes only the artifact prelude
/// — hierarchy and block table — so cold start is
/// one sequential read regardless of review volume; each item's block
/// is decoded on first request. With `--warm` the cache pre-fill
/// touches every block, trading the lazy boot back for a hot cache.
pub fn serve_artifact(
    artifact: osa_artifact::LazyArtifact,
    addr: &str,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    osa_obs::global().set_enabled(true);

    let state = Arc::new(EpochState::new_lazy(artifact, opts.defaults.ancestor_impl));
    launch(listener, bound, state, opts)
}

/// Shared tail of every boot path: optional cache warm-up, then the
/// worker pool, sampler, and accept loop.
fn launch(
    listener: TcpListener,
    bound: std::net::SocketAddr,
    state: Arc<EpochState>,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let workers = effective_jobs(opts.workers);
    let artifact_opts = artifact_signature(&opts.defaults);
    let mut cache = LruCache::new(opts.cache_capacity);
    if opts.warm && opts.cache_capacity > 0 {
        warm_cache(&state, &artifact_opts, workers, &mut cache);
    }
    // Fixed recorder seed: the retained healthy-traffic sample is a
    // deterministic function of the request sequence, which keeps the
    // smoke tests reproducible.
    let recorder = FlightRecorder::new(
        recorder::DEFAULT_CAPACITY,
        opts.slow_ms.saturating_mul(1000),
        0xA11CE,
    );
    let shared = Arc::new(Shared {
        state: RwLock::new(state),
        ingest: Mutex::new(WorkerScratch::new()),
        history: Mutex::new(VecDeque::new()),
        artifact_opts,
        cache: Mutex::new(cache),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        opts,
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        recorder,
        trace_seq: AtomicU64::new(0),
        workers_busy: AtomicU64::new(0),
    });

    let worker_handles: Vec<_> = (0..workers)
        .map(|_| {
            let shared = shared.clone();
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    // Background sampler: periodically publish queue depth, busy workers
    // and the solvers' pooled tableau bytes as gauges, so `/metrics` shows
    // saturation even when no request happens to be scraping-adjacent.
    let sampler_shared = shared.clone();
    let sampler = std::thread::spawn(move || {
        let obs = osa_obs::global();
        while !sampler_shared.shutdown.load(Ordering::SeqCst) {
            let depth = sampler_shared
                .queue
                .lock()
                .map(|q| q.len())
                .unwrap_or_default();
            obs.set_gauge("serve.queue_depth", depth as i64);
            obs.set_gauge(
                "serve.workers_busy",
                sampler_shared.workers_busy.load(Ordering::Relaxed) as i64,
            );
            obs.set_gauge(
                "solver.tableau_pool_bytes",
                osa_core::tableau_pool_bytes() as i64,
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    });

    let accept_shared = shared.clone();
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let max = accept_shared.opts.max_conns;
            if max > 0 && accept_shared.connections.load(Ordering::Relaxed) >= max as u64 {
                // Over the connection cap: answer 503 on the accepting
                // thread and close, instead of spawning yet another
                // connection thread.
                osa_obs::global().add("serve.conns.rejected", 1);
                let mut refused = stream;
                let _ = refused.set_write_timeout(Some(Duration::from_millis(1_000)));
                let _ = respond_error(&mut refused, 503, "connection limit reached", true);
                continue;
            }
            let conn_shared = accept_shared.clone();
            // Thread-per-connection: each socket gets its own detached
            // thread; the worker pool bounds concurrent compute and
            // `max_conns` (above) bounds the thread count.
            std::thread::spawn(move || {
                conn_shared.connections.fetch_add(1, Ordering::Relaxed);
                handle_connection(stream, &conn_shared);
                conn_shared.connections.fetch_sub(1, Ordering::Relaxed);
            });
        }
    });

    Ok(ServerHandle {
        addr: bound,
        shared,
        accept: Some(accept),
        workers: worker_handles,
        sampler: Some(sampler),
    })
}

/// The normalized signature item artifacts are cached under: the
/// daemon defaults with the per-request-irrelevant knobs pinned.
fn artifact_signature(defaults: &BatchOptions) -> BatchOptions {
    let mut opts = defaults.clone();
    opts.jobs = 1;
    opts.fault_plan = None;
    opts
}

/// Pre-fill the cache with every item's default-parameter summary: one
/// parallel batch over the boot snapshot (all items at revision 0) that
/// builds each item's artifacts into its [`ItemVersion`] cell — so the
/// first request for the item, and any ingest to it, reuses them — and
/// summarizes from them. An item whose warm-up panics is left cold.
fn warm_cache(
    state: &EpochState,
    artifact_opts: &BatchOptions,
    workers: usize,
    cache: &mut LruCache<CacheKey, String>,
) {
    let h = &state.hierarchy;
    let report = osa_runtime::BatchJob::new(&state.items)
        .jobs(workers)
        .run(|scratch, idx, iv| {
            let (artifacts, graph) = iv.artifacts_and_graph(
                h,
                &state.extractor,
                artifact_opts,
                artifact_opts,
                scratch,
                None,
            );
            artifacts.solve(h, artifact_opts, idx, iv.item(), &graph, scratch, None)
        });
    for summary in &report.results {
        let params = SummaryParams {
            item: summary.item,
            opts: artifact_opts.clone(),
            inject: Inject::None,
        };
        cache.insert(cache_key(&params, 0), summary_body(summary, &params, 0));
    }
}

/// Install a process-wide panic hook that silences deliberately
/// injected panics (`inject=panic` requests, fault-plan panics) — the
/// daemon answers 500 for those by design, and a backtrace per poisoned
/// request would drown the log. Injection is recognized by the typed
/// [`osa_runtime::InjectedPanic`] payload, never by message text, so a
/// genuine panic whose message happens to say "injected" still prints.
pub fn quiet_injected_panics() {
    osa_runtime::quiet_injected_panics();
}

// --- worker pool -----------------------------------------------------------

fn worker_loop(shared: &Shared) {
    let obs = osa_obs::global();
    let mut scratch = WorkerScratch::new();
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).expect("queue condvar");
            }
        };
        let picked_up = Instant::now();
        obs.observe(
            "serve.queue.wait.us",
            picked_up.duration_since(job.admitted).as_secs_f64() * 1e6,
        );
        job.trace
            .record_span_between("serve.queue.wait", job.admitted, picked_up);
        if job.deadline.is_some_and(|d| picked_up > d) {
            obs.add("serve.deadline.expired", 1);
            let _ = job.reply.send(Err(HttpError::new(
                504,
                "deadline exceeded before the request was scheduled",
            )));
            continue;
        }
        shared.workers_busy.fetch_add(1, Ordering::Relaxed);
        let reply = compute(shared, &job.params, &mut scratch, Some(&job.trace));
        shared.workers_busy.fetch_sub(1, Ordering::Relaxed);
        let _ = job.reply.send(reply);
    }
}

/// Compute one summary under panic isolation. A panic — injected or
/// genuine — answers 500 and replaces the worker's scratch; the worker
/// thread itself never dies.
fn compute(
    shared: &Shared,
    params: &SummaryParams,
    scratch: &mut WorkerScratch,
    trace: Option<&Trace>,
) -> WorkerReply {
    let obs = osa_obs::global();
    let state = shared.snapshot();
    let Some(iv) = state.items.get(params.item).cloned() else {
        return Err(HttpError::new(
            404,
            format!(
                "item {} out of range (corpus has {} items)",
                params.item,
                state.items.len()
            ),
        ));
    };
    if let Inject::DelayMs(ms) = params.inject {
        let delay_start = Instant::now();
        std::thread::sleep(Duration::from_millis(ms.min(10_000)));
        if let Some(t) = trace {
            t.record_span_between("serve.inject.delay", delay_start, Instant::now());
        }
    }
    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
        if params.inject == Inject::Panic {
            injected_panic(format!("injected panic (serve, item {})", params.item));
        }
        // Per-item artifacts are built at most once per revision and
        // shared; summarizing reuses the cached extraction and (for the
        // artifact signature) the mergeable graph state.
        let (artifacts, graph) = iv.artifacts_and_graph(
            &state.hierarchy,
            &state.extractor,
            &shared.artifact_opts,
            &params.opts,
            scratch,
            trace,
        );
        artifacts.solve(
            &state.hierarchy,
            &params.opts,
            params.item,
            iv.item(),
            &graph,
            scratch,
            trace,
        )
    }));
    match caught {
        Ok(summary) => Ok(SummaryOk {
            body: summary_body(&summary, params, iv.rev),
            key: cache_key(params, iv.rev),
        }),
        Err(payload) => {
            // The panic may have left the scratch mid-update; replace it
            // before the next request reuses this worker.
            *scratch = WorkerScratch::new();
            obs.add("serve.panics", 1);
            Err(HttpError::new(
                500,
                format!(
                    "summarization panicked: {}",
                    panic_message(payload.as_ref())
                ),
            ))
        }
    }
}

/// The `GET /summary` response body. The `"text"` field is the exact
/// CLI rendering ([`render_item_summary`]), which the differential tests
/// byte-compare against `osars summarize` stdout; the `"epoch"` field
/// is the **item's revision** (0 until the item itself is edited).
fn summary_body(summary: &ItemSummary, params: &SummaryParams, epoch: u64) -> String {
    use osa_json::Value;
    let params_obj = Value::Object(vec![
        ("k".to_owned(), Value::Number(params.opts.k as f64)),
        ("eps".to_owned(), Value::Number(params.opts.eps)),
        (
            "algo".to_owned(),
            Value::String(params.opts.algorithm.name().to_owned()),
        ),
        (
            "granularity".to_owned(),
            Value::String(granularity_name(params.opts.granularity).to_owned()),
        ),
    ]);
    let obj = Value::Object(vec![
        ("item".to_owned(), Value::Number(summary.item as f64)),
        ("name".to_owned(), Value::String(summary.name.clone())),
        ("epoch".to_owned(), Value::Number(epoch as f64)),
        ("params".to_owned(), params_obj),
        (
            "cost".to_owned(),
            Value::Number(summary.summary.cost as f64),
        ),
        (
            "root_cost".to_owned(),
            Value::Number(summary.root_cost as f64),
        ),
        (
            "candidates".to_owned(),
            Value::Number(summary.num_candidates as f64),
        ),
        ("pairs".to_owned(), Value::Number(summary.num_pairs as f64)),
        (
            "selected".to_owned(),
            Value::Array(
                summary
                    .summary
                    .selected
                    .iter()
                    .map(|&s| Value::Number(s as f64))
                    .collect(),
            ),
        ),
        (
            "lines".to_owned(),
            Value::Array(
                summary
                    .rendered
                    .iter()
                    .map(|l| Value::String(l.clone()))
                    .collect(),
            ),
        ),
        (
            "text".to_owned(),
            Value::String(render_item_summary(summary)),
        ),
    ]);
    osa_json::to_string(&obj)
}

fn granularity_name(g: Granularity) -> &'static str {
    match g {
        Granularity::Pairs => "pairs",
        Granularity::Sentences => "sentences",
        Granularity::Reviews => "reviews",
    }
}

// --- connection handling ---------------------------------------------------

fn handle_connection(stream: TcpStream, shared: &Shared) {
    // Bound reads AND writes so a slow-dripping (or never-reading)
    // client is disconnected instead of pinning its connection thread
    // forever. Disable Nagle: each response is a single complete write,
    // so there is nothing for the kernel to usefully coalesce — only
    // latency to add.
    let timeout = (shared.opts.conn_timeout_ms > 0)
        .then(|| Duration::from_millis(shared.opts.conn_timeout_ms));
    let _ = stream.set_read_timeout(timeout);
    let _ = stream.set_write_timeout(timeout);
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => break,
            Err(ParseError::Malformed(what)) => {
                let _ = respond_error(
                    &mut writer,
                    400,
                    &format!("malformed request: {what}"),
                    true,
                );
                break;
            }
            Err(ParseError::TooLarge(what)) => {
                let _ = respond_error(
                    &mut writer,
                    413,
                    &format!("request too large: {what}"),
                    true,
                );
                break;
            }
            Err(ParseError::Io(_)) => break,
        };
        let close = req.wants_close();
        let start = Instant::now();
        let obs = osa_obs::global();
        obs.add("serve.requests", 1);
        let (status, served) = route(&req, shared, &mut writer, close);
        obs.add(&format!("serve.responses.{status}"), 1);
        obs.observe("serve.request.us", start.elapsed().as_secs_f64() * 1e6);
        if close || !served {
            break;
        }
    }
}

/// Dispatch one request; returns `(status, connection still usable)`.
fn route(req: &Request, shared: &Shared, w: &mut TcpStream, close: bool) -> (u16, bool) {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => respond_healthz(shared, w, close),
        ("GET", "/metrics") => {
            let text = osa_obs::global().snapshot().render_prometheus();
            let ok = write_response(
                w,
                200,
                "text/plain; version=0.0.4",
                text.as_bytes(),
                &[],
                close,
            )
            .is_ok();
            (200, ok)
        }
        ("GET", path) if path.starts_with("/summary/") => respond_summary(req, shared, w, close),
        ("GET", "/debug/traces") => respond_traces_list(req, shared, w, close),
        ("GET", path) if path.starts_with("/debug/traces/") => {
            respond_trace_detail(req, shared, w, close)
        }
        ("POST", "/reviews") => respond_ingest(req, shared, w, close),
        (_, "/healthz" | "/metrics" | "/reviews" | "/debug/traces") => {
            let ok = respond_error(w, 405, "method not allowed", close).is_ok();
            (405, ok)
        }
        (_, path) if path.starts_with("/summary/") || path.starts_with("/debug/traces/") => {
            let ok = respond_error(w, 405, "method not allowed", close).is_ok();
            (405, ok)
        }
        _ => {
            let ok = respond_error(w, 404, "no such endpoint", close).is_ok();
            (404, ok)
        }
    }
}

fn respond_error(
    w: &mut impl Write,
    status: u16,
    message: &str,
    close: bool,
) -> std::io::Result<()> {
    use osa_json::Value;
    let obj = Value::Object(vec![
        ("error".to_owned(), Value::String(message.to_owned())),
        ("status".to_owned(), Value::Number(status as f64)),
    ]);
    write_response(
        w,
        status,
        "application/json",
        osa_json::to_string(&obj).as_bytes(),
        &[],
        close,
    )
}

fn respond_healthz(shared: &Shared, w: &mut TcpStream, close: bool) -> (u16, bool) {
    use osa_json::Value;
    let state = shared.snapshot();
    let obj = Value::Object(vec![
        ("ok".to_owned(), Value::Bool(true)),
        ("epoch".to_owned(), Value::Number(state.version as f64)),
        ("items".to_owned(), Value::Number(state.items.len() as f64)),
        ("corpus".to_owned(), Value::String(state.name.clone())),
        (
            "workers".to_owned(),
            Value::Number(effective_jobs(shared.opts.workers) as f64),
        ),
    ]);
    let ok = write_response(
        w,
        200,
        "application/json",
        osa_json::to_string(&obj).as_bytes(),
        &[],
        close,
    )
    .is_ok();
    (200, ok)
}

/// The query keys `GET /summary/{item}` reads; any other key answers 400.
const SUMMARY_QUERY_KEYS: [&str; 6] =
    ["k", "eps", "algo", "granularity", "ancestor-impl", "inject"];

/// Parse and validate `GET /summary/{item}` query parameters against the
/// daemon defaults.
fn parse_summary_params(
    req: &Request,
    defaults: &BatchOptions,
) -> Result<SummaryParams, HttpError> {
    let item_str = req
        .path
        .strip_prefix("/summary/")
        .expect("routed by prefix");
    let item: usize = item_str
        .parse()
        .map_err(|_| HttpError::new(400, format!("bad item index '{item_str}'")))?;
    if let Some((key, _)) = req
        .query
        .iter()
        .find(|(key, _)| !SUMMARY_QUERY_KEYS.contains(&key.as_str()))
    {
        return Err(HttpError::new(
            400,
            format!("unknown query parameter '{key}'"),
        ));
    }
    let mut opts = defaults.clone();
    opts.jobs = 1;
    opts.fault_plan = None;
    if let Some(k) = req.query_param("k") {
        opts.k = k
            .parse()
            .map_err(|_| HttpError::new(400, format!("bad k '{k}'")))?;
    }
    if let Some(eps) = req.query_param("eps") {
        let parsed: f64 = eps
            .parse()
            .map_err(|_| HttpError::new(400, format!("bad eps '{eps}'")))?;
        if !parsed.is_finite() || parsed < 0.0 {
            return Err(HttpError::new(
                400,
                format!("eps must be finite and non-negative, got '{eps}'"),
            ));
        }
        opts.eps = parsed;
    }
    if let Some(algo) = req.query_param("algo") {
        opts.algorithm = BatchAlgorithm::from_name(algo)
            .ok_or_else(|| HttpError::new(400, format!("unknown algorithm '{algo}'")))?;
    }
    if let Some(g) = req.query_param("granularity") {
        opts.granularity = match g {
            "pairs" => Granularity::Pairs,
            "sentences" => Granularity::Sentences,
            "reviews" => Granularity::Reviews,
            other => {
                return Err(HttpError::new(
                    400,
                    format!("unknown granularity '{other}'"),
                ))
            }
        };
    }
    if let Some(ai) = req.query_param("ancestor-impl") {
        opts.ancestor_impl = AncestorImpl::from_name(ai)
            .ok_or_else(|| HttpError::new(400, format!("unknown ancestor impl '{ai}'")))?;
    }
    let inject = match req.query_param("inject") {
        None => Inject::None,
        Some("panic") => Inject::Panic,
        Some(spec) if spec.starts_with("delay:") => {
            let ms = spec["delay:".len()..]
                .parse()
                .map_err(|_| HttpError::new(400, format!("bad inject spec '{spec}'")))?;
            Inject::DelayMs(ms)
        }
        Some(other) => return Err(HttpError::new(400, format!("unknown inject '{other}'"))),
    };
    Ok(SummaryParams { item, opts, inject })
}

/// The `Server-Timing` header value for a finished request: the root
/// total plus one entry per direct child stage, all in milliseconds.
/// Computed from the same span tree the flight recorder stores, so the
/// header and `/debug/traces/{id}` agree exactly.
fn server_timing_value(tree: &TraceTree) -> String {
    let ms = |us: u64| us as f64 / 1000.0;
    let mut parts = vec![format!("total;dur={:.3}", ms(tree.total_us()))];
    for (name, us) in tree.stage_totals() {
        parts.push(format!("{name};dur={:.3}", ms(us)));
    }
    parts.join(", ")
}

/// Close out a request trace: offer it to the flight recorder and count
/// the outcome. Call after the root span guard has been dropped.
fn finish_trace(shared: &Shared, trace: &Trace, path: String, status: u16, tree: TraceTree) {
    let obs = osa_obs::global();
    obs.add("serve.traces.offered", 1);
    let total_us = tree.total_us();
    if let Some(reason) = shared
        .recorder
        .offer(trace.id(), path, status, total_us, tree)
    {
        obs.add(&format!("serve.traces.kept.{}", reason.name()), 1);
    }
}

/// The request path plus query string, as stored in trace summaries.
fn display_target(req: &Request) -> String {
    if req.query.is_empty() {
        return req.path.clone();
    }
    let q: Vec<String> = req
        .query
        .iter()
        .map(|(k, v)| {
            if v.is_empty() {
                k.clone()
            } else {
                format!("{k}={v}")
            }
        })
        .collect();
    format!("{}?{}", req.path, q.join("&"))
}

fn respond_summary(req: &Request, shared: &Shared, w: &mut TcpStream, close: bool) -> (u16, bool) {
    let obs = osa_obs::global();
    let params = match parse_summary_params(req, &shared.opts.defaults) {
        Ok(p) => p,
        Err(e) => {
            let ok = respond_error(w, e.status, &e.message, close).is_ok();
            return (e.status, ok);
        }
    };

    // Every valid summary request is traced; the root span covers
    // everything from admission to the reply being ready.
    let trace = Arc::new(Trace::new(shared.trace_seq.fetch_add(1, Ordering::Relaxed)));
    let target = display_target(req);
    let root = trace.span("serve.request");

    // Cache lookup against the *current* epoch. Injected requests bypass
    // the cache entirely: a panic has no body and a delay must actually
    // delay.
    let cacheable = params.inject == Inject::None && shared.opts.cache_capacity > 0;
    if cacheable {
        // Keyed by the item's current revision: an ingest to a
        // different item cannot invalidate this lookup.
        let rev = shared
            .snapshot()
            .items
            .get(params.item)
            .map_or(0, |iv| iv.rev);
        let key = cache_key(&params, rev);
        let hit = shared.cache.lock().expect("cache lock").get(&key).cloned();
        if let Some(body) = hit {
            obs.add("serve.cache.hits", 1);
            trace.count("cache.hits", 1);
            drop(root);
            let tree = trace.tree();
            let timing = server_timing_value(&tree);
            let ok = write_response(
                w,
                200,
                "application/json",
                body.as_bytes(),
                &[("X-Osars-Cache", "hit"), ("Server-Timing", &timing)],
                close,
            )
            .is_ok();
            finish_trace(shared, &trace, target, 200, tree);
            return (200, ok);
        }
        obs.add("serve.cache.misses", 1);
    }

    // Admission: refuse instead of queueing unboundedly.
    let (tx, rx) = mpsc::channel();
    let deadline = (shared.opts.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(shared.opts.deadline_ms));
    {
        let mut queue = shared.queue.lock().expect("queue lock");
        if queue.len() >= shared.opts.queue_depth {
            drop(queue);
            obs.add("serve.queue.rejected", 1);
            drop(root);
            let ok = respond_error(w, 503, "admission queue full, retry later", close).is_ok();
            finish_trace(shared, &trace, target, 503, trace.tree());
            return (503, ok);
        }
        queue.push_back(Job {
            params: params.clone(),
            admitted: Instant::now(),
            deadline,
            reply: tx,
            trace: trace.clone(),
        });
    }
    shared.queue_cv.notify_one();

    match rx.recv() {
        Ok(Ok(done)) => {
            if cacheable {
                shared
                    .cache
                    .lock()
                    .expect("cache lock")
                    .insert(done.key, done.body.clone());
            }
            drop(root);
            let tree = trace.tree();
            let timing = server_timing_value(&tree);
            let ok = write_response(
                w,
                200,
                "application/json",
                done.body.as_bytes(),
                &[("X-Osars-Cache", "miss"), ("Server-Timing", &timing)],
                close,
            )
            .is_ok();
            finish_trace(shared, &trace, target, 200, tree);
            (200, ok)
        }
        Ok(Err(e)) => {
            drop(root);
            let ok = respond_error(w, e.status, &e.message, close).is_ok();
            finish_trace(shared, &trace, target, e.status, trace.tree());
            (e.status, ok)
        }
        // Worker pool gone (shutdown mid-request).
        Err(_) => {
            drop(root);
            let ok = respond_error(w, 503, "server shutting down", close).is_ok();
            finish_trace(shared, &trace, target, 503, trace.tree());
            (503, ok)
        }
    }
}

// --- debug endpoints -------------------------------------------------------

/// `GET /debug/traces` — newest-first summaries of the retained traces.
fn respond_traces_list(
    req: &Request,
    shared: &Shared,
    w: &mut TcpStream,
    close: bool,
) -> (u16, bool) {
    use osa_json::Value;
    let n = req
        .query_param("n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(50usize);
    let recent = shared.recorder.recent(n);
    let (offered, kept) = shared.recorder.stats();
    let traces: Vec<Value> = recent
        .iter()
        .map(|t| {
            Value::Object(vec![
                ("id".to_owned(), Value::Number(t.id as f64)),
                ("path".to_owned(), Value::String(t.path.clone())),
                ("status".to_owned(), Value::Number(f64::from(t.status))),
                ("total_us".to_owned(), Value::Number(t.total_us as f64)),
                (
                    "reason".to_owned(),
                    Value::String(t.reason.name().to_owned()),
                ),
                ("spans".to_owned(), Value::Number(t.tree.spans.len() as f64)),
            ])
        })
        .collect();
    let obj = Value::Object(vec![
        ("offered".to_owned(), Value::Number(offered as f64)),
        ("kept".to_owned(), Value::Number(kept as f64)),
        ("traces".to_owned(), Value::Array(traces)),
    ]);
    let ok = write_response(
        w,
        200,
        "application/json",
        osa_json::to_string(&obj).as_bytes(),
        &[],
        close,
    )
    .is_ok();
    (200, ok)
}

/// `GET /debug/traces/{id}` — one retained trace's full span tree, or
/// Chrome `trace_event` JSON with `?format=chrome`.
fn respond_trace_detail(
    req: &Request,
    shared: &Shared,
    w: &mut TcpStream,
    close: bool,
) -> (u16, bool) {
    use osa_json::Value;
    let id_str = req
        .path
        .strip_prefix("/debug/traces/")
        .expect("routed by prefix");
    let Ok(id) = id_str.parse::<u64>() else {
        let ok = respond_error(w, 400, &format!("bad trace id '{id_str}'"), close).is_ok();
        return (400, ok);
    };
    let Some(t) = shared.recorder.find(id) else {
        let ok = respond_error(
            w,
            404,
            &format!("trace {id} not retained (sampled out or evicted)"),
            close,
        )
        .is_ok();
        return (404, ok);
    };
    let body = match req.query_param("format") {
        Some("chrome") => t.tree.to_chrome_json(),
        Some(other) => {
            let ok = respond_error(w, 400, &format!("unknown format '{other}'"), close).is_ok();
            return (400, ok);
        }
        None => {
            let obj = Value::Object(vec![
                ("id".to_owned(), Value::Number(t.id as f64)),
                ("path".to_owned(), Value::String(t.path.clone())),
                ("status".to_owned(), Value::Number(f64::from(t.status))),
                (
                    "reason".to_owned(),
                    Value::String(t.reason.name().to_owned()),
                ),
                ("trace".to_owned(), t.tree.to_json()),
            ]);
            osa_json::to_string(&obj)
        }
    };
    let ok = write_response(w, 200, "application/json", body.as_bytes(), &[], close).is_ok();
    (200, ok)
}

/// `POST /reviews`: append reviews to one item and publish a successor
/// snapshot with that item's revision bumped.
fn respond_ingest(req: &Request, shared: &Shared, w: &mut TcpStream, close: bool) -> (u16, bool) {
    match ingest(req, shared) {
        Ok((item, added, epoch)) => {
            use osa_json::Value;
            let obj = Value::Object(vec![
                ("ok".to_owned(), Value::Bool(true)),
                ("item".to_owned(), Value::Number(item as f64)),
                ("added".to_owned(), Value::Number(added as f64)),
                ("epoch".to_owned(), Value::Number(epoch as f64)),
            ]);
            let ok = write_response(
                w,
                200,
                "application/json",
                osa_json::to_string(&obj).as_bytes(),
                &[],
                close,
            )
            .is_ok();
            (200, ok)
        }
        Err(e) => {
            let ok = respond_error(w, e.status, &e.message, close).is_ok();
            (e.status, ok)
        }
    }
}

fn ingest(req: &Request, shared: &Shared) -> Result<(usize, usize, u64), HttpError> {
    let text =
        std::str::from_utf8(&req.body).map_err(|_| HttpError::new(400, "body is not UTF-8"))?;
    let value =
        osa_json::parse(text).map_err(|e| HttpError::new(400, format!("bad JSON body: {e}")))?;
    let item = value
        .get("item")
        .and_then(osa_json::Value::as_u64)
        .ok_or_else(|| HttpError::new(400, "missing numeric 'item' field"))?
        as usize;
    let reviews = value
        .get("reviews")
        .and_then(osa_json::Value::as_array)
        .ok_or_else(|| HttpError::new(400, "missing 'reviews' array"))?;
    if reviews.is_empty() {
        return Err(HttpError::new(400, "'reviews' must not be empty"));
    }
    let mut texts = Vec::with_capacity(reviews.len());
    for (i, r) in reviews.iter().enumerate() {
        let t = r
            .as_str()
            .or_else(|| r.get("text").and_then(osa_json::Value::as_str))
            .ok_or_else(|| {
                HttpError::new(
                    400,
                    format!("reviews[{i}] must be a string or an object with 'text'"),
                )
            })?;
        texts.push(t.to_owned());
    }

    // Test hook: `POST /reviews?inject=delay:MS` sleeps inside the
    // build section below — while the ingest lock is held but NO state
    // lock is — so tests can pin that readers stay unblocked during a
    // slow ingest.
    let delay_ms: u64 = match req.query_param("inject") {
        None => 0,
        Some(spec) if spec.starts_with("delay:") => spec["delay:".len()..]
            .parse()
            .map_err(|_| HttpError::new(400, format!("bad inject spec '{spec}'")))?,
        Some(other) => return Err(HttpError::new(400, format!("unknown inject '{other}'"))),
    };

    // Serialize concurrent ingests with a dedicated mutex. The state
    // write lock is NOT held while the successor is built — readers
    // (`snapshot()`) keep going throughout; they only contend on the
    // final pointer swap.
    let mut scratch = shared.ingest.lock().expect("ingest lock");
    let current = shared.snapshot();
    let Some(prev) = current.items.get(item) else {
        return Err(HttpError::new(
            404,
            format!(
                "item {item} out of range (corpus has {} items)",
                current.items.len()
            ),
        ));
    };

    // Build the successor: clone the one edited item, leave every other
    // `ItemVersion` shared by `Arc`.
    let mut new_item = prev.item().clone();
    let added = texts.len();
    for t in texts {
        new_item.reviews.push(Review {
            text: t,
            planted: Vec::new(),
        });
    }
    if delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(delay_ms.min(10_000)));
    }
    // If the outgoing revision already has artifacts, advance them
    // incrementally: only the appended reviews are re-extracted, the
    // graph deltas are merged, and the CELF keys are maintained —
    // byte-identical to a from-scratch build (the `osa-check --edits`
    // oracle's contract). Otherwise the new revision builds lazily on
    // first demand.
    let artifacts = OnceLock::new();
    if let Some(prev_art) = prev.artifacts.get() {
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            prev_art.update(
                &current.hierarchy,
                &current.extractor,
                &shared.artifact_opts,
                &new_item,
                &mut scratch,
            )
        }));
        let updated = caught.map_err(|payload| {
            // The panic may have left the scratch mid-update; replace it
            // before the next ingest reuses it. Nothing was published.
            *scratch = WorkerScratch::new();
            osa_obs::global().add("serve.panics", 1);
            HttpError::new(
                500,
                format!("ingest panicked: {}", panic_message(payload.as_ref())),
            )
        })?;
        let _ = artifacts.set(Arc::new(updated));
        osa_obs::global().add("serve.ingest.incremental", 1);
    }
    let rev = prev.rev + 1;
    let mut items = current.items.clone();
    items[item] = Arc::new(ItemVersion {
        rev,
        source: ItemSource::Ready {
            item: new_item,
            preextracted: None,
        },
        artifacts,
    });
    let next = Arc::new(EpochState {
        name: current.name.clone(),
        hierarchy: current.hierarchy.clone(),
        extractor: current.extractor.clone(),
        items,
        version: current.version + 1,
    });

    // Publish: a short write-lock swap, then retire the old snapshot
    // into the bounded history (evicting the oldest is the change-root
    // advancing — it frees every `ItemVersion` no live snapshot shares).
    let old = {
        let mut guard = shared.state.write().expect("state lock");
        std::mem::replace(&mut *guard, next)
    };
    {
        let mut history = shared.history.lock().expect("history lock");
        history.push_back(old);
        while history.len() > HISTORY_LIMIT {
            history.pop_front();
        }
    }
    osa_obs::global().add("serve.ingest.reviews", added as u64);
    osa_obs::global().add("serve.epoch.bumps", 1);
    Ok((item, added, rev))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_distinguishes_every_parameter() {
        let base = SummaryParams {
            item: 1,
            opts: BatchOptions::default(),
            inject: Inject::None,
        };
        let k0 = cache_key(&base, 0);
        assert_eq!(k0, cache_key(&base.clone(), 0));
        assert_ne!(k0, cache_key(&base, 1), "item revision must be in the key");
        let mut other = base.clone();
        other.opts.k = 7;
        assert_ne!(k0, cache_key(&other, 0));
        let mut other = base.clone();
        other.opts.eps = 0.75;
        assert_ne!(k0, cache_key(&other, 0));
        let mut other = base.clone();
        other.opts.algorithm = BatchAlgorithm::LazyGreedy;
        assert_ne!(k0, cache_key(&other, 0));
        let mut other = base.clone();
        other.opts.granularity = Granularity::Reviews;
        assert_ne!(k0, cache_key(&other, 0));
        let mut other = base;
        other.opts.ancestor_impl = AncestorImpl::Segmented;
        assert_ne!(k0, cache_key(&other, 0));
    }

    #[test]
    fn summary_params_reject_bad_input() {
        let req = |target: &str| Request {
            method: "GET".to_owned(),
            path: target.split('?').next().unwrap().to_owned(),
            query: target
                .split_once('?')
                .map(|(_, q)| {
                    q.split('&')
                        .map(|kv| {
                            let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                            (k.to_owned(), v.to_owned())
                        })
                        .collect()
                })
                .unwrap_or_default(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        let d = BatchOptions::default();
        assert!(parse_summary_params(&req("/summary/3?k=4&eps=0.25"), &d).is_ok());
        let every_key =
            "/summary/3?k=4&eps=0.25&algo=lazy&granularity=reviews&ancestor-impl=segmented&inject=delay:1";
        assert!(parse_summary_params(&req(every_key), &d).is_ok());
        let err = parse_summary_params(&req("/summary/3?k=4&graph-impl=naive"), &d).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("'graph-impl'"), "{}", err.message);
        for bad in [
            "/summary/abc",
            "/summary/3?k=x",
            "/summary/3?eps=nan",
            "/summary/3?eps=inf",
            "/summary/3?eps=-1",
            "/summary/3?algo=quantum",
            "/summary/3?granularity=words",
            "/summary/3?graph-impl=naive",
            "/summary/3?extract-impl=naive",
            "/summary/3?k=4&kk=5",
            "/summary/3?ancestor-impl=magic",
            "/summary/3?inject=fire",
            "/summary/3?inject=delay:x",
        ] {
            assert!(parse_summary_params(&req(bad), &d).is_err(), "{bad}");
        }
    }
}
