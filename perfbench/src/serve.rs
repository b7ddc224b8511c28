//! `serve-mixed`: the daemon booted lazily from a compiled artifact,
//! read and written over HTTP.
//!
//! A run has [`GROUPS`] × [`REPLAYS`] segments. Each set-up generates a
//! doctors corpus shaped like the `large` preset (one corpus per group),
//! holds back the last [`HOLD`] reviews of every item, compiles the rest
//! with `osa_artifact::encode`, opens it with `lazy_from_bytes` and boots
//! `serve_artifact` with `ServeOptions::default()`. Then
//!
//! 1. a sequential cold sweep, one `GET /summary/{item}` per item, each
//!    paying block decode, artifact build and solve (`cold_p50_us`, and
//!    `throughput` as items per second of the sweep), then
//! 2. a seeded Poisson open loop at [`RATE`] requests per second, for
//!    its share of `--seconds`, from one generator thread over [`CONNS`]
//!    keep-alive connections: `GET`s with a Zipf-distributed item and
//!    parameters from a fixed set, plus a [`POST_SHARE`] of
//!    `POST /reviews` appending the held-back reviews. Each request is
//!    timed from when it was due. The replays of a group run the same
//!    schedule, and a request's latency is its median over them.
//!
//! Every latency is divided by the host's slowdown at its time, read
//! from a small sort kernel sampled between requests (`calib::SpeedTrack`).
//!
//! After each open loop a seeded sample of served summaries must equal
//! `render_item_summary` of the batch pipeline over the same reviews.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use osa_datasets::{Corpus, CorpusConfig, ExtractImpl, ExtractedItem, Extractor, Item, Review};
use osa_runtime::incremental::ItemArtifacts;
use osa_runtime::{render_item_summary, summarize_one, BatchOptions, Fault, WorkerScratch};
use osa_serve::{serve_artifact, ServeOptions, ServerHandle};

use crate::batch::{per_index_median, ratio, write_spans};
use crate::calib::SpeedTrack;
use crate::rng::{SplitMix64, Zipf};
use crate::spans::{self, Span, Tracer};
use crate::stats::{median, percentile};
use crate::{micros, peak_rss_mb, secs, Args, Outcome};

/// Open-loop arrival rate, requests per second. Each request costs the
/// 2-vCPU reference host well under a millisecond of CPU on average, so
/// the daemon stays far from saturation even when the host runs slow.
/// A miss arriving while another miss runs waits for it; at 200 req/s
/// that happened to nearly 1% of requests, and in the host's slow phases
/// the p99 doubled in three of twenty runs. Over eight seeds, 130 req/s
/// spread the p99 0.08 where 100 req/s spread it 0.17: the percentile
/// rests on a third more requests.
pub const RATE: f64 = 130.0;
/// Corpus-and-schedule groups per run, and the replays of each; the
/// run boots `GROUPS * REPLAYS` daemons and `setup_s` is the median boot.
pub const GROUPS: usize = 4;
pub const REPLAYS: usize = 3;
/// Share of open-loop requests that are `POST /reviews`.
pub const POST_SHARE: f64 = 0.05;
/// Keep-alive connections the open loop sends over.
pub const CONNS: usize = 2;
/// How long before a request is due the generator stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_micros(200);
/// The least time to the next due request in which the generator takes
/// a [`SpeedTrack`] sample (about 0.4–0.8 ms).
const TRACK_GAP: Duration = Duration::from_micros(1500);
/// Zipf exponents of the item and of the parameter choice. With the
/// default cache and [`POST_SHARE`] they put the hit share near 81%: p50
/// lands among hits and p99 among misses, neither near the boundary. The
/// flat item exponent spreads the misses over many items, so the tail
/// does not hang on the size of the few most popular ones.
const ITEM_ZIPF: f64 = 0.5;
const PARAM_ZIPF: f64 = 3.0;
/// Reviews held back per item for ingest.
const HOLD: usize = 4;
/// Served summaries compared against the batch pipeline after each
/// open loop.
const VERIFY_SAMPLES: usize = 12;
/// Latency charged to a failed or refused request: it misses any limit.
const FAILED_US: f64 = 60e6;

/// One `GET /summary` parameter choice.
#[derive(Debug, Clone, Copy)]
struct Params {
    k: usize,
    eps: f64,
    lazy: bool,
    reviews: bool,
}

/// The fixed parameter set, the daemon's defaults first: k ∈ {3,5,8},
/// ε ∈ {0.3,0.5,0.7}, greedy or lazy, sentences or reviews.
fn param_set() -> Vec<Params> {
    let mut out = Vec::new();
    for lazy in [false, true] {
        for reviews in [false, true] {
            for eps in [0.5, 0.3, 0.7] {
                for k in [5, 3, 8] {
                    out.push(Params {
                        k,
                        eps,
                        lazy,
                        reviews,
                    });
                }
            }
        }
    }
    out
}

impl Params {
    fn query(&self) -> String {
        format!(
            "k={}&eps={}&algo={}&granularity={}",
            self.k,
            self.eps,
            if self.lazy { "lazy" } else { "greedy" },
            if self.reviews { "reviews" } else { "sentences" }
        )
    }

    fn opts(&self, base: &BatchOptions) -> BatchOptions {
        BatchOptions {
            k: self.k,
            eps: self.eps,
            algorithm: if self.lazy {
                osa_runtime::BatchAlgorithm::LazyGreedy
            } else {
                osa_runtime::BatchAlgorithm::Greedy
            },
            granularity: if self.reviews {
                osa_core::Granularity::Reviews
            } else {
                osa_core::Granularity::Sentences
            },
            ..base.clone()
        }
    }
}

// --- HTTP client -----------------------------------------------------------

/// One keep-alive HTTP/1.1 connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// The parts of a response the benchmark reads.
#[derive(Debug, Default)]
struct Reply {
    status: u16,
    hit: bool,
    /// `Server-Timing` total and queue wait, in µs.
    server_us: Option<f64>,
    queue_us: f64,
    body: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    fn call(&mut self, method: &str, target: &str, body: &[u8]) -> std::io::Result<Reply> {
        let mut msg = format!("{method} {target} HTTP/1.1\r\nHost: perfbench\r\n").into_bytes();
        if !body.is_empty() {
            msg.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
        }
        msg.extend_from_slice(b"\r\n");
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;

        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let mut reply = Reply {
            status: line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("bad status line"))?,
            ..Reply::default()
        };
        let mut len = 0usize;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed in headers"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            let Some((name, value)) = l.split_once(':') else {
                continue;
            };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => len = value.parse().map_err(|_| bad("content-length"))?,
                "x-osars-cache" => reply.hit = value == "hit",
                "server-timing" => {
                    for entry in value.split(',') {
                        let (name, dur) = entry.trim().split_once(";dur=").unwrap_or(("", ""));
                        let Ok(ms) = dur.parse::<f64>() else { continue };
                        match name {
                            "total" => reply.server_us = Some(ms * 1e3),
                            "serve.queue.wait" => reply.queue_us = ms * 1e3,
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        reply.body = vec![0; len];
        self.reader.read_exact(&mut reply.body)?;
        Ok(reply)
    }
}

// --- open loop -------------------------------------------------------------

/// Timing of one open-loop request, relative to the loop's start.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
}

impl Timing {
    /// Latency charged from when the request was due: a stall ahead of
    /// it counts against it.
    pub fn latency_us(&self) -> f64 {
        self.done.saturating_sub(self.due).as_secs_f64() * 1e6
    }
}

/// Run an open loop: one generator thread releases request `i` at
/// `due[i]` after the start into a shared queue, and `conns` connection
/// threads take requests from it in order and execute them with
/// `exec(conn, i)`. Returns each request's result and timing, in request
/// order, plus the generator's lateness per request in µs.
///
/// With a `track`, the generator samples it (at seconds since the start)
/// in gaps where no request is in flight and the next one is due more
/// than [`TRACK_GAP`] away, so the kernel never competes with a request.
pub fn open_loop<R: Send>(
    due: &[Duration],
    conns: usize,
    mut track: Option<&mut SpeedTrack>,
    exec: impl Fn(usize, usize) -> R + Sync,
) -> (Vec<(R, Timing)>, Vec<f64>) {
    let queue: Mutex<(VecDeque<usize>, bool)> = Mutex::new((VecDeque::new(), false));
    let ready = Condvar::new();
    let in_flight = AtomicUsize::new(0);
    let start = Instant::now();
    let mut lags = Vec::with_capacity(due.len());
    let mut done: Vec<Vec<(usize, R, Timing)>> = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|conn| {
                let (queue, ready, exec, in_flight) = (&queue, &ready, &exec, &in_flight);
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = {
                            let mut q = queue.lock().expect("open-loop queue");
                            loop {
                                if let Some(i) = q.0.pop_front() {
                                    break Some(i);
                                }
                                if q.1 {
                                    break None;
                                }
                                q = ready.wait(q).expect("open-loop queue");
                            }
                        };
                        let Some(i) = i else { break out };
                        let sent = start.elapsed();
                        let r = exec(conn, i);
                        let t = Timing {
                            due: due[i],
                            sent,
                            done: start.elapsed(),
                        };
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                        out.push((i, r, t));
                    }
                })
            })
            .collect();
        for (i, &d) in due.iter().enumerate() {
            // Sleep to just short of the due time, then spin, yielding to
            // any runnable thread: a sleep alone overshoots by the timer
            // slack and a wake-up, which vary with the host's load and
            // would land in every latency, and a bare spin holds a vCPU
            // the daemon may need for the request still in flight.
            if let Some(track) = track.as_deref_mut() {
                let now = start.elapsed();
                if in_flight.load(Ordering::SeqCst) == 0 && d > now + TRACK_GAP {
                    track.sample(now.as_secs_f64());
                }
            }
            let now = start.elapsed();
            if d > now + SPIN {
                std::thread::sleep(d - now - SPIN);
            }
            while start.elapsed() < d {
                std::thread::yield_now();
            }
            lags.push(start.elapsed().saturating_sub(d).as_secs_f64() * 1e6);
            in_flight.fetch_add(1, Ordering::SeqCst);
            queue.lock().expect("open-loop queue").0.push_back(i);
            ready.notify_one();
        }
        queue.lock().expect("open-loop queue").1 = true;
        ready.notify_all();
        for w in workers {
            done.push(w.join().expect("open-loop connection thread"));
        }
    });
    let mut all: Vec<(usize, R, Timing)> = done.into_iter().flatten().collect();
    all.sort_by_key(|(i, _, _)| *i);
    (all.into_iter().map(|(_, r, t)| (r, t)).collect(), lags)
}

// --- the workload ----------------------------------------------------------

/// One open-loop operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Get {
        item: usize,
        params: usize,
    },
    /// Append held-back review `review` of `item`.
    Post {
        item: usize,
        review: usize,
    },
}

/// The seeded open-loop schedule: due times and operations.
fn schedule(seed: u64, seconds: f64, items: usize, params: usize) -> (Vec<Duration>, Vec<Op>) {
    let mut rng = SplitMix64::new(seed ^ 0x5E2E_0100);
    let item_zipf = Zipf::new(items, ITEM_ZIPF);
    let param_zipf = Zipf::new(params, PARAM_ZIPF);
    let mut posted = vec![0usize; items];
    let mut next_post = 0usize;
    let (mut due, mut ops) = (Vec::new(), Vec::new());
    let mut t = rng.exp(RATE);
    while t < seconds {
        due.push(Duration::from_secs_f64(t));
        let post_item = (0..items)
            .map(|j| (next_post + j) % items)
            .find(|&i| posted[i] < HOLD);
        match post_item {
            Some(item) if rng.next_f64() < POST_SHARE => {
                ops.push(Op::Post {
                    item,
                    review: posted[item],
                });
                posted[item] += 1;
                next_post = item + 1;
            }
            _ => ops.push(Op::Get {
                item: item_zipf.sample(&mut rng),
                params: param_zipf.sample(&mut rng),
            }),
        }
        t += rng.exp(RATE);
    }
    (due, ops)
}

/// The `large` doctors preset (120 items, 110 reviews on average) with
/// every item at the average review count. A miss costs time in
/// proportion to the item's size, and with the preset's exponential tail
/// the p99 hung on which items the seed made large.
fn corpus_config() -> CorpusConfig {
    let large = CorpusConfig::doctors_large();
    let reviews = large.mean_reviews as usize;
    CorpusConfig {
        min_reviews: reviews,
        max_reviews: reviews,
        ..large
    }
}

/// A booted daemon and what the benchmark knows about its corpus.
struct Daemon {
    /// The boot corpus (held-back reviews removed).
    corpus: Corpus,
    held: Vec<Vec<Review>>,
    /// The compiled artifact, kept for the traced mode's replays.
    bytes: Option<Vec<u8>>,
    handle: ServerHandle,
    clients: Vec<Mutex<Client>>,
}

impl Daemon {
    fn shutdown(self) {
        drop(self.clients);
        self.handle.shutdown();
    }
}

/// Set-up: generate, hold back, compile, open, boot, connect. Returns the
/// daemon and the set-up seconds, encode ms and open ms.
fn boot(seed: u64, keep_bytes: bool) -> (Daemon, f64, f64, f64) {
    let t = Instant::now();
    let mut corpus = Corpus::doctors(&corpus_config(), seed);
    let held: Vec<Vec<Review>> = corpus
        .items
        .iter_mut()
        .map(|it| {
            let keep = it.reviews.len() - HOLD;
            it.reviews.split_off(keep)
        })
        .collect();
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = WorkerScratch::new();
    let extracted: Vec<ExtractedItem> = corpus
        .items
        .iter()
        .map(|it| extractor.extract(it, ExtractImpl::Interned, &mut scratch.extract))
        .collect();
    let te = Instant::now();
    let bytes = osa_artifact::encode(&corpus, &extracted);
    let encode_ms = micros(te) / 1e3;
    let kept = keep_bytes.then(|| bytes.clone());
    let to = Instant::now();
    let lazy = osa_artifact::lazy_from_bytes(bytes).expect("freshly encoded artifact opens");
    let open_ms = micros(to) / 1e3;
    let handle = serve_artifact(lazy, "127.0.0.1:0", ServeOptions::default())
        .expect("daemon binds a loopback port");
    let clients: Vec<Mutex<Client>> = (0..CONNS)
        .map(|_| {
            let mut c = Client::connect(handle.addr()).expect("connect to the daemon");
            let r = c.call("GET", "/healthz", b"").expect("healthz");
            assert_eq!(r.status, 200, "daemon is healthy");
            Mutex::new(c)
        })
        .collect();
    let setup_s = secs(t);
    (
        Daemon {
            corpus,
            held,
            bytes: kept,
            handle,
            clients,
        },
        setup_s,
        encode_ms,
        open_ms,
    )
}

/// The cold sweep: one default-parameter `GET` per item, in order.
/// Returns per-item latencies (µs) and the failures (non-200 or cache
/// hits, which a cold sweep cannot have). With a `track`, a sample
/// follows every request and each latency is divided by the track's
/// slowdown at its time.
fn cold_sweep(d: &Daemon, mut track: Option<&mut SpeedTrack>) -> (Vec<f64>, u64) {
    let mut c = d.clients[0].lock().expect("client");
    let start = Instant::now();
    let mut us = Vec::new();
    let mut at = Vec::new();
    let mut failed = 0;
    for i in 0..d.corpus.items.len() {
        at.push(secs(start));
        let ti = Instant::now();
        match c.call("GET", &format!("/summary/{i}"), b"") {
            Ok(r) if r.status == 200 && !r.hit => us.push(micros(ti)),
            _ => {
                failed += 1;
                us.push(FAILED_US);
            }
        }
        if let Some(track) = track.as_deref_mut() {
            track.sample(secs(start));
        }
    }
    if let Some(track) = track {
        for (u, &t) in us.iter_mut().zip(&at) {
            if *u < FAILED_US {
                *u /= track.slowdown_at(t);
            }
        }
    }
    (us, failed)
}

/// What one open-loop request returned.
#[derive(Debug, Default)]
struct Outcome1 {
    ok: bool,
    status: u16,
    hit: bool,
    server_us: Option<f64>,
    queue_us: f64,
    added: u64,
}

fn post_body(item: usize, text: &str) -> String {
    osa_json::to_string(&osa_json::Value::Object(vec![
        ("item".to_owned(), osa_json::Value::Number(item as f64)),
        (
            "reviews".to_owned(),
            osa_json::Value::Array(vec![osa_json::Value::String(text.to_owned())]),
        ),
    ]))
}

fn exec(d: &Daemon, params: &[Params], op: Op, conn: usize) -> Outcome1 {
    let mut c = d.clients[conn].lock().expect("client");
    let reply = match op {
        Op::Get { item, params: p } => c.call(
            "GET",
            &format!("/summary/{item}?{}", params[p].query()),
            b"",
        ),
        Op::Post { item, review } => c.call(
            "POST",
            "/reviews",
            post_body(item, &d.held[item][review].text).as_bytes(),
        ),
    };
    match reply {
        Ok(r) => Outcome1 {
            ok: (200..300).contains(&r.status),
            status: r.status,
            hit: r.hit,
            server_us: r.server_us,
            queue_us: r.queue_us,
            added: match op {
                Op::Post { .. } if r.status == 200 => {
                    osa_json::parse(std::str::from_utf8(&r.body).unwrap_or_default())
                        .ok()
                        .and_then(|v| v.get("added").and_then(osa_json::Value::as_u64))
                        .unwrap_or(0)
                }
                _ => 0,
            },
        },
        Err(_) => Outcome1::default(),
    }
}

/// Served summaries of a seeded sample of (item, parameters) must equal
/// the batch pipeline over the item's current reviews, at the revision
/// the client's ingests imply.
fn verify(d: &Daemon, params: &[Params], posted: &[usize], seed: u64) -> bool {
    let items: Vec<Item> = d
        .corpus
        .items
        .iter()
        .zip(&d.held)
        .zip(posted)
        .map(|((it, held), &n)| {
            let mut it = it.clone();
            it.reviews.extend_from_slice(&held[..n]);
            it
        })
        .collect();
    let reference = Corpus {
        name: d.corpus.name.clone(),
        hierarchy: d.corpus.hierarchy.clone(),
        items,
    };
    let extractor = Extractor::from_hierarchy(&reference.hierarchy);
    let mut scratch = WorkerScratch::new();
    let base = ServeOptions::default().defaults;
    let mut rng = SplitMix64::new(seed ^ 0x7E41F1);
    let mut c = d.clients[0].lock().expect("client");
    let mut ok = true;
    for _ in 0..VERIFY_SAMPLES {
        let item = rng.below(reference.items.len());
        let p = params[rng.below(params.len())];
        let Ok(reply) = c.call("GET", &format!("/summary/{item}?{}", p.query()), b"") else {
            return false;
        };
        let body = osa_json::parse(std::str::from_utf8(&reply.body).unwrap_or_default()).ok();
        let text = body
            .as_ref()
            .and_then(|b| b.get("text")?.as_str().map(str::to_owned));
        let rev = body.as_ref().and_then(|b| b.get("epoch")?.as_u64());
        let want = summarize_one(
            &reference,
            &extractor,
            &p.opts(&base),
            &mut scratch,
            item,
            Fault::None,
        )
        .map(|s| render_item_summary(&s));
        if reply.status != 200 || text != want || rev != Some(posted[item] as u64) {
            eprintln!(
                "perfbench: served summary of item {item} ({}) differs",
                p.query()
            );
            ok = false;
        }
    }
    ok
}

/// The open-loop phase's results.
struct Loop {
    results: Vec<(Outcome1, Timing)>,
    lags: Vec<f64>,
    ops: Vec<Op>,
    /// Reviews appended per item by successful `POST`s.
    posted: Vec<usize>,
}

fn run_loop(
    d: &Daemon,
    params: &[Params],
    due: &[Duration],
    ops: &[Op],
    track: Option<&mut SpeedTrack>,
) -> Loop {
    let (results, lags) = open_loop(due, CONNS, track, |conn, i| exec(d, params, ops[i], conn));
    let mut posted = vec![0usize; d.corpus.items.len()];
    for (op, (r, _)) in ops.iter().zip(&results) {
        if let Op::Post { item, .. } = op {
            if r.ok {
                posted[*item] += r.added as usize;
            }
        }
    }
    Loop {
        results,
        lags,
        ops: ops.to_vec(),
        posted,
    }
}

impl Loop {
    /// Due-based latency of every request, divided by the `track`'s
    /// slowdown at its due time; a failed one is charged [`FAILED_US`].
    fn latencies(&self, track: &SpeedTrack) -> Vec<f64> {
        self.results
            .iter()
            .map(|(r, t)| {
                if r.ok {
                    t.latency_us() / track.slowdown_at(t.due.as_secs_f64())
                } else {
                    FAILED_US
                }
            })
            .collect()
    }

    fn failed(&self) -> u64 {
        self.results.iter().filter(|(r, _)| !r.ok).count() as u64
    }
}

/// Each request's latency over the segments that replayed it: the
/// median, or [`FAILED_US`] if it failed in any of them.
fn per_request(segments: &[Vec<f64>]) -> Vec<f64> {
    per_index_median(segments)
        .into_iter()
        .enumerate()
        .map(|(i, m)| {
            if segments.iter().any(|s| s[i] >= FAILED_US) {
                FAILED_US
            } else {
                m
            }
        })
        .collect()
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

/// The corpus seed of group `g`: group 0 uses the run's seed.
fn group_seed(seed: u64, g: usize) -> u64 {
    seed ^ (g as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// [`GROUPS`] × [`REPLAYS`] segments, each a set-up (boot), a cold sweep
/// and an open loop of its share of `--seconds` on that daemon. A group
/// has a corpus and an open-loop schedule of its own, and its replays
/// run that schedule against freshly booted daemons, so request `i` of a
/// group meets the same cache state each time; the replays of the groups
/// alternate through the run. Every latency is divided by the host's
/// slowdown at its time (see `calib::SpeedTrack`). A request's latency is
/// its median over its group's replays, so a stall of the host in one
/// replay does not land in the tail, and the percentiles are over the
/// requests of all groups: the p99 of one corpus and schedule rested on a
/// few misses and moved with the seed.
fn run_untraced(args: &Args) -> Outcome {
    let params = param_set();
    let slice = args.seconds / (GROUPS * REPLAYS) as u32;
    let mut schedules: Vec<(Vec<Duration>, Vec<Op>)> = Vec::new();
    let mut latencies: Vec<Vec<Vec<f64>>> = vec![Vec::new(); GROUPS];
    let mut setup_s = Vec::new();
    let mut cold = Vec::new();
    let mut slowdowns = Vec::new();
    let (mut hits, mut gets, mut ingested) = (0usize, 0usize, 0usize);
    let mut correct = true;
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut rss = 0.0;
    for r in 0..REPLAYS {
        for g in 0..GROUPS {
            let seed = group_seed(args.seed, g);
            let (d, s, _, _) = boot(seed, false);
            setup_s.push(s);
            let mut track = SpeedTrack::new();
            let (us, f) = cold_sweep(&d, Some(&mut track));
            slowdowns.push(track.slowdown());
            attempted += us.len() as u64;
            failed += f;
            cold.extend(us);
            if schedules.len() == g {
                let items = d.corpus.items.len();
                schedules.push(schedule(seed, slice.as_secs_f64(), items, params.len()));
            }
            let (due, ops) = &schedules[g];
            let mut track = SpeedTrack::new();
            let lp = run_loop(&d, &params, due, ops, Some(&mut track));
            slowdowns.push(track.slowdown());
            attempted += lp.results.len() as u64 + VERIFY_SAMPLES as u64;
            failed += lp.failed();
            correct &= verify(&d, &params, &lp.posted, seed);
            latencies[g].push(lp.latencies(&track));
            for (op, (res, _)) in lp.ops.iter().zip(&lp.results) {
                if matches!(op, Op::Get { .. }) {
                    gets += 1;
                    hits += usize::from(res.hit);
                }
            }
            ingested += lp.posted.iter().sum::<usize>();
            // Later daemons reuse memory the allocator kept from earlier
            // ones in a scheduling-dependent way; the peak of the first
            // segment is one daemon's, from boot through its open loop.
            if r == 0 && g == 0 {
                rss = peak_rss_mb();
            }
            d.shutdown();
        }
    }
    let (mut get_us, mut post_us) = (Vec::new(), Vec::new());
    for ((_, ops), lat) in schedules.iter().zip(&latencies) {
        for (op, us) in ops.iter().zip(per_request(lat)) {
            match op {
                Op::Get { .. } => get_us.push(us),
                Op::Post { .. } => post_us.push(us),
            }
        }
    }
    eprintln!(
        "perfbench serve-mixed: {} GET and {} POST in {GROUPS} groups of {REPLAYS} replays \
         (hit share {:.3}), {} reviews ingested, setup {:?} s, host slowdown {:.3} \
         (sweeps and loops, median)",
        get_us.len(),
        post_us.len(),
        hits as f64 / gets.max(1) as f64,
        ingested,
        setup_s,
        median(&slowdowns)
    );

    let mut out = Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: BTreeMap::new(),
    };
    out.set("setup_s", median(&setup_s));
    out.set(
        "throughput",
        cold.len() as f64 / (cold.iter().sum::<f64>() / 1e6),
    );
    out.set("peak_rss_mb", rss);
    out.set("latency_p50_us", percentile(&get_us, 50.0));
    out.set("latency_p99_us", percentile(&get_us, 99.0));
    out.set("cold_p50_us", median(&cold));
    out.set("ingest_p50_us", percentile(&post_us, 50.0));
    out
}

/// The traced mode: one set-up and cold sweep, the open loop with client
/// spans on every other request (so traced and untraced requests share
/// the same conditions), then replays of the layers the daemon runs
/// internally, each through its public function inside a span: block
/// decode (`ItemStore::item`), artifact build
/// (`ItemArtifacts::from_extracted`), incremental update
/// (`ItemArtifacts::update`) and ingest-body parsing (`osa_json::parse`).
fn run_traced(args: &Args) -> Outcome {
    let epoch = Instant::now();
    let params = param_set();
    let (d, _, encode_ms, open_ms) = boot(args.seed, true);
    let (cold, mut failed) = cold_sweep(&d, None);
    let mut attempted = cold.len() as u64;
    let (due, ops) = schedule(
        args.seed,
        args.seconds.as_secs_f64(),
        d.corpus.items.len(),
        params.len(),
    );
    let lp = run_loop(&d, &params, &due, &ops, None);
    attempted += lp.results.len() as u64;
    failed += lp.failed();
    let mut correct = verify(&d, &params, &lp.posted, args.seed);
    attempted += VERIFY_SAMPLES as u64;
    let server_ingested = osa_obs::global()
        .snapshot()
        .counters
        .iter()
        .find(|(k, _)| k == "serve.ingest.reviews")
        .map_or(0, |(_, v)| *v);
    let client_ingested: usize = lp.posted.iter().sum();
    correct &= server_ingested == client_ingested as u64;

    // Client spans: every other request, from due time to response.
    let mut traces: Vec<Vec<Span>> = Vec::new();
    let (mut traced_lat, mut plain_lat) = (Vec::new(), Vec::new());
    for (i, (op, (r, t))) in lp.ops.iter().zip(&lp.results).enumerate() {
        if !matches!(op, Op::Get { .. }) || !r.ok {
            continue;
        }
        if i % 2 == 0 {
            traces.push(request_spans(i as u64, t, r));
            traced_lat.push(t.latency_us());
        } else {
            plain_lat.push(t.latency_us());
        }
    }

    // Replays of the daemon's internal layers.
    let mut tr = Tracer::new(epoch, u64::MAX - 2);
    let bytes = d.bytes.clone().expect("traced boot keeps the artifact");
    let lazy = tr.time("artifact.open", || {
        osa_artifact::lazy_from_bytes(bytes).expect("artifact reopens")
    });
    let t = Instant::now();
    tr.time("ontology.index_build", || {
        lazy.hierarchy.ancestor_index().entry_count()
    });
    let index_ms = micros(t) / 1e3;
    let index_entries = lazy.hierarchy.ancestor_index().entry_count();
    let opts = BatchOptions {
        jobs: 1,
        ..ServeOptions::default().defaults
    };
    let extractor = Extractor::from_hierarchy(&lazy.hierarchy);
    let mut scratch = WorkerScratch::new();
    let (mut decode_us, mut build_us, mut update_us, mut parse_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut arts = Vec::new();
    for i in 0..lazy.store.len() {
        let t = Instant::now();
        let (item, ex) = tr.time("artifact.decode", || {
            lazy.store.item(i).expect("block decodes")
        });
        decode_us.push(micros(t));
        correct &= item.reviews.len() == d.corpus.items[i].reviews.len();
        let t = Instant::now();
        let art = tr.time("runtime.build", || {
            ItemArtifacts::from_extracted(&lazy.hierarchy, &opts, &item, ex, &mut scratch)
        });
        build_us.push(micros(t));
        arts.push((item, art));
    }
    for op in &lp.ops {
        let Op::Post { item, review } = *op else {
            continue;
        };
        let body = post_body(item, &d.held[item][review].text);
        let t = Instant::now();
        let parsed = tr.time("json.parse", || osa_json::parse(&body));
        parse_us.push(micros(t));
        correct &= parsed.is_ok();
        let (it, art) = &mut arts[item];
        it.reviews.push(d.held[item][review].clone());
        let t = Instant::now();
        *art = tr.time("runtime.update", || {
            art.update(&lazy.hierarchy, &extractor, &opts, it, &mut scratch)
        });
        update_us.push(micros(t));
    }
    traces.push(tr.finish());
    let mut table = BTreeMap::new();
    for s in &traces {
        spans::self_times(s, &mut table);
    }
    eprintln!(
        "perfbench serve-mixed traced: {} requests; {} reviews ingested (daemon counted {})\n\
         self time (client spans, then replays):\n{}",
        lp.results.len(),
        client_ingested,
        server_ingested,
        spans::render_table(&table)
    );
    write_spans(args, &traces);
    Daemon::shutdown(d);

    let gets: Vec<(&Outcome1, &Timing)> = lp
        .ops
        .iter()
        .zip(&lp.results)
        .filter(|(op, (r, _))| matches!(op, Op::Get { .. }) && r.ok)
        .map(|(_, (r, t))| (r, t))
        .collect();
    let misses: Vec<f64> = gets
        .iter()
        .filter(|(r, _)| !r.hit)
        .map(|(_, t)| t.latency_us())
        .collect();
    let server: Vec<f64> = gets.iter().filter_map(|(r, _)| r.server_us).collect();
    let queue: Vec<f64> = gets
        .iter()
        .filter(|(r, _)| !r.hit)
        .map(|(r, _)| r.queue_us)
        .collect();
    let remainder: Vec<f64> = gets
        .iter()
        .filter_map(|(r, t)| {
            let client = t.done.saturating_sub(t.sent).as_secs_f64() * 1e6;
            r.server_us.map(|s| client - s)
        })
        .collect();
    let hits = gets.iter().filter(|(r, _)| r.hit).count();
    let rejected = lp
        .results
        .iter()
        .filter(|(r, _)| matches!(r.status, 503 | 504))
        .count();

    let mut out = Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: BTreeMap::new(),
    };
    // Layers this workload does not run report 0.
    for (name, _) in crate::PER_LAYER {
        out.set(name, 0.0);
    }
    out.set("ontology.index_build_ms", index_ms);
    out.set("ontology.index_entries", index_entries as f64);
    out.set("runtime.update_p50_us", percentile(&update_us, 50.0));
    out.set("runtime.build_p50_us", percentile(&build_us, 50.0));
    out.set("artifact.encode_ms", encode_ms);
    out.set("artifact.open_ms", open_ms);
    out.set("artifact.block_decode_p50_us", percentile(&decode_us, 50.0));
    out.set("json.parse_p50_us", percentile(&parse_us, 50.0));
    out.set("serve.hit_ratio", ratio(hits as f64, gets.len() as f64));
    out.set("serve.miss_p50_us", percentile(&misses, 50.0));
    out.set("serve.server_p50_us", percentile(&server, 50.0));
    out.set("serve.server_p99_us", percentile(&server, 99.0));
    out.set("serve.queue_wait_p99_us", percentile(&queue, 99.0));
    out.set("serve.remainder_p50_us", percentile(&remainder, 50.0));
    out.set("serve.generator_lag_p99_us", percentile(&lp.lags, 99.0));
    out.set("serve.rejected", rejected as f64);
    out.set(
        "obs.trace_overhead_ratio",
        ratio(percentile(&traced_lat, 50.0), percentile(&plain_lat, 50.0)),
    );
    out
}

/// Client-side spans of one request: the whole request from its due
/// time, and the wait before it was sent.
fn request_spans(id: u64, t: &Timing, r: &Outcome1) -> Vec<Span> {
    let ns = |d: Duration| d.as_nanos() as u64;
    let mut spans = vec![
        Span {
            trace: id,
            name: if r.hit { "request.hit" } else { "request.miss" },
            start_ns: ns(t.due),
            end_ns: ns(t.done),
            parent: None,
        },
        Span {
            trace: id,
            name: "client.wait",
            start_ns: ns(t.due),
            end_ns: ns(t.sent),
            parent: Some(0),
        },
    ];
    if let Some(server_us) = r.server_us {
        let start = ns(t.sent);
        spans.push(Span {
            trace: id,
            name: "server",
            start_ns: start,
            end_ns: (start + (server_us * 1e3) as u64).min(ns(t.done)),
            parent: Some(0),
        });
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // Ten requests due 1 ms apart over one connection; the first
        // takes 40 ms. Every later request was due during the stall, so
        // its latency must include the wait, not just its own service.
        let due: Vec<Duration> = (0..10).map(Duration::from_millis).collect();
        let (results, lags) = open_loop(&due, 1, None, |_, i| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            i
        });
        assert_eq!(lags.len(), 10);
        for (i, (r, t)) in results.iter().enumerate() {
            assert_eq!(*r, i, "results come back in request order");
            assert!(t.sent >= t.due && t.done >= t.sent);
            if i > 0 {
                let floor = (40 - i as u64) as f64 * 1e3;
                assert!(t.latency_us() >= floor, "request {i}: {}", t.latency_us());
                assert!(t.sent >= Duration::from_millis(40));
            }
        }
    }

    #[test]
    fn schedule_is_seeded_and_ingests_every_review_in_order() {
        let (due_a, ops_a) = schedule(5, 20.0, 120, 36);
        let (due_b, ops_b) = schedule(5, 20.0, 120, 36);
        assert_eq!(due_a, due_b);
        assert_eq!(format!("{ops_a:?}"), format!("{ops_b:?}"));
        let (due_c, _) = schedule(6, 20.0, 120, 36);
        assert_ne!(due_a, due_c);
        // Poisson at RATE: the count is within a few standard deviations.
        let n = due_a.len() as f64;
        assert!(
            (n - RATE * 20.0).abs() < 5.0 * (RATE * 20.0f64).sqrt(),
            "{n}"
        );
        assert!(due_a.windows(2).all(|w| w[0] <= w[1]));
        let mut next = vec![0usize; 120];
        for op in &ops_a {
            if let Op::Post { item, review } = *op {
                assert_eq!(review, next[item], "held-back reviews go in order");
                next[item] += 1;
                assert!(next[item] <= HOLD);
            }
        }
        let posts = next.iter().sum::<usize>() as f64;
        assert!(
            posts > 0.5 * POST_SHARE * n && posts < 1.5 * POST_SHARE * n,
            "{posts}"
        );
    }

    #[test]
    fn the_parameter_set_starts_with_the_daemon_defaults() {
        let set = param_set();
        assert_eq!(set.len(), 36);
        let d = ServeOptions::default().defaults;
        let first = set[0].opts(&d);
        assert_eq!((first.k, first.eps), (d.k, d.eps));
        assert_eq!(first.algorithm, d.algorithm);
        assert_eq!(first.granularity, d.granularity);
    }
}
