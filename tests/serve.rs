//! End-to-end tests of the `osars serve` daemon: the served-vs-CLI
//! differential (a summary over HTTP must be byte-identical to the same
//! item's block in `osars summarize --item all` stdout), LRU cache
//! semantics keyed on per-item revisions (an ingest invalidates only
//! the edited item), incremental ingest under concurrency, panic
//! isolation, connection hygiene (timeouts, caps, duplicate
//! Content-Length), and queue backpressure/deadlines.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

use osars::datasets::{Corpus, CorpusConfig};
use osars::serve::{serve, ServeOptions, ServerHandle};

fn phones_small() -> Corpus {
    Corpus::phones(&CorpusConfig::phones_small(), 42)
}

fn start(opts: ServeOptions) -> ServerHandle {
    serve(phones_small(), "127.0.0.1:0", opts).expect("bind ephemeral port")
}

/// One blocking HTTP exchange over a fresh connection; returns
/// `(status, headers lowercased, body)`.
fn request(
    addr: std::net::SocketAddr,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> (u16, HashMap<String, String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let (head, payload) = text.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .expect("status line")
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: HashMap<String, String> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_owned()))
        .collect();
    (status, headers, payload.to_owned())
}

fn get(addr: std::net::SocketAddr, target: &str) -> (u16, HashMap<String, String>, String) {
    request(addr, "GET", target, None)
}

/// The `"text"` field of a summary response — the exact CLI rendering.
fn summary_text(body: &str) -> String {
    osars::json::parse(body)
        .expect("valid JSON body")
        .get("text")
        .and_then(|v| v.as_str().map(str::to_owned))
        .unwrap_or_else(|| panic!("no 'text' field in: {body}"))
}

fn epoch_of(body: &str) -> u64 {
    osars::json::parse(body)
        .expect("valid JSON body")
        .get("epoch")
        .and_then(osars::json::Value::as_u64)
        .expect("numeric epoch")
}

// --- served-vs-CLI differential --------------------------------------------

/// Concatenating the served `"text"` fields over every item must equal
/// `osars summarize --item all` stdout byte-for-byte at any `--jobs`,
/// and both must equal the reference pipeline of `osars check` (naive
/// extraction, naive graph build, cold solve).
#[test]
fn served_summaries_match_cli_stdout_across_impls() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();
    let (_, _, health) = get(addr, "/healthz");
    let items = osars::json::parse(&health)
        .unwrap()
        .get("items")
        .and_then(osars::json::Value::as_u64)
        .expect("item count") as usize;
    assert!(items > 0);

    let mut served = String::new();
    for item in 0..items {
        let (status, _, body) = get(addr, &format!("/summary/{item}"));
        assert_eq!(status, 200, "item {item}: {body}");
        served.push_str(&summary_text(&body));
    }
    let naive: String = osars::check::oracle::naive_pipeline(
        &phones_small(),
        &osars::runtime::BatchOptions::default(),
    )
    .iter()
    .map(osars::runtime::render_item_summary)
    .collect();
    assert_eq!(
        served, naive,
        "served summaries diverge from the naive pipeline"
    );

    for jobs in ["1", "3", "8"] {
        let cli = Command::new(env!("CARGO_BIN_EXE_osars"))
            .args([
                "summarize",
                "--domain",
                "phones",
                "--scale",
                "small",
                "--item",
                "all",
                "--jobs",
                jobs,
            ])
            .output()
            .expect("run osars summarize");
        assert!(
            cli.status.success(),
            "{}",
            String::from_utf8_lossy(&cli.stderr)
        );
        let expected = String::from_utf8(cli.stdout).expect("UTF-8 stdout");
        assert_eq!(
            served, expected,
            "served summaries diverge from CLI stdout at --jobs {jobs}"
        );
    }
    handle.shutdown();
}

// --- cache & epochs ---------------------------------------------------------

#[test]
fn lru_cache_hits_and_epoch_invalidation_under_concurrent_clients() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();

    // Cold → miss, warm → hit, byte-identical bodies.
    let (s1, h1, b1) = get(addr, "/summary/0?k=3");
    assert_eq!(s1, 200);
    assert_eq!(h1.get("x-osars-cache").map(String::as_str), Some("miss"));
    let (s2, h2, b2) = get(addr, "/summary/0?k=3");
    assert_eq!(s2, 200);
    assert_eq!(h2.get("x-osars-cache").map(String::as_str), Some("hit"));
    assert_eq!(b1, b2, "cache hit must serve the identical body");
    assert_eq!(epoch_of(&b1), 0);

    // Concurrent clients racing an ingest: every response must be a
    // consistent epoch-0 or epoch-1 body, never a torn mix.
    let ingest_body =
        r#"{"item":0,"reviews":["battery life is excellent","screen is too dim at night"]}"#;
    let readers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut bodies = Vec::new();
                for _ in 0..10 {
                    let (status, _, body) = get(addr, "/summary/0?k=3");
                    assert_eq!(status, 200, "{body}");
                    bodies.push(body);
                }
                bodies
            })
        })
        .collect();
    let (si, _, bi) = request(addr, "POST", "/reviews", Some(ingest_body));
    assert_eq!(si, 200, "{bi}");
    assert_eq!(epoch_of(&bi), 1);

    let mut by_epoch: HashMap<u64, String> = HashMap::new();
    for r in readers {
        for body in r.join().expect("reader thread") {
            let e = epoch_of(&body);
            assert!(e <= 1, "impossible epoch {e}");
            let prev = by_epoch.entry(e).or_insert_with(|| body.clone());
            assert_eq!(*prev, body, "two different bodies claim epoch {e}");
        }
    }

    // After the bump: a miss (old key is unreachable), new epoch, and
    // the re-request is a hit again.
    let (s3, h3, b3) = get(addr, "/summary/0?k=3");
    assert_eq!(s3, 200);
    assert_eq!(epoch_of(&b3), 1);
    assert_ne!(b1, b3, "epoch bump must change the response body");
    let (s4, h4, b4) = get(addr, "/summary/0?k=3");
    assert_eq!(s4, 200);
    assert_eq!(h4.get("x-osars-cache").map(String::as_str), Some("hit"));
    assert_eq!(b3, b4);
    // The post-bump cold request may race the reader threads above, so
    // only its *hit* flag is unasserted; h3 must still be present.
    assert!(h3.contains_key("x-osars-cache"));
    handle.shutdown();
}

#[test]
fn post_reviews_rejects_bad_input() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();
    for (body, why) in [
        ("not json", "malformed JSON"),
        (r#"{"reviews":["x"]}"#, "missing item"),
        (r#"{"item":0,"reviews":[]}"#, "empty reviews"),
        (r#"{"item":0,"reviews":[42]}"#, "non-string review"),
    ] {
        let (status, _, b) = request(addr, "POST", "/reviews", Some(body));
        assert_eq!(status, 400, "{why}: {b}");
    }
    let (status, _, _) = request(
        addr,
        "POST",
        "/reviews",
        Some(r#"{"item":9999,"reviews":["x"]}"#),
    );
    assert_eq!(status, 404, "out-of-range item");
    assert_eq!(
        handle.epoch(),
        0,
        "rejected ingests must not bump the epoch"
    );
    handle.shutdown();
}

// --- panic isolation --------------------------------------------------------

#[test]
fn poisoned_request_answers_500_and_the_daemon_keeps_serving() {
    osars::serve::quiet_injected_panics();
    let handle = start(ServeOptions::default());
    let addr = handle.addr();

    let (s0, _, before) = get(addr, "/summary/1");
    assert_eq!(s0, 200);

    for _ in 0..3 {
        let (status, _, body) = get(addr, "/summary/1?inject=panic");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("injected panic"), "{body}");
    }

    // Same worker pool, same scratch lineage — the answer afterwards is
    // byte-identical to the answer before the poison.
    let (s1, _, after) = get(addr, "/summary/1");
    assert_eq!(s1, 200);
    assert_eq!(before, after, "poisoned requests must not perturb results");
    handle.shutdown();
}

// --- backpressure & deadlines ----------------------------------------------

#[test]
fn full_queue_answers_503_and_stale_jobs_answer_504() {
    let handle = start(ServeOptions {
        workers: 1,
        queue_depth: 1,
        deadline_ms: 100,
        cache_capacity: 0, // every request must reach the worker
        ..ServeOptions::default()
    });
    let addr = handle.addr();

    // Occupy the single worker.
    let busy = std::thread::spawn(move || get(addr, "/summary/0?inject=delay:600"));
    std::thread::sleep(Duration::from_millis(150));
    // Fill the queue's single slot; by the time the worker frees up,
    // this job is past its 100ms deadline.
    let stale = std::thread::spawn(move || get(addr, "/summary/1"));
    std::thread::sleep(Duration::from_millis(150));
    // Queue full → immediate refusal.
    let (s_reject, _, b_reject) = get(addr, "/summary/2");
    assert_eq!(s_reject, 503, "{b_reject}");

    let (s_busy, _, _) = busy.join().expect("busy thread");
    assert_eq!(s_busy, 200);
    let (s_stale, _, b_stale) = stale.join().expect("stale thread");
    assert_eq!(s_stale, 504, "{b_stale}");
    handle.shutdown();
}

// --- tracing & flight recorder ---------------------------------------------

fn json(body: &str) -> osars::json::Value {
    osars::json::parse(body).unwrap_or_else(|e| panic!("invalid JSON ({e:?}): {body}"))
}

/// With `--slow-ms 1` and every request that must count as slow held
/// past that threshold by `inject=delay`, retention does not depend on
/// how fast a summary computes: the recorder must hold the error trace
/// (injected panic) and both slow traces (injected delays), with
/// summaries exposing id/path/status/total/reason.
#[test]
fn flight_recorder_retains_slow_and_error_traces() {
    osars::serve::quiet_injected_panics();
    let handle = start(ServeOptions {
        slow_ms: 1,
        ..ServeOptions::default()
    });
    let addr = handle.addr();

    let (s, _, _) = get(addr, "/summary/0?inject=delay:5");
    assert_eq!(s, 200);
    let (s, _, _) = get(addr, "/summary/0?inject=delay:50");
    assert_eq!(s, 200);
    let (s, _, _) = get(addr, "/summary/1?inject=panic");
    assert_eq!(s, 500);

    let (s, _, body) = get(addr, "/debug/traces");
    assert_eq!(s, 200, "{body}");
    let list = json(&body);
    let offered = list.get("offered").and_then(osars::json::Value::as_u64);
    let kept = list.get("kept").and_then(osars::json::Value::as_u64);
    assert_eq!(offered, Some(3), "{body}");
    assert_eq!(kept, Some(3), "all three cross a 1ms threshold: {body}");
    let traces = list
        .get("traces")
        .and_then(osars::json::Value::as_array)
        .expect("traces array");
    assert_eq!(traces.len(), 3);
    // Newest first: the panic, then the long delay, then the short one.
    let field = |t: &osars::json::Value, k: &str| {
        t.get(k)
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| panic!("no {k} in {body}"))
    };
    assert_eq!(field(&traces[0], "reason"), "error");
    assert_eq!(
        traces[0].get("status").and_then(osars::json::Value::as_u64),
        Some(500)
    );
    assert_eq!(field(&traces[0], "path"), "/summary/1?inject=panic");
    assert_eq!(field(&traces[1], "reason"), "slow");
    assert_eq!(field(&traces[1], "path"), "/summary/0?inject=delay:50");
    assert!(
        traces[1]
            .get("total_us")
            .and_then(osars::json::Value::as_u64)
            .expect("total_us")
            >= 50_000,
        "delayed request must include its delay: {body}"
    );
    assert_eq!(field(&traces[2], "reason"), "slow");
    for t in traces {
        assert!(t.get("id").and_then(osars::json::Value::as_u64).is_some());
        assert!(
            t.get("spans").and_then(osars::json::Value::as_u64).unwrap() >= 1,
            "{body}"
        );
    }
    handle.shutdown();
}

/// `/debug/traces/{id}` returns a well-formed span tree whose stages are
/// the instrumented pipeline stages, and the `Server-Timing` header of
/// the original response agrees exactly with the stored tree (both are
/// rendered from the same tree).
#[test]
fn trace_detail_is_well_formed_and_agrees_with_server_timing() {
    // The delay holds the request past the 1 ms slow threshold, so the
    // recorder keeps it however fast the summary computes.
    let handle = start(ServeOptions {
        slow_ms: 1,
        ..ServeOptions::default()
    });
    let addr = handle.addr();

    let (s, headers, _) = get(addr, "/summary/0?k=3&inject=delay:5");
    assert_eq!(s, 200);
    let timing = headers
        .get("server-timing")
        .expect("Server-Timing header on /summary");

    // First request to this daemon → trace id 0.
    let (s, _, body) = get(addr, "/debug/traces/0");
    assert_eq!(s, 200, "{body}");
    let detail = json(&body);
    assert_eq!(
        detail.get("id").and_then(osars::json::Value::as_u64),
        Some(0)
    );
    assert_eq!(
        detail.get("status").and_then(osars::json::Value::as_u64),
        Some(200)
    );
    let tree = detail.get("trace").expect("trace object");
    let spans = tree
        .get("spans")
        .and_then(osars::json::Value::as_array)
        .expect("spans array");
    assert!(!spans.is_empty());

    // Well-formedness through the JSON view: the root is span 0 named
    // serve.request with a null parent; every other span points at an
    // earlier span and closes no later than its parent opens…ends.
    let name_of = |i: usize| {
        spans[i]
            .get("name")
            .and_then(|v| v.as_str().map(str::to_owned))
            .expect("span name")
    };
    assert_eq!(name_of(0), "serve.request");
    assert!(matches!(
        spans[0].get("parent"),
        Some(osars::json::Value::Null)
    ));
    for (i, span) in spans.iter().enumerate().skip(1) {
        let parent =
            span.get("parent")
                .and_then(osars::json::Value::as_u64)
                .unwrap_or_else(|| panic!("span {i} has no parent: {body}")) as usize;
        assert!(parent < i, "span {i} points forward");
        let us = |k: &str, of: &osars::json::Value| {
            of.get(k).and_then(osars::json::Value::as_u64).unwrap()
        };
        assert!(us("start_us", span) <= us("end_us", span));
        assert!(us("start_us", &spans[parent]) <= us("start_us", span));
        assert!(us("end_us", span) <= us("end_us", &spans[parent]));
    }
    let names: Vec<String> = (0..spans.len()).map(name_of).collect();
    for required in ["serve.queue.wait", "extract", "graph.build", "solve.greedy"] {
        assert!(names.iter().any(|n| n == required), "missing {required}");
    }

    // Exact Server-Timing agreement: the header's total is the stored
    // tree's root duration, formatted the same way.
    let total_us = tree
        .get("total_us")
        .and_then(osars::json::Value::as_f64)
        .expect("total_us");
    let expected_total = format!("total;dur={:.3}", total_us / 1000.0);
    assert!(
        timing.starts_with(&expected_total),
        "header {timing:?} vs stored tree total {expected_total:?}"
    );
    for stage in ["extract;dur=", "graph.build;dur=", "solve.greedy;dur="] {
        assert!(timing.contains(stage), "header {timing:?} lacks {stage}");
    }
    handle.shutdown();
}

#[test]
fn trace_chrome_export_and_debug_error_paths() {
    let handle = start(ServeOptions {
        slow_ms: 1,
        ..ServeOptions::default()
    });
    let addr = handle.addr();
    // Held past the slow threshold, so trace 0 is retained.
    let (s, _, _) = get(addr, "/summary/0?inject=delay:5");
    assert_eq!(s, 200);

    let (s, _, chrome) = get(addr, "/debug/traces/0?format=chrome");
    assert_eq!(s, 200, "{chrome}");
    let events = json(&chrome);
    let events = events.as_array().expect("chrome trace_event array");
    assert!(!events.is_empty());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("ts").and_then(osars::json::Value::as_f64).is_some());
    }

    let (s, _, body) = get(addr, "/debug/traces/0?format=xml");
    assert_eq!(s, 400, "{body}");
    let (s, _, body) = get(addr, "/debug/traces/not-a-number");
    assert_eq!(s, 400, "{body}");
    let (s, _, body) = get(addr, "/debug/traces/99999");
    assert_eq!(s, 404, "{body}");
    let (s, _, _) = request(addr, "POST", "/debug/traces", None);
    assert_eq!(s, 405);
    let (s, _, _) = request(addr, "POST", "/debug/traces/0", None);
    assert_eq!(s, 405);
    handle.shutdown();
}

/// The background sampler publishes queue-depth/busy-worker gauges, and
/// the tableau bytes solver threads keep between solves, that surface on
/// `/metrics` without any explicit instrumentation in the request path.
#[test]
fn sampler_gauges_surface_on_metrics() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();
    let (s, _, _) = get(addr, "/summary/0");
    assert_eq!(s, 200);
    // An exact solve leaves its worker's tableau buffers pooled.
    let (s, _, _) = get(addr, "/summary/0?algo=ilp&granularity=pairs");
    assert_eq!(s, 200);
    std::thread::sleep(Duration::from_millis(80)); // > one 25ms sampler tick
    let (s, _, metrics) = get(addr, "/metrics");
    assert_eq!(s, 200);
    assert!(metrics.contains("osars_serve_queue_depth"), "{metrics}");
    assert!(metrics.contains("osars_serve_workers_busy"), "{metrics}");
    let pooled: i64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("osars_solver_tableau_pool_bytes "))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no pool gauge: {metrics}"));
    assert!(pooled > 0, "{metrics}");
    handle.shutdown();
}

// --- plumbing ---------------------------------------------------------------

#[test]
fn healthz_metrics_and_error_routes() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    let health = osars::json::parse(&body).expect("healthz JSON");
    assert_eq!(
        health.get("ok").and_then(|v| match v {
            osars::json::Value::Bool(b) => Some(*b),
            _ => None,
        }),
        Some(true)
    );

    // Generate one summary so the serve metrics have samples.
    let (s, _, _) = get(addr, "/summary/0");
    assert_eq!(s, 200);
    let (status, _, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("osars_serve_requests_total"), "{metrics}");
    assert!(metrics.contains("osars_serve_request_us"), "{metrics}");
    assert!(metrics.contains("quantile=\"0.99\""), "{metrics}");

    let (status, _, _) = get(addr, "/nope");
    assert_eq!(status, 404);
    let (status, _, _) = request(addr, "POST", "/healthz", None);
    assert_eq!(status, 405);
    let (status, _, body) = get(addr, "/summary/not-a-number");
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = get(addr, "/summary/0?eps=nan");
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = get(addr, "/summary/0?graph-impl=naive");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("graph-impl"), "{body}");
    let (status, _, body) = get(addr, "/summary/99999");
    assert_eq!(status, 404, "{body}");
    handle.shutdown();
}

/// `--warm` pre-fills the cache on a corpus boot and on an artifact
/// boot alike: the first default request for every item is a hit, and
/// its body is the one a cold daemon computes on demand.
#[test]
fn warm_boots_answer_the_first_request_from_cache() {
    use osars::datasets::{ExtractImpl, Extractor};
    use osars::serve::serve_artifact;
    use osars::text::ExtractScratch;

    let corpus = phones_small();
    let cold = start(ServeOptions::default());
    let items: Vec<usize> = (0..corpus.items.len()).step_by(7).collect();
    let expected: Vec<String> = items
        .iter()
        .map(|i| {
            let (s, h, body) = get(cold.addr(), &format!("/summary/{i}"));
            assert_eq!(s, 200, "{body}");
            assert_eq!(h.get("x-osars-cache").map(String::as_str), Some("miss"));
            body
        })
        .collect();
    cold.shutdown();

    let warm = ServeOptions {
        warm: true,
        ..ServeOptions::default()
    };
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = ExtractScratch::default();
    let extracted: Vec<_> = corpus
        .items
        .iter()
        .map(|it| extractor.extract(it, ExtractImpl::Interned, &mut scratch))
        .collect();
    let artifact = osars::artifact::lazy_from_bytes(osars::artifact::encode(&corpus, &extracted))
        .expect("fresh artifact opens");
    for (boot, handle) in [
        ("corpus", start(warm.clone())),
        (
            "artifact",
            serve_artifact(artifact, "127.0.0.1:0", warm).expect("bind ephemeral port"),
        ),
    ] {
        for (i, want) in items.iter().zip(&expected) {
            let (s, h, body) = get(handle.addr(), &format!("/summary/{i}"));
            assert_eq!(s, 200, "{boot} boot, item {i}: {body}");
            assert_eq!(
                h.get("x-osars-cache").map(String::as_str),
                Some("hit"),
                "{boot} boot, item {i}: the first request must hit the warmed cache"
            );
            assert_eq!(
                &body, want,
                "{boot} boot, item {i}: warm body differs from cold"
            );
        }
        handle.shutdown();
    }
}

/// On a lazy artifact boot no request runs the extractor: the first
/// `/summary/0` times the block decode as `artifact.decode` and has no
/// `extract` entry, and every computed request adds exactly one
/// `graph.build` sample to the registry, whose plan and shard on a
/// revision's first touch are part of it. The daemon runs as its own
/// `osars serve` process, so no other test's requests reach its
/// registry.
#[test]
fn artifact_boot_attributes_decode_and_graph_build_per_request() {
    use osars::datasets::{ExtractImpl, Extractor};
    use osars::text::ExtractScratch;
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Stdio};

    /// Kills the daemon however the test ends.
    struct Daemon(Child);
    impl Drop for Daemon {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let corpus = phones_small();
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = ExtractScratch::default();
    let extracted: Vec<_> = corpus
        .items
        .iter()
        .map(|it| extractor.extract(it, ExtractImpl::Interned, &mut scratch))
        .collect();
    let dir = std::env::temp_dir().join(format!("osars_serve_stages_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("phones.osar");
    std::fs::write(&path, osars::artifact::encode(&corpus, &extracted)).unwrap();

    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_osars"))
            .args(["serve", "--artifacts"])
            .arg(&path)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn osars serve"),
    );
    // Held open until the daemon is killed, so it never writes to a
    // closed pipe.
    let mut stderr = BufReader::new(daemon.0.stderr.take().unwrap());
    let mut banner = String::new();
    stderr
        .read_line(&mut banner)
        .expect("read the listening banner");
    let addr: std::net::SocketAddr = banner
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no address in banner {banner:?}"));

    let stages = |headers: &HashMap<String, String>| -> Vec<String> {
        headers
            .get("server-timing")
            .expect("Server-Timing header")
            .split(", ")
            .map(|e| e.split(';').next().unwrap().to_owned())
            .collect()
    };
    let (s, headers, body) = get(addr, "/summary/0");
    assert_eq!(s, 200, "{body}");
    let first = stages(&headers);
    assert!(!first.iter().any(|n| n == "extract"), "{first:?}");
    for stage in ["artifact.decode", "graph.build", "solve.greedy"] {
        assert!(first.iter().any(|n| n == stage), "{first:?} lacks {stage}");
    }

    // Distinct parameters, so every request misses the cache and runs
    // the pipeline: first touches of items 1 and 2, then cached
    // artifacts at other k and granularity.
    let targets = [
        "/summary/1",
        "/summary/0?k=2",
        "/summary/2?granularity=pairs",
        "/summary/1?k=4",
    ];
    for target in targets {
        let (s, headers, body) = get(addr, target);
        assert_eq!(s, 200, "{target}: {body}");
        assert_eq!(
            headers.get("x-osars-cache").map(String::as_str),
            Some("miss")
        );
        assert!(!stages(&headers).iter().any(|n| n == "extract"), "{target}");
    }
    let (s, _, metrics) = get(addr, "/metrics");
    assert_eq!(s, 200);
    let count = |name: &str| -> Option<u64> {
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&format!("osars_{name}_count ")))
            .map(|v| v.parse().expect("numeric count"))
    };
    assert_eq!(
        count("graph_build"),
        Some(1 + targets.len() as u64),
        "{metrics}"
    );
    assert_eq!(
        count("artifact_decode"),
        Some(3),
        "one decode per item touched"
    );
    assert_eq!(count("extract"), None, "no extractor run: {metrics}");
    drop(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

// --- incremental ingest & per-item revisions --------------------------------

/// The tentpole property over HTTP: an ingest to one item leaves every
/// *other* item's cache entry valid by construction — the key carries
/// the item's own revision, which only the edited item bumps.
#[test]
fn cache_for_unedited_items_survives_an_ingest() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();

    // Warm item 1 into the cache.
    let (s, h, before) = get(addr, "/summary/1?k=3");
    assert_eq!(s, 200);
    assert_eq!(h.get("x-osars-cache").map(String::as_str), Some("miss"));
    let (s, h, _) = get(addr, "/summary/1?k=3");
    assert_eq!(s, 200);
    assert_eq!(h.get("x-osars-cache").map(String::as_str), Some("hit"));

    // Ingest into item 0 only.
    let (s, _, b) = request(
        addr,
        "POST",
        "/reviews",
        Some(r#"{"item":0,"reviews":["battery drains overnight"]}"#),
    );
    assert_eq!(s, 200, "{b}");
    assert_eq!(handle.item_rev(0), Some(1));
    assert_eq!(handle.item_rev(1), Some(0), "un-edited item keeps rev 0");
    assert_eq!(handle.epoch(), 1, "one successful ingest");

    // Item 1 still answers from cache: same bytes, still revision 0,
    // and — the point — a *hit*, not a recompute.
    let (s, h, after) = get(addr, "/summary/1?k=3");
    assert_eq!(s, 200);
    assert_eq!(
        h.get("x-osars-cache").map(String::as_str),
        Some("hit"),
        "ingest to item 0 must not evict item 1's cache entry"
    );
    assert_eq!(before, after);
    assert_eq!(epoch_of(&after), 0);

    // The edited item misses once (new revision key), then hits.
    let (s, h, b0) = get(addr, "/summary/0?k=3");
    assert_eq!(s, 200);
    assert_eq!(h.get("x-osars-cache").map(String::as_str), Some("miss"));
    assert_eq!(epoch_of(&b0), 1);
    let (s, h, _) = get(addr, "/summary/0?k=3");
    assert_eq!(s, 200);
    assert_eq!(h.get("x-osars-cache").map(String::as_str), Some("hit"));
    handle.shutdown();
}

/// Two concurrent ingests to the same item must both land: the ingest
/// lock serializes the builds, so the item ends at revision 2 with both
/// reviews appended (no lost update).
#[test]
fn concurrent_ingests_from_two_connections_both_land() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();

    let bodies = [
        r#"{"item":0,"reviews":["the camera is stellar"]}"#,
        r#"{"item":0,"reviews":["the charger runs hot"]}"#,
    ];
    let threads: Vec<_> = bodies
        .into_iter()
        .map(|body| std::thread::spawn(move || request(addr, "POST", "/reviews", Some(body))))
        .collect();
    let mut revs = Vec::new();
    for t in threads {
        let (s, _, b) = t.join().expect("ingest thread");
        assert_eq!(s, 200, "{b}");
        revs.push(epoch_of(&b));
    }
    revs.sort_unstable();
    assert_eq!(revs, vec![1, 2], "each ingest must get its own revision");
    assert_eq!(handle.item_rev(0), Some(2));
    assert_eq!(handle.epoch(), 2, "both ingests bumped the state version");
    let (s, _, b) = get(addr, "/summary/0");
    assert_eq!(s, 200, "{b}");
    assert_eq!(epoch_of(&b), 2);
    handle.shutdown();
}

/// Satellite regression pin: successor state is built *outside* the
/// state write lock, so a reader completes while a large ingest is
/// mid-build (the `?inject=delay` hook sleeps inside the build section
/// while holding only the dedicated ingest mutex).
#[test]
fn readers_are_not_blocked_by_a_slow_ingest() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();

    // Warm item 1 so the racing reader can answer from cache.
    let (s, _, _) = get(addr, "/summary/1?k=3");
    assert_eq!(s, 200);

    let ingest = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/reviews?inject=delay:500",
            Some(r#"{"item":0,"reviews":["screen scratches too easily"]}"#),
        )
    });
    // Give the ingest time to enter its (artificially slow) build.
    std::thread::sleep(Duration::from_millis(100));
    let sw = std::time::Instant::now();
    let (s, _, body) = get(addr, "/summary/1?k=3");
    let waited = sw.elapsed();
    assert_eq!(s, 200, "{body}");
    assert_eq!(epoch_of(&body), 0);
    assert!(
        waited < Duration::from_millis(350),
        "reader stalled {waited:?} behind a mid-build ingest"
    );
    let (s, _, b) = ingest.join().expect("ingest thread");
    assert_eq!(s, 200, "{b}");
    assert_eq!(handle.item_rev(0), Some(1));
    handle.shutdown();
}

// --- connection hygiene -----------------------------------------------------

/// A client that connects and then never finishes its request must not
/// hold its connection thread forever: the configured read timeout
/// closes the socket.
#[test]
fn stalled_clients_are_disconnected_by_the_read_timeout() {
    let handle = start(ServeOptions {
        conn_timeout_ms: 200,
        ..ServeOptions::default()
    });
    let addr = handle.addr();

    let mut stalled = TcpStream::connect(addr).expect("connect");
    // Half a request line, then silence.
    stalled.write_all(b"GET /sum").expect("partial write");
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let sw = std::time::Instant::now();
    let mut sink = Vec::new();
    // The server's read times out after ~200ms and the connection
    // thread drops the socket; our read then returns (EOF or reset).
    let _ = stalled.read_to_end(&mut sink);
    assert!(
        sw.elapsed() < Duration::from_secs(5),
        "stalled connection was not closed by the server"
    );

    // The daemon still serves normally afterwards.
    let (s, _, _) = get(addr, "/summary/0");
    assert_eq!(s, 200);
    handle.shutdown();
}

/// Past `--max-conns` live connections, the accept loop answers 503
/// without spawning another connection thread; closing a connection
/// frees a slot.
#[test]
fn connection_cap_answers_503_and_recovers() {
    let handle = start(ServeOptions {
        max_conns: 1,
        ..ServeOptions::default()
    });
    let addr = handle.addr();

    // Occupy the single slot with an idle keep-alive connection. Give
    // the accept loop a beat to register it.
    let held = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));

    // The refusal is written straight off the accept, before any
    // request bytes — so just read (writing first could race the
    // server-side close into a reset that discards the 503).
    let mut refused = TcpStream::connect(addr).expect("connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    let _ = refused.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 503"),
        "over-cap connection must be refused: {text}"
    );
    assert!(text.contains("connection limit"), "{text}");

    // Release the slot; the connection thread notices the close and
    // decrements the live count, after which requests flow again.
    drop(held);
    let mut ok = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(50));
        let (s, _, _) = get(addr, "/summary/0");
        if s == 200 {
            ok = true;
            break;
        }
    }
    assert!(
        ok,
        "daemon did not recover after the held connection closed"
    );
    handle.shutdown();
}

/// Smuggling guard: duplicate `Content-Length` headers — even when they
/// agree — are rejected with 400 instead of the last one winning.
#[test]
fn duplicate_content_length_answers_400() {
    let handle = start(ServeOptions::default());
    let addr = handle.addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /reviews HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{{}}"
    )
    .expect("write request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 400"),
        "duplicate Content-Length must be rejected: {text}"
    );
    handle.shutdown();
}
