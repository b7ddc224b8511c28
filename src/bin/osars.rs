//! `osars` — command-line interface to the review summarizer.
//!
//! ```text
//! osars generate      --domain doctors|phones [--scale small|full|large|huge] [--seed N] --out FILE
//! osars stats         --corpus FILE
//! osars hierarchy     --corpus FILE
//! osars compile       (--corpus FILE | --domain D) --out FILE
//! osars summarize     (--corpus FILE | --domain D | --artifacts FILE) [--item I] [--k K] [--eps E]
//!                     [--granularity pairs|sentences|reviews]
//!                     [--algorithm greedy|lazy|ilp|rr|local-search]
//!                     [--ancestor-impl dense|segmented]
//!                     [--jobs N] [--metrics FILE] [--trace] [--trace-out FILE]
//! osars evaluate      (--corpus FILE | --domain D) [--k K] [--eps E] [--items N]
//!                     [--metrics FILE] [--trace]
//! osars check         [--seed N] [--cases N] [--faults] [--edits] [--ancestor-impl I]
//!                     [--case-out FILE] [--replay FILE]
//! osars check-metrics --metrics FILE
//! osars bench-ontology [--nodes N] [--levels N] [--pairs N] [--out FILE]
//! osars serve         (--corpus FILE | --domain D | --artifacts FILE) [--addr HOST:PORT]
//!                     [--workers N] [--queue-depth N] [--deadline-ms N]
//!                     [--cache N] [--warm] [--slow-ms N] [--k K] [--eps E] [...]
//! osars loadgen       --addr HOST:PORT [--conns C] [--rps N]
//!                     [--duration-secs S] [--panic-every N] [--query Q]
//!                     [--out FILE]
//! ```
//!
//! Corpora are the JSON documents written by `osars generate` (or by
//! `osa_datasets::save_corpus`); `summarize`/`evaluate` can also
//! synthesize one in memory straight from `--domain`/`--scale`/`--seed`.
//! Everything is deterministic given `--seed` — observability (`--metrics`,
//! `--trace`) only observes, it never perturbs outputs. A flag the
//! subcommand does not read is refused, and so is a `summarize` flag
//! that the chosen path (single item, `--item all` or `--artifacts`)
//! would ignore. The runtime always runs the
//! interned extractor and the indexed graph builder; their naive twins
//! are reached only through `osars check` and the tests.

use std::borrow::Cow;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use osars::baselines::{
    LexRank, LsaSummarizer, MostPopular, Proportional, SentenceRecord, SentenceSelector, TextRank,
};
use osars::core::{explain, Granularity, Pair};
use osars::datasets::{
    load_corpus, save_corpus, table1_stats, Corpus, CorpusConfig, ExtractImpl, ExtractedItem,
    Extractor,
};
use osars::eval::{sent_err, sent_err_penalized};
use osars::obs::{JsonlSink, Sink, StderrSink, TeeSink};
use osars::ontology::{AncestorImpl, Hierarchy};
use osars::runtime::incremental::ItemArtifacts;
use osars::runtime::{summarize_corpus, BatchAlgorithm, BatchJob, BatchOptions, WorkerScratch};
use osars::text::ExtractScratch;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `osars help` for usage");
            ExitCode::FAILURE
        }
    }
}

type Command = fn(&HashMap<String, String>) -> Result<(), String>;

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        print_help();
        return Ok(());
    };
    // Each command with the flags it reads, space-separated.
    let (known, body): (&str, Command) = match command.as_str() {
        "generate" => ("domain scale seed out", cmd_generate),
        "stats" => ("corpus domain scale seed", cmd_stats),
        "hierarchy" => ("corpus domain scale seed", cmd_hierarchy),
        "summarize" => (
            "corpus domain scale seed artifacts item k eps granularity algorithm ancestor-impl \
             focus explain jobs metrics trace trace-out",
            |f| with_obs(f, cmd_summarize),
        ),
        "evaluate" => (
            "corpus domain scale seed k eps items jobs metrics trace",
            |f| with_obs(f, cmd_evaluate),
        ),
        "check" => (
            "seed cases faults edits ancestor-impl case-out replay metrics trace",
            |f| with_obs(f, cmd_check),
        ),
        "check-metrics" => ("metrics", cmd_check_metrics),
        "compile" => ("corpus domain scale seed out metrics trace", |f| {
            with_obs(f, cmd_compile)
        }),
        "bench-incremental" => (
            "corpus domain scale seed updates k eps algorithm granularity ancestor-impl out",
            cmd_bench_incremental,
        ),
        "bench-ontology" => (
            "nodes levels pairs seed domain scale ancestor-impl out",
            cmd_bench_ontology,
        ),
        "serve" => (
            "corpus domain scale seed artifacts addr workers queue-depth deadline-ms cache warm \
             slow-ms conn-timeout-ms max-conns k eps algorithm granularity ancestor-impl",
            cmd_serve,
        ),
        "loadgen" => (
            "addr conns rps duration-secs panic-every query out",
            cmd_loadgen,
        ),
        "help" | "--help" | "-h" => ("", |_| {
            print_help();
            Ok(())
        }),
        other => return Err(format!("unknown command '{other}'")),
    };
    body(&parse_flags(command, known, &args[1..])?)
}

fn print_help() {
    println!(
        "osars — ontology- and sentiment-aware review summarization

USAGE:
  osars generate      --domain doctors|phones [--scale small|full|large|huge] [--seed N] --out FILE
  osars stats         --corpus FILE
  osars hierarchy     --corpus FILE
  osars compile       (--corpus FILE | --domain D [--scale S] [--seed N])
                      --out FILE
  osars summarize     (--corpus FILE | --domain doctors|phones [--scale small|full|large|huge] [--seed N]
                       | --artifacts FILE)
                      [--item I|all] [--k K] [--eps E]
                      [--granularity pairs|sentences|reviews]
                      [--algorithm greedy|lazy|ilp|rr|local-search]
                      [--ancestor-impl dense|segmented]
                      [--focus CONCEPT] [--explain true] [--jobs N]
                      [--metrics FILE] [--trace] [--trace-out FILE]
  osars evaluate      (--corpus FILE | --domain D [--scale S] [--seed N])
                      [--k K] [--eps E] [--items N] [--jobs N]
                      [--metrics FILE] [--trace]
  osars check         [--seed N] [--cases N] [--faults] [--edits]
                      [--ancestor-impl dense|segmented]
                      [--case-out FILE] [--replay FILE] [--metrics FILE]
                      [--trace]
  osars check-metrics --metrics FILE
  osars bench-incremental
                      (--corpus FILE | --domain D [--scale S] [--seed N])
                      [--updates N] [--k K] [--eps E] [--algorithm A]
                      [--granularity G] [--ancestor-impl I] [--out FILE]
  osars bench-ontology
                      [--nodes N] [--levels N] [--pairs N] [--seed N]
                      [--domain D] [--scale S] [--ancestor-impl I]
                      [--out FILE]
  osars serve         (--corpus FILE | --domain D [--scale S] [--seed N]
                       | --artifacts FILE)
                      [--addr HOST:PORT] [--workers N] [--queue-depth N]
                      [--deadline-ms N] [--cache N] [--warm] [--slow-ms N]
                      [--conn-timeout-ms N] [--max-conns N]
                      [--k K] [--eps E] [--algorithm A]
                      [--granularity G] [--ancestor-impl I]
  osars loadgen       --addr HOST:PORT [--conns C] [--rps N]
                      [--duration-secs S] [--panic-every N] [--query Q]
                      [--out FILE]

DEFAULTS: --scale small --seed 42 --item 0 --k 5 --eps 0.5
          --granularity sentences --algorithm greedy --items 5 --jobs 1
          --cases 25 --ancestor-impl dense
FLAGS:    a flag the subcommand does not read is an error, and so is
          one the chosen summarize path ignores (--jobs with a single
          --item; --explain or --focus with --item all; --jobs,
          --trace-out or a corpus flag with --artifacts)
FOCUS:    restricts the summary to one concept's subtree
          (e.g. --focus battery on a phone corpus)
JOBS:     --item all batches every item over N worker threads (0 = all
          cores); results are byte-identical for any N — timing stats go
          to stderr. --item N and --item all run the same per-item
          pipeline, and --seed seeds rr per item on both, so --item N
          prints that item's batch summary
GRAPH:    the Section 4.1 coverage graph is built from the ancestor
          index and sentiment-sorted windows; at pairs granularity its
          candidates are the distinct pairs, shown with their count
          (×w); the naive upward-BFS builder is kept as the oracle that
          `check` and the tests compare it with
CHECK:    seeded differential-testing harness: generates --cases
          scenarios from --seed, runs each at --jobs 1|3|8 against a
          reference pipeline of the naive extractor and graph builder
          solved cold, across both ancestor impls and all four
          summarizers, and asserts the paper-level invariants; --faults
          adds deterministic fault injection (per-item panics, NaN
          corruption, delays) and asserts the batch engine isolates
          them; --edits adds the incremental-vs-rebuild oracle: seeded
          append/retract edit scripts whose incrementally updated
          summaries must be byte-identical to a from-scratch rebuild at
          every --jobs; a failing case is shrunk to a minimal instance
          and written to --case-out (default check-case.json),
          replayable with --replay FILE
BENCH:    bench-incremental replays --updates seeded edits through the
          incremental per-item artifact path (what `POST /reviews`
          uses) and through a full recompute of every item (the
          pre-incremental baseline), asserts both render identically,
          and writes p50/p95 latencies + speedup to --out (default
          BENCH_incremental.json)
EXTRACT:  opinion extraction runs a token interner, an Aho–Corasick
          concept automaton and a memoized stem cache; the per-position
          trie walk is kept as the oracle that `check` and the tests
          compare it with
ANCESTOR: --ancestor-impl selects the ancestor-query index behind the
          coverage-graph builder: 'dense' (materialized CSR transitive
          closure, the oracle) or 'segmented' (each queried concept's
          ancestor row, filled by an upward BFS on first use and
          memoized; no closure ever built — the only viable choice at
          SNOMED scale, i.e. --scale huge); both yield byte-identical
          output
COMPILE:  compile runs extraction once and writes corpus + pre-extracted
          items as a versioned, checksummed binary artifact;
          `summarize --artifacts F` and `serve --artifacts F` then boot
          from one sequential read, skipping extraction entirely
          (summaries stay byte-identical to an in-memory build).
          bench-ontology times dense vs segmented build/query on an
          --nodes synthetic DAG with --pairs weighted pairs, plus
          artifact vs extraction cold-start on a --domain/--scale
          corpus, and writes BENCH_ontology.json
METRICS:  --metrics FILE streams per-stage span events plus a final
          counter/gauge/histogram snapshot as JSON lines to FILE
          (validate with `osars check-metrics --metrics FILE`, which
          also round-trips the Prometheus quantile exposition);
          --trace mirrors spans to stderr and prints a metrics table
          at exit; --trace-out FILE writes the request-scoped span
          tree(s) as Chrome trace_event JSON (open in a trace viewer);
          none of them changes what is written to stdout
SERVE:    loads the corpus once and answers GET /summary/{{item}} (with
          k/eps/algo/granularity/ancestor-impl query params; any other
          key answers 400), POST /reviews (incremental ingest: only the
          edited item's revision bumps, its artifacts update in place,
          and every other item keeps answering from cache), GET /metrics
          (Prometheus text), GET /healthz; requests run on --workers
          threads behind a --queue-depth admission queue (503 on
          overflow, 504 past --deadline-ms), with an LRU summary cache
          of --cache entries keyed on the item's revision; accepted
          sockets get --conn-timeout-ms read/write timeouts (0 = none)
          and at most --max-conns live connections (0 = unlimited,
          excess answered 503); one panicking request answers 500
          and the daemon keeps serving; every summary request is traced
          into an always-on flight recorder with tail sampling (errors
          and requests slower than --slow-ms are always kept) — browse
          GET /debug/traces and /debug/traces/{{id}} (?format=chrome for
          a trace-viewer export); successful responses carry per-stage
          Server-Timing headers
LOADGEN:  drives a running daemon with --conns keep-alive connections at
          --rps total requests/second (0 = closed-loop max) for
          --duration-secs, optionally poisoning every --panic-every'th
          request with inject=panic; writes p50/p95/p99 latency and
          achieved RPS to --out (default BENCH_serve.json)"
    );
}

// --- flag parsing ---------------------------------------------------------

/// Parse `--name value` pairs, refusing any flag not in the
/// space-separated `known` list of `command` (a typo, or a flag that no
/// longer exists, would otherwise be silently ignored).
fn parse_flags(
    command: &str,
    known: &str,
    args: &[String],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = &args[i];
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{key}'"));
        };
        if !known.split_whitespace().any(|k| k == name) {
            return Err(format!("unknown flag --{name} for `osars {command}`"));
        }
        // `--trace`, `--faults`, `--edits` and `--warm` are bare
        // switches; an explicit `true|false` value is also accepted for
        // scripting symmetry.
        if name == "trace" || name == "faults" || name == "edits" || name == "warm" {
            match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_owned(), v.clone());
                    i += 2;
                }
                _ => {
                    flags.insert(name.to_owned(), "true".to_owned());
                    i += 1;
                }
            }
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{name} requires a value"))?;
        flags.insert(name.to_owned(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn flag<'a>(flags: &'a HashMap<String, String>, name: &str) -> Option<&'a str> {
    flags.get(name).map(String::as_str)
}

/// `summarize` takes the union of the flags its three paths read; a
/// path refuses the ones in its space-separated `unread` list.
fn refuse_flags(
    flags: &HashMap<String, String>,
    unread: &str,
    context: &str,
) -> Result<(), String> {
    match unread.split_whitespace().find(|n| flags.contains_key(*n)) {
        Some(name) => Err(format!("--{name} is not supported with {context}")),
        None => Ok(()),
    }
}

fn required<'a>(flags: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    flag(flags, name).ok_or_else(|| format!("--{name} is required"))
}

fn parse_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flag(flags, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name}: cannot parse '{v}'")),
    }
}

/// Parse `--eps`, rejecting values the pipeline cannot interpret:
/// `NaN`/`inf` make every sentiment-window comparison vacuous and a
/// negative threshold covers nothing. (Plain `parse_num` would accept
/// all of them — `f64::from_str` is happy to produce `NaN`.)
fn parse_eps(flags: &HashMap<String, String>) -> Result<f64, String> {
    let eps: f64 = parse_num(flags, "eps", 0.5)?;
    if !eps.is_finite() || eps < 0.0 {
        return Err(format!(
            "--eps must be a finite non-negative number, got '{}'",
            flag(flags, "eps").unwrap_or_default()
        ));
    }
    Ok(eps)
}

// --- observability session -------------------------------------------------

/// Per-invocation observability wiring for `--metrics FILE` / `--trace`.
///
/// On setup the global [`osars::obs`] registry is enabled and a sink is
/// installed (JSONL file, stderr mirror, or a tee of both); [`finish`]
/// appends the final counter/gauge/histogram snapshot and, under
/// `--trace`, renders the summary table to stderr. When neither flag is
/// present this is inert and the registry stays disabled, so the
/// instrumented pipeline pays only one relaxed atomic load per probe.
///
/// [`finish`]: ObsSession::finish
struct ObsSession {
    trace: bool,
    metrics_path: Option<PathBuf>,
    jsonl: Option<Arc<JsonlSink>>,
}

impl ObsSession {
    fn from_flags(flags: &HashMap<String, String>) -> Result<Self, String> {
        let trace = matches!(flag(flags, "trace"), Some(v) if v != "false");
        let metrics_path = flag(flags, "metrics").map(PathBuf::from);
        let mut jsonl = None;
        if trace || metrics_path.is_some() {
            let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
            if trace {
                sinks.push(Arc::new(StderrSink));
            }
            if let Some(path) = &metrics_path {
                let sink = Arc::new(
                    JsonlSink::create(path)
                        .map_err(|e| format!("opening metrics file '{}': {e}", path.display()))?,
                );
                sinks.push(sink.clone());
                jsonl = Some(sink);
            }
            let sink = match sinks.len() {
                1 => sinks.pop().expect("exactly one sink"),
                _ => Arc::new(TeeSink(sinks)),
            };
            let obs = osars::obs::global();
            obs.set_sink(sink);
            obs.set_enabled(true);
        }
        Ok(ObsSession {
            trace,
            metrics_path,
            jsonl,
        })
    }

    /// Flush the session: snapshot the registry into the JSONL file and
    /// (under `--trace`) print the human-readable table. Called after
    /// the command body so every counter has fully accumulated.
    fn finish(&self) {
        if !self.trace && self.metrics_path.is_none() {
            return;
        }
        let snapshot = osars::obs::global().snapshot();
        if let Some(sink) = &self.jsonl {
            sink.write_snapshot(&snapshot);
            sink.flush();
        }
        if self.trace {
            eprint!("{}", snapshot.render_table());
        }
        if let Some(path) = &self.metrics_path {
            eprintln!("metrics written to {}", path.display());
        }
    }
}

/// Run `body` inside an [`ObsSession`]; the snapshot is flushed even
/// when the command fails, so partial runs still leave usable metrics.
fn with_obs(flags: &HashMap<String, String>, body: Command) -> Result<(), String> {
    let session = ObsSession::from_flags(flags)?;
    let result = body(flags);
    session.finish();
    result
}

// --- shared helpers -------------------------------------------------------

/// Load `--corpus FILE`, or synthesize a corpus in memory from
/// `--domain doctors|phones [--scale small|full] [--seed N]` when no
/// file was given (the same generator `osars generate` writes to disk).
fn open_corpus(flags: &HashMap<String, String>) -> Result<Corpus, String> {
    match (flag(flags, "corpus"), flag(flags, "domain")) {
        (Some(path), _) => {
            load_corpus(Path::new(path)).map_err(|e| format!("loading '{path}': {e}"))
        }
        (None, Some(domain)) => build_corpus(
            domain,
            flag(flags, "scale").unwrap_or("small"),
            parse_num(flags, "seed", 42)?,
        ),
        (None, None) => Err("--corpus (or --domain) is required".to_owned()),
    }
}

fn build_corpus(domain: &str, scale: &str, seed: u64) -> Result<Corpus, String> {
    // `huge` swaps the hand-built domain ontology for a 300k-concept
    // synthetic DAG (SNOMED scale); reviews still read like the domain.
    if scale == "huge" && matches!(domain, "doctors" | "phones") {
        return Ok(osars::datasets::huge_corpus(domain, seed));
    }
    let cfg = match (domain, scale) {
        ("doctors", "small") => CorpusConfig::doctors_small(),
        ("doctors", "full") => CorpusConfig::doctors_full(),
        ("doctors", "large") => CorpusConfig::doctors_large(),
        ("phones", "small") => CorpusConfig::phones_small(),
        ("phones", "full") => CorpusConfig::phones_full(),
        ("phones", "large") => CorpusConfig::phones_large(),
        _ => {
            return Err("--domain must be doctors|phones, --scale small|full|large|huge".to_owned())
        }
    };
    Ok(match domain {
        "doctors" => Corpus::doctors(&cfg, seed),
        _ => Corpus::phones(&cfg, seed),
    })
}

// --- commands --------------------------------------------------------------

fn cmd_generate(flags: &HashMap<String, String>) -> Result<(), String> {
    let domain = required(flags, "domain")?;
    let scale = flag(flags, "scale").unwrap_or("small");
    let seed: u64 = parse_num(flags, "seed", 42)?;
    let out = PathBuf::from(required(flags, "out")?);
    let corpus = build_corpus(domain, scale, seed)?;
    save_corpus(&corpus, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} items, {} reviews)",
        out.display(),
        corpus.items.len(),
        corpus.total_reviews()
    );
    Ok(())
}

fn cmd_stats(flags: &HashMap<String, String>) -> Result<(), String> {
    let corpus = open_corpus(flags)?;
    println!("corpus: {}", corpus.name);
    println!("{}", table1_stats(&corpus));
    Ok(())
}

fn cmd_hierarchy(flags: &HashMap<String, String>) -> Result<(), String> {
    let corpus = open_corpus(flags)?;
    print!("{}", corpus.hierarchy.render_ascii());
    Ok(())
}

/// `osars compile`: run opinion extraction once and persist corpus +
/// extracted items as the versioned, checksummed binary artifact that
/// `summarize --artifacts` and `serve --artifacts` boot from with one
/// sequential read.
fn cmd_compile(flags: &HashMap<String, String>) -> Result<(), String> {
    let corpus = open_corpus(flags)?;
    let out = PathBuf::from(required(flags, "out")?);
    let obs = osars::obs::global();
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = ExtractScratch::default();
    let (extracted, micros) = obs.time("compile.extract", || {
        corpus
            .items
            .iter()
            .map(|it| extractor.extract(it, ExtractImpl::Interned, &mut scratch))
            .collect::<Vec<ExtractedItem>>()
    });
    let bytes = osars::artifact::write_artifact(&out, &corpus, &extracted)
        .map_err(|e| format!("writing '{}': {e}", out.display()))?;
    println!(
        "compiled {} items / {} reviews / {} concepts into {} ({bytes} bytes; extraction {micros:.0}µs)",
        corpus.items.len(),
        corpus.total_reviews(),
        corpus.hierarchy.node_count(),
        out.display(),
    );
    Ok(())
}

fn parse_granularity(name: &str) -> Result<Granularity, String> {
    match name {
        "pairs" => Ok(Granularity::Pairs),
        "sentences" => Ok(Granularity::Sentences),
        "reviews" => Ok(Granularity::Reviews),
        other => Err(format!("unknown granularity '{other}'")),
    }
}

fn parse_ancestor_impl(flags: &HashMap<String, String>) -> Result<AncestorImpl, String> {
    match flag(flags, "ancestor-impl") {
        None => Ok(AncestorImpl::default()),
        Some(name) => {
            AncestorImpl::from_name(name).ok_or_else(|| format!("unknown ancestor impl '{name}'"))
        }
    }
}

/// The per-item pipeline options every command that runs the pipeline
/// reads: `--k`, `--eps`, `--granularity`, `--algorithm` (default
/// `default_algorithm`), `--seed` and `--ancestor-impl`.
fn batch_options(
    flags: &HashMap<String, String>,
    default_algorithm: &str,
) -> Result<BatchOptions, String> {
    let algorithm_name = flag(flags, "algorithm").unwrap_or(default_algorithm);
    Ok(BatchOptions {
        k: parse_num(flags, "k", 5)?,
        eps: parse_eps(flags)?,
        granularity: parse_granularity(flag(flags, "granularity").unwrap_or("sentences"))?,
        algorithm: BatchAlgorithm::from_name(algorithm_name)
            .ok_or_else(|| format!("unknown algorithm '{algorithm_name}'"))?,
        corpus_seed: parse_num(flags, "seed", 42)?,
        ancestor_impl: parse_ancestor_impl(flags)?,
        ..BatchOptions::default()
    })
}

/// `--item all`: batch-summarize the whole corpus on a worker pool.
/// Summaries go to stdout (byte-identical for any `--jobs`), throughput
/// and latency stats to stderr (inherently run-dependent).
fn cmd_summarize_batch(flags: &HashMap<String, String>) -> Result<(), String> {
    refuse_flags(flags, "focus explain", "--item all")?;
    let corpus = open_corpus(flags)?;
    let opts = BatchOptions {
        jobs: parse_num(flags, "jobs", 1)?,
        ..batch_options(flags, "greedy")?
    };
    // Every item is traced; --trace-out only writes the trees out, so
    // stdout is byte-identical either way.
    let trace_out = flag(flags, "trace-out");
    let report = summarize_corpus(&corpus, &opts);
    print!("{}", report.render_items());
    eprintln!("{}", report.render_stats());
    let stage_table = report.render_stage_table();
    if !stage_table.is_empty() {
        eprint!("{stage_table}");
    }
    if let Some(path) = trace_out {
        let json = osars::obs::chrome_trace_json(&report.traces);
        std::fs::write(path, &json).map_err(|e| format!("writing '{path}': {e}"))?;
        eprintln!(
            "traces for {} items written to {path} (chrome trace_event format)",
            report.traces.len()
        );
    }
    // A worker panic no longer aborts the process (the engine catches
    // it per item); surface what failed and exit non-zero so scripts
    // notice the batch is incomplete.
    if !report.failed.is_empty() {
        for f in &report.failed {
            eprintln!(
                "item {} failed after {} attempt(s): {}",
                f.item, f.attempts, f.message
            );
        }
        return Err(format!(
            "{} of {} items failed; successful summaries were printed above",
            report.failed.len(),
            corpus.items.len()
        ));
    }
    Ok(())
}

/// `summarize --artifacts FILE`: boot from a compiled artifact store
/// (one sequential read, no extraction) and render every item. Output
/// is byte-identical to `summarize --item all` over the same corpus.
fn cmd_summarize_artifacts(path: &str, flags: &HashMap<String, String>) -> Result<(), String> {
    use osars::eval::Stopwatch;
    use osars::runtime::incremental::ItemArtifacts;
    use osars::runtime::{render_item_summary, warm_ancestor_index, WorkerScratch};

    // The artifact holds the corpus; --seed still seeds the solvers.
    let unread = "corpus domain scale focus explain jobs trace-out";
    refuse_flags(flags, unread, "--artifacts")?;
    if matches!(flag(flags, "item"), Some(it) if it != "all") {
        return Err("--artifacts renders every item; drop --item or pass --item all".to_owned());
    }
    let opts = batch_options(flags, "greedy")?;
    let sw = Stopwatch::start();
    let art = osars::artifact::read_artifact(Path::new(path))
        .map_err(|e| format!("loading artifact '{path}': {e}"))?;
    let load_us = sw.micros();
    let osars::artifact::Artifact { corpus, extracted } = art;
    warm_ancestor_index(&corpus.hierarchy, opts.ancestor_impl);
    let mut scratch = WorkerScratch::new();
    let mut out = String::new();
    for (idx, (item, ex)) in corpus.items.iter().zip(extracted).enumerate() {
        let artifacts =
            ItemArtifacts::from_extracted(&corpus.hierarchy, &opts, item, ex, &mut scratch);
        let summary = artifacts.summarize(&corpus.hierarchy, &opts, idx, item, &mut scratch, None);
        out.push_str(&render_item_summary(&summary));
    }
    print!("{out}");
    eprintln!(
        "artifact boot: {} items from {path} (load {load_us:.0}µs, no extraction)",
        corpus.items.len()
    );
    Ok(())
}

fn cmd_summarize(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(path) = flag(flags, "artifacts") {
        return cmd_summarize_artifacts(path, flags);
    }
    if flag(flags, "item") == Some("all") {
        return cmd_summarize_batch(flags);
    }
    cmd_summarize_item(flags)
}

/// `--item N`: summarize one item through the per-item pipeline the
/// batch runs ([`ItemArtifacts`](osars::runtime::incremental::ItemArtifacts)),
/// so its summary equals that item's `--item all` block. The header
/// quotes the solve stage's µs from the item's trace, which
/// `--trace-out` writes out.
fn cmd_summarize_item(flags: &HashMap<String, String>) -> Result<(), String> {
    refuse_flags(flags, "jobs", "a single --item")?;
    let corpus = open_corpus(flags)?;
    let idx: usize = parse_num(flags, "item", 0)?;
    let opts = batch_options(flags, "greedy")?;
    let wants_explain = match flag(flags, "explain") {
        None | Some("false") => false,
        Some("true") => true,
        Some(other) => return Err(format!("--explain must be true|false, got '{other}'")),
    };
    let item = corpus.items.get(idx).ok_or_else(|| {
        format!(
            "item {idx} out of range (corpus has {})",
            corpus.items.len()
        )
    })?;
    let obs = osars::obs::global();
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = WorkerScratch::new();
    let trace = osars::obs::Trace::new(idx as u64);
    let root = trace.span("summarize");
    let (ex, _us) = obs.time_traced("extract", Some(&trace), || {
        extractor.extract(item, ExtractImpl::Interned, &mut scratch.extract)
    });
    let (hierarchy, ex) = match flag(flags, "focus") {
        None => (Cow::Borrowed(&corpus.hierarchy), ex),
        Some(name) => {
            let (sub, ex) = focus(&corpus.hierarchy, ex, name)?;
            println!(
                "focused on '{name}': {} pairs in the subtree",
                ex.pairs.len()
            );
            (Cow::Owned(sub), ex)
        }
    };
    let (artifacts, graph) = ItemArtifacts::from_extracted_with_graph(
        &hierarchy,
        &opts,
        &opts,
        item,
        ex,
        &mut scratch,
        Some(&trace),
    );
    let solved = artifacts.try_solve(&hierarchy, &opts, idx, item, &graph, &scratch, Some(&trace));
    drop(root);
    let summary = solved.map_err(|e| e.to_string())?;
    let tree = trace.tree();
    let solve_span = opts.algorithm.span_name();
    let solve_us = tree
        .spans
        .iter()
        .find(|s| s.name == solve_span)
        .map_or(0, |s| s.dur_us());
    println!(
        "{} selected {} of {} candidates in {solve_us}µs; cost {} (root-only {})",
        opts.algorithm.summarizer(0).name(),
        summary.summary.selected.len(),
        summary.num_candidates,
        summary.summary.cost,
        summary.root_cost
    );
    // Counts are in raw opinions: a compressed pair serves its weight.
    let opinions = |served: &[(usize, u32)]| -> u64 {
        served.iter().map(|&(q, _)| graph.pair_weight(q)).sum()
    };
    let explanation = wants_explain.then(|| explain::explain(&graph, &summary.summary));
    for (slot, line) in summary.rendered.iter().enumerate() {
        println!("  • {line}");
        if let Some(ex_report) = &explanation {
            let c = &ex_report.candidates[slot];
            println!(
                "      └ serves {} opinions (cost share {})",
                opinions(&c.serves),
                c.cost_share
            );
        }
    }
    if let Some(ex_report) = &explanation {
        println!(
            "  (root serves the remaining {} opinions, cost share {})",
            opinions(&ex_report.root_serves),
            ex_report.root_cost_share
        );
    }
    if let Some(path) = flag(flags, "trace-out") {
        std::fs::write(path, tree.to_chrome_json())
            .map_err(|e| format!("writing '{path}': {e}"))?;
        eprintln!(
            "trace with {} spans written to {path} (chrome trace_event format)",
            tree.spans.len()
        );
    }
    Ok(())
}

/// `--focus CONCEPT`: restrict an extraction to the concept's
/// sub-hierarchy. Pairs on concepts outside the subtree are dropped and
/// the rest are remapped into the subgraph by name; sentences keep the
/// runs of their surviving pairs.
fn focus(
    hierarchy: &Hierarchy,
    mut ex: ExtractedItem,
    name: &str,
) -> Result<(Hierarchy, ExtractedItem), String> {
    let node = hierarchy
        .node_by_name(name)
        .ok_or_else(|| format!("unknown concept '{name}'"))?;
    let sub = hierarchy.subgraph(node);
    // `kept_before[i]`: how many of the first `i` pairs survive, so a
    // sentence's run of pairs maps to its run of surviving pairs.
    let mut kept_before = Vec::with_capacity(ex.pairs.len() + 1);
    let mut kept: Vec<Pair> = Vec::new();
    for p in &ex.pairs {
        kept_before.push(kept.len());
        if let Some(c) = sub.node_by_name(hierarchy.name(p.concept)) {
            kept.push(Pair::new(c, p.sentiment));
        }
    }
    kept_before.push(kept.len());
    for s in &mut ex.sentences {
        s.pair_indices = kept_before[s.pair_indices.start]..kept_before[s.pair_indices.end];
    }
    ex.pairs = kept;
    Ok((sub, ex))
}

fn cmd_evaluate(flags: &HashMap<String, String>) -> Result<(), String> {
    let corpus = open_corpus(flags)?;
    let k: usize = parse_num(flags, "k", 5)?;
    let eps = parse_eps(flags)?;
    let jobs: usize = parse_num(flags, "jobs", 1)?;
    let items: usize = parse_num(flags, "items", 5)?;
    let items = items.min(corpus.items.len());

    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let make_baselines = || -> Vec<Box<dyn SentenceSelector>> {
        vec![
            Box::new(MostPopular),
            Box::new(Proportional),
            Box::new(TextRank),
            Box::new(LexRank::default()),
            Box::new(LsaSummarizer::default()),
        ]
    };

    let mut totals: Vec<(String, f64, f64)> = Vec::new();
    totals.push(("greedy (ours)".to_owned(), 0.0, 0.0));
    for b in &make_baselines() {
        totals.push((b.name().to_owned(), 0.0, 0.0));
    }

    // The greedy row runs the per-item pipeline at sentence granularity.
    let opts = BatchOptions {
        k,
        eps,
        granularity: Granularity::Sentences,
        algorithm: BatchAlgorithm::Greedy,
        ..BatchOptions::default()
    };
    let h = &corpus.hierarchy;
    // Per-item scoring runs on the worker pool; the per-method error
    // vectors come back in item order, so the aggregated totals are
    // independent of the thread count.
    let eval_items = &corpus.items[..items];
    let report = BatchJob::new(eval_items)
        .jobs(jobs)
        .run(|scratch, idx, item| {
            let obs = osars::obs::global();
            let baselines = make_baselines();
            let (ex, _us) = obs.time_traced("extract", None, || {
                extractor.extract(item, ExtractImpl::Interned, &mut scratch.extract)
            });
            let (artifacts, graph) =
                ItemArtifacts::from_extracted_with_graph(h, &opts, &opts, item, ex, scratch, None);
            let greedy = artifacts.solve(h, &opts, idx, item, &graph, scratch, None);
            let ex = artifacts.extracted();
            let records: Vec<SentenceRecord> = ex
                .sentences
                .iter()
                .enumerate()
                .map(|(si, s)| SentenceRecord {
                    tokens: ex.sentence_tokens(si),
                    pairs: ex.pairs[s.pair_indices.clone()].to_vec(),
                })
                .collect();
            let pairs_of = |sel: &[usize]| -> Vec<Pair> {
                sel.iter()
                    .flat_map(|&si| &ex.pairs[ex.sentences[si].pair_indices.clone()])
                    .copied()
                    .collect()
            };
            let score = |sel: &[usize]| -> (f64, f64) {
                let f = pairs_of(sel);
                (
                    sent_err(h, &ex.pairs, &f),
                    sent_err_penalized(h, &ex.pairs, &f),
                )
            };
            let mut errs = vec![score(&greedy.summary.selected)];
            for b in &baselines {
                let (sel, _) =
                    obs.time(&format!("baseline.{}", b.name()), || b.select(&records, k));
                errs.push(score(&sel));
            }
            errs
        });
    for errs in &report.results {
        for (slot, &(e, p)) in errs.iter().enumerate() {
            totals[slot].1 += e;
            totals[slot].2 += p;
        }
    }
    eprintln!("{}", report.render_stats());

    println!("sentiment error over {items} items (k = {k}, eps = {eps}; lower is better):\n");
    println!("{:<16} {:>10} {:>12}", "method", "sent-err", "penalized");
    for (name, e, p) in &totals {
        println!(
            "{name:<16} {:>10.4} {:>12.4}",
            e / items as f64,
            p / items as f64
        );
    }
    Ok(())
}

/// `osars check`: the seeded differential-testing & fault-injection
/// harness of [`osars::check`]. The report goes to stdout (byte-
/// identical for a given seed/cases/faults config); any failing check
/// makes the command exit non-zero after shrinking and persisting the
/// first failing case. `--replay FILE` re-runs a persisted case instead.
fn cmd_check(flags: &HashMap<String, String>) -> Result<(), String> {
    // Injected panics are part of normal fault-mode operation; keep the
    // default hook from spamming stderr with their backtraces.
    osars::check::quiet_injected_panics();
    if let Some(path) = flag(flags, "replay") {
        let data = std::fs::read_to_string(path).map_err(|e| format!("reading '{path}': {e}"))?;
        let outcome = osars::check::replay_case(&data)?;
        print!("{}", outcome.report);
        return match outcome.passed() {
            true => Ok(()),
            false => Err(format!("replayed case still fails ({path})")),
        };
    }
    let cfg = osars::check::CheckConfig {
        seed: parse_num(flags, "seed", 42)?,
        cases: parse_num(flags, "cases", 25)?,
        faults: matches!(flag(flags, "faults"), Some(v) if v != "false"),
        edits: matches!(flag(flags, "edits"), Some(v) if v != "false"),
        ancestor_impl: parse_ancestor_impl(flags)?,
        case_out: flag(flags, "case-out").map(PathBuf::from),
    };
    let outcome = osars::check::run_check(&cfg);
    print!("{}", outcome.report);
    match outcome.failures.len() {
        0 => Ok(()),
        1 => Err("1 check failure".to_owned()),
        n => Err(format!("{n} check failures")),
    }
}

/// `osars bench-incremental`: measure the incremental ingest path (what
/// the daemon does on `POST /reviews`) against the pre-incremental
/// baseline (invalidate everything, recompute every item from scratch)
/// over a seeded append/retract edit script, asserting byte-identical
/// output at every step, and write the percentiles to
/// `BENCH_incremental.json`.
fn cmd_bench_incremental(flags: &HashMap<String, String>) -> Result<(), String> {
    use osars::eval::{LatencyHistogram, Stopwatch};
    use osars::runtime::incremental::ItemArtifacts;
    use osars::runtime::{render_item_summary, summarize_one, Fault, WorkerScratch};

    let mut corpus = open_corpus(flags)?;
    let original = corpus.clone();
    let opts = batch_options(flags, "lazy")?;
    let updates: usize = parse_num(flags, "updates", 40)?;
    let seed: u64 = parse_num(flags, "seed", 42)?;

    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = WorkerScratch::new();
    let mut artifacts: Vec<ItemArtifacts> = corpus
        .items
        .iter()
        .map(|it| ItemArtifacts::build(&corpus.hierarchy, &extractor, &opts, it, &mut scratch))
        .collect();

    let mut incremental = LatencyHistogram::new();
    let mut rebuild = LatencyHistogram::new();
    for edit in 0..updates {
        // The same seeded edit-script shape the `osars check --edits`
        // oracle uses: pick an item, retract its last review (only if
        // more than one remains) or append one recycled from the
        // original corpus.
        let draw = osars::runtime::item_seed(seed, 0xBE9C_0000 + edit as u64);
        let idx = (draw % corpus.items.len() as u64) as usize;
        let retract = (draw >> 33) & 1 == 1 && corpus.items[idx].reviews.len() > 1;
        if retract {
            corpus.items[idx].reviews.pop();
        } else {
            let donor = &original.items[((draw >> 8) % original.items.len() as u64) as usize];
            let review =
                donor.reviews[((draw >> 24) % donor.reviews.len() as u64) as usize].clone();
            corpus.items[idx].reviews.push(review);
        }

        // Incremental path: advance the edited item's artifacts and
        // re-answer it. Work is bounded by the one edited item.
        let sw = Stopwatch::start();
        artifacts[idx] = artifacts[idx].update(
            &corpus.hierarchy,
            &extractor,
            &opts,
            &corpus.items[idx],
            &mut scratch,
        );
        let incr_summary = artifacts[idx].summarize(
            &corpus.hierarchy,
            &opts,
            idx,
            &corpus.items[idx],
            &mut scratch,
            None,
        );
        incremental.record(sw.micros());

        // Baseline: the pre-incremental daemon bumped a global epoch on
        // ingest, so every cached summary died and every item was
        // recomputed from scratch on its next request.
        let sw = Stopwatch::start();
        let mut fresh_edited = None;
        for i in 0..corpus.items.len() {
            let s = summarize_one(&corpus, &extractor, &opts, &mut scratch, i, Fault::None)
                .expect("item in range");
            if i == idx {
                fresh_edited = Some(s);
            }
        }
        rebuild.record(sw.micros());

        let fresh = fresh_edited.expect("edited item was rebuilt");
        if render_item_summary(&incr_summary) != render_item_summary(&fresh) {
            return Err(format!(
                "update {edit}: incremental summary of item {idx} diverges from a fresh rebuild"
            ));
        }
    }

    let pct = |h: &LatencyHistogram, p: f64| h.percentile(p).unwrap_or(0.0);
    let speedup = pct(&rebuild, 50.0) / pct(&incremental, 50.0).max(1e-9);
    let json = osars::json::to_string_pretty(&osars::json::Value::Object(vec![
        ("updates".into(), osars::json::Value::from(updates)),
        ("items".into(), osars::json::Value::from(corpus.items.len())),
        (
            "total_reviews".into(),
            osars::json::Value::from(corpus.total_reviews()),
        ),
        (
            "algorithm".into(),
            osars::json::Value::from(opts.algorithm.name()),
        ),
        (
            "incremental_p50_us".into(),
            osars::json::Value::Number(pct(&incremental, 50.0)),
        ),
        (
            "incremental_p95_us".into(),
            osars::json::Value::Number(pct(&incremental, 95.0)),
        ),
        (
            "rebuild_p50_us".into(),
            osars::json::Value::Number(pct(&rebuild, 50.0)),
        ),
        (
            "rebuild_p95_us".into(),
            osars::json::Value::Number(pct(&rebuild, 95.0)),
        ),
        ("speedup_p50".into(), osars::json::Value::Number(speedup)),
    ]));
    let out = flag(flags, "out").unwrap_or("BENCH_incremental.json");
    std::fs::write(out, &json).map_err(|e| format!("writing '{out}': {e}"))?;
    println!("{json}");
    eprintln!(
        "bench-incremental: {updates} updates over {} items; p50 incremental {:.0}µs vs \
         full rebuild {:.0}µs ({speedup:.1}× at p50); report in {out}",
        corpus.items.len(),
        pct(&incremental, 50.0),
        pct(&rebuild, 50.0),
    );
    Ok(())
}

/// `osars bench-ontology`: the SNOMED-scale numbers behind the segmented
/// ancestor rows. Phase 1 builds a synthetic multi-parent DAG (300k
/// concepts by default) and times the dense closure oracle against the
/// memoized rows — stand-up cost on a fresh hierarchy, resident entries,
/// and query throughput over a clustered pair sample: the raw BFS walk,
/// the memo's first-touch fills, and the warm memoized queries the graph
/// build makes (`query_ratio` = memoized / dense). Phase 2 measures daemon
/// cold-start on a real corpus: extraction boot vs artifact boot
/// (compile once untimed, then one sequential read), asserting the
/// rendered summaries stay byte-identical. Writes the JSON report to
/// `--out`.
fn cmd_bench_ontology(flags: &HashMap<String, String>) -> Result<(), String> {
    use osars::datasets::{sample_pairs, synthetic_ontology, SyntheticOntologyConfig};
    use osars::eval::Stopwatch;
    use osars::json::Value;
    use osars::ontology::{AncestorIndex, NodeId, SegmentScratch};
    use osars::runtime::incremental::ItemArtifacts;
    use osars::runtime::{render_item_summary, warm_ancestor_index, WorkerScratch};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let seed: u64 = parse_num(flags, "seed", 42)?;
    let cfg = SyntheticOntologyConfig {
        nodes: parse_num(flags, "nodes", 300_000)?,
        levels: parse_num(flags, "levels", 10)?,
        ..SyntheticOntologyConfig::huge()
    };
    let n_pairs: usize = parse_num(flags, "pairs", 2_000_000)?;

    eprintln!(
        "bench-ontology: building synthetic DAG ({} nodes, {} levels) ...",
        cfg.nodes, cfg.levels
    );
    let h = synthetic_ontology(&cfg, seed);

    // Stand-up cost: the materialized transitive closure vs the empty row
    // memo, each on a hierarchy that has built neither.
    let (dense, dense_build_us) = Stopwatch::time(|| AncestorIndex::build(&h));
    let (seg, segmented_build_us) = Stopwatch::time(|| h.segment_index());

    // Query throughput over a clustered sample — the access pattern the
    // pipeline sees (hot subtrees), not uniform random nodes. Visit
    // counts are accumulated so the loops can't be optimized away, and
    // compared so a silent twin divergence fails the bench.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB_E4C4);
    let pairs = sample_pairs(&h, n_pairs, 64, &mut rng);
    // The BFS walk (the memo's fill routine) on every query, then the
    // memoized rows the graph build reads: one first-touch fill per
    // distinct concept, then every query again on the warm memo,
    // timed in alternation with the dense closure and reported as the
    // median of `QUERY_ROUNDS` rounds each.
    const QUERY_ROUNDS: usize = 5;
    let mut seg_scratch = SegmentScratch::new();
    let mut buf: Vec<(NodeId, u32)> = Vec::new();
    let (walk_visits, segmented_walk_us) = Stopwatch::time(|| {
        let mut visits = 0usize;
        for p in &pairs {
            seg.ancestors_with_dist_into(p.concept, &mut seg_scratch, &mut buf);
            visits += buf.len();
        }
        visits
    });
    let mut seen = vec![false; h.node_count()];
    let distinct: Vec<NodeId> = pairs
        .iter()
        .map(|p| p.concept)
        .filter(|c| !std::mem::replace(&mut seen[c.index()], true))
        .collect();
    let ((), segmented_fill_us) = Stopwatch::time(|| {
        for &c in &distinct {
            std::hint::black_box(seg.ancestors(c));
        }
    });
    let (mut dense_rounds, mut seg_rounds) = (Vec::new(), Vec::new());
    for _ in 0..QUERY_ROUNDS {
        let (dense_visits, us) = Stopwatch::time(|| {
            pairs
                .iter()
                .map(|p| dense.ancestors(p.concept).len())
                .sum::<usize>()
        });
        dense_rounds.push(us);
        let (seg_visits, us) = Stopwatch::time(|| {
            pairs
                .iter()
                .map(|p| seg.ancestors(p.concept).len())
                .sum::<usize>()
        });
        seg_rounds.push(us);
        if dense_visits != walk_visits || dense_visits != seg_visits {
            return Err(format!(
                "twin oracles disagree on total ancestor visits: dense {dense_visits}, \
                 BFS walk {walk_visits}, memoized {seg_visits}"
            ));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (dense_query_us, segmented_query_us) = (median(dense_rounds), median(seg_rounds));
    let (memo_rows, memo_entries) = seg.memo_footprint();
    let query_ratio = segmented_query_us / dense_query_us.max(1e-9);
    eprintln!(
        "index build: dense {dense_build_us:.0}µs ({} entries) vs segmented {segmented_build_us:.0}µs \
         ({} entries); {} queries: dense {dense_query_us:.0}µs, BFS walk \
         {segmented_walk_us:.0}µs, memoized {segmented_query_us:.0}µs ({query_ratio:.2}× dense) \
         after filling {memo_rows} rows ({memo_entries} entries) in {segmented_fill_us:.0}µs",
        dense.entry_count(),
        seg.entry_weight(),
        pairs.len(),
    );

    // Cold start: time-to-ready — everything a fresh daemon must do
    // before it can start answering summary requests with zero
    // extraction debt. Both arms boot from one file on disk, mirroring
    // the two real boot modes: `serve --corpus FILE` (raw reviews JSON;
    // pays parse + automaton construction + a full extraction pass) vs
    // `serve --artifacts FILE` (one sequential read of the compiled
    // store + checksum sweep + prelude decode; item blocks materialize
    // lazily on first request, and the eager whole-store decode is
    // recorded separately as `coldstart_artifact_eager_us`). The
    // compile is the offline step and stays untimed. The per-request
    // work both boots share — graph build + summarization — runs
    // outside the window and must render identical bytes, so a faster
    // boot can't silently be a wrong boot.
    let domain = flag(flags, "domain").unwrap_or("doctors");
    let scale = flag(flags, "scale").unwrap_or("large");
    let ancestor = parse_ancestor_impl(flags)?;
    let opts = BatchOptions {
        ancestor_impl: ancestor,
        ..BatchOptions::default()
    };

    let gen = build_corpus(domain, scale, seed)?;
    let raw_store = std::env::temp_dir().join(format!("osars-bench-ontology-{seed}.json"));
    osars::datasets::save_corpus(&gen, &raw_store)
        .map_err(|e| format!("writing '{}': {e}", raw_store.display()))?;
    drop(gen);

    let sw = Stopwatch::start();
    let corpus_a =
        load_corpus(&raw_store).map_err(|e| format!("loading '{}': {e}", raw_store.display()))?;
    let extractor = Extractor::from_hierarchy(&corpus_a.hierarchy);
    warm_ancestor_index(&corpus_a.hierarchy, ancestor);
    let mut ex_scratch = ExtractScratch::default();
    let extracted_a: Vec<ExtractedItem> = corpus_a
        .items
        .iter()
        .map(|it| extractor.extract(it, ExtractImpl::Interned, &mut ex_scratch))
        .collect();
    let coldstart_extraction_us = sw.micros();
    let _ = std::fs::remove_file(&raw_store);

    let store = std::env::temp_dir().join(format!("osars-bench-ontology-{seed}.osar"));
    let artifact_bytes = osars::artifact::write_artifact(&store, &corpus_a, &extracted_a)
        .map_err(|e| format!("writing '{}': {e}", store.display()))?;

    let sw = Stopwatch::start();
    let lazy = osars::artifact::open_lazy(&store)
        .map_err(|e| format!("loading '{}': {e}", store.display()))?;
    warm_ancestor_index(&lazy.hierarchy, ancestor);
    let coldstart_artifact_us = sw.micros();

    // For scale, also record what a full eager decode costs — the
    // `summarize --artifacts` batch path pays this, a lazy daemon
    // amortizes it across first-touch requests.
    let (eager, coldstart_artifact_eager_us) =
        Stopwatch::time(|| osars::artifact::read_artifact(&store));
    let eager = eager.map_err(|e| format!("loading '{}': {e}", store.display()))?;
    let _ = std::fs::remove_file(&store);
    if eager.corpus.items.len() != lazy.store.len() {
        return Err("eager and lazy decodes disagree on item count".to_owned());
    }
    drop(eager);

    let mut scratch = WorkerScratch::new();
    let mut extraction_out = String::new();
    for (idx, (item, ex)) in corpus_a.items.iter().zip(extracted_a).enumerate() {
        let art = ItemArtifacts::from_extracted(&corpus_a.hierarchy, &opts, item, ex, &mut scratch);
        let summary = art.summarize(&corpus_a.hierarchy, &opts, idx, item, &mut scratch, None);
        extraction_out.push_str(&render_item_summary(&summary));
    }
    let mut artifact_out = String::new();
    for idx in 0..lazy.store.len() {
        let (item, ex) = lazy
            .store
            .item(idx)
            .map_err(|e| format!("decoding item block {idx}: {e}"))?;
        let art = ItemArtifacts::from_extracted(&lazy.hierarchy, &opts, &item, ex, &mut scratch);
        let summary = art.summarize(&lazy.hierarchy, &opts, idx, &item, &mut scratch, None);
        artifact_out.push_str(&render_item_summary(&summary));
    }
    if extraction_out != artifact_out {
        return Err(
            "artifact-booted summaries diverge from extraction-booted summaries".to_owned(),
        );
    }
    let coldstart_speedup = coldstart_extraction_us / coldstart_artifact_us.max(1e-9);

    let json = osars::json::to_string_pretty(&Value::Object(vec![
        ("nodes".into(), Value::from(h.node_count())),
        ("levels".into(), Value::from(cfg.levels)),
        ("edges".into(), Value::from(h.edge_list().len())),
        ("pairs".into(), Value::from(pairs.len())),
        ("dense_build_us".into(), Value::Number(dense_build_us)),
        (
            "segmented_build_us".into(),
            Value::Number(segmented_build_us),
        ),
        ("dense_entries".into(), Value::from(dense.entry_count())),
        ("segmented_entries".into(), Value::from(seg.entry_weight())),
        ("dense_query_us".into(), Value::Number(dense_query_us)),
        ("segmented_walk_us".into(), Value::Number(segmented_walk_us)),
        ("segmented_fill_us".into(), Value::Number(segmented_fill_us)),
        (
            "segmented_query_us".into(),
            Value::Number(segmented_query_us),
        ),
        ("query_ratio".into(), Value::Number(query_ratio)),
        ("memo_rows".into(), Value::from(memo_rows)),
        ("memo_entries".into(), Value::from(memo_entries)),
        ("query_visits".into(), Value::from(walk_visits)),
        ("coldstart_domain".into(), Value::from(domain)),
        ("coldstart_scale".into(), Value::from(scale)),
        ("coldstart_items".into(), Value::from(lazy.store.len())),
        (
            "coldstart_extraction_us".into(),
            Value::Number(coldstart_extraction_us),
        ),
        (
            "coldstart_artifact_us".into(),
            Value::Number(coldstart_artifact_us),
        ),
        (
            "coldstart_artifact_eager_us".into(),
            Value::Number(coldstart_artifact_eager_us),
        ),
        ("coldstart_speedup".into(), Value::Number(coldstart_speedup)),
        (
            "artifact_bytes".into(),
            Value::from(artifact_bytes as usize),
        ),
    ]));
    let out = flag(flags, "out").unwrap_or("BENCH_ontology.json");
    std::fs::write(out, &json).map_err(|e| format!("writing '{out}': {e}"))?;
    println!("{json}");
    eprintln!(
        "bench-ontology: cold start {coldstart_extraction_us:.0}µs (extraction) vs \
         {coldstart_artifact_us:.0}µs (artifact, {artifact_bytes} bytes) — {coldstart_speedup:.1}×; \
         report in {out}"
    );
    Ok(())
}

/// The `render_prometheus` name mangle: `osars_` prefix, non-Prometheus
/// bytes replaced with `_`. Kept as an independent replica so
/// `check-metrics` cross-validates the exposition rather than trusting
/// the library to agree with itself.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("osars_");
    for c in name.chars() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Validate a `--metrics` JSONL file: every non-empty line must parse as
/// a JSON object carrying string fields `t` (record kind) and `name`,
/// and must survive an osa-json serialize → re-parse round trip
/// unchanged. The final counter/gauge/hist records are then rebuilt into
/// a snapshot whose Prometheus exposition must round-trip every summary
/// quantile, `_count` and `_sum` line back to the recorded values. Exits
/// non-zero on the first violation.
fn cmd_check_metrics(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = required(flags, "metrics")?;
    let data = std::fs::read_to_string(path).map_err(|e| format!("reading '{path}': {e}"))?;
    let mut records = 0usize;
    let mut spans = 0usize;
    let mut snap = osars::obs::Snapshot {
        counters: Vec::new(),
        gauges: Vec::new(),
        histograms: Vec::new(),
    };
    for (idx, line) in data.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let value =
            osars::json::parse(line).map_err(|e| format!("{path}:{lineno}: invalid JSON: {e}"))?;
        let reparsed = osars::json::parse(&osars::json::to_string(&value))
            .map_err(|e| format!("{path}:{lineno}: round-trip re-parse failed: {e}"))?;
        if reparsed != value {
            return Err(format!(
                "{path}:{lineno}: JSON round trip changed the value"
            ));
        }
        let kind = value
            .get("t")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}:{lineno}: missing string field 't'"))?;
        let name = value
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{path}:{lineno}: missing string field 'name'"))?;
        let num = |field: &str| -> Result<f64, String> {
            value
                .get(field)
                .and_then(osars::json::Value::as_f64)
                .ok_or_else(|| format!("{path}:{lineno}: missing numeric field '{field}'"))
        };
        // Rebuild the trailing snapshot; re-emitted names overwrite so
        // only the final state is validated (the snapshot is appended
        // after the span stream).
        match kind {
            "span" => spans += 1,
            "counter" => {
                let v = num("value")? as u64;
                snap.counters.retain(|(n, _)| n != name);
                snap.counters.push((name.to_owned(), v));
            }
            "gauge" => {
                let v = num("value")? as i64;
                snap.gauges.retain(|(n, _)| n != name);
                snap.gauges.push((name.to_owned(), v));
            }
            "hist" => {
                let stats = osars::obs::HistStats {
                    count: num("count")? as usize,
                    total: num("total_us")?,
                    mean: num("mean_us")?,
                    min: num("min_us")?,
                    max: num("max_us")?,
                    p50: num("p50_us")?,
                    p95: num("p95_us")?,
                    p99: num("p99_us")?,
                };
                snap.histograms.retain(|(n, _)| n != name);
                snap.histograms.push((name.to_owned(), stats));
            }
            _ => {}
        }
        records += 1;
    }
    if records == 0 {
        return Err(format!("'{path}' contains no metric records"));
    }

    // Prometheus exposition round trip: every histogram's quantile,
    // count and sum lines must parse back to the recorded values.
    let prom = snap.render_prometheus();
    let line_value = |needle: &str| -> Result<f64, String> {
        let line = prom
            .lines()
            .find(|l| l.starts_with(needle))
            .ok_or_else(|| format!("render_prometheus dropped '{needle}'"))?;
        line[needle.len()..]
            .trim()
            .parse()
            .map_err(|_| format!("unparsable exposition line '{line}'"))
    };
    let mut quantile_lines = 0usize;
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        for (q, expect) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
            let got = line_value(&format!("{n}{{quantile=\"{q}\"}} "))?;
            if got != expect {
                return Err(format!(
                    "prometheus quantile {q} of '{name}' round-tripped to {got}, recorded {expect}"
                ));
            }
            quantile_lines += 1;
        }
        let count = line_value(&format!("{n}_count "))?;
        if count != h.count as f64 {
            return Err(format!(
                "prometheus count of '{name}' round-tripped to {count}, recorded {}",
                h.count
            ));
        }
        let sum = line_value(&format!("{n}_sum "))?;
        if sum != h.total {
            return Err(format!(
                "prometheus sum of '{name}' round-tripped to {sum}, recorded {}",
                h.total
            ));
        }
    }
    println!(
        "ok: {records} records ({spans} spans) in {path}; prometheus round-trip: \
         {quantile_lines} quantile lines over {} summaries",
        snap.histograms.len()
    );
    Ok(())
}

/// `osars serve`: the long-lived summarization daemon. Loads the corpus
/// once, then answers HTTP requests until killed. See the SERVE help
/// section and [`osars::serve`] for the endpoint contract.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), String> {
    // Injected panics (`?inject=panic`) answer 500 by design; keep the
    // default hook from printing a backtrace per poisoned request.
    osars::serve::quiet_injected_panics();
    // `--artifacts FILE` boots lazily from a compiled artifact: one
    // sequential read plus the prelude decode (hierarchy, block
    // table). Item blocks decode on first request
    // and the extraction pipeline never runs at boot.
    let lazy = match flag(flags, "artifacts") {
        Some(path) => Some(
            osars::artifact::open_lazy(Path::new(path))
                .map_err(|e| format!("loading artifact '{path}': {e}"))?,
        ),
        None => None,
    };
    let corpus = match lazy {
        Some(_) => None,
        None => Some(open_corpus(flags)?),
    };
    let defaults = batch_options(flags, "greedy")?;
    let opts = osars::serve::ServeOptions {
        workers: parse_num(flags, "workers", 0)?,
        queue_depth: parse_num(flags, "queue-depth", 128)?,
        deadline_ms: parse_num(flags, "deadline-ms", 10_000)?,
        cache_capacity: parse_num(flags, "cache", 4096)?,
        warm: matches!(flag(flags, "warm"), Some(v) if v != "false"),
        slow_ms: parse_num(flags, "slow-ms", 500)?,
        conn_timeout_ms: parse_num(flags, "conn-timeout-ms", 60_000)?,
        max_conns: parse_num(flags, "max-conns", 0)?,
        defaults,
    };
    let addr = flag(flags, "addr").unwrap_or("127.0.0.1:7878");
    let (items, handle) = match (lazy, corpus) {
        (Some(art), _) => (
            art.store.len(),
            osars::serve::serve_artifact(art, addr, opts),
        ),
        (None, Some(corpus)) => (
            corpus.items.len(),
            osars::serve::serve_prepared(corpus, None, addr, opts),
        ),
        (None, None) => unreachable!("either --artifacts or a corpus source"),
    };
    let handle = handle.map_err(|e| format!("binding '{addr}': {e}"))?;
    // Stderr, so scripts scraping stdout for summaries see nothing new.
    eprintln!(
        "osars serve: listening on http://{} ({items} items); Ctrl-C to stop",
        handle.addr()
    );
    // The daemon runs until the process is killed; all work happens on
    // the accept/worker threads held by `handle`.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// `osars loadgen`: drive a running daemon and report latency
/// percentiles (the `BENCH_serve.json` producer).
fn cmd_loadgen(flags: &HashMap<String, String>) -> Result<(), String> {
    let addr = required(flags, "addr")?;
    let opts = osars::serve::LoadgenOptions {
        conns: parse_num(flags, "conns", 4)?,
        rps: parse_num(flags, "rps", 0)?,
        duration_secs: parse_num(flags, "duration-secs", 5)?,
        query: flag(flags, "query").unwrap_or("").to_owned(),
        panic_every: parse_num(flags, "panic-every", 0)?,
    };
    let report = osars::serve::run_loadgen(addr, &opts)
        .map_err(|e| format!("load-generating against '{addr}': {e}"))?;
    let json = report.to_json();
    let out = flag(flags, "out").unwrap_or("BENCH_serve.json");
    std::fs::write(out, &json).map_err(|e| format!("writing '{out}': {e}"))?;
    println!("{json}");
    eprintln!(
        "loadgen: {} requests in {:.1}s ({:.0} rps); p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs; report in {out}",
        report.total, report.elapsed_secs, report.achieved_rps, report.p50_us, report.p95_us, report.p99_us
    );
    if report.total == 0 {
        return Err("no requests completed — is the daemon reachable?".to_owned());
    }
    Ok(())
}
