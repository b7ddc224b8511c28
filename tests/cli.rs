//! End-to-end tests of the `osars` CLI binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn osars(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_osars"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmp_corpus(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("osars_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn generate(path: &Path) {
    let out = osars(&[
        "generate",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--seed",
        "7",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn help_prints_usage() {
    let out = osars(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("summarize"));
}

#[test]
fn no_args_prints_usage() {
    let out = osars(&[]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = osars(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn generate_stats_hierarchy_roundtrip() {
    let path = tmp_corpus("roundtrip.json");
    generate(&path);

    let out = osars(&["stats", "--corpus", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("#Items"), "{text}");
    assert!(text.contains("30"), "phones_small has 30 items: {text}");

    let out = osars(&["hierarchy", "--corpus", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("phone"));
    assert!(text.contains("battery life"));
}

#[test]
fn summarize_sentences_with_greedy() {
    let path = tmp_corpus("summarize.json");
    generate(&path);
    let out = osars(&[
        "summarize",
        "--corpus",
        path.to_str().unwrap(),
        "--k",
        "3",
        "--algorithm",
        "greedy",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("greedy selected 3"), "{text}");
    assert_eq!(text.matches("  • ").count(), 3, "{text}");
}

#[test]
fn summarize_pairs_with_local_search() {
    let path = tmp_corpus("pairs.json");
    generate(&path);
    let out = osars(&[
        "summarize",
        "--corpus",
        path.to_str().unwrap(),
        "--granularity",
        "pairs",
        "--algorithm",
        "local-search",
        "--k",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("local-search selected 2"), "{text}");
    assert!(text.contains("= +") || text.contains("= -"), "{text}");
}

#[test]
fn evaluate_compares_methods() {
    let path = tmp_corpus("evaluate.json");
    generate(&path);
    let out = osars(&[
        "evaluate",
        "--corpus",
        path.to_str().unwrap(),
        "--items",
        "2",
        "--k",
        "4",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for method in [
        "greedy (ours)",
        "most-popular",
        "textrank",
        "lexrank",
        "lsa",
    ] {
        assert!(text.contains(method), "missing {method}: {text}");
    }
}

#[test]
fn missing_required_flag_is_reported() {
    let out = osars(&["generate", "--domain", "phones"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out is required"));
}

#[test]
fn bad_flag_value_is_reported() {
    let path = tmp_corpus("badflag.json");
    generate(&path);
    let out = osars(&[
        "summarize",
        "--corpus",
        path.to_str().unwrap(),
        "--k",
        "banana",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
}

#[test]
fn focus_restricts_to_subtree() {
    let path = tmp_corpus("focus.json");
    generate(&path);
    let out = osars(&[
        "summarize",
        "--corpus",
        path.to_str().unwrap(),
        "--focus",
        "battery",
        "--k",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("focused on 'battery'"), "{text}");

    // Unknown concepts are rejected.
    let out = osars(&[
        "summarize",
        "--corpus",
        path.to_str().unwrap(),
        "--focus",
        "warp-drive",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown concept"));
}

#[test]
fn explain_prints_coverage_shares() {
    let path = tmp_corpus("explain.json");
    generate(&path);
    let out = osars(&[
        "summarize",
        "--corpus",
        path.to_str().unwrap(),
        "--k",
        "2",
        "--explain",
        "true",
    ]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serves"), "{text}");
    assert!(text.contains("root serves the remaining"), "{text}");
}

// --- observability ---------------------------------------------------------

/// Counter lines of a metrics JSONL file, excluding the schedule-
/// dependent `runtime.*` counters (all but `runtime.items.completed`).
fn invariant_counter_lines(jsonl: &str) -> Vec<String> {
    jsonl
        .lines()
        .filter(|l| l.contains("\"t\":\"counter\""))
        .filter(|l| {
            !l.contains("\"name\":\"runtime.") || l.contains("\"name\":\"runtime.items.completed\"")
        })
        .map(str::to_owned)
        .collect()
}

#[test]
fn help_lists_observability_flags() {
    let out = osars(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // Pin the flag inventory: a removed or renamed flag must fail here.
    for needle in [
        "--metrics FILE",
        "--trace",
        "--trace-out FILE",
        "--slow-ms N",
        "/debug/traces",
        "check-metrics",
        "--domain",
        "--jobs N",
        "METRICS:",
        "--ancestor-impl dense|segmented",
        "GRAPH:",
        "EXTRACT:",
        "small|full|large",
    ] {
        assert!(text.contains(needle), "help is missing '{needle}':\n{text}");
    }
    // The oracle implementations are not production flags.
    for gone in ["--graph-impl", "--extract-impl"] {
        assert!(!text.contains(gone), "help still lists '{gone}':\n{text}");
    }
}

/// Run `osars summarize` with `args` and return its stdout.
fn summarize_stdout(args: &[&str]) -> String {
    let out = osars(&[&["summarize"], args].concat());
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// What `osars summarize --item all` must print for `corpus` under
/// `opts`: the reference pipeline of `osars check` (naive extraction,
/// naive graph build, cold solve), rendered item by item.
fn naive_pipeline_text(
    corpus: &osars::datasets::Corpus,
    opts: &osars::runtime::BatchOptions,
) -> String {
    osars::check::oracle::naive_pipeline(corpus, opts)
        .iter()
        .map(osars::runtime::render_item_summary)
        .collect()
}

#[test]
fn graph_impls_produce_byte_identical_stdout() {
    // The indexed builder is a drop-in for the naive oracle:
    // whole-corpus summaries must match byte-for-byte, for any --jobs.
    use osars::core::Granularity;
    use osars::datasets::{Corpus, CorpusConfig};
    use osars::runtime::BatchOptions;
    let run = |jobs: &str| {
        summarize_stdout(&[
            "--domain",
            "phones",
            "--scale",
            "small",
            "--item",
            "all",
            "--granularity",
            "pairs",
            "--jobs",
            jobs,
        ])
    };
    let naive = naive_pipeline_text(
        &Corpus::phones(&CorpusConfig::phones_small(), 42),
        &BatchOptions {
            granularity: Granularity::Pairs,
            ..BatchOptions::default()
        },
    );
    assert_eq!(run("1"), naive, "indexed != naive");
    assert_eq!(run("8"), naive, "indexed(jobs=8) != naive");
}

#[test]
fn extract_impls_produce_byte_identical_stdout() {
    // The interned automaton pipeline is a drop-in for the naive
    // trie-walk oracle on both summarize paths: whole-corpus batch
    // summaries for any --jobs, and the single-item path.
    use osars::datasets::{Corpus, CorpusConfig};
    use osars::runtime::BatchOptions;
    let batch = |jobs: &str| {
        summarize_stdout(&[
            "--domain", "phones", "--scale", "small", "--item", "all", "--jobs", jobs,
        ])
    };
    let naive = naive_pipeline_text(
        &Corpus::phones(&CorpusConfig::phones_small(), 42),
        &BatchOptions::default(),
    );
    assert_eq!(batch("1"), naive, "interned != naive");
    assert_eq!(batch("8"), naive, "interned(jobs=8) != naive");

    // The single-item path prints the solver's wall-clock µs on the
    // header line; mask that (it varies run to run) and require
    // everything else — candidate counts, costs, sentences — to match
    // the oracle's item 0 exactly.
    let single = summarize_stdout(&["--domain", "doctors", "--scale", "small", "--item", "0"])
        .lines()
        .map(|l| match (l.find(" in "), l.find("µs;")) {
            (Some(a), Some(b)) if a < b => {
                format!("{} in _µs;{}", &l[..a], &l[b + "µs;".len()..])
            }
            _ => l.to_owned(),
        })
        .collect::<Vec<_>>()
        .join("\n");
    let mut doctors = Corpus::doctors(&CorpusConfig::doctors_small(), 42);
    doctors.items.truncate(1);
    let oracle = &osars::check::oracle::naive_pipeline(&doctors, &BatchOptions::default())[0];
    let mut expect = format!(
        "greedy selected {} of {} candidates in _µs; cost {} (root-only {})",
        oracle.summary.selected.len(),
        oracle.num_candidates,
        oracle.summary.cost,
        oracle.root_cost
    );
    for line in &oracle.rendered {
        expect.push_str(&format!("\n  • {line}"));
    }
    assert_eq!(single, expect, "single-item interned != naive");
}

/// Assert `osars args..` exits 1 with `want` on stderr.
fn assert_refused(args: &[&str], want: &str) {
    let out = osars(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(want), "{args:?}: {stderr}");
}

/// Assert `osars args..` refuses `flag` as unknown for its subcommand.
fn assert_unknown_flag(args: &[&str], flag: &str) {
    let want = format!("unknown flag {flag} for `osars {}`", args[0]);
    assert_refused(args, &want);
}

#[test]
fn unknown_extract_impl_is_rejected() {
    // The naive extractor is an oracle, not a production flag: every
    // subcommand that once took `--extract-impl` refuses it.
    for command in "summarize compile evaluate bench-incremental serve".split(' ') {
        assert_unknown_flag(
            &[command, "--domain", "phones", "--extract-impl", "naive"],
            "--extract-impl",
        );
    }
}

#[test]
fn unknown_graph_impl_is_rejected() {
    for command in ["summarize", "bench-incremental", "serve"] {
        assert_unknown_flag(
            &[command, "--domain", "phones", "--graph-impl", "naive"],
            "--graph-impl",
        );
    }
}

#[test]
fn misspelled_and_misplaced_flags_are_rejected() {
    assert_unknown_flag(
        &["summarize", "--domain", "phones", "--granulrity", "pairs"],
        "--granulrity",
    );
    assert_unknown_flag(
        &["summarize", "--domain", "phones", "--bogus-flag", "1"],
        "--bogus-flag",
    );
    // A flag another subcommand reads is still unknown here.
    assert_unknown_flag(&["stats", "--domain", "phones", "--jobs", "2"], "--jobs");
    // `summarize` knows the union of its paths' flags; each path
    // refuses the ones it would ignore, before touching any file.
    for flag in ["--explain", "--focus"] {
        let args = ["summarize", "--item", "all", flag, "x"];
        assert_refused(&args, &format!("{flag} is not supported with --item all"));
    }
    for flag in ["--jobs", "--trace-out", "--explain", "--domain"] {
        let args = ["summarize", "--artifacts", "missing.osar", flag, "x"];
        assert_refused(&args, &format!("{flag} is not supported with --artifacts"));
    }
    // A single item runs on one thread.
    let args = [
        "summarize",
        "--domain",
        "phones",
        "--item",
        "0",
        "--jobs",
        "2",
    ];
    assert_refused(&args, "--jobs is not supported with a single --item");
}

#[test]
fn extract_counters_are_reported_and_jobs_invariant() {
    // The interned engine's counters (intern table size, automaton
    // states, stem-cache hits/misses) are pure functions of corpus +
    // hierarchy, so their sums must not depend on --jobs.
    let m1 = tmp_corpus("extract1_metrics.jsonl");
    let m8 = tmp_corpus("extract8_metrics.jsonl");
    for (jobs, path) in [("1", &m1), ("8", &m8)] {
        let out = osars(&[
            "summarize",
            "--domain",
            "phones",
            "--scale",
            "small",
            "--item",
            "all",
            "--jobs",
            jobs,
            "--metrics",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let j1 = std::fs::read_to_string(&m1).unwrap();
    let j8 = std::fs::read_to_string(&m8).unwrap();
    for counter in [
        "extract.intern.entries",
        "extract.automaton.states",
        "extract.stem_cache.hits",
        "extract.stem_cache.misses",
    ] {
        let line_of = |jsonl: &str| {
            jsonl
                .lines()
                .find(|l| {
                    l.contains("\"t\":\"counter\"")
                        && l.contains(&format!("\"name\":\"{counter}\""))
                })
                .map(str::to_owned)
        };
        let a = line_of(&j1);
        assert!(a.is_some(), "no '{counter}' counter in:\n{j1}");
        assert_eq!(a, line_of(&j8), "'{counter}' depends on --jobs");
    }
}

#[test]
fn evaluate_metrics_emits_valid_jsonl_with_spans() {
    let metrics = tmp_corpus("eval_metrics.jsonl");
    let out = osars(&[
        "evaluate",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--items",
        "1",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jsonl = std::fs::read_to_string(&metrics).unwrap();
    for span in ["extract", "graph.build", "solve.greedy"] {
        assert!(
            jsonl.lines().any(
                |l| l.contains("\"t\":\"span\"") && l.contains(&format!("\"name\":\"{span}\""))
            ),
            "no '{span}' span in:\n{jsonl}"
        );
    }
    // The file passes the binary's own validator.
    let check = osars(&["check-metrics", "--metrics", metrics.to_str().unwrap()]);
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(stdout.contains("ok:"), "{stdout}");
    // The validator re-renders the snapshot to Prometheus text and
    // cross-checks the quantile/count/sum lines against the records.
    assert!(stdout.contains("prometheus round-trip"), "{stdout}");
}

#[test]
fn trace_out_batch_writes_chrome_json_without_perturbing_stdout() {
    let trace = tmp_corpus("batch_trace.json");
    let base = [
        "summarize",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--item",
        "all",
        "--jobs",
        "2",
    ];
    let plain = osars(&base);
    assert!(plain.status.success());
    let mut args = base.to_vec();
    args.extend_from_slice(&["--trace-out", trace.to_str().unwrap()]);
    let traced = osars(&args);
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    assert_eq!(
        plain.stdout, traced.stdout,
        "--trace-out must not perturb stdout"
    );
    assert!(
        String::from_utf8_lossy(&traced.stderr).contains("chrome trace_event"),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );

    // The export is valid Chrome trace_event JSON: one complete event
    // per span, with a root per item on its own track (tid).
    let text = std::fs::read_to_string(&trace).unwrap();
    let events = osars::json::parse(&text).expect("valid JSON");
    let events = events.as_array().expect("trace_event array");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    let roots = names.iter().filter(|n| **n == "summarize_one").count();
    assert_eq!(roots, 30, "one root span per phones-small item");
    for stage in ["extract", "graph.build", "solve.greedy"] {
        assert!(names.contains(&stage), "missing {stage} events");
    }
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("ts").and_then(osars::json::Value::as_f64).is_some());
        assert!(ev.get("dur").and_then(osars::json::Value::as_f64).is_some());
    }
}

#[test]
fn trace_out_single_item_writes_one_tree() {
    let trace = tmp_corpus("single_trace.json");
    let base = [
        "summarize",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--item",
        "0",
    ];
    let plain = osars(&base);
    assert!(plain.status.success());
    let mut args = base.to_vec();
    args.extend_from_slice(&["--trace-out", trace.to_str().unwrap()]);
    let traced = osars(&args);
    assert!(
        traced.status.success(),
        "{}",
        String::from_utf8_lossy(&traced.stderr)
    );
    // The single-item header embeds a wall time ("in 219µs") that varies
    // run to run with or without tracing; blank it before comparing.
    let normalize = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .map(|l| match (l.find(" in "), l.find("µs;")) {
                (Some(a), Some(b)) if a < b => {
                    format!("{} in Xµs;{}", &l[..a], &l[b + "µs;".len()..])
                }
                _ => l.to_owned(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        normalize(&plain.stdout),
        normalize(&traced.stdout),
        "--trace-out must not perturb stdout (timings aside)"
    );

    let text = std::fs::read_to_string(&trace).unwrap();
    let events = osars::json::parse(&text).expect("valid JSON");
    let events = events.as_array().expect("trace_event array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
        .collect();
    for required in ["summarize", "extract", "graph.build", "solve.greedy"] {
        assert!(names.contains(&required), "missing {required} in {names:?}");
    }
}

#[test]
fn check_metrics_rejects_invalid_files() {
    let bad = tmp_corpus("bad_metrics.jsonl");
    std::fs::write(&bad, "this is not json\n").unwrap();
    let out = osars(&["check-metrics", "--metrics", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid JSON"));

    let missing_name = tmp_corpus("nameless_metrics.jsonl");
    std::fs::write(&missing_name, "{\"t\":\"span\",\"us\":1.5}\n").unwrap();
    let out = osars(&["check-metrics", "--metrics", missing_name.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing string field 'name'"));
}

#[test]
fn summarize_stdout_is_byte_identical_with_metrics_enabled() {
    let metrics = tmp_corpus("batch_metrics.jsonl");
    let plain = osars(&[
        "summarize",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--item",
        "all",
        "--jobs",
        "2",
    ]);
    assert!(plain.status.success());
    let observed = osars(&[
        "summarize",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--item",
        "all",
        "--jobs",
        "2",
        "--trace",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(observed.status.success());
    assert_eq!(
        plain.stdout, observed.stdout,
        "metrics/trace must not perturb stdout"
    );
    // --trace renders the per-stage table and span mirror on stderr only.
    let err = String::from_utf8_lossy(&observed.stderr);
    assert!(err.contains("[osa-obs]"), "{err}");
    assert!(err.contains("counter/gauge"), "{err}");
}

#[test]
fn counter_totals_are_jobs_invariant_via_cli() {
    let m1 = tmp_corpus("jobs1_metrics.jsonl");
    let m8 = tmp_corpus("jobs8_metrics.jsonl");
    for (jobs, path) in [("1", &m1), ("8", &m8)] {
        let out = osars(&[
            "summarize",
            "--domain",
            "phones",
            "--scale",
            "small",
            "--item",
            "all",
            "--jobs",
            jobs,
            "--metrics",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let c1 = invariant_counter_lines(&std::fs::read_to_string(&m1).unwrap());
    let c8 = invariant_counter_lines(&std::fs::read_to_string(&m8).unwrap());
    assert!(!c1.is_empty(), "expected counter lines in the snapshot");
    assert_eq!(c1, c8, "deterministic counters must not depend on --jobs");
}

#[test]
fn trace_is_a_bare_switch() {
    // `--trace` takes no value: flags after it must still parse.
    let out = osars(&[
        "summarize",
        "--trace",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--k",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[osa-obs] extract"), "{err}");
}

#[test]
fn evaluate_stdout_is_jobs_invariant() {
    // The evaluation table aggregates per-item errors in item order, so
    // the worker count must never leak into stdout.
    let run = |jobs: &str| {
        let out = osars(&[
            "evaluate", "--domain", "phones", "--scale", "small", "--items", "3", "--jobs", jobs,
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "evaluate stdout depends on --jobs");
}

#[test]
fn check_subcommand_is_deterministic_and_passes() {
    let run = || {
        let out = osars(&["check", "--seed", "11", "--cases", "3"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    let text = String::from_utf8_lossy(&first);
    assert!(
        text.contains("check: seed 11, 3 cases, faults off"),
        "{text}"
    );
    assert!(text.contains("summary: 3/3 cases passed"), "{text}");
    // Same seed ⇒ byte-identical report.
    assert_eq!(first, run(), "check report is not deterministic");
}

#[test]
fn check_faults_is_a_bare_switch() {
    let out = osars(&["check", "--faults", "--seed", "11", "--cases", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("faults on"), "{text}");
    assert!(text.contains("summary: 2/2 cases passed"), "{text}");
}

/// `osars check --edits` runs the incremental-vs-rebuild differential
/// oracle (incremental artifact updates must be byte-identical to a
/// from-scratch rebuild) and stays byte-deterministic across runs.
#[test]
fn check_edits_is_deterministic_and_passes() {
    let run = || {
        let out = osars(&["check", "--edits", "--seed", "9", "--cases", "2"]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let first = run();
    let text = String::from_utf8_lossy(&first);
    assert!(text.contains("edits on"), "{text}");
    assert!(text.contains("summary: 2/2 cases passed"), "{text}");
    assert_eq!(first, run(), "edits report is not deterministic");
}

/// `osars bench-incremental` asserts incremental == rebuild byte
/// identity on every update and writes the latency report.
#[test]
fn bench_incremental_writes_report_and_asserts_equality() {
    let out_path = tmp_corpus("bench_incremental.json");
    let out = osars(&[
        "bench-incremental",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--updates",
        "5",
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = std::fs::read_to_string(&out_path).expect("report written");
    let doc = osars::json::parse(&report).expect("valid JSON report");
    for field in [
        "updates",
        "incremental_p50_us",
        "rebuild_p50_us",
        "speedup_p50",
    ] {
        assert!(
            doc.get(field)
                .and_then(osars::json::Value::as_f64)
                .is_some(),
            "missing {field}: {report}"
        );
    }
    assert_eq!(
        doc.get("updates").and_then(osars::json::Value::as_u64),
        Some(5)
    );
}

#[test]
fn domain_fallback_requires_corpus_or_domain() {
    let out = osars(&["summarize"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--corpus (or --domain)"));
}

// --- hardened error paths ---------------------------------------------------

#[test]
fn non_finite_or_negative_eps_is_rejected() {
    // `f64::from_str` happily parses NaN/inf/negatives; the CLI must
    // not hand those to the pipeline on any eps-taking subcommand.
    for cmd in ["summarize", "evaluate", "serve"] {
        for eps in ["nan", "inf", "-inf", "-0.5", "NaN"] {
            let out = osars(&[cmd, "--domain", "phones", "--scale", "small", "--eps", eps]);
            assert!(!out.status.success(), "{cmd} accepted --eps {eps}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains("--eps must be a finite non-negative number"),
                "{cmd} --eps {eps}: {err}"
            );
        }
    }
}

#[test]
fn eps_parse_failure_is_a_clean_error() {
    let out = osars(&[
        "summarize",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--eps",
        "banana",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--eps"), "{err}");
    assert!(err.contains("cannot parse"), "{err}");
}

#[test]
fn missing_corpus_file_is_a_clean_error() {
    let out = osars(&["summarize", "--corpus", "/nonexistent/corpus.json"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("loading '/nonexistent/corpus.json'"), "{err}");
}

#[test]
fn loadgen_requires_addr_and_fails_cleanly_when_unreachable() {
    let out = osars(&["loadgen"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr is required"));

    // Nothing listens on this port: a transport failure must be a clean
    // nonzero exit, not a panic.
    let out = osars(&["loadgen", "--addr", "127.0.0.1:1", "--duration-secs", "1"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("load-generating against '127.0.0.1:1'"),
        "{err}"
    );
}

#[test]
fn serve_rejects_bad_configuration_before_binding() {
    let out = osars(&[
        "serve",
        "--domain",
        "phones",
        "--scale",
        "small",
        "--algorithm",
        "quantum",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm 'quantum'"));

    let out = osars(&["serve"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--corpus (or --domain)"));
}

#[test]
fn help_lists_serve_and_loadgen() {
    let out = osars(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "osars serve",
        "osars loadgen",
        "SERVE:",
        "LOADGEN:",
        "--queue-depth N",
        "--deadline-ms N",
        "--panic-every N",
        "BENCH_serve.json",
    ] {
        assert!(text.contains(needle), "help is missing '{needle}':\n{text}");
    }
}

#[test]
fn a_model_over_the_tableau_cap_is_a_clean_error() {
    // Item 53 of this doctors-large corpus has 240 reviews: at sentence
    // granularity its coverage program needs a 42428 x 84856 dense
    // tableau, over the solver's cap.
    let path = tmp_corpus("doctors_large_cap.json");
    let out = osars(&[
        "generate",
        "--domain",
        "doctors",
        "--scale",
        "large",
        "--seed",
        "3",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let item_53 = |granularity: &str, alg: &str| {
        osars(&[
            "summarize",
            "--corpus",
            path.to_str().unwrap(),
            "--item",
            "53",
            "--granularity",
            granularity,
            "--algorithm",
            alg,
            "--k",
            "2",
        ])
    };
    for alg in ["ilp", "rr"] {
        let out = item_53("sentences", alg);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{alg}: {stderr}");
        assert!(
            stderr.starts_with("error: model too large: "),
            "{alg}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{alg}: {stderr}");
    }
    // Its 825 pairs compress to 91 distinct candidates, a model the
    // exact solver takes.
    let out = item_53("pairs", "ilp");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("cost 1287"), "{stdout}");
}

#[test]
fn single_item_matches_the_pipeline() {
    // `summarize --item N` runs the per-item pipeline of the batch: its
    // summary is `summarize_one`'s, under the same options and seed. Its
    // `--explain` lines account for the header cost and for every raw
    // opinion, also at pairs granularity where candidates are compressed.
    use osars::core::Granularity;
    use osars::datasets::{Corpus, CorpusConfig, Extractor};
    use osars::runtime::{
        render_item_summary, summarize_one, BatchAlgorithm, BatchOptions, Fault, WorkerScratch,
    };
    let doctors = Corpus::doctors(&CorpusConfig::doctors_small(), 3);
    let phones = Corpus::phones(&CorpusConfig::phones_small(), 3);
    let all = ["pairs", "sentences", "reviews"];
    for (domain, corpus, granularities) in [
        ("doctors", &doctors, &all[..]),
        ("phones", &phones, &all[..2]),
    ] {
        let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
        for &granularity in granularities {
            for algorithm in ["greedy", "lazy", "local-search", "ilp", "rr"] {
                let case = format!("{domain} {granularity} {algorithm}");
                let alg = BatchAlgorithm::from_name(algorithm).unwrap();
                let opts = BatchOptions {
                    granularity: match granularity {
                        "pairs" => Granularity::Pairs,
                        "sentences" => Granularity::Sentences,
                        _ => Granularity::Reviews,
                    },
                    algorithm: alg,
                    corpus_seed: 3,
                    ..BatchOptions::default()
                };
                let mut scratch = WorkerScratch::new();
                let want = summarize_one(corpus, &extractor, &opts, &mut scratch, 0, Fault::None)
                    .expect("item 0 exists");
                let stdout = summarize_stdout(&[
                    "--domain",
                    domain,
                    "--scale",
                    "small",
                    "--seed",
                    "3",
                    "--item",
                    "0",
                    "--granularity",
                    granularity,
                    "--algorithm",
                    algorithm,
                    "--explain",
                    "true",
                ]);
                let mut lines = stdout.lines();
                let header = lines.next().expect("header line");
                let (served, root): (Vec<&str>, Vec<&str>) = lines
                    .clone()
                    .filter(|l| !l.starts_with("  • "))
                    .partition(|l| l.starts_with("      └ serves "));
                let bullets: Vec<&str> = lines.filter(|l| l.starts_with("  • ")).collect();

                // Header and bullets against the batch rendering.
                let (head, tail) = header.split_once(" in ").expect("timed header");
                let tail = &tail[tail.find("µs;").expect("µs") + "µs;".len()..];
                let s = &want.summary;
                assert_eq!(
                    format!("{head} in _µs;{tail}"),
                    format!(
                        "{} selected {} of {} candidates in _µs; cost {} (root-only {})",
                        alg.summarizer(0).name(),
                        s.selected.len(),
                        want.num_candidates,
                        s.cost,
                        want.root_cost
                    ),
                    "{case}"
                );
                let rendered = render_item_summary(&want);
                let want_bullets: Vec<&str> = rendered.lines().skip(1).collect();
                assert_eq!(bullets, want_bullets, "{case}");

                // Explain lines: "serves N opinions (cost share C)" per
                // bullet, then the root's remainder.
                let numbers = |line: &str| -> (u64, u64) {
                    let served = line.split_once("serves ").unwrap().1;
                    let served = served.trim_start_matches("the remaining ");
                    let count = served.split(' ').next().unwrap().parse().unwrap();
                    let share = line.rsplit_once("cost share ").unwrap().1;
                    (count, share.trim_end_matches(')').parse().unwrap())
                };
                assert_eq!(served.len(), bullets.len(), "{case}");
                assert_eq!(root.len(), 1, "{case}: {stdout}");
                let (count, share) = served
                    .iter()
                    .chain(&root)
                    .map(|l| numbers(l))
                    .fold((0, 0), |(c, s), (n, x)| (c + n, s + x));
                assert_eq!(share, s.cost, "{case}: cost shares");
                assert_eq!(count, want.num_pairs as u64, "{case}: opinions");
            }
        }
    }
}
