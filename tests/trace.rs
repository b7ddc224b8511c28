//! Span-tree well-formedness over *real* summarization traces: every
//! tree [`summarize_corpus`] records must be well formed,
//! carry exactly the instrumented stage names, and be invariant (in
//! structure and counters — never in wall times) across `--jobs`.

use std::collections::BTreeMap;

use osars::datasets::{Corpus, CorpusConfig};
use osars::obs::TraceTree;
use osars::runtime::{summarize_corpus, BatchAlgorithm, BatchOptions};

/// A deliberately tiny phone corpus: these tests assert tree *shape*,
/// not solve quality, and the ILP pass must stay cheap in debug builds.
fn phones_tiny() -> Corpus {
    let config = CorpusConfig {
        items: 6,
        min_reviews: 8,
        max_reviews: 20,
        mean_reviews: 12.0,
        ..CorpusConfig::phones_small()
    };
    Corpus::phones(&config, 42)
}

fn traced(corpus: &Corpus, algorithm: BatchAlgorithm, jobs: usize) -> Vec<TraceTree> {
    let opts = BatchOptions {
        jobs,
        algorithm,
        ..BatchOptions::default()
    };
    let report = summarize_corpus(corpus, &opts);
    let trees = report.traces;
    assert!(report.failed.is_empty(), "{:?}", report.failed);
    assert_eq!(
        trees.len(),
        report.results.len(),
        "one trace per successful item"
    );
    trees
}

/// The timing-free shape of a tree: span names with parent links plus
/// every counter. This is what must be identical across `--jobs`.
fn shape(tree: &TraceTree) -> Vec<(String, Option<u32>, BTreeMap<String, u64>)> {
    tree.spans
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.parent,
                s.counters.iter().cloned().collect(),
            )
        })
        .collect()
}

#[test]
fn summarize_traces_are_well_formed_with_known_stage_names() {
    let corpus = phones_tiny();
    for algorithm in [
        BatchAlgorithm::Greedy,
        BatchAlgorithm::LazyGreedy,
        BatchAlgorithm::Ilp,
    ] {
        let trees = traced(&corpus, algorithm, 1);
        for (item, tree) in trees.iter().enumerate() {
            assert!(tree.is_well_formed(), "item {item} tree is malformed");
            assert_eq!(tree.trace_id, item as u64, "trace ids are item indices");
            assert_eq!(tree.spans[0].name, "summarize_one", "root span name");
            assert!(tree.total_us() > 0, "root span has a duration");

            // Every stage directly under the root is one of the
            // instrumented pipeline stages, and the pipeline stages all
            // actually appear.
            let stages: Vec<&str> = tree
                .spans
                .iter()
                .filter(|s| s.parent == Some(0))
                .map(|s| s.name.as_str())
                .collect();
            let solve = algorithm.span_name();
            for stage in &stages {
                assert!(
                    ["extract", "graph.build", solve, "ilp.branch_bound"].contains(stage),
                    "item {item}: unexpected stage {stage:?}"
                );
            }
            for required in ["extract", "graph.build", solve] {
                assert!(
                    stages.contains(&required),
                    "item {item}: missing stage {required:?} in {stages:?}"
                );
            }

            // The stage rollup never exceeds the root's duration.
            let stage_sum: u64 = tree.stage_totals().iter().map(|(_, us)| *us).sum();
            assert!(
                stage_sum <= tree.total_us(),
                "item {item}: stages sum to {stage_sum}us > root {}us",
                tree.total_us()
            );

            // Extraction/graph counters ride on their spans.
            let counters: Vec<&str> = tree
                .spans
                .iter()
                .flat_map(|s| s.counters.iter().map(|(k, _)| k.as_str()))
                .collect();
            for required in ["extract.pairs", "graph.candidates"] {
                assert!(
                    counters.contains(&required),
                    "item {item}: missing counter {required:?}"
                );
            }
        }
    }
}

#[test]
fn trace_shape_and_counters_are_jobs_invariant() {
    let corpus = phones_tiny();
    let sequential = traced(&corpus, BatchAlgorithm::Greedy, 1);
    let parallel = traced(&corpus, BatchAlgorithm::Greedy, 8);
    assert_eq!(sequential.len(), parallel.len());
    for (item, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
        assert!(b.is_well_formed(), "item {item} (jobs 8) malformed");
        assert_eq!(
            shape(a),
            shape(b),
            "item {item}: span shape or counters differ between --jobs 1 and 8"
        );
    }
}

#[test]
fn chrome_export_round_trips_through_the_json_parser() {
    let corpus = phones_tiny();
    let trees = traced(&corpus, BatchAlgorithm::Greedy, 2);
    let chrome = osars::obs::chrome_trace_json(&trees);
    let parsed = osars::json::parse(&chrome).expect("chrome export is valid JSON");
    let events = parsed.as_array().expect("trace_event array");
    let total_spans: usize = trees.iter().map(|t| t.spans.len()).sum();
    assert_eq!(events.len(), total_spans, "one complete event per span");
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("ts").and_then(osars::json::Value::as_f64).is_some());
        assert!(ev.get("dur").and_then(osars::json::Value::as_f64).is_some());
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
    }
}
