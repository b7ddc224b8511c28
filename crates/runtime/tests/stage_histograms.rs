//! One registry sample per item per pipeline stage: a batch over N
//! items leaves the `extract`, `graph.build` and solve histograms with
//! count N, whether or not the item's graph state is cached (sentence
//! granularity caches the plan and shard, pairs granularity does not).
//!
//! This file intentionally holds exactly **one** `#[test]`: it enables,
//! snapshots and resets the process-global `osa_obs` registry, which
//! would race with any sibling test running in the same process.

use osa_core::Granularity;
use osa_datasets::{Corpus, CorpusConfig};
use osa_runtime::{summarize_corpus, BatchOptions};

#[test]
fn summarize_corpus_records_one_graph_build_sample_per_item() {
    let corpus = Corpus::phones(&CorpusConfig::phones_small(), 42);
    let n = corpus.items.len();
    assert!(n > 1, "the corpus must have several items");
    let obs = osa_obs::global();
    obs.set_enabled(true);
    for granularity in [Granularity::Sentences, Granularity::Pairs] {
        obs.reset();
        let report = summarize_corpus(
            &corpus,
            &BatchOptions {
                jobs: 2,
                granularity,
                ..BatchOptions::default()
            },
        );
        assert!(report.failed.is_empty(), "{granularity:?}: items failed");
        let snap = obs.snapshot();
        let count = |name: &str| {
            snap.histograms
                .iter()
                .find(|(h, _)| h == name)
                .map_or(0, |(_, stats)| stats.count)
        };
        for stage in ["extract", "graph.build", "solve.greedy"] {
            assert_eq!(count(stage), n, "{granularity:?}: {stage} samples");
        }
    }
    obs.set_enabled(false);
}
