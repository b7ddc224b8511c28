//! The fault-injection contract of `summarize_corpus`: with a seeded
//! `FaultPlan`, a batch containing injected panics and NaN corruptions
//! completes; the failed/retried accounting is a pure function of the
//! plan (jobs-invariant); and every surviving item's output is
//! byte-identical to the same item's output in a fault-free run.

use osa_datasets::{Corpus, CorpusConfig};
use osa_runtime::{
    quiet_injected_panics, render_item_summary, summarize_corpus, BatchOptions, Fault, FaultPlan,
    ItemSummary,
};

fn corpus(seed: u64, items: usize) -> Corpus {
    let cfg = CorpusConfig {
        items,
        min_reviews: 3,
        max_reviews: 8,
        mean_reviews: 5.0,
        mean_sentences: 3.5,
        aspect_sentence_prob: 0.8,
    };
    Corpus::doctors(&cfg, seed)
}

/// A plan aggressive enough that a 24-item corpus reliably sees every
/// fault class.
fn plan() -> FaultPlan {
    FaultPlan {
        seed: 99,
        transient_panic_rate: 0.2,
        sticky_panic_rate: 0.15,
        nan_rate: 0.15,
        delay_rate: 0.2,
        max_delay_micros: 200,
    }
}

fn by_item(results: &[ItemSummary]) -> std::collections::HashMap<usize, &ItemSummary> {
    results.iter().map(|s| (s.item, s)).collect()
}

#[test]
fn survivors_are_byte_identical_to_a_fault_free_run() {
    quiet_injected_panics();
    let corpus = corpus(21, 24);
    let clean = summarize_corpus(&corpus, &BatchOptions::default());
    let faulted = summarize_corpus(
        &corpus,
        &BatchOptions {
            fault_plan: Some(plan()),
            retries: 1,
            ..BatchOptions::default()
        },
    );
    assert!(
        !faulted.failed.is_empty(),
        "plan should produce at least one sticky failure on 24 items"
    );
    assert!(faulted.retried > 0, "plan should produce transient panics");
    assert_eq!(
        faulted.results.len() + faulted.failed.len(),
        corpus.items.len()
    );
    // Failed items are exactly those with a permanent fault under this
    // retry budget: sticky panics and NaN corruptions.
    let clean_by_item = by_item(&clean.results);
    for f in &faulted.failed {
        match plan().fault_for(f.item) {
            Fault::Panic { failing_attempts } => {
                assert_eq!(failing_attempts, u32::MAX, "item {}", f.item);
                assert!(f.message.contains("injected panic"), "{}", f.message);
            }
            Fault::NanSentiment => {
                assert!(f.message.contains("NaN sentiments"), "{}", f.message);
            }
            other => panic!("item {} failed under fault {other:?}", f.item),
        }
        assert_eq!(f.attempts, 2);
    }
    // Every survivor matches the fault-free run byte for byte.
    for s in &faulted.results {
        assert_eq!(
            render_item_summary(s),
            render_item_summary(clean_by_item[&s.item]),
            "item {} diverged under fault injection",
            s.item
        );
    }
}

#[test]
fn failure_accounting_is_jobs_invariant() {
    quiet_injected_panics();
    let corpus = corpus(5, 18);
    let run = |jobs| {
        summarize_corpus(
            &corpus,
            &BatchOptions {
                jobs,
                fault_plan: Some(plan()),
                retries: 1,
                ..BatchOptions::default()
            },
        )
    };
    let base = run(1);
    for jobs in [3, 8] {
        let r = run(jobs);
        assert_eq!(r.results, base.results, "jobs={jobs}");
        assert_eq!(r.failed, base.failed, "jobs={jobs}");
        assert_eq!(r.retried, base.retried, "jobs={jobs}");
    }
    // The stage-table footer renders the counts.
    let table = base.render_stage_table();
    assert!(
        table.contains(&format!("failed {}", base.failed.len())),
        "{table}"
    );
    assert!(
        table.contains(&format!("retried {}", base.retried)),
        "{table}"
    );
}

#[test]
fn nan_corruption_is_caught_not_propagated() {
    quiet_injected_panics();
    let corpus = corpus(8, 12);
    // Only NaN faults: every failure must come from the pipeline's
    // post-extraction NaN detection, and no NaN may reach a summary.
    let nan_only = FaultPlan {
        nan_rate: 1.0,
        ..FaultPlan::none(4)
    };
    let report = summarize_corpus(
        &corpus,
        &BatchOptions {
            fault_plan: Some(nan_only),
            retries: 0,
            ..BatchOptions::default()
        },
    );
    for f in &report.failed {
        assert!(f.message.contains("NaN sentiments"), "{}", f.message);
    }
    // Items with zero extracted pairs survive (corruption is a no-op).
    for s in &report.results {
        assert_eq!(s.num_pairs, 0, "item {} should have failed", s.item);
    }
}

#[test]
fn fault_free_plan_changes_nothing() {
    let corpus = corpus(13, 8);
    let clean = summarize_corpus(&corpus, &BatchOptions::default());
    let planned = summarize_corpus(
        &corpus,
        &BatchOptions {
            fault_plan: Some(FaultPlan::none(1)),
            ..BatchOptions::default()
        },
    );
    assert_eq!(clean.results, planned.results);
    assert!(planned.failed.is_empty());
    assert_eq!(planned.retried, 0);
}

#[test]
fn an_item_too_large_for_the_exact_solvers_fails_alone() {
    use osa_core::{CoverageGraph, IlpSummarizer, Pair, RandomizedRounding, Summarizer};
    use osa_ontology::HierarchyBuilder;
    use osa_runtime::BatchJob;

    // A star: pair i sits on leaf i, so each pair covers only itself.
    // 3000 pairs make a coverage ILP of ~9k rows by ~18k columns, over
    // the solver's dense-tableau cap; 5 pairs are solved normally.
    let mut b = HierarchyBuilder::new();
    let root = b.add_node("root");
    let leaves: Vec<_> = (0..3000)
        .map(|i| {
            let leaf = b.add_node(&format!("leaf{i}"));
            b.add_edge(root, leaf).unwrap();
            leaf
        })
        .collect();
    let h = b.build().unwrap();
    let sizes = [5, 3000, 5];
    for solver in [
        &IlpSummarizer as &(dyn Summarizer + Sync),
        &RandomizedRounding::with_seed(7),
    ] {
        let report = BatchJob::new(&sizes).jobs(2).run(|_, _, &n| {
            let pairs: Vec<Pair> = leaves[..n].iter().map(|&c| Pair::new(c, 0.5)).collect();
            let graph = CoverageGraph::for_pairs(&h, &pairs, 0.5);
            solver.summarize(&graph, 2).selected.len()
        });
        assert_eq!(report.results, vec![2, 2], "{}", solver.name());
        assert_eq!(report.failed.len(), 1, "{}", solver.name());
        let failure = &report.failed[0];
        assert_eq!(failure.item, 1);
        assert!(
            failure.message.contains("model too large"),
            "{}: {}",
            solver.name(),
            failure.message
        );
    }
}
