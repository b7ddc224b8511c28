//! End-to-end pipeline tests: synthetic corpus → text extraction →
//! coverage summarization → evaluation metrics, across both domains.

use osars::baselines::{SentenceRecord, SentenceSelector, TextRank};
use osars::core::{CoverageGraph, Granularity, GreedySummarizer, Pair, Summarizer};
use osars::datasets::{extract_item, table1_stats, Corpus, CorpusConfig};
use osars::eval::{sent_err, sent_err_penalized};
use osars::text::{ConceptMatcher, SentimentLexicon};

fn small_cfg() -> CorpusConfig {
    CorpusConfig {
        items: 4,
        min_reviews: 8,
        max_reviews: 20,
        mean_reviews: 12.0,
        mean_sentences: 4.0,
        aspect_sentence_prob: 0.75,
    }
}

fn pairs_of(ex: &osars::datasets::ExtractedItem, selected: &[usize]) -> Vec<Pair> {
    selected
        .iter()
        .flat_map(|&si| &ex.pairs[ex.sentences[si].pair_indices.clone()])
        .copied()
        .collect()
}

#[test]
fn full_pipeline_produces_useful_summaries() {
    for corpus in [
        Corpus::doctors(&small_cfg(), 31),
        Corpus::phones(&small_cfg(), 32),
    ] {
        let matcher = ConceptMatcher::from_hierarchy(&corpus.hierarchy);
        let lexicon = SentimentLexicon::default();
        for item in &corpus.items {
            let ex = extract_item(item, &matcher, &lexicon);
            assert!(!ex.pairs.is_empty(), "extraction found pairs");
            let graph = CoverageGraph::for_groups(
                &corpus.hierarchy,
                &ex.pairs,
                &ex.sentence_groups(),
                0.5,
                Granularity::Sentences,
            );
            let s = GreedySummarizer.summarize(&graph, 5);
            assert!(s.cost < graph.root_cost(), "summary beats the empty one");
            // On the penalized measure (missing concepts cost ≥ 1) a real
            // summary must clearly beat the empty one; on the plain
            // measure neutral extrapolation is a strong prior, so only
            // near-parity is guaranteed.
            let f = pairs_of(&ex, &s.selected);
            let err = sent_err(&corpus.hierarchy, &ex.pairs, &f);
            let empty = sent_err(&corpus.hierarchy, &ex.pairs, &[]);
            assert!(err <= empty * 1.10, "{err} vs empty {empty}");
            let perr = sent_err_penalized(&corpus.hierarchy, &ex.pairs, &f);
            let pempty = sent_err_penalized(&corpus.hierarchy, &ex.pairs, &[]);
            assert!(perr < pempty, "{perr} vs empty {pempty}");
        }
    }
}

#[test]
fn greedy_beats_sentiment_agnostic_baseline_on_penalized_error() {
    let corpus = Corpus::phones(&small_cfg(), 33);
    let matcher = ConceptMatcher::from_hierarchy(&corpus.hierarchy);
    let lexicon = SentimentLexicon::default();
    let mut ours_total = 0.0;
    let mut textrank_total = 0.0;
    for item in &corpus.items {
        let ex = extract_item(item, &matcher, &lexicon);
        let graph = CoverageGraph::for_groups(
            &corpus.hierarchy,
            &ex.pairs,
            &ex.sentence_groups(),
            0.5,
            Granularity::Sentences,
        );
        let k = 6;
        let ours = GreedySummarizer.summarize(&graph, k).selected;
        let records: Vec<SentenceRecord> = ex
            .sentences
            .iter()
            .enumerate()
            .map(|(si, s)| SentenceRecord {
                tokens: ex.sentence_tokens(si),
                pairs: ex.pairs[s.pair_indices.clone()].to_vec(),
            })
            .collect();
        let base = TextRank.select(&records, k);
        ours_total += sent_err_penalized(&corpus.hierarchy, &ex.pairs, &pairs_of(&ex, &ours));
        textrank_total += sent_err_penalized(&corpus.hierarchy, &ex.pairs, &pairs_of(&ex, &base));
    }
    assert!(
        ours_total < textrank_total,
        "ours {ours_total} vs textrank {textrank_total}"
    );
}

#[test]
fn sentence_summaries_cover_more_than_pair_summaries() {
    // The paper's §5.2 observation: at the same k, the top-sentences cost
    // is at most the top-pairs cost (a sentence is a superset of a pair).
    let corpus = Corpus::doctors(&small_cfg(), 34);
    let matcher = ConceptMatcher::from_hierarchy(&corpus.hierarchy);
    let lexicon = SentimentLexicon::default();
    let ex = extract_item(&corpus.items[0], &matcher, &lexicon);
    let pairs_graph = CoverageGraph::for_pairs(&corpus.hierarchy, &ex.pairs, 0.5);
    let sent_graph = CoverageGraph::for_groups(
        &corpus.hierarchy,
        &ex.pairs,
        &ex.sentence_groups(),
        0.5,
        Granularity::Sentences,
    );
    let review_graph = CoverageGraph::for_groups(
        &corpus.hierarchy,
        &ex.pairs,
        &ex.review_groups(),
        0.5,
        Granularity::Reviews,
    );
    for k in [2usize, 4, 8] {
        let cp = GreedySummarizer.summarize(&pairs_graph, k).cost;
        let cs = GreedySummarizer.summarize(&sent_graph, k).cost;
        let cr = GreedySummarizer.summarize(&review_graph, k).cost;
        assert!(cs <= cp, "k={k}: sentences {cs} > pairs {cp}");
        assert!(
            cr <= cs + cs / 2,
            "k={k}: reviews {cr} far above sentences {cs}"
        );
    }
}

#[test]
fn table1_shape_holds_at_small_scale() {
    let corpus = Corpus::doctors(&small_cfg(), 35);
    let stats = table1_stats(&corpus);
    assert_eq!(stats.items, 4);
    assert!(stats.min_reviews_per_item >= 8);
    assert!(stats.max_reviews_per_item <= 20);
    assert!(stats.avg_sentences_per_review > 1.0);
}

#[test]
fn deterministic_end_to_end() {
    let run = || {
        let corpus = Corpus::phones(&small_cfg(), 36);
        let matcher = ConceptMatcher::from_hierarchy(&corpus.hierarchy);
        let lexicon = SentimentLexicon::default();
        let ex = extract_item(&corpus.items[0], &matcher, &lexicon);
        let graph = CoverageGraph::for_pairs(&corpus.hierarchy, &ex.pairs, 0.5);
        GreedySummarizer.summarize(&graph, 5)
    };
    assert_eq!(run(), run());
}
