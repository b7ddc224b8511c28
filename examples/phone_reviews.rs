//! Phone-review scenario: the full qualitative comparison on one item —
//! our greedy ontology/sentiment-aware summarizer against all five
//! baselines, scored with the paper's sentiment-error measures (a
//! single-item version of Fig. 6).
//!
//! Run with: `cargo run --release --example phone_reviews`

use osars::baselines::{
    LexRank, LsaSummarizer, MostPopular, Proportional, SentenceRecord, SentenceSelector, TextRank,
};
use osars::core::{CoverageGraph, Granularity, GreedySummarizer, Pair, Summarizer};
use osars::datasets::{extract_item, Corpus, CorpusConfig};
use osars::eval::{sent_err, sent_err_penalized};
use osars::text::{ConceptMatcher, SentimentLexicon};

const EPS: f64 = 0.5;
const K: usize = 6;

fn main() {
    let corpus = Corpus::phones(&CorpusConfig::phones_small(), 4);
    let matcher = ConceptMatcher::from_hierarchy(&corpus.hierarchy);
    let lexicon = SentimentLexicon::default();
    let item = &corpus.items[0];
    let ex = extract_item(item, &matcher, &lexicon);

    println!(
        "item '{}': {} reviews, {} sentences, {} pairs; selecting k={K} sentences\n",
        item.name,
        item.reviews.len(),
        ex.sentences.len(),
        ex.pairs.len()
    );

    let records: Vec<SentenceRecord> = ex
        .sentences
        .iter()
        .enumerate()
        .map(|(si, s)| SentenceRecord {
            tokens: ex.sentence_tokens(si),
            pairs: ex.pairs[s.pair_indices.clone()].to_vec(),
        })
        .collect();
    let graph = CoverageGraph::for_groups(
        &corpus.hierarchy,
        &ex.pairs,
        &ex.sentence_groups(),
        EPS,
        Granularity::Sentences,
    );

    let pairs_of = |selected: &[usize]| -> Vec<Pair> {
        selected
            .iter()
            .flat_map(|&si| &ex.pairs[ex.sentences[si].pair_indices.clone()])
            .copied()
            .collect()
    };

    let report = |name: &str, selected: Vec<usize>| {
        let f = pairs_of(&selected);
        println!(
            "{name:<16} sent-err {:.4}   penalized {:.4}",
            sent_err(&corpus.hierarchy, &ex.pairs, &f),
            sent_err_penalized(&corpus.hierarchy, &ex.pairs, &f)
        );
        selected
    };

    let ours = report(
        "greedy (ours)",
        GreedySummarizer.summarize(&graph, K).selected,
    );
    report("most-popular", MostPopular.select(&records, K));
    report("proportional", Proportional.select(&records, K));
    report("textrank", TextRank.select(&records, K));
    report("lexrank", LexRank::default().select(&records, K));
    report("lsa", LsaSummarizer::default().select(&records, K));

    println!("\nour k={K} summary:");
    for &si in &ours {
        println!("  • {}", ex.sentences[si].text);
    }
}
