//! Baseline summarizer throughput on one item's sentences.

use criterion::{criterion_group, criterion_main, Criterion};
use osa_baselines::{
    LexRank, LsaSummarizer, MostPopular, Proportional, SentenceRecord, SentenceSelector, TextRank,
};
use osa_datasets::{extract_item, Corpus, CorpusConfig};
use osa_text::{ConceptMatcher, SentimentLexicon};

fn bench_baselines(c: &mut Criterion) {
    let corpus = Corpus::phones(&CorpusConfig::phones_small(), 23);
    let matcher = ConceptMatcher::from_hierarchy(&corpus.hierarchy);
    let lexicon = SentimentLexicon::default();
    let ex = extract_item(&corpus.items[0], &matcher, &lexicon);
    let records: Vec<SentenceRecord> = ex
        .sentences
        .iter()
        .take(150)
        .enumerate()
        .map(|(si, s)| SentenceRecord {
            tokens: ex.sentence_tokens(si),
            pairs: ex.pairs[s.pair_indices.clone()].to_vec(),
        })
        .collect();
    let k = 6;
    let mut group = c.benchmark_group("baselines/150-sentences");
    group.sample_size(20);
    group.bench_function("most_popular", |b| {
        b.iter(|| MostPopular.select(&records, k))
    });
    group.bench_function("proportional", |b| {
        b.iter(|| Proportional.select(&records, k))
    });
    group.bench_function("textrank", |b| b.iter(|| TextRank.select(&records, k)));
    group.bench_function("lexrank", |b| {
        b.iter(|| LexRank::default().select(&records, k))
    });
    group.bench_function("lsa", |b| {
        b.iter(|| LsaSummarizer::default().select(&records, k))
    });
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
