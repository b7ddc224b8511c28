//! Golden digest of the greedy summarizers.
//!
//! Bit-level pin of the selections and costs that `GreedySummarizer`
//! (and `LazyGreedySummarizer`, which must agree with it) produce for
//! every k in 1..=10 on the doctors and phones small corpora at all three
//! granularities, plus a weighted-pairs set built from the Figs. 4–5
//! workload. Any change to the coverage graph's edges or to the greedy
//! tie-break moves this digest; a change that is meant to keep every
//! selection must leave it exactly as it is.

use osars::core::{
    compress_pairs, CoverageGraph, Granularity, GreedySummarizer, LazyGreedySummarizer, Pair,
    Summarizer, Summary,
};
use osars::datasets::{Corpus, CorpusConfig, ExtractImpl, Extractor};
use osars::text::ExtractScratch;

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn summary(&mut self, s: &Summary) {
        self.word(s.cost);
        self.word(s.selected.len() as u64);
        for &u in &s.selected {
            self.word(u as u64);
        }
    }
}

/// Every graph the digest covers, in a fixed order.
fn graphs() -> Vec<CoverageGraph> {
    let mut out = Vec::new();
    for corpus in [
        Corpus::doctors(&CorpusConfig::doctors_small(), 3),
        Corpus::phones(&CorpusConfig::phones_small(), 3),
    ] {
        let h = &corpus.hierarchy;
        let extractor = Extractor::from_hierarchy(h);
        let mut scratch = ExtractScratch::default();
        for item in &corpus.items {
            let ex = extractor.extract(item, ExtractImpl::Interned, &mut scratch);
            out.push(CoverageGraph::for_pairs(h, &ex.pairs, 0.5));
            out.push(CoverageGraph::for_groups(
                h,
                &ex.pairs,
                &ex.sentence_groups(),
                0.5,
                Granularity::Sentences,
            ));
            out.push(CoverageGraph::for_groups(
                h,
                &ex.pairs,
                &ex.review_groups(),
                0.5,
                Granularity::Reviews,
            ));
        }
    }
    // Weighted pairs: quantizing the sentiments to quarters makes many
    // pairs repeat, so the compressed instance has weights above 1.
    let w = osa_bench::quant_workload(6, 120, 2026);
    for item in &w.items {
        let quantized: Vec<Pair> = item
            .pairs
            .iter()
            .map(|p| Pair::new(p.concept, (p.sentiment * 4.0).round() / 4.0))
            .collect();
        let (unique, weights) = compress_pairs(&quantized);
        assert!(weights.iter().any(|&w| w > 1), "the set is really weighted");
        out.push(CoverageGraph::for_weighted_pairs(
            &w.hierarchy,
            &unique,
            &weights,
            0.5,
        ));
    }
    out
}

/// Recorded with Algorithm 2's eager indexed max-heap; every greedy
/// engine must reproduce it bit for bit.
const GOLDEN_DIGEST: u64 = 0x7b19_6041_2d96_45f2;

#[test]
fn greedy_selections_match_the_golden_digest() {
    let graphs = graphs();
    for (name, alg) in [
        ("greedy", &GreedySummarizer as &dyn Summarizer),
        ("lazy", &LazyGreedySummarizer),
    ] {
        let mut d = Digest::new();
        for g in &graphs {
            for k in 1..=10 {
                d.summary(&alg.summarize(g, k));
            }
        }
        assert_eq!(
            d.0, GOLDEN_DIGEST,
            "{name}: golden digest moved: {:#018x}",
            d.0
        );
    }
}
