//! The extraction pipeline: review text → concept-sentiment pairs.
//!
//! Mirrors the paper's setup: concepts are spotted with the dictionary
//! matcher (MetaMap stand-in), the sentiment of the containing sentence is
//! computed (lexicon scorer) and assigned to every concept mentioned in
//! the sentence.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::OnceLock;

use osa_core::Pair;
use osa_ontology::{Hierarchy, NodeId};
use osa_text::{
    split_sentences, tokenize, ConceptMatcher, ExtractScratch, InternedExtractor, SentimentLexicon,
    SentimentRegressor,
};

use crate::{Corpus, Item, Review};

/// The sentence-sentiment estimator used by extraction: either the
/// deterministic rule-based lexicon or the learned regressor (the paper's
/// doc2vec + regression architecture).
#[derive(Debug, Clone)]
pub enum SentimentModel {
    /// Rule-based lexicon scorer with valence shifters.
    Lexicon(SentimentLexicon),
    /// Hashed bag-of-words + ridge regression.
    Regressor(SentimentRegressor),
}

impl SentimentModel {
    /// Score a tokenized sentence in `[-1, 1]`.
    pub fn score(&self, tokens: &[String]) -> f64 {
        match self {
            SentimentModel::Lexicon(l) => l.score_tokens(tokens),
            SentimentModel::Regressor(r) => r.predict_tokens(tokens),
        }
    }
}

/// Train a sentence-sentiment regressor on a corpus, using each review's
/// mean planted sentiment as a weak per-sentence label — the standard
/// "supervise from the review's star rating" setup the paper's regression
/// assumes. Deterministic.
pub fn train_regressor(corpus: &Corpus, dim: usize, lambda: f64) -> SentimentRegressor {
    let mut sentences: Vec<Vec<String>> = Vec::new();
    let mut labels: Vec<f64> = Vec::new();
    for item in &corpus.items {
        for review in &item.reviews {
            if review.planted.is_empty() {
                continue;
            }
            let rating: f64 = review.planted.iter().map(|p| p.sentiment).sum::<f64>()
                / review.planted.len() as f64;
            for s in split_sentences(&review.text) {
                sentences.push(tokenize(&s));
                labels.push(rating);
            }
        }
    }
    SentimentRegressor::train(&sentences, &labels, dim, lambda)
}

/// One extracted sentence. Its token IDs and pairs are runs of the
/// item's flat [`ExtractedItem::token_ids`] and [`ExtractedItem::pairs`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractedSentence {
    /// Original sentence text.
    pub text: String,
    /// This sentence's run of [`ExtractedItem::token_ids`]: its lowercase
    /// tokens as indices into the item's token pool
    /// [`ExtractedItem::tokens`]. Use [`ExtractedItem::sentence_tokens`]
    /// to materialize strings when needed.
    pub tokens: Range<usize>,
    /// The run of [`ExtractedItem::pairs`] this sentence produced.
    pub pair_indices: Range<usize>,
    /// The sentence's computed sentiment.
    pub sentiment: f64,
}

/// All pairs of an item plus the sentence/review grouping the coverage
/// problems need.
///
/// Extraction appends left to right, so every grouping is a contiguous
/// run: a sentence's pairs and token IDs, and a review's sentences, are
/// ranges into the flat per-item vectors. Consecutive runs abut, and
/// together they cover `pairs`, `token_ids` and `sentences`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExtractedItem {
    /// Every concept-sentiment pair of the item (the paper's `P`).
    pub pairs: Vec<Pair>,
    /// The item's sentences in order.
    pub sentences: Vec<ExtractedSentence>,
    /// Each review's run of [`sentences`](Self::sentences) (the
    /// k-Reviews grouping).
    pub reviews: Vec<Range<usize>>,
    /// The item's distinct token strings, in first-occurrence order over
    /// the item's token stream; token IDs index into this pool.
    pub tokens: Vec<String>,
    /// Every sentence's pooled token IDs, in sentence order.
    pub token_ids: Vec<u32>,
}

impl ExtractedItem {
    /// Pair-index groups per sentence (the k-Sentences candidates).
    pub fn sentence_groups(&self) -> Vec<Vec<usize>> {
        self.sentences
            .iter()
            .map(|s| s.pair_indices.clone().collect())
            .collect()
    }

    /// Pair-index groups per review (the k-Reviews candidates).
    pub fn review_groups(&self) -> Vec<Vec<usize>> {
        self.reviews
            .iter()
            .map(|r| self.review_pairs(r.clone()).collect())
            .collect()
    }

    /// The run of [`pairs`](Self::pairs) produced by a run of
    /// [`sentences`](Self::sentences).
    fn review_pairs(&self, sentences: Range<usize>) -> Range<usize> {
        let run = &self.sentences[sentences];
        match (run.first(), run.last()) {
            (Some(a), Some(b)) => a.pair_indices.start..b.pair_indices.end,
            _ => 0..0,
        }
    }

    /// The text behind a pooled token ID.
    pub fn token(&self, id: u32) -> &str {
        &self.tokens[id as usize]
    }

    /// Materialize sentence `si`'s tokens as owned strings.
    pub fn sentence_tokens(&self, si: usize) -> Vec<String> {
        self.token_ids[self.sentences[si].tokens.clone()]
            .iter()
            .map(|&id| self.tokens[id as usize].clone())
            .collect()
    }
}

/// Run the pipeline over one item's reviews with the lexicon scorer.
///
/// This is the naive reference implementation (per-token `String`
/// allocation, trie walks, per-occurrence stemming); the production path
/// is [`Extractor::extract`] with [`ExtractImpl::Interned`], which is
/// byte-identical but index-backed.
pub fn extract_item(
    item: &Item,
    matcher: &ConceptMatcher,
    lexicon: &SentimentLexicon,
) -> ExtractedItem {
    extract_item_with(item, matcher, &SentimentModel::Lexicon(lexicon.clone()))
}

/// Run the pipeline over one item's reviews with an explicit sentiment
/// model (lexicon or learned regressor). Naive reference implementation —
/// see [`extract_item`].
pub fn extract_item_with(
    item: &Item,
    matcher: &ConceptMatcher,
    model: &SentimentModel,
) -> ExtractedItem {
    let mut out = ExtractedItem::default();
    out.reviews.reserve(item.reviews.len());
    let mut pool_map: HashMap<String, u32> = HashMap::new();

    for review in &item.reviews {
        let first_sentence = out.sentences.len();
        for text in split_sentences(&review.text) {
            let tokens = tokenize(&text);
            let sentiment = model.score(&tokens);
            let first_pair = out.pairs.len();
            for m in matcher.find(&tokens) {
                out.pairs.push(Pair::new(m.concept, sentiment));
            }
            let first_token = out.token_ids.len();
            for t in tokens {
                let id = match pool_map.entry(t) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let id = out.tokens.len() as u32;
                        out.tokens.push(e.key().clone());
                        e.insert(id);
                        id
                    }
                };
                out.token_ids.push(id);
            }
            out.sentences.push(ExtractedSentence {
                text,
                tokens: first_token..out.token_ids.len(),
                pair_indices: first_pair..out.pairs.len(),
                sentiment,
            });
        }
        out.reviews.push(first_sentence..out.sentences.len());
    }
    out
}

/// Incrementally extend a previous extraction of `item` after reviews
/// were **appended**: only `item.reviews[prev_reviews..]` are tokenized,
/// scored, and matched; their sentences, pairs, and pooled tokens are
/// merged onto `prev`.
///
/// Full extraction is a pure left-to-right fold over the review stream
/// (pair/sentence indices grow monotonically, the token pool is in
/// first-occurrence order), so extending a prefix extraction with the
/// suffix reviews is **byte-identical** to re-extracting the whole item.
/// The new reviews run through the interned engine on the worker's
/// `scratch`, resumed from `prev`'s token pool.
pub fn extract_append(
    extractor: &Extractor,
    prev: &ExtractedItem,
    item: &Item,
    prev_reviews: usize,
    scratch: &mut ExtractScratch,
) -> ExtractedItem {
    assert_eq!(prev.reviews.len(), prev_reviews, "prev covers a prefix");
    assert!(item.reviews.len() >= prev_reviews, "reviews were appended");
    let mut out = prev.clone();
    extractor.interned.resume_item(scratch, &out.tokens);
    extractor.extend_interned(&item.reviews[prev_reviews..], None, &mut out, scratch);
    out
}

/// Truncate an extraction back to its first `keep_reviews` reviews — the
/// inverse of [`extract_append`] for retracting trailing reviews.
///
/// Because extraction appends monotonically, the kept sentences and pairs
/// are exact prefixes, and the token pool's first-occurrence order means
/// every token first seen in a retracted review occupies a pool suffix —
/// so truncation is byte-identical to re-extracting the shortened item.
pub fn extract_truncate(prev: &ExtractedItem, keep_reviews: usize) -> ExtractedItem {
    assert!(
        keep_reviews <= prev.reviews.len(),
        "cannot keep more than exists"
    );
    let reviews = prev.reviews[..keep_reviews].to_vec();
    let n_sentences = reviews.last().map_or(0, |r| r.end);
    let sentences = prev.sentences[..n_sentences].to_vec();
    let (n_pairs, n_token_ids) = sentences
        .last()
        .map_or((0, 0), |s| (s.pair_indices.end, s.tokens.end));
    let token_ids = prev.token_ids[..n_token_ids].to_vec();
    let n_tokens = token_ids.iter().max().map_or(0, |&id| id as usize + 1);
    ExtractedItem {
        pairs: prev.pairs[..n_pairs].to_vec(),
        sentences,
        reviews,
        tokens: prev.tokens[..n_tokens].to_vec(),
        token_ids,
    }
}

/// Which extraction implementation to run. Both produce byte-identical
/// [`ExtractedItem`]s; production runs `Interned`, and `Naive` exists as
/// the auditable oracle for `osars check` and the tests, mirroring the
/// graph builder's `GraphImpl::{Indexed, Naive}` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractImpl {
    /// Interned token IDs, Aho-Corasick concept automatons, memoized
    /// stemming and dense lexicon tables (the one production runs).
    Interned,
    /// The original per-token `String` / trie-walk / HashMap pipeline.
    Naive,
}

/// The extraction engine: the precompiled interned engine, built once
/// per hierarchy and shared read-only across workers, plus what the
/// naive oracle needs. The oracle's matcher is built on its first use.
#[derive(Debug, Clone)]
pub struct Extractor {
    /// Every non-root concept term with its node, in hierarchy order:
    /// what the naive matcher is built from.
    terms: Vec<(NodeId, String)>,
    matcher: OnceLock<ConceptMatcher>,
    lexicon: SentimentLexicon,
    interned: InternedExtractor,
}

impl Extractor {
    /// Build the interned engine from a hierarchy, with the default
    /// sentiment lexicon.
    pub fn from_hierarchy(h: &Hierarchy) -> Self {
        let lexicon = SentimentLexicon::default();
        let terms = h
            .nodes()
            .filter(|&node| node != h.root())
            .flat_map(|node| h.terms(node).iter().map(move |t| (node, t.clone())))
            .collect();
        Extractor {
            terms,
            matcher: OnceLock::new(),
            interned: InternedExtractor::new(h, &lexicon),
            lexicon,
        }
    }

    /// The naive oracle's matcher, built on first use.
    fn matcher(&self) -> &ConceptMatcher {
        self.matcher.get_or_init(|| {
            ConceptMatcher::from_terms(self.terms.iter().map(|(node, t)| (*node, t.as_str())))
        })
    }

    /// The precompiled interned engine.
    pub fn interned(&self) -> &InternedExtractor {
        &self.interned
    }

    /// Extract one item with the lexicon scorer, using the selected
    /// implementation. `scratch` is reused across calls (per worker).
    pub fn extract(
        &self,
        item: &Item,
        which: ExtractImpl,
        scratch: &mut ExtractScratch,
    ) -> ExtractedItem {
        match which {
            ExtractImpl::Interned => self.extract_interned(item, None, scratch),
            ExtractImpl::Naive => extract_item(item, self.matcher(), &self.lexicon),
        }
    }

    /// Extract one item with an explicit sentiment model.
    ///
    /// The interned path scores `SentimentModel::Lexicon` through its
    /// precompiled tables, which are built from this extractor's own
    /// (default) lexicon — the only lexicon constructible today.
    pub fn extract_with(
        &self,
        item: &Item,
        model: &SentimentModel,
        which: ExtractImpl,
        scratch: &mut ExtractScratch,
    ) -> ExtractedItem {
        match which {
            ExtractImpl::Interned => self.extract_interned(item, Some(model), scratch),
            ExtractImpl::Naive => extract_item_with(item, self.matcher(), model),
        }
    }

    fn extract_interned(
        &self,
        item: &Item,
        model: Option<&SentimentModel>,
        scratch: &mut ExtractScratch,
    ) -> ExtractedItem {
        scratch.begin_item();
        let mut out = ExtractedItem::default();
        out.reviews.reserve(item.reviews.len());
        self.extend_interned(&item.reviews, model, &mut out, scratch);
        out
    }

    /// Extract `reviews` onto `out` with the interned engine, then finish
    /// the item in `scratch` (which the caller began or resumed for
    /// `out`).
    fn extend_interned(
        &self,
        reviews: &[Review],
        model: Option<&SentimentModel>,
        out: &mut ExtractedItem,
        scratch: &mut ExtractScratch,
    ) {
        let ie = &self.interned;
        for review in reviews {
            let first_sentence = out.sentences.len();
            for k in 0..scratch.split_sentences(&review.text) {
                let text = &review.text[scratch.sentence_span(k)];
                ie.tokenize_sentence(text, scratch);
                let sentiment = match model {
                    None | Some(SentimentModel::Lexicon(_)) => ie.score(scratch),
                    Some(SentimentModel::Regressor(r)) => {
                        let s = &*scratch;
                        r.predict_with(s.num_tokens(), |i| ie.token_str(s, s.token_id(i)))
                    }
                };
                ie.find(scratch);
                let first_pair = out.pairs.len();
                for m in scratch.mentions() {
                    out.pairs.push(Pair::new(m.concept, sentiment));
                }
                let first_token = out.token_ids.len();
                ie.item_token_ids(scratch, &mut out.tokens, &mut out.token_ids);
                out.sentences.push(ExtractedSentence {
                    text: text.to_owned(),
                    tokens: first_token..out.token_ids.len(),
                    pair_indices: first_pair..out.pairs.len(),
                    sentiment,
                });
            }
            out.reviews.push(first_sentence..out.sentences.len());
        }
        scratch.finish_item();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Corpus, CorpusConfig};

    fn small() -> CorpusConfig {
        CorpusConfig {
            items: 2,
            min_reviews: 4,
            max_reviews: 8,
            mean_reviews: 6.0,
            mean_sentences: 4.0,
            aspect_sentence_prob: 0.85,
        }
    }

    #[test]
    fn extraction_recovers_planted_concepts() {
        let c = Corpus::phones(&small(), 21);
        let matcher = ConceptMatcher::from_hierarchy(&c.hierarchy);
        let lexicon = SentimentLexicon::default();
        let item = &c.items[0];
        let ex = extract_item(item, &matcher, &lexicon);

        let planted: usize = item.reviews.iter().map(|r| r.planted.len()).sum();
        assert!(planted > 0);
        // Recall: at least 80% of planted mentions are re-extracted (the
        // matcher is longest-match; templates embed exact surface terms).
        assert!(
            ex.pairs.len() as f64 >= 0.8 * planted as f64,
            "extracted {} of {planted}",
            ex.pairs.len()
        );
    }

    #[test]
    fn extracted_sentiments_correlate_with_planted() {
        let c = Corpus::phones(&small(), 22);
        let matcher = ConceptMatcher::from_hierarchy(&c.hierarchy);
        let lexicon = SentimentLexicon::default();
        // Compare per-concept mean planted vs extracted sentiment signs.
        let item = &c.items[0];
        let ex = extract_item(item, &matcher, &lexicon);
        let planted_mean: f64 = item
            .reviews
            .iter()
            .flat_map(|r| r.planted.iter().map(|p| p.sentiment))
            .sum::<f64>()
            / item
                .reviews
                .iter()
                .map(|r| r.planted.len())
                .sum::<usize>()
                .max(1) as f64;
        let extracted_mean: f64 =
            ex.pairs.iter().map(|p| p.sentiment).sum::<f64>() / ex.pairs.len().max(1) as f64;
        assert!(
            (planted_mean - extracted_mean).abs() < 0.35,
            "planted {planted_mean} vs extracted {extracted_mean}"
        );
    }

    #[test]
    fn groups_partition_pairs() {
        let c = Corpus::doctors(&small(), 23);
        let matcher = ConceptMatcher::from_hierarchy(&c.hierarchy);
        let lexicon = SentimentLexicon::default();
        let ex = extract_item(&c.items[0], &matcher, &lexicon);

        let mut seen = vec![false; ex.pairs.len()];
        for g in ex.sentence_groups() {
            for pi in g {
                assert!(!seen[pi], "pair in two sentences");
                seen[pi] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every pair belongs to a sentence");

        // Review groups cover the same pairs.
        let total: usize = ex.review_groups().iter().map(Vec::len).sum();
        assert_eq!(total, ex.pairs.len());
        assert_eq!(ex.reviews.len(), c.items[0].reviews.len());
    }

    #[test]
    fn regressor_path_recovers_polarity() {
        let cfg = CorpusConfig {
            items: 4,
            min_reviews: 10,
            max_reviews: 20,
            mean_reviews: 14.0,
            mean_sentences: 4.0,
            aspect_sentence_prob: 0.85,
        };
        let c = Corpus::phones(&cfg, 41);
        let reg = train_regressor(&c, 256, 1.0);
        let matcher = ConceptMatcher::from_hierarchy(&c.hierarchy);
        let model = SentimentModel::Regressor(reg);
        let ex = extract_item_with(&c.items[0], &matcher, &model);
        assert!(!ex.pairs.is_empty());
        // The learned scores should correlate in sign with the planted
        // item means: compare corpus-level means.
        let planted_mean: f64 = c.items[0]
            .reviews
            .iter()
            .flat_map(|r| r.planted.iter().map(|p| p.sentiment))
            .sum::<f64>()
            / c.items[0]
                .reviews
                .iter()
                .map(|r| r.planted.len())
                .sum::<usize>()
                .max(1) as f64;
        let got_mean: f64 =
            ex.pairs.iter().map(|p| p.sentiment).sum::<f64>() / ex.pairs.len() as f64;
        assert_eq!(
            planted_mean > 0.0,
            got_mean > 0.0,
            "{planted_mean} vs {got_mean}"
        );
    }

    #[test]
    fn interned_extraction_matches_the_naive_oracle() {
        let c = Corpus::phones(&small(), 33);
        let d = Corpus::doctors(&small(), 34);
        for corpus in [&c, &d] {
            let ex = Extractor::from_hierarchy(&corpus.hierarchy);
            let mut scratch = ExtractScratch::default();
            for item in &corpus.items {
                let fast = ex.extract(item, ExtractImpl::Interned, &mut scratch);
                let slow = ex.extract(item, ExtractImpl::Naive, &mut scratch);
                assert_eq!(fast, slow, "item {}", item.name);
                for (a, b) in fast.sentences.iter().zip(&slow.sentences) {
                    assert_eq!(a.sentiment.to_bits(), b.sentiment.to_bits());
                }
            }
        }
    }

    #[test]
    fn interned_regressor_extraction_matches_the_naive_oracle() {
        let c = Corpus::phones(&small(), 35);
        let model = SentimentModel::Regressor(train_regressor(&c, 64, 1.0));
        let ex = Extractor::from_hierarchy(&c.hierarchy);
        let mut scratch = ExtractScratch::default();
        for item in &c.items {
            let fast = ex.extract_with(item, &model, ExtractImpl::Interned, &mut scratch);
            let slow = ex.extract_with(item, &model, ExtractImpl::Naive, &mut scratch);
            assert_eq!(fast, slow, "item {}", item.name);
            for (a, b) in fast.sentences.iter().zip(&slow.sentences) {
                assert_eq!(a.sentiment.to_bits(), b.sentiment.to_bits());
            }
        }
    }

    #[test]
    fn appending_reviews_matches_full_reextraction() {
        let c = Corpus::phones(&small(), 44);
        let d = Corpus::doctors(&small(), 45);
        for corpus in [&c, &d] {
            let ex = Extractor::from_hierarchy(&corpus.hierarchy);
            let mut scratch = ExtractScratch::default();
            for item in &corpus.items {
                for keep in 0..item.reviews.len() {
                    let mut prefix = item.clone();
                    prefix.reviews.truncate(keep);
                    let prev = ex.extract(&prefix, ExtractImpl::Interned, &mut scratch);
                    let grown = extract_append(&ex, &prev, item, keep, &mut scratch);
                    for which in [ExtractImpl::Interned, ExtractImpl::Naive] {
                        let full = ex.extract(item, which, &mut scratch);
                        assert_eq!(grown, full, "item {} keep {keep}", item.name);
                        for (a, b) in grown.sentences.iter().zip(&full.sentences) {
                            assert_eq!(a.sentiment.to_bits(), b.sentiment.to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn truncating_reviews_matches_full_reextraction() {
        let c = Corpus::phones(&small(), 46);
        let ex = Extractor::from_hierarchy(&c.hierarchy);
        let mut scratch = ExtractScratch::default();
        for item in &c.items {
            let full = ex.extract(item, ExtractImpl::Interned, &mut scratch);
            for keep in 0..=item.reviews.len() {
                let mut prefix = item.clone();
                prefix.reviews.truncate(keep);
                let expect = ex.extract(&prefix, ExtractImpl::Interned, &mut scratch);
                let got = extract_truncate(&full, keep);
                assert_eq!(got, expect, "item {} keep {keep}", item.name);
                for (a, b) in got.sentences.iter().zip(&expect.sentences) {
                    assert_eq!(a.sentiment.to_bits(), b.sentiment.to_bits());
                }
            }
        }
    }

    #[test]
    fn sentence_tokens_round_trip_through_the_pool() {
        let c = Corpus::phones(&small(), 36);
        let ex = Extractor::from_hierarchy(&c.hierarchy);
        let mut scratch = ExtractScratch::default();
        let item = &c.items[0];
        let got = ex.extract(item, ExtractImpl::Interned, &mut scratch);
        for (si, s) in got.sentences.iter().enumerate() {
            assert_eq!(got.sentence_tokens(si), osa_text::tokenize(&s.text));
        }
    }

    #[test]
    fn lexicon_and_regressor_models_share_the_interface() {
        let lex = SentimentModel::Lexicon(SentimentLexicon::default());
        let toks = osa_text::tokenize("the screen is great");
        assert!(lex.score(&toks) > 0.0);
    }

    #[test]
    fn sentence_sentiment_is_assigned_to_all_its_pairs() {
        let c = Corpus::phones(&small(), 24);
        let matcher = ConceptMatcher::from_hierarchy(&c.hierarchy);
        let lexicon = SentimentLexicon::default();
        let ex = extract_item(&c.items[0], &matcher, &lexicon);
        for s in &ex.sentences {
            for p in &ex.pairs[s.pair_indices.clone()] {
                assert_eq!(p.sentiment, s.sentiment);
            }
        }
    }
}
