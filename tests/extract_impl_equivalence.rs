//! Property tests: the interned extraction engine (token interner +
//! Aho–Corasick concept automatons + per-item stemming) is *identical* —
//! pairs, sentences, token pools and bit-level sentiments — to the naive
//! trie-walk oracle on adversarial review text: non-BMP scalars, terms
//! sharing multi-token prefixes, empty and whitespace-only sentences.

use std::sync::OnceLock;

use osars::datasets::{extract_append, ExtractImpl, Extractor, Item, Review, SentimentModel};
use osars::ontology::{Hierarchy, HierarchyBuilder};
use osars::text::ExtractScratch;
use proptest::prelude::*;

/// A hierarchy whose terms share multi-token prefixes ("battery" /
/// "battery life" / "battery life span"), so longest-match selection in
/// the automaton and the trie must agree on every boundary, plus a
/// stem-variant pair ("cameras" vs text "camera") and a term that is
/// itself a lexicon word ("sharp").
fn term_hierarchy() -> Hierarchy {
    let mut b = HierarchyBuilder::new();
    for (parent, child) in [
        ("device", "battery"),
        ("device", "battery life"),
        ("battery life", "battery life span"),
        ("device", "screen"),
        ("screen", "screen resolution"),
        ("screen", "touch screen"),
        ("device", "cameras"),
        ("cameras", "camera zoom"),
        ("device", "sharp"),
    ] {
        b.add_edge_by_name(parent, child).unwrap();
    }
    b.build().unwrap()
}

/// Text fragments: concept words (including partial prefixes of the
/// multi-token terms), lexicon words with shifters, sentence punctuation,
/// whitespace runs and non-BMP scalars.
const PIECES: &[&str] = &[
    "battery",
    "life",
    "span",
    "batteries",
    "screen",
    "resolution",
    "touch",
    "cameras",
    "camera",
    "zoom",
    "sharp",
    "great",
    "terrible",
    "good",
    "bad",
    "not",
    "never",
    "very",
    "extremely",
    "slightly",
    "somewhat",
    "the",
    "is",
    ".",
    "!",
    "?",
    "...",
    ",",
    "",
    "   ",
    "\t",
    "𝑨",
    "𒀀es",
    "😀",
    "ß",
    "Battery-Life's",
];

fn arb_text() -> impl Strategy<Value = String> {
    let piece = (0usize..PIECES.len() + 3, ".{0,4}")
        .prop_map(|(i, junk)| PIECES.get(i).map_or(junk, |p| (*p).to_owned()));
    proptest::collection::vec(piece, 0..60).prop_map(|ps| ps.join(" "))
}

fn arb_item() -> impl Strategy<Value = Item> {
    proptest::collection::vec(arb_text(), 1..4).prop_map(|texts| Item {
        name: "prop".to_owned(),
        reviews: texts
            .into_iter()
            .map(|text| Review {
                text,
                planted: vec![],
            })
            .collect(),
    })
}

/// A hashed-bigram regressor, trained once (scoring is hierarchy-
/// independent, so one model serves every generated case).
fn regressor() -> &'static SentimentModel {
    static MODEL: OnceLock<SentimentModel> = OnceLock::new();
    MODEL.get_or_init(|| {
        let corpus =
            osars::datasets::Corpus::phones(&osars::datasets::CorpusConfig::phones_small(), 7);
        SentimentModel::Regressor(osars::datasets::train_regressor(&corpus, 64, 1.0))
    })
}

/// Structural equality plus bit-level sentiment equality (the `f64`
/// `PartialEq` in the derive would accept `-0.0 == 0.0`).
fn assert_identical(
    interned: &osars::datasets::ExtractedItem,
    naive: &osars::datasets::ExtractedItem,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(interned, naive);
    for (a, b) in interned.pairs.iter().zip(&naive.pairs) {
        prop_assert_eq!(a.sentiment.to_bits(), b.sentiment.to_bits());
    }
    for (a, b) in interned.sentences.iter().zip(&naive.sentences) {
        prop_assert_eq!(a.sentiment.to_bits(), b.sentiment.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interned_lexicon_extraction_equals_the_naive_oracle(item in arb_item()) {
        let h = term_hierarchy();
        let ex = Extractor::from_hierarchy(&h);
        let mut scratch = ExtractScratch::default();
        // Scratch is deliberately reused across both calls and all cases
        // of this process: stale per-item state leaking through would
        // show up as a mismatch.
        let naive = ex.extract(&item, ExtractImpl::Naive, &mut scratch);
        let interned = ex.extract(&item, ExtractImpl::Interned, &mut scratch);
        assert_identical(&interned, &naive)?;
    }

    #[test]
    fn interned_regressor_extraction_equals_the_naive_oracle(item in arb_item()) {
        let h = term_hierarchy();
        let ex = Extractor::from_hierarchy(&h);
        let mut scratch = ExtractScratch::default();
        let model = regressor();
        let naive = ex.extract_with(&item, model, ExtractImpl::Naive, &mut scratch);
        let interned = ex.extract_with(&item, model, ExtractImpl::Interned, &mut scratch);
        assert_identical(&interned, &naive)?;
    }

    #[test]
    fn appending_at_a_random_split_equals_a_fresh_extract(
        reviews in proptest::collection::vec(arb_text(), 1..6),
        split in 0usize..6,
    ) {
        // `extract_append` is the ingest path: the suffix reviews run
        // through the interned engine resumed from the prefix's token
        // pool, which must number new words exactly as a fresh extract.
        let h = term_hierarchy();
        let ex = Extractor::from_hierarchy(&h);
        let mut scratch = ExtractScratch::default();
        let item = Item {
            name: "append".to_owned(),
            reviews: reviews
                .into_iter()
                .map(|text| Review { text, planted: vec![] })
                .collect(),
        };
        let split = split.min(item.reviews.len());
        let mut prefix = item.clone();
        prefix.reviews.truncate(split);
        let prev = ex.extract(&prefix, ExtractImpl::Interned, &mut scratch);
        let grown = extract_append(&ex, &prev, &item, split, &mut scratch);
        let fresh = ex.extract(&item, ExtractImpl::Naive, &mut scratch);
        assert_identical(&grown, &fresh)?;
    }

    #[test]
    fn raw_unicode_reviews_never_diverge(text in ".{0,300}") {
        // Unstructured scalar soup (incl. non-BMP): no concept usually
        // matches, but tokenization, interning, stemming and scoring must
        // still agree exactly.
        let h = term_hierarchy();
        let ex = Extractor::from_hierarchy(&h);
        let mut scratch = ExtractScratch::default();
        let item = Item {
            name: "unicode".to_owned(),
            reviews: vec![Review { text, planted: vec![] }],
        };
        let naive = ex.extract(&item, ExtractImpl::Naive, &mut scratch);
        let interned = ex.extract(&item, ExtractImpl::Interned, &mut scratch);
        assert_identical(&interned, &naive)?;
    }
}

/// Non-random pin: empty reviews, whitespace-only reviews and a review
/// whose only content is a multi-token term truncated at every prefix
/// length.
#[test]
fn degenerate_reviews_are_identical_across_implementations() {
    let h = term_hierarchy();
    let ex = Extractor::from_hierarchy(&h);
    let mut scratch = ExtractScratch::default();
    let texts = [
        "",
        "   ",
        "\t\n \u{a0}",
        "...!?.",
        "battery",
        "battery life",
        "battery life span",
        "battery life span battery life battery",
        "touch screen resolution",
        "not very sharp. extremely great battery life!",
    ];
    let item = Item {
        name: "degenerate".to_owned(),
        reviews: texts
            .iter()
            .map(|t| Review {
                text: (*t).to_owned(),
                planted: vec![],
            })
            .collect(),
    };
    let naive = ex.extract(&item, ExtractImpl::Naive, &mut scratch);
    let interned = ex.extract(&item, ExtractImpl::Interned, &mut scratch);
    assert_eq!(interned, naive);
    assert!(!interned.pairs.is_empty(), "concept mentions were found");
}
