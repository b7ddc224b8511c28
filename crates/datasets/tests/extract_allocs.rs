//! Pins extraction's allocation profile: with a warm scratch, extracting
//! an item of `S` sentences allocates about once per sentence (its own
//! `text`) and once per distinct token (its pool string), plus the
//! growth of a few flat per-item vectors — not the four or so per
//! sentence of per-sentence token, pair and sentence-list vectors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use osa_datasets::{Corpus, CorpusConfig, ExtractImpl, Extractor};
use osa_text::ExtractScratch;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread; other test-harness threads do
    /// not disturb the count.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn extraction_allocates_per_sentence_text_and_per_distinct_token() {
    let corpus = Corpus::doctors(&CorpusConfig::doctors_small(), 7);
    let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
    let mut scratch = ExtractScratch::default();
    let item = corpus
        .items
        .iter()
        .max_by_key(|it| it.reviews.len())
        .expect("corpus has items");
    // Warm the scratch (buffers, stem memo) on the same item.
    let warm = extractor.extract(item, ExtractImpl::Interned, &mut scratch);

    let before = allocs();
    let ex = extractor.extract(item, ExtractImpl::Interned, &mut scratch);
    let spent = allocs() - before;
    assert_eq!(ex, warm);

    let sentences = ex.sentences.len() as u64;
    let distinct = ex.tokens.len() as u64;
    assert!(sentences >= 200, "item too small: {sentences} sentences");
    // Beyond a text per sentence and a pool string per distinct token: an
    // out-of-vocabulary word also costs a key in the scratch's per-item
    // local interner (under half the distinct tokens here), and the flat
    // per-item vectors grow by doubling. This item measures 713 against
    // the 1,911 of per-sentence vectors.
    let bound = sentences + distinct + distinct / 2 + 64;
    assert!(
        spent <= bound,
        "extracting {sentences} sentences with {distinct} distinct tokens \
         allocated {spent} times (bound {bound})"
    );
}
