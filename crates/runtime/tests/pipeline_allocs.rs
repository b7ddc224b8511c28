//! Pins the allocation profile of one item through the whole pipeline:
//! with a warm worker scratch, extract → graph → solve allocates about
//! what extraction alone does (a text per sentence, a pool string per
//! distinct token) plus a fixed number of per-item vectors for the plan,
//! the shard, the assembled graph and the summary — nothing per sentence
//! beyond extraction's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use osa_datasets::{Corpus, CorpusConfig, ExtractImpl, Extractor};
use osa_runtime::{incremental::ItemArtifacts, BatchOptions, WorkerScratch};

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
fn pipeline_allocates_no_vector_per_sentence() {
    let corpus = Corpus::doctors(&CorpusConfig::doctors_small(), 7);
    let h = &corpus.hierarchy;
    let extractor = Extractor::from_hierarchy(h);
    let opts = BatchOptions::default();
    let mut scratch = WorkerScratch::new();
    let (idx, item) = corpus
        .items
        .iter()
        .enumerate()
        .max_by_key(|(_, it)| it.reviews.len())
        .expect("corpus has items");
    let run = |scratch: &mut WorkerScratch| {
        let ex = extractor.extract(item, ExtractImpl::Interned, &mut scratch.extract);
        let (sentences, distinct) = (ex.sentences.len() as u64, ex.tokens.len() as u64);
        let (art, graph) =
            ItemArtifacts::from_extracted_with_graph(h, &opts, &opts, item, ex, scratch, None);
        let summary = art.solve(h, &opts, idx, item, &graph, scratch, None);
        (summary, sentences, distinct)
    };
    // Warm the scratch (buffers, stem memo, graph scratch) on the item.
    let (warm, _, _) = run(&mut scratch);

    let before = allocs();
    let (summary, sentences, distinct) = run(&mut scratch);
    let spent = allocs() - before;
    assert_eq!(summary, warm);
    assert!(sentences >= 200, "item too small: {sentences} sentences");
    // Extraction's own bound (see `osa-datasets`' `extract_allocs`) plus
    // 96 for the per-item vectors of plan, shard, graph, greedy and the
    // rendered summary. This item measures 765 (713 of them
    // extraction's); with a fresh group vector per sentence it measured
    // 1,106.
    let bound = sentences + distinct + distinct / 2 + 64 + 96;
    assert!(
        spent <= bound,
        "the pipeline over {sentences} sentences with {distinct} distinct \
         tokens allocated {spent} times (bound {bound})"
    );
}
