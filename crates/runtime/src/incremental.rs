//! The per-item pipeline — extract → coverage graph → solve — and the
//! artifacts it caches so `POST /reviews` needs no full rebuild.
//!
//! [`ItemArtifacts`] is the only implementation of the pipeline: the
//! batch ([`summarize_corpus`](crate::summarize_corpus),
//! [`summarize_one`](crate::summarize_one)), the serve daemon, ingest,
//! `osars summarize --item N` and `osars evaluate` all run
//! [`ItemArtifacts::from_extracted`] (or [`build`](ItemArtifacts::build),
//! which extracts first) and its two stages [`graph`](ItemArtifacts::graph)
//! and [`solve`](ItemArtifacts::solve) ([`summarize`](ItemArtifacts::summarize)
//! runs both). A fresh item's build and graph are one `graph.build` stage,
//! [`from_extracted_with_graph`](ItemArtifacts::from_extracted_with_graph).
//! The single-item CLI solves with [`try_solve`](ItemArtifacts::try_solve),
//! to explain the summary over the graph and to print a solver error
//! instead of panicking.
//!
//! For one corpus item it caches everything that can be **extended**
//! instead of rebuilt when reviews are appended (or truncated when
//! trailing reviews are retracted):
//!
//! * the interned extraction ([`ExtractedItem`]) — an append
//!   re-extracts only the new reviews
//!   ([`osa_datasets::extract_append`]),
//! * the sentiment-sorted [`GraphBuildPlan`] buckets and the full-range
//!   [`GraphShard`] — an append merges the new pairs' bucket runs and
//!   re-resolves only the rows whose ancestor closure touches a grown
//!   bucket ([`GraphBuildPlan::append`] /
//!   [`GraphBuildPlan::shard_append`]),
//! * the exact greedy initial-gain vector — scattered from the shard's
//!   pair rows on a fresh build ([`GraphBuildPlan::initial_keys`], no
//!   graph assembled) and maintained by exact subtract/add arithmetic
//!   over the recomputed rows across an append
//!   ([`GraphBuildPlan::warm_keys`]), so
//!   [`GreedySummarizer::summarize_seeded`] warm-starts the greedy heap
//!   (under either algorithm name) and still selects byte-identically to
//!   a cold run.
//!
//! Every update path is **byte-identical** to rebuilding from scratch —
//! the property the `osa-check --edits` differential oracle enforces
//! over seeded random edit scripts. Graph artifacts are kept at
//! sentence/review granularity; at pairs granularity every request
//! rebuilds the graph from the cached extraction, which is still
//! sublinear in corpus size because only the edited item is touched.
//! The cached path is tested against the reference pipeline of
//! `osars check` (naive builder, solved cold).

use osa_core::{
    CoverageGraph, Granularity, GraphBuildPlan, GraphImpl, GraphShard, GreedySummarizer,
    SolverError,
};
use osa_datasets::{extract_append, extract_truncate, ExtractImpl, ExtractedItem, Extractor, Item};
use osa_ontology::Hierarchy;

use crate::{finish_item_summary, item_graph, item_seed, BatchOptions, ItemSummary, WorkerScratch};

/// Cached per-item pipeline state, valid for one `(item, revision)` and
/// one graph signature (`eps`, granularity). Build one
/// with [`ItemArtifacts::build`], advance it with
/// [`ItemArtifacts::update`] after an edit, and answer requests with
/// [`ItemArtifacts::summarize`].
#[derive(Debug, Clone)]
pub struct ItemArtifacts {
    /// Number of reviews the cached extraction covers.
    reviews: usize,
    /// Full extraction of those reviews (impl-invariant bytes).
    extracted: ExtractedItem,
    /// Mergeable graph state for the signature it was built under.
    graph: Option<GraphArtifacts>,
}

/// The mergeable coverage-graph state: the plan (sorted CSR buckets),
/// the full-range shard (per-pair edge runs), and the exact greedy
/// initial-gain vector.
#[derive(Debug, Clone)]
struct GraphArtifacts {
    eps: f64,
    granularity: Granularity,
    plan: GraphBuildPlan,
    shard: GraphShard,
    keys: Vec<u64>,
}

impl GraphArtifacts {
    fn matches(&self, opts: &BatchOptions) -> bool {
        self.eps.to_bits() == opts.eps.to_bits() && self.granularity == opts.granularity
    }
}

impl ItemArtifacts {
    /// Build artifacts for `item` from scratch under `opts`.
    pub fn build(
        hierarchy: &Hierarchy,
        extractor: &Extractor,
        opts: &BatchOptions,
        item: &Item,
        scratch: &mut WorkerScratch,
    ) -> Self {
        let extracted = extractor.extract(item, ExtractImpl::Interned, &mut scratch.extract);
        Self::from_extracted(hierarchy, opts, item, extracted, scratch)
    }

    /// Build artifacts from an **already extracted** item — the artifact
    /// cold-boot path: `osars serve --artifacts` deserializes every
    /// item's `ExtractedItem` from the compiled store and seeds the
    /// per-item caches without re-running extraction (extraction is the
    /// dominant boot cost; this is what makes an artifact boot I/O-bound).
    /// `extracted` must be the full extraction of `item.reviews`.
    pub fn from_extracted(
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        item: &Item,
        extracted: ExtractedItem,
        scratch: &mut WorkerScratch,
    ) -> Self {
        let graph = Self::fresh_graph(hierarchy, &extracted, opts, scratch);
        ItemArtifacts {
            reviews: item.reviews.len(),
            extracted,
            graph,
        }
    }

    fn fresh_graph(
        hierarchy: &Hierarchy,
        ex: &ExtractedItem,
        opts: &BatchOptions,
        scratch: &mut WorkerScratch,
    ) -> Option<GraphArtifacts> {
        // Graph artifacts are cached for the signatures the incremental
        // merge supports: group granularity. `Pairs` granularity
        // compresses duplicates into weights (an append can grow an
        // *existing* pair's weight, so the pair list is not append-only).
        if opts.granularity == Granularity::Pairs {
            return None;
        }
        let groups = scratch.groups.fill(ex, opts.granularity);
        let plan = GraphBuildPlan::new_with(
            hierarchy,
            &ex.pairs,
            Some(groups),
            opts.eps,
            opts.ancestor_impl,
        );
        let shard = plan.shard(
            hierarchy,
            &ex.pairs,
            0..ex.pairs.len(),
            &mut scratch.graph_build,
        );
        let keys = plan.initial_keys(&shard, None);
        Some(GraphArtifacts {
            eps: opts.eps,
            granularity: opts.granularity,
            plan,
            shard,
            keys,
        })
    }

    /// Advance the artifacts after an edit to `item`.
    ///
    /// Contract: the surviving prefix of reviews is unchanged — either
    /// reviews were **appended** (`item.reviews.len() >= self.reviews`,
    /// the first `self.reviews` identical) or trailing reviews were
    /// **retracted** (`item.reviews.len() < self.reviews`, all
    /// remaining identical). Appends re-extract only the new reviews
    /// and merge the graph state; retractions truncate the extraction
    /// and rebuild the (single-item) graph state fresh.
    pub fn update(
        &self,
        hierarchy: &Hierarchy,
        extractor: &Extractor,
        opts: &BatchOptions,
        item: &Item,
        scratch: &mut WorkerScratch,
    ) -> Self {
        if item.reviews.len() < self.reviews {
            let extracted = extract_truncate(&self.extracted, item.reviews.len());
            let graph = Self::fresh_graph(hierarchy, &extracted, opts, scratch);
            return ItemArtifacts {
                reviews: item.reviews.len(),
                extracted,
                graph,
            };
        }
        let extracted = extract_append(
            extractor,
            &self.extracted,
            item,
            self.reviews,
            &mut scratch.extract,
        );
        let graph = match &self.graph {
            Some(prev) if prev.matches(opts) => {
                let groups = scratch.groups.fill(&extracted, opts.granularity);
                let (plan, delta) = prev.plan.append(hierarchy, &extracted.pairs, Some(groups));
                let (shard, recomputed) = plan.shard_append(
                    hierarchy,
                    &extracted.pairs,
                    &prev.shard,
                    &delta,
                    &mut scratch.graph_build,
                );
                let keys =
                    plan.warm_keys(&prev.keys, &prev.shard, &shard, &recomputed, &delta, None);
                Some(GraphArtifacts {
                    eps: opts.eps,
                    granularity: opts.granularity,
                    plan,
                    shard,
                    keys,
                })
            }
            _ => Self::fresh_graph(hierarchy, &extracted, opts, scratch),
        };
        ItemArtifacts {
            reviews: item.reviews.len(),
            extracted,
            graph,
        }
    }

    /// [`from_extracted`](Self::from_extracted) under `artifact_opts`,
    /// then the item's [`graph`](Self::graph) under `opts`: a fresh
    /// item's whole `graph.build` stage — plan, shard and assembly —
    /// timed in the registry and traced as one span. The batch, `osars
    /// summarize --item N` and `osars evaluate` pass the same options
    /// twice, so the registry's `graph.build` histogram gets one sample
    /// per item; the serve daemon builds a revision's artifacts under its
    /// cache signature and the graph under the request's options.
    pub fn from_extracted_with_graph(
        hierarchy: &Hierarchy,
        artifact_opts: &BatchOptions,
        opts: &BatchOptions,
        item: &Item,
        extracted: ExtractedItem,
        scratch: &mut WorkerScratch,
        trace: Option<&osa_obs::Trace>,
    ) -> (Self, CoverageGraph) {
        count_extraction(&extracted, trace);
        let (built, _us) = osa_obs::global().time_traced("graph.build", trace, || {
            let art = Self::from_extracted(hierarchy, artifact_opts, item, extracted, scratch);
            let graph = art.build_graph(hierarchy, opts, scratch, trace);
            (art, graph)
        });
        built
    }

    /// Summarize `item` from the cached artifacts: [`graph`](Self::graph)
    /// then [`solve`](Self::solve). The caller owns the `extract` stage
    /// (running the extractor, or looking the artifacts up).
    pub fn summarize(
        &self,
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        idx: usize,
        item: &Item,
        scratch: &mut WorkerScratch,
        trace: Option<&osa_obs::Trace>,
    ) -> ItemSummary {
        let graph = self.graph(hierarchy, opts, scratch, trace);
        self.solve(hierarchy, opts, idx, item, &graph, scratch, trace)
    }

    /// The `graph.build` stage: the item's coverage graph under `opts`,
    /// timed in the registry and, when `trace` is given, recorded as a
    /// span under whatever span the caller has open. The extraction's
    /// sizes are counted on the caller's open span.
    ///
    /// With cached graph artifacts the graph is assembled from the
    /// cached plan and shard; every other signature rebuilds it from the
    /// cached extraction ([`item_graph`]). At pairs granularity this
    /// stages the compressed pairs in `scratch`, which
    /// [`try_solve`](Self::try_solve) renders from, so pass it the same
    /// scratch untouched.
    pub fn graph(
        &self,
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        scratch: &mut WorkerScratch,
        trace: Option<&osa_obs::Trace>,
    ) -> CoverageGraph {
        count_extraction(&self.extracted, trace);
        let (graph, _us) = osa_obs::global().time_traced("graph.build", trace, || {
            self.build_graph(hierarchy, opts, scratch, trace)
        });
        graph
    }

    /// [`graph`](Self::graph) without the stage's timer and span.
    fn build_graph(
        &self,
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        scratch: &mut WorkerScratch,
        trace: Option<&osa_obs::Trace>,
    ) -> CoverageGraph {
        let ex = &self.extracted;
        if opts.granularity == Granularity::Pairs {
            // Stage the compressed pairs `item_graph` builds over (and
            // the rendering reads).
            let _ = scratch.compress_into(&ex.pairs);
        }
        let graph = match self.cached(opts) {
            Some(g) => CoverageGraph::assemble(
                &g.plan,
                opts.granularity,
                None,
                std::slice::from_ref(&g.shard),
            ),
            None => item_graph(hierarchy, ex, opts, GraphImpl::Indexed, scratch),
        };
        if let Some(t) = trace {
            t.count("graph.candidates", graph.num_candidates() as u64);
            t.count("graph.pairs", graph.num_pairs() as u64);
        }
        graph
    }

    /// [`try_solve`](Self::try_solve), panicking on a solver error (a
    /// model over the exact solvers' tableau cap) with its message,
    /// which the batch records as an item failure and serve answers
    /// with a 500.
    #[allow(clippy::too_many_arguments)]
    pub fn solve(
        &self,
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        idx: usize,
        item: &Item,
        graph: &CoverageGraph,
        scratch: &WorkerScratch,
        trace: Option<&osa_obs::Trace>,
    ) -> ItemSummary {
        match self.try_solve(hierarchy, opts, idx, item, graph, scratch, trace) {
            Ok(summary) => summary,
            Err(e) => panic!("{}: {e}", opts.algorithm.span_name()),
        }
    }

    /// The solve stage over `graph`, the item's [`graph`](Self::graph)
    /// under the same `opts` and `scratch`: timed and traced like
    /// `graph`, then rendered into an [`ItemSummary`]. With cached graph
    /// artifacts greedy warm-starts from the cached keys; every other
    /// algorithm solves cold, randomized ones seeded by
    /// [`item_seed`]`(opts.corpus_seed, idx)`. Both select exactly what
    /// a cold naive build of the same extraction does — the reference
    /// pipeline of the tests and `osars check` holds them to it.
    ///
    /// Returns the exact solvers' [`SolverError`] for a model over the
    /// tableau cap.
    #[allow(clippy::too_many_arguments)]
    pub fn try_solve(
        &self,
        hierarchy: &Hierarchy,
        opts: &BatchOptions,
        idx: usize,
        item: &Item,
        graph: &CoverageGraph,
        scratch: &WorkerScratch,
        trace: Option<&osa_obs::Trace>,
    ) -> Result<ItemSummary, SolverError> {
        assert_eq!(
            self.reviews,
            item.reviews.len(),
            "artifacts are stale: update() before summarize()"
        );
        let span = opts.algorithm.span_name();
        let (summary, _us) =
            osa_obs::global().time_traced(span, trace, || match self.cached(opts) {
                Some(g) if opts.algorithm.is_greedy() => {
                    Ok(GreedySummarizer.summarize_seeded(graph, opts.k, &g.keys, trace))
                }
                _ => opts
                    .algorithm
                    .summarizer(item_seed(opts.corpus_seed, idx as u64))
                    .try_summarize_traced(graph, opts.k, trace),
            });
        Ok(finish_item_summary(
            hierarchy,
            opts.granularity,
            idx,
            item,
            &self.extracted,
            &scratch.pair_buf,
            &scratch.weight_buf,
            graph,
            summary?,
        ))
    }

    /// The cached graph artifacts, when they match `opts`' signature.
    fn cached(&self, opts: &BatchOptions) -> Option<&GraphArtifacts> {
        self.graph.as_ref().filter(|g| g.matches(opts))
    }

    /// Number of reviews the cached extraction covers.
    pub fn reviews(&self) -> usize {
        self.reviews
    }

    /// The cached extraction.
    pub fn extracted(&self) -> &ExtractedItem {
        &self.extracted
    }

    /// Whether mergeable graph artifacts are cached for `opts`'
    /// signature (and a greedy request would warm-start).
    pub fn has_graph_for(&self, opts: &BatchOptions) -> bool {
        self.cached(opts).is_some()
    }
}

/// Count the extraction's sizes on the trace's open span.
fn count_extraction(ex: &ExtractedItem, trace: Option<&osa_obs::Trace>) {
    if let Some(t) = trace {
        t.count("extract.pairs", ex.pairs.len() as u64);
        t.count("extract.sentences", ex.sentences.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchAlgorithm;
    use osa_datasets::{Corpus, CorpusConfig, Review};

    fn corpus() -> Corpus {
        Corpus::phones(
            &CorpusConfig {
                items: 3,
                min_reviews: 3,
                max_reviews: 6,
                mean_reviews: 4.0,
                mean_sentences: 3.0,
                aspect_sentence_prob: 0.85,
            },
            77,
        )
    }

    fn opts_matrix() -> Vec<BatchOptions> {
        let mut all = Vec::new();
        for granularity in [
            Granularity::Pairs,
            Granularity::Sentences,
            Granularity::Reviews,
        ] {
            for algorithm in [BatchAlgorithm::Greedy, BatchAlgorithm::LazyGreedy] {
                all.push(BatchOptions {
                    granularity,
                    algorithm,
                    ..BatchOptions::default()
                });
            }
        }
        all
    }

    #[test]
    fn cached_graph_summaries_match_the_naive_rebuild() {
        // The cached plan/shard path (greedy warm-started from the cached
        // keys) against the naive builder's graph of the same extraction,
        // solved cold.
        let corpus = corpus();
        let h = &corpus.hierarchy;
        let mut scratch = WorkerScratch::new();
        let extractor = Extractor::from_hierarchy(h);
        for granularity in [Granularity::Sentences, Granularity::Reviews] {
            for algorithm in [BatchAlgorithm::Greedy, BatchAlgorithm::LocalSearch] {
                let opts = BatchOptions {
                    granularity,
                    algorithm,
                    ..BatchOptions::default()
                };
                for (idx, item) in corpus.items.iter().enumerate() {
                    let cached = ItemArtifacts::build(h, &extractor, &opts, item, &mut scratch);
                    assert!(cached.has_graph_for(&opts));
                    let got = cached.summarize(h, &opts, idx, item, &mut scratch, None);
                    let ex = cached.extracted();
                    let graph = item_graph(h, ex, &opts, GraphImpl::Naive, &mut scratch);
                    let cold = opts
                        .algorithm
                        .summarizer(item_seed(opts.corpus_seed, idx as u64))
                        .summarize(&graph, opts.k);
                    let expect =
                        finish_item_summary(h, granularity, idx, item, ex, &[], &[], &graph, cold);
                    assert_eq!(got, expect, "{opts:?} item {idx}");
                }
            }
        }
    }

    #[test]
    fn updated_artifacts_match_a_scratch_rebuild() {
        let corpus = corpus();
        let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
        let mut scratch = WorkerScratch::new();
        let recycled: Review = corpus.items[1].reviews[0].clone();
        for opts in opts_matrix() {
            let mut item = corpus.items[0].clone();
            let mut art =
                ItemArtifacts::build(&corpus.hierarchy, &extractor, &opts, &item, &mut scratch);
            // Append, append, retract, append — artifacts advance
            // through each edit and always match a from-scratch build.
            for edit in 0..4 {
                if edit == 2 {
                    item.reviews.pop();
                } else {
                    item.reviews.push(recycled.clone());
                }
                art = art.update(&corpus.hierarchy, &extractor, &opts, &item, &mut scratch);
                let fresh =
                    ItemArtifacts::build(&corpus.hierarchy, &extractor, &opts, &item, &mut scratch);
                assert_eq!(art.extracted(), fresh.extracted(), "{opts:?} edit {edit}");
                let got = art.summarize(&corpus.hierarchy, &opts, 0, &item, &mut scratch, None);
                let expect =
                    fresh.summarize(&corpus.hierarchy, &opts, 0, &item, &mut scratch, None);
                assert_eq!(got, expect, "{opts:?} edit {edit}");
            }
        }
    }

    #[test]
    fn graph_artifacts_are_cached_for_the_serving_signature() {
        let corpus = corpus();
        let extractor = Extractor::from_hierarchy(&corpus.hierarchy);
        let mut scratch = WorkerScratch::new();
        let serving = BatchOptions {
            granularity: Granularity::Sentences,
            algorithm: BatchAlgorithm::LazyGreedy,
            ..BatchOptions::default()
        };
        let art = ItemArtifacts::build(
            &corpus.hierarchy,
            &extractor,
            &serving,
            &corpus.items[0],
            &mut scratch,
        );
        assert!(art.has_graph_for(&serving));
        // A different eps is a different signature — no cached graph.
        let other = BatchOptions {
            eps: serving.eps + 0.25,
            ..serving.clone()
        };
        assert!(!art.has_graph_for(&other));
        // Pairs granularity caches no graph.
        let pairs = BatchOptions {
            granularity: Granularity::Pairs,
            ..serving.clone()
        };
        assert!(!art.has_graph_for(&pairs));
    }
}
