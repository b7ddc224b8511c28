//! The three batch workloads: whole-corpus passes over one input set.
//!
//! * `batch-text` — `summarize_corpus` over a doctors corpus shaped like
//!   the `full` preset, 2 workers: extraction, graph build and greedy.
//! * `pairs-snomed` — pre-extracted clustered pairs over the 300k-node
//!   synthetic DAG with the segmented ancestor index, 1 worker: ancestor
//!   queries and graph build.
//! * `pairs-exact` — the Figs. 4–5 instances (3k-node DAG, ~60 pairs per
//!   item), ILP and RR at every granularity, 1 worker: the solver.
//!
//! A run sets up [`SETUPS`] times (input generation, ancestor-index
//! build, one untimed warm-up pass). Each set-up is followed by its share
//! of the timed phase, whole-corpus passes (for `pairs-exact`, passes
//! over successive chunks of its items), and then one round over
//! [`SAMPLE`] items that measures the cold path (a fresh, unindexed copy
//! of the ontology: index build, then the item's pipeline) and the
//! ingest path (held-back input folded into a built item). Every pass
//! must reproduce the first run of that pass exactly, and every cold and
//! ingest result the item's output from the warm pipeline.
//!
//! The traced mode runs plain, counted and traced passes in rounds; the
//! traced pass drives the per-item pipeline through each layer's public
//! functions (`Extractor::extract`, `GraphBuildPlan::new_with`/`shard`,
//! `CoverageGraph::assemble`, `Summarizer::summarize`) inside spans, and
//! must render the same summaries and count the same work as an untraced
//! pass.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use osa_bench::BenchItem;
use osa_core::{
    CoverageGraph, Granularity, GraphBuildPlan, GraphImpl, GreedySummarizer, IlpSummarizer,
    RandomizedRounding, Summarizer, Summary,
};
use osa_datasets::{
    sample_grouped_pairs, synthetic_ontology, Corpus, CorpusConfig, ExtractImpl, Extractor,
    SyntheticOntologyConfig,
};
use osa_ontology::{AncestorImpl, Hierarchy, HierarchyBuilder, SegmentScratch};
use osa_runtime::incremental::ItemArtifacts;
use osa_runtime::{
    item_seed, render_item_summary, summarize_corpus, BatchJob, BatchOptions, ItemSummary,
    WorkerScratch,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib::Calibration;
use crate::spans::{self, Span, Tracer};
use crate::stats::{fnv1a, median, percentile};
use crate::{micros, peak_rss_mb, secs, Args, Outcome, SETUPS};

/// Summary size of every batch workload.
const K: usize = 5;
/// Sentiment threshold ε of every batch workload.
const EPS: f64 = 0.5;
/// `batch-text` workers: one per vCPU of the 2-vCPU reference host.
const TEXT_JOBS: usize = 2;
/// `pairs-snomed` shape: items, pairs and concept clusters per item. Every
/// item has the same size, the middle of a 150–450 pair range and of the
/// 2–5 cluster range: with random sizes the p99 hung on how large the
/// seed made its largest few items.
const SNOMED_ITEMS: usize = 200;
const SNOMED_PAIRS: usize = 300;
const SNOMED_CLUSTERS: usize = 4;
/// `pairs-exact` shape: the Figs. 4–5 `quant_workload` DAG and pair
/// sampler, with every item at that workload's mean size (60 pairs) and
/// 5 clusters (the top of its 2–5 range). The exact solvers' cost grows
/// steeply with item size, so a random size per item would make a pass's
/// time depend on the seed far more than on the code.
const EXACT_ITEMS: usize = 480;
/// `pairs-exact` passes go through the items `EXACT_CHUNK` at a time, so
/// a run times hundreds of distinct items instead of re-solving a few,
/// and each of them two or three times: a solve's median over its runs
/// keeps a slow moment of the host out of the tail.
const EXACT_CHUNK: usize = 24;
const EXACT_PAIRS: usize = 60;
const EXACT_CLUSTERS: usize = 5;
/// Items of each cold-and-ingest round, spread evenly over the
/// workload's items; round `r` shifts them by `r`, so a run's rounds
/// cover `SETUPS × SAMPLE` distinct items.
const SAMPLE: usize = 24;
/// Shortest duration of one cold-and-ingest round; see [`Input::round`].
const ROUND_MIN: std::time::Duration = std::time::Duration::from_millis(500);

/// The synthetic ontologies are fixed, as SNOMED or the doctor hierarchy
/// is; `--seed` draws the items over them.
const ONTOLOGY_SEED: u64 = 0x0005_17A2;

/// The ancestor index `pairs-snomed` walks — the README's choice at
/// SNOMED scale.
const SNOMED_ANCESTOR: AncestorImpl = AncestorImpl::Segmented;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Text,
    Snomed,
    Exact,
}

/// The inputs of one workload, built from the seed.
enum Input {
    Text {
        corpus: Corpus,
        opts: BatchOptions,
    },
    Pairs {
        hierarchy: Hierarchy,
        items: Vec<BenchItem>,
        ancestor: AncestorImpl,
        exact: bool,
        seed: u64,
        /// Items per pass; pass `c` covers `items[c * chunk..][..chunk]`.
        chunk: usize,
    },
}

/// One whole-corpus pass.
struct Pass {
    /// Digest of each item's rendered output, in item order.
    item_digests: Vec<u64>,
    /// Digest of each item's sentence-granularity summary by the
    /// workload's own algorithm — what the ingest path must reproduce.
    ingest_refs: Vec<u64>,
    failed: u64,
    /// Every invariant checked during the pass held (ILP ≤ RR, ILP ≤
    /// greedy on `pairs-exact`).
    checks_ok: bool,
    /// Latency of each item's pipeline; on `pairs-exact`, of each exact
    /// solve (ILP, then RR, at each granularity), the workload's subject.
    item_us: Vec<f64>,
    /// Summed per-item time, for the workers' busy share.
    busy_us: f64,
    wall_s: f64,
    jobs: usize,
    /// Traced passes only: every item's spans, plus the pass-level trace.
    spans: Vec<Vec<Span>>,
    /// Candidates summed over every graph the pass built.
    candidates: u64,
    /// Ancestor queries replayed (traced passes only).
    queries: u64,
}

impl Pass {
    fn busy_ratio(&self) -> f64 {
        self.busy_us / (self.wall_s * 1e6 * self.jobs as f64)
    }
}

/// One pairs item through the workload's pipeline.
struct PairsOut {
    digest: u64,
    ingest_ref: u64,
    ok: bool,
    candidates: u64,
    /// The item's latencies, as [`Pass::item_us`] counts them.
    latency_us: Vec<f64>,
}

/// A cold-and-ingest round: per-item latencies, plus the runtime-layer
/// pieces of the `batch-text` ingest.
#[derive(Default)]
struct Round {
    cold_us: Vec<f64>,
    ingest_us: Vec<f64>,
    build_us: Vec<f64>,
    update_us: Vec<f64>,
    /// Cold and ingest runs made, repetitions included.
    runs: u64,
    ok: bool,
}

fn digest_summary(s: &Summary) -> u64 {
    fnv1a(format!("{}:{:?}", s.cost, s.selected).as_bytes())
}

/// The `full` doctors preset (1000 items, 68.7 reviews on average) with
/// every item at the average review count, 69. With the preset's tail of
/// up to 354 reviews, the p99 hung on how large the seed made its largest
/// few items.
fn text_config() -> CorpusConfig {
    let full = CorpusConfig::doctors_full();
    let reviews = full.mean_reviews.round() as usize;
    CorpusConfig {
        min_reviews: reviews,
        max_reviews: reviews,
        ..full
    }
}

/// A copy of `h` rebuilt node by node and edge by edge, with no index
/// built: what a freshly loaded ontology looks like.
fn unindexed_copy(h: &Hierarchy) -> Hierarchy {
    let mut b = HierarchyBuilder::new();
    for n in h.nodes() {
        b.add_node_with_terms(h.name(n), h.terms(n));
    }
    for &(parent, child) in h.edge_list() {
        b.add_edge(parent, child)
            .expect("edge of a valid hierarchy");
    }
    b.build().expect("copy of a valid hierarchy")
}

/// Build the ancestor index `ancestor` names; returns its entry count.
fn build_index(h: &Hierarchy, ancestor: AncestorImpl) -> u64 {
    (match ancestor {
        AncestorImpl::Dense => h.ancestor_index().entry_count(),
        AncestorImpl::Segmented => h.segment_index().entry_weight(),
    }) as u64
}

impl Input {
    fn generate(kind: Kind, seed: u64) -> Input {
        match kind {
            Kind::Text => Input::Text {
                corpus: Corpus::doctors(&text_config(), seed),
                opts: BatchOptions {
                    jobs: TEXT_JOBS,
                    ..BatchOptions::default()
                },
            },
            Kind::Snomed => {
                let hierarchy = synthetic_ontology(&SyntheticOntologyConfig::huge(), ONTOLOGY_SEED);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5A0_4ED);
                let items = (0..SNOMED_ITEMS)
                    .map(|_| {
                        let (pairs, sentence_groups, review_groups) = sample_grouped_pairs(
                            &hierarchy,
                            SNOMED_PAIRS,
                            SNOMED_CLUSTERS,
                            5,
                            &mut rng,
                        );
                        BenchItem {
                            pairs,
                            sentence_groups,
                            review_groups,
                        }
                    })
                    .collect();
                Input::Pairs {
                    hierarchy,
                    items,
                    ancestor: SNOMED_ANCESTOR,
                    exact: false,
                    seed,
                    chunk: SNOMED_ITEMS,
                }
            }
            Kind::Exact => {
                let hierarchy =
                    synthetic_ontology(&SyntheticOntologyConfig::default(), ONTOLOGY_SEED);
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
                let items = (0..EXACT_ITEMS)
                    .map(|_| {
                        let (pairs, sentence_groups, review_groups) = sample_grouped_pairs(
                            &hierarchy,
                            EXACT_PAIRS,
                            EXACT_CLUSTERS,
                            5,
                            &mut rng,
                        );
                        BenchItem {
                            pairs,
                            sentence_groups,
                            review_groups,
                        }
                    })
                    .collect();
                Input::Pairs {
                    hierarchy,
                    items,
                    ancestor: AncestorImpl::Dense,
                    exact: true,
                    seed,
                    chunk: EXACT_CHUNK,
                }
            }
        }
    }

    fn hierarchy(&self) -> &Hierarchy {
        match self {
            Input::Text { corpus, .. } => &corpus.hierarchy,
            Input::Pairs { hierarchy, .. } => hierarchy,
        }
    }

    fn ancestor(&self) -> AncestorImpl {
        match self {
            Input::Text { opts, .. } => opts.ancestor_impl,
            Input::Pairs { ancestor, .. } => *ancestor,
        }
    }

    fn len(&self) -> usize {
        match self {
            Input::Text { corpus, .. } => corpus.items.len(),
            Input::Pairs { items, .. } => items.len(),
        }
    }

    /// Number of distinct passes: 1, except `pairs-exact`'s chunks.
    fn passes(&self) -> usize {
        match self {
            Input::Text { .. } => 1,
            Input::Pairs { items, chunk, .. } => items.len() / chunk,
        }
    }

    /// Pass `c` (`c < passes()`), traced when `traced` holds the epoch.
    fn pass(&self, c: usize, traced: Option<Instant>) -> Pass {
        match (self, traced) {
            (Input::Text { corpus, opts }, None) => text_pass(corpus, opts),
            (Input::Text { corpus, opts }, Some(epoch)) => text_pass_traced(corpus, opts, epoch),
            (Input::Pairs { .. }, _) => self.pairs_pass(c, traced),
        }
    }

    /// Pairs item `idx` through the workload's pipeline over `h`: at
    /// each granularity, the graph (from the `CoverageGraph` builders
    /// untraced, from the plan → shard → assemble pieces inside spans
    /// traced), greedy, and on `pairs-exact` ILP and RR.
    fn pairs_item(
        &self,
        h: &Hierarchy,
        idx: usize,
        scratch: &mut WorkerScratch,
        mut tr: Option<&mut Tracer>,
    ) -> PairsOut {
        let Input::Pairs {
            items,
            ancestor,
            exact,
            seed,
            ..
        } = self
        else {
            unreachable!("pairs_item on a text input")
        };
        let (item, ancestor, exact) = (&items[idx], *ancestor, *exact);
        let granularities: &[Granularity] = if exact {
            &[
                Granularity::Pairs,
                Granularity::Sentences,
                Granularity::Reviews,
            ]
        } else {
            &[Granularity::Sentences]
        };
        let mut rendered = String::new();
        let mut out = PairsOut {
            digest: 0,
            ingest_ref: 0,
            ok: true,
            candidates: 0,
            latency_us: Vec::new(),
        };
        let t = Instant::now();
        for &g in granularities {
            let groups = match g {
                Granularity::Pairs => None,
                Granularity::Sentences => Some(&item.sentence_groups[..]),
                Granularity::Reviews => Some(&item.review_groups[..]),
            };
            let graph = match tr.as_deref_mut() {
                None => match groups {
                    None => CoverageGraph::for_pairs_with_ancestor(
                        h,
                        &item.pairs,
                        EPS,
                        GraphImpl::Indexed,
                        ancestor,
                        &mut scratch.graph_build,
                    ),
                    Some(gs) => CoverageGraph::for_groups_with_ancestor(
                        h,
                        &item.pairs,
                        gs,
                        EPS,
                        g,
                        GraphImpl::Indexed,
                        ancestor,
                        &mut scratch.graph_build,
                    ),
                },
                Some(t) => traced_graph(t, h, &item.pairs, groups, g, ancestor, scratch),
            };
            out.candidates += graph.num_candidates() as u64;
            let mut solve = |name: &'static str, s: &dyn Summarizer| match tr.as_deref_mut() {
                None => s.summarize(&graph, K),
                Some(t) => t.time(name, || s.summarize(&graph, K)),
            };
            let greedy = solve("core.greedy", &GreedySummarizer);
            rendered.push_str(&format!(
                "{g:?} greedy {}:{:?}\n",
                greedy.cost, greedy.selected
            ));
            let mut own = greedy.clone();
            if exact {
                let t = Instant::now();
                let ilp = solve("solver.ilp", &IlpSummarizer);
                out.latency_us.push(micros(t));
                let t = Instant::now();
                let rr = solve(
                    "solver.rr",
                    &RandomizedRounding::with_seed(item_seed(*seed, idx as u64)),
                );
                out.latency_us.push(micros(t));
                out.ok &= ilp.cost <= rr.cost && ilp.cost <= greedy.cost;
                rendered.push_str(&format!("{g:?} ilp {}:{:?}\n", ilp.cost, ilp.selected));
                rendered.push_str(&format!("{g:?} rr {}:{:?}\n", rr.cost, rr.selected));
                own = ilp;
            }
            if g == Granularity::Sentences {
                out.ingest_ref = digest_summary(&own);
            }
        }
        if !exact {
            out.latency_us.push(micros(t));
        }
        out.digest = fnv1a(rendered.as_bytes());
        out
    }

    /// One pass over pre-extracted items on one worker.
    fn pairs_pass(&self, c: usize, traced: Option<Instant>) -> Pass {
        let Input::Pairs {
            hierarchy: h,
            ancestor,
            chunk,
            ..
        } = self
        else {
            unreachable!("pairs_pass on a text input")
        };
        let first = c * chunk;
        let idxs: Vec<usize> = (first..first + chunk).collect();
        let seg_scratch = Mutex::new((SegmentScratch::new(), Vec::new()));
        let t = Instant::now();
        let report = BatchJob::new(&idxs).jobs(1).run(|scratch, _, &idx| {
            let mut tr = traced.map(|epoch| Tracer::new(epoch, idx as u64));
            let root = tr.as_mut().map(|t| t.open("item"));
            let out = self.pairs_item(h, idx, scratch, tr.as_mut());
            let mut queries = 0;
            // Replayed last, so it cannot warm caches for the pipeline.
            if let (Some(t), Some(r)) = (tr.as_mut(), root) {
                let Input::Pairs { items, .. } = self else {
                    unreachable!()
                };
                let mut guard = seg_scratch.lock().expect("replay scratch");
                let (seg, buf) = &mut *guard;
                let concepts = items[idx].pairs.iter().map(|p| p.concept);
                queries = t.time("ontology.query", || {
                    replay_queries(h, *ancestor, concepts, seg, buf)
                });
                t.close(r);
            }
            (out, queries, tr.map(Tracer::finish))
        });
        let wall_s = secs(t);
        let mut pass = Pass {
            item_digests: Vec::new(),
            ingest_refs: Vec::new(),
            failed: report.failed.len() as u64,
            checks_ok: true,
            item_us: Vec::new(),
            busy_us: report.per_item_micros.iter().sum(),
            wall_s,
            jobs: report.jobs,
            spans: Vec::new(),
            candidates: 0,
            queries: 0,
        };
        for (out, queries, spans) in report.results {
            pass.item_us.extend(out.latency_us);
            pass.item_digests.push(out.digest);
            pass.ingest_refs.push(out.ingest_ref);
            pass.checks_ok &= out.ok;
            pass.candidates += out.candidates;
            pass.queries += queries;
            pass.spans.extend(spans);
        }
        pass
    }

    /// Item `idx`'s output digest and ingest reference from the warm
    /// pipeline: the warm-up pass when it covered the item, otherwise the
    /// item run now through the indexed ontology.
    fn reference(&self, warm: &Pass, idx: usize) -> (u64, u64) {
        match warm.item_digests.get(idx) {
            Some(&d) => (d, warm.ingest_refs[idx]),
            None => {
                let out = self.pairs_item(self.hierarchy(), idx, &mut WorkerScratch::new(), None);
                (out.digest, out.ingest_ref)
            }
        }
    }

    /// Round `r` of a run, over [`SAMPLE`] items. For each item, a cold
    /// run — on a fresh, unindexed copy of the ontology and fresh
    /// scratch: index build, then the item's pipeline — and an ingest:
    /// the item built without its held-back input (its last review, or
    /// its last sentence's pairs), which is then folded in and
    /// re-summarized by the workload's own algorithm. Both must reproduce
    /// the warm pipeline's output. Untraced, the round repeats its items
    /// for at least [`ROUND_MIN`] and takes each item's median over the
    /// repetitions: one repetition of `batch-text` takes ~50 ms, short
    /// enough for one hiccup of the host to shift all of it.
    fn round(&self, warm: &Pass, r: usize, tracer: &mut Option<Tracer>) -> Round {
        let stride = self.len() / SAMPLE;
        let idxs: Vec<usize> = (0..SAMPLE).map(|j| j * stride + r % stride).collect();
        let refs: Vec<(u64, u64)> = idxs.iter().map(|&i| self.reference(warm, i)).collect();
        let pristine = unindexed_copy(self.hierarchy());
        let mut scratch = WorkerScratch::new();
        let extractor = match self {
            Input::Text { corpus, .. } => Some(Extractor::from_hierarchy(&corpus.hierarchy)),
            Input::Pairs { .. } => None,
        };
        let mut out = Round {
            ok: true,
            ..Round::default()
        };
        let (mut cold, mut ingest) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while cold.is_empty() || (tracer.is_none() && start.elapsed() < ROUND_MIN) {
            let (mut c, mut g) = (Vec::new(), Vec::new());
            for (&idx, &(want, want_ingest)) in idxs.iter().zip(&refs) {
                let (us, got, ok) = self.cold(&pristine, idx, tracer);
                c.push(us);
                out.ok &= ok && got == want;
                let (us, got) =
                    self.ingest(idx, extractor.as_ref(), &mut scratch, tracer, &mut out);
                g.push(us);
                out.ok &= got == want_ingest;
                out.runs += 2;
            }
            cold.push(c);
            ingest.push(g);
        }
        out.cold_us = per_index_median(&cold);
        out.ingest_us = per_index_median(&ingest);
        out
    }

    /// One cold run of item `idx` (see [`Input::round`]). Returns its µs,
    /// its output digest, and whether its own checks held.
    fn cold(
        &self,
        pristine: &Hierarchy,
        idx: usize,
        tracer: &mut Option<Tracer>,
    ) -> (f64, u64, bool) {
        let fresh = pristine.clone();
        let t = Instant::now();
        let root = tracer.as_mut().map(|t| t.open("cold"));
        span(tracer, "ontology.index_build", || {
            build_index(&fresh, self.ancestor())
        });
        let (digest, ok) = match self {
            Input::Text { corpus, opts } => {
                let item = &corpus.items[idx];
                let extractor = span(tracer, "datasets.extractor_build", || {
                    Extractor::from_hierarchy(&fresh)
                });
                let mut scratch = WorkerScratch::new();
                let art = span(tracer, "runtime.build", || {
                    ItemArtifacts::build(&fresh, &extractor, opts, item, &mut scratch)
                });
                let s = span(tracer, "runtime.summarize", || {
                    art.summarize(&fresh, opts, idx, item, &mut scratch, None)
                });
                (fnv1a(render_item_summary(&s).as_bytes()), true)
            }
            Input::Pairs { .. } => {
                let o = self.pairs_item(&fresh, idx, &mut WorkerScratch::new(), tracer.as_mut());
                (o.digest, o.ok)
            }
        };
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            t.close(root);
        }
        (micros(t), digest, ok)
    }

    /// One ingest of item `idx` (see [`Input::round`]). Returns the µs of
    /// folding the held-back input in and re-summarizing, and the
    /// summary's digest; `batch-text` also records its runtime-layer
    /// pieces in `pieces`.
    fn ingest(
        &self,
        idx: usize,
        extractor: Option<&Extractor>,
        scratch: &mut WorkerScratch,
        tracer: &mut Option<Tracer>,
        pieces: &mut Round,
    ) -> (f64, u64) {
        let Input::Text { corpus, opts } = self else {
            return self.pairs_ingest(idx, scratch, tracer);
        };
        let (h, item) = (&corpus.hierarchy, &corpus.items[idx]);
        let extractor = extractor.expect("text extractor");
        let mut held = item.clone();
        held.reviews.pop();
        let t = Instant::now();
        let art = span(tracer, "runtime.build", || {
            ItemArtifacts::build(h, extractor, opts, &held, scratch)
        });
        pieces.build_us.push(micros(t));
        let t = Instant::now();
        let art = span(tracer, "runtime.update", || {
            art.update(h, extractor, opts, item, scratch)
        });
        pieces.update_us.push(micros(t));
        let s = art.summarize(h, opts, idx, item, scratch, None);
        (micros(t), fnv1a(render_item_summary(&s).as_bytes()))
    }

    /// Build item `idx`'s sentence graph without its last sentence's
    /// pairs, then fold them in with `GraphBuildPlan::append` /
    /// `shard_append` and re-summarize: greedy on `pairs-snomed`, ILP on
    /// `pairs-exact`. Returns the fold-and-summarize µs and the summary's
    /// digest.
    fn pairs_ingest(
        &self,
        idx: usize,
        scratch: &mut WorkerScratch,
        tracer: &mut Option<Tracer>,
    ) -> (f64, u64) {
        let Input::Pairs {
            hierarchy: h,
            items,
            ancestor,
            exact,
            ..
        } = self
        else {
            unreachable!("pairs_ingest on a text input")
        };
        let item = &items[idx];
        let groups = &item.sentence_groups;
        let keep = groups.len() - 1;
        let prefix = &item.pairs[..groups[keep][0]];
        let plan0 = GraphBuildPlan::new_with(h, prefix, Some(&groups[..keep]), EPS, *ancestor);
        let shard0 = plan0.shard(h, prefix, 0..prefix.len(), &mut scratch.graph_build);
        let t = Instant::now();
        let graph = span(tracer, "core.append", || {
            let (plan, delta) = plan0.append(h, &item.pairs, Some(groups));
            let (shard, _) =
                plan.shard_append(h, &item.pairs, &shard0, &delta, &mut scratch.graph_build);
            CoverageGraph::assemble(
                &plan,
                Granularity::Sentences,
                None,
                std::slice::from_ref(&shard),
            )
        });
        let summary = if *exact {
            span(tracer, "solver.ilp", || IlpSummarizer.summarize(&graph, K))
        } else {
            span(tracer, "core.greedy", || {
                GreedySummarizer.summarize(&graph, K)
            })
        };
        (micros(t), digest_summary(&summary))
    }
}

/// The ancestor queries the graph build makes, one per target pair,
/// replayed through the index's public query function. Returns the
/// number of queries.
fn replay_queries(
    h: &Hierarchy,
    ancestor: AncestorImpl,
    concepts: impl Iterator<Item = osa_ontology::NodeId>,
    seg: &mut SegmentScratch,
    buf: &mut Vec<(osa_ontology::NodeId, u32)>,
) -> u64 {
    let mut calls = 0;
    let mut seen = 0usize;
    for c in concepts {
        calls += 1;
        seen += match ancestor {
            AncestorImpl::Dense => h.ancestor_index().ancestors(c).len(),
            AncestorImpl::Segmented => {
                h.segment_index().ancestors_with_dist_into(c, seg, buf);
                buf.len()
            }
        };
    }
    std::hint::black_box(seen);
    calls
}

/// The indexed coverage-graph build, one public step per span.
fn traced_graph(
    t: &mut Tracer,
    h: &Hierarchy,
    pairs: &[osa_core::Pair],
    groups: Option<&[Vec<usize>]>,
    g: Granularity,
    ancestor: AncestorImpl,
    scratch: &mut WorkerScratch,
) -> CoverageGraph {
    let plan = t.time("core.plan", || {
        GraphBuildPlan::new_with(h, pairs, groups, EPS, ancestor)
    });
    let shard = t.time("core.shard", || {
        plan.shard(h, pairs, 0..pairs.len(), &mut scratch.graph_build)
    });
    t.time("core.assemble", || {
        CoverageGraph::assemble(&plan, g, None, std::slice::from_ref(&shard))
    })
}

fn text_pass(corpus: &Corpus, opts: &BatchOptions) -> Pass {
    let t = Instant::now();
    let report = summarize_corpus(corpus, opts);
    let wall_s = secs(t);
    let item_digests: Vec<u64> = report
        .results
        .iter()
        .map(|r| fnv1a(render_item_summary(r).as_bytes()))
        .collect();
    Pass {
        ingest_refs: item_digests.clone(),
        item_digests,
        failed: report.failed.len() as u64,
        checks_ok: true,
        busy_us: report.per_item_micros.iter().sum(),
        item_us: report.per_item_micros,
        wall_s,
        jobs: report.jobs,
        spans: Vec::new(),
        candidates: report.results.iter().map(|r| r.num_candidates as u64).sum(),
        queries: 0,
    }
}

/// `summarize_corpus`'s per-item pipeline, driven step by step through
/// the public functions of each layer, on the same worker pool.
fn text_pass_traced(corpus: &Corpus, opts: &BatchOptions, epoch: Instant) -> Pass {
    let t = Instant::now();
    let mut pass_trace = Tracer::new(epoch, u64::MAX);
    let h = &corpus.hierarchy;
    let extractor = pass_trace.time("datasets.extractor_build", || Extractor::from_hierarchy(h));
    let items: Vec<_> = corpus.indexed_items().collect();
    let report = BatchJob::new(&items)
        .jobs(opts.jobs)
        .run(|scratch, _, &(idx, item)| {
            let mut tr = Tracer::new(epoch, idx as u64);
            let root = tr.open("item");
            let ex = tr.time("datasets.extract", || {
                extractor.extract(item, ExtractImpl::Interned, &mut scratch.extract)
            });
            let groups = tr.time("datasets.groups", || ex.sentence_groups());
            let graph = traced_graph(
                &mut tr,
                h,
                &ex.pairs,
                Some(&groups),
                Granularity::Sentences,
                opts.ancestor_impl,
                scratch,
            );
            let summary = tr.time("core.greedy", || GreedySummarizer.summarize(&graph, opts.k));
            let rendered = tr.time("render", || {
                let lines = summary
                    .selected
                    .iter()
                    .map(|&s| ex.sentences[s].text.clone())
                    .collect();
                render_item_summary(&ItemSummary {
                    item: idx,
                    name: item.name.clone(),
                    num_pairs: ex.pairs.len(),
                    num_candidates: graph.num_candidates(),
                    root_cost: graph.root_cost(),
                    summary,
                    rendered: lines,
                })
            });
            // Replayed last, so it cannot warm caches for the pipeline.
            let concepts = ex.pairs.iter().map(|p| p.concept);
            let queries = tr.time("ontology.query", || {
                replay_queries(
                    h,
                    opts.ancestor_impl,
                    concepts,
                    &mut SegmentScratch::new(),
                    &mut Vec::new(),
                )
            });
            tr.close(root);
            (
                fnv1a(rendered.as_bytes()),
                (graph.num_candidates() as u64, queries),
                tr.finish(),
            )
        });
    let wall_s = secs(t);
    let mut spans = vec![pass_trace.finish()];
    let mut item_digests = Vec::new();
    let (mut candidates, mut queries) = (0, 0);
    for (digest, (cands, q), s) in report.results {
        item_digests.push(digest);
        candidates += cands;
        queries += q;
        spans.push(s);
    }
    Pass {
        ingest_refs: item_digests.clone(),
        item_digests,
        failed: report.failed.len() as u64,
        checks_ok: true,
        busy_us: report.per_item_micros.iter().sum(),
        item_us: report.per_item_micros,
        wall_s,
        jobs: report.jobs,
        spans,
        candidates,
        queries,
    }
}

/// Run `f` inside a span when a tracer is present.
fn span<T>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer.as_mut() {
        Some(t) => t.time(name, f),
        None => f(),
    }
}

/// What one set-up leaves: the input and its warm-up pass.
struct Setup {
    input: Input,
    warm: Pass,
    seconds: f64,
    index_ms: f64,
    index_entries: u64,
}

/// Set up once: generate the input, build its ancestor index, run the
/// warm-up pass.
fn setup(kind: Kind, seed: u64) -> Setup {
    let t = Instant::now();
    let input = Input::generate(kind, seed);
    let ti = Instant::now();
    let index_entries = build_index(input.hierarchy(), input.ancestor());
    let index_ms = micros(ti) / 1e3;
    let warm = input.pass(0, None);
    Setup {
        input,
        warm,
        seconds: secs(t),
        index_ms,
        index_entries,
    }
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    if args.trace {
        run_traced(kind, args)
    } else {
        run_untraced(kind, args)
    }
}

/// Reference outputs per pass index, filled by the first time each pass
/// runs; every later run of that pass must render the same bytes.
#[derive(Default)]
struct References(BTreeMap<usize, Vec<u64>>);

impl References {
    fn check(&mut self, c: usize, pass: &Pass) -> bool {
        let want = self.0.entry(c).or_insert_with(|| pass.item_digests.clone());
        *want == pass.item_digests
    }
}

fn run_untraced(kind: Kind, args: &Args) -> Outcome {
    let mut setup_s = Vec::new();
    let mut refs = References::default();
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut throughput = Vec::new();
    // Per-item latencies of every pass, grouped by pass index.
    let mut item_us: BTreeMap<usize, Vec<Vec<f64>>> = BTreeMap::new();
    let (mut cold_us, mut ingest_us) = (Vec::new(), Vec::new());
    let mut n = 0usize;
    let mut items_per_pass = 0;
    // The set-ups are spread over the run, each followed by its share of
    // the timed phase, so a slow spell of the host hits at most one or
    // two of them and a few of the passes.
    let slice = args.seconds / SETUPS as u32;
    let mut state: Option<Setup> = None;
    let mut rss = 0.0;
    let mut cal = Calibration::new();
    for r in 0..SETUPS {
        // Drop the previous input first so peak RSS reflects one set-up.
        drop(state.take());
        let s = setup(kind, args.seed);
        cal.sample();
        setup_s.push(s.seconds);
        let warm = &s.warm;
        attempted += warm.item_digests.len() as u64 + warm.failed;
        failed += warm.failed;
        correct &= warm.checks_ok && refs.check(0, warm);
        items_per_pass = warm.item_digests.len();

        let start = Instant::now();
        while start.elapsed() < slice {
            let c = n % s.input.passes();
            n += 1;
            let pass = s.input.pass(c, None);
            attempted += pass.item_digests.len() as u64 + pass.failed;
            failed += pass.failed;
            correct &= pass.checks_ok && refs.check(c, &pass);
            throughput.push(pass.item_digests.len() as f64 / pass.wall_s);
            cal.sample();
            item_us.entry(c).or_default().push(pass.item_us);
        }
        // The first slice's peak: one set-up's input and its passes.
        // Later set-ups reuse memory the allocator kept from earlier ones.
        if rss == 0.0 {
            rss = peak_rss_mb();
        }

        let round = s.input.round(&s.warm, r, &mut None);
        attempted += round.runs;
        correct &= round.ok;
        cold_us.extend(round.cold_us);
        ingest_us.extend(round.ingest_us);
        cal.sample();
        state = Some(s);
    }
    eprintln!(
        "perfbench {}: {} passes of {} items; setup {:?} s",
        args.workload,
        throughput.len(),
        items_per_pass,
        setup_s
    );

    // Each item's latency is its median over the passes that ran it, so
    // a few seconds of host slowdown do not land in the tail; the
    // percentiles are then taken over items.
    let item_us: Vec<f64> = item_us.values().flat_map(|r| per_index_median(r)).collect();
    let mut out = Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: BTreeMap::new(),
    };
    out.set("setup_s", median(&setup_s));
    out.set("throughput", median(&throughput));
    out.set("peak_rss_mb", rss);
    out.set("latency_p50_us", percentile(&item_us, 50.0));
    out.set("latency_p99_us", percentile(&item_us, 99.0));
    out.set("cold_p50_us", median(&cold_us));
    out.set("ingest_p50_us", median(&ingest_us));
    out.normalize(cal.slowdown());
    out
}

/// Element-wise median of equally indexed rows: entry `i` is the median
/// of `rows[r][i]` over the rows that have an entry `i`.
pub fn per_index_median(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.iter().map(Vec::len).max().unwrap_or(0);
    (0..width)
        .map(|i| {
            let col: Vec<f64> = rows.iter().filter_map(|r| r.get(i).copied()).collect();
            median(&col)
        })
        .collect()
}

/// Work counters of the `osa-obs` registry that must repeat exactly
/// between an untraced and a traced pass.
const EXACT_COUNTERS: &[&str] = &[
    "graph.edges",
    "greedy.gain_evals",
    "solver.simplex_pivots",
    "solver.dual_pivots",
    "solver.bb_nodes",
];

/// Run `f` with the `osa-obs` registry recording from zero; returns the
/// result and the counters it recorded.
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let obs = osa_obs::global();
    obs.reset();
    obs.set_enabled(true);
    let out = f();
    obs.set_enabled(false);
    let counts = obs.snapshot().counters.into_iter().collect();
    obs.reset();
    (out, counts)
}

/// The traced mode: after one set-up, each round runs a pass three
/// times — plain (registry off, the overhead baseline), counted
/// (registry on: the reference work counts) and traced (registry on,
/// spans around every layer call) — and checks that the traced pass
/// renders the same output and counts the same work. Then one
/// cold-and-ingest round runs inside spans.
fn run_traced(kind: Kind, args: &Args) -> Outcome {
    let epoch = Instant::now();
    let Setup {
        input,
        warm,
        index_ms,
        index_entries,
        ..
    } = setup(kind, args.seed);
    let mut refs = References::default();
    let mut correct = warm.checks_ok && refs.check(0, &warm);
    let mut attempted = warm.item_digests.len() as u64;
    let mut failed = warm.failed;

    let mut plain_wall = Vec::new();
    let mut traced_wall = Vec::new();
    let mut busy = Vec::new();
    let mut per_pass: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    // Work counts of the first round (pass 0): deterministic per seed.
    let mut first: Option<(BTreeMap<String, u64>, Pass)> = None;
    let mut all_spans: Vec<Vec<Span>> = Vec::new();
    let start = Instant::now();
    for n in 0.. {
        if start.elapsed() >= args.seconds && n > 0 {
            break;
        }
        let c = n % input.passes();
        let plain = input.pass(c, None);
        let (reference, ref_counts) = counted(|| input.pass(c, None));
        let (traced, counts) = counted(|| input.pass(c, Some(epoch)));
        for p in [&plain, &reference, &traced] {
            attempted += (p.item_digests.len() as u64) + p.failed;
            failed += p.failed;
            correct &= p.checks_ok && refs.check(c, p);
        }
        for name in EXACT_COUNTERS {
            if counts.get(*name) != ref_counts.get(*name) {
                eprintln!(
                    "perfbench: pass {c}: traced {name} = {:?}, untraced {:?}",
                    counts.get(*name),
                    ref_counts.get(*name)
                );
                correct = false;
            }
        }
        plain_wall.push(plain.wall_s);
        busy.push(plain.busy_ratio());
        // The query replay is extra work the untraced pass does not do:
        // leave it out of the traced pass's wall time.
        let replay_ns: u64 = traced
            .spans
            .iter()
            .map(|s| spans::total_ns(s, "ontology.query"))
            .sum();
        traced_wall.push(traced.wall_s - replay_ns as f64 / 1e9 / traced.jobs as f64);
        let mut self_ns = BTreeMap::new();
        for s in &traced.spans {
            spans::self_times(s, &mut self_ns);
        }
        per_pass.push(self_ns);
        all_spans.extend(traced.spans.iter().cloned());
        if first.is_none() {
            first = Some((counts, traced));
        }
    }
    let (counts, traced) = first.expect("at least one round");
    let mut round_trace = Some(Tracer::new(epoch, u64::MAX - 1));
    let round = input.round(&warm, 0, &mut round_trace);
    correct &= round.ok;
    attempted += round.runs;
    let round_spans = round_trace.take().expect("tracer").finish();

    // Self time per layer: the median over traced passes, ms per pass.
    let layer_ms = |name: &str| -> f64 {
        let v: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0) / 1e6)
            .collect();
        median(&v)
    };
    let count = |name: &str| -> f64 { counts.get(name).copied().unwrap_or(0) as f64 };
    let mut table = BTreeMap::new();
    for m in &per_pass {
        for (k, v) in m {
            *table.entry(*k).or_insert(0.0) += v / per_pass.len() as f64;
        }
    }
    eprintln!(
        "perfbench {} traced: {} rounds; pass {:.1} ms untraced, {:.1} ms traced \
         (overhead ratio {:.3})\nself time per traced pass:\n{}",
        args.workload,
        per_pass.len(),
        median(&plain_wall) * 1e3,
        median(&traced_wall) * 1e3,
        median(&traced_wall) / median(&plain_wall),
        spans::render_table(&table)
    );
    let mut round_table = BTreeMap::new();
    spans::self_times(&round_spans, &mut round_table);
    eprintln!(
        "self time of one cold-and-ingest round ({SAMPLE} items):\n{}",
        spans::render_table(&round_table)
    );
    all_spans.push(round_spans);
    write_spans(args, &all_spans);

    let mut out = Outcome {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics: BTreeMap::new(),
    };
    // Layers this workload does not run report 0.
    for (name, _) in crate::PER_LAYER {
        out.set(name, 0.0);
    }
    let hits = count("extract.stem_cache.hits");
    let misses = count("extract.stem_cache.misses");
    let extract_calls = traced
        .spans
        .iter()
        .flatten()
        .filter(|s| s.name == "datasets.extract")
        .count();
    out.set("datasets.extract_self_ms", layer_ms("datasets.extract"));
    out.set("datasets.extract_calls", extract_calls as f64);
    out.set("text.tokens", count("text.tokens"));
    out.set("text.stem_cache_hit_ratio", ratio(hits, hits + misses));
    out.set("ontology.index_build_ms", index_ms);
    out.set("ontology.index_entries", index_entries as f64);
    out.set("ontology.query_self_ms", layer_ms("ontology.query"));
    out.set("ontology.query_calls", traced.queries as f64);
    out.set("core.plan_self_ms", layer_ms("core.plan"));
    out.set("core.shard_self_ms", layer_ms("core.shard"));
    out.set("core.assemble_self_ms", layer_ms("core.assemble"));
    out.set("core.edges", count("graph.edges"));
    out.set("core.candidates", traced.candidates as f64);
    out.set("core.greedy_self_ms", layer_ms("core.greedy"));
    out.set("core.lazy_self_ms", layer_ms("core.lazy"));
    out.set("core.gain_evals", count("greedy.gain_evals"));
    out.set("solver.ilp_self_ms", layer_ms("solver.ilp"));
    out.set("solver.rr_self_ms", layer_ms("solver.rr"));
    out.set(
        "solver.pivots",
        count("solver.simplex_pivots") + count("solver.dual_pivots"),
    );
    out.set("solver.bb_nodes", count("solver.bb_nodes"));
    out.set(
        "solver.bb_pruned_ratio",
        ratio(count("solver.bb_pruned"), count("solver.bb_nodes")),
    );
    out.set("runtime.worker_busy_ratio", median(&busy));
    out.set("runtime.update_p50_us", percentile(&round.update_us, 50.0));
    out.set("runtime.build_p50_us", percentile(&round.build_us, 50.0));
    out.set(
        "obs.trace_overhead_ratio",
        median(&traced_wall) / median(&plain_wall),
    );
    out
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Write the run's spans under `target/perfbench/`.
pub fn write_spans(args: &Args, traces: &[Vec<Span>]) {
    let path = std::path::PathBuf::from(format!(
        "target/perfbench/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    match spans::write_jsonl(&path, traces) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_items(input: &Input) -> Vec<String> {
        let Input::Pairs { items, .. } = input else {
            unreachable!("pairs input")
        };
        items[..4]
            .iter()
            .map(|i| format!("{:?}", i.pairs))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_output_digests() {
        let a = Input::generate(Kind::Exact, 7);
        let b = Input::generate(Kind::Exact, 7);
        assert_eq!(first_items(&a), first_items(&b));
        assert_ne!(
            first_items(&a),
            first_items(&Input::generate(Kind::Exact, 8))
        );
        let pass = a.pass(0, None);
        assert!(pass.checks_ok && pass.failed == 0);
        assert_eq!(pass.item_digests, b.pass(0, None).item_digests);
        // The traced decomposition renders exactly what the builders do.
        let traced = a.pass(0, Some(Instant::now()));
        assert_eq!(traced.item_digests, pass.item_digests);
        assert_eq!(traced.spans.len(), EXACT_CHUNK);
    }

    #[test]
    fn cold_and_ingest_runs_reproduce_the_warm_pipeline() {
        let s = setup(Kind::Exact, 3);
        let mut tracer = Some(Tracer::new(Instant::now(), 0));
        let round = s.input.round(&s.warm, 1, &mut tracer);
        assert!(round.ok);
        assert_eq!(
            (round.cold_us.len(), round.ingest_us.len()),
            (SAMPLE, SAMPLE)
        );
        // Every cold run built the index on its own copy of the ontology.
        let spans = tracer.expect("tracer").finish();
        let builds = spans
            .iter()
            .filter(|s| s.name == "ontology.index_build")
            .count();
        assert_eq!(builds, SAMPLE);
    }
}
