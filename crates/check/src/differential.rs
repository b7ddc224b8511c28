//! The differential executor: every check that runs against a scenario.
//!
//! Checks come in two families. **Corpus checks** push a synthesized
//! review corpus through the full pipeline (`osa_runtime::summarize_corpus`)
//! across `{jobs} × {summarizer}`, byte-compare the rendered output with
//! the reference pipeline ([`naive_pipeline`]: naive extraction, naive
//! graph build, cold solve), then assert the solver-relation invariants
//! on the costs. **Synth checks** drive the graph builders and
//! summarizers directly on sampled pair instances, where structural
//! invariants (ε-monotone edge sets, permutation invariance) are
//! expressible. Every check is a pure function of the
//! scenario, so a failing `(seed, case, check)` triple reproduces
//! anywhere.

use osa_core::{
    CoverageGraph, Granularity, GraphImpl, GreedySummarizer, IlpSummarizer, LazyGreedySummarizer,
    LocalSearchSummarizer, Summarizer, Summary,
};
use osa_datasets::{Corpus, ExtractImpl, Extractor};
use osa_ontology::{AncestorImpl, Hierarchy, HierarchyBuilder};
use osa_runtime::incremental::ItemArtifacts;
use osa_runtime::{
    item_graph, item_seed, render_item_summary, summarize_corpus, BatchAlgorithm, BatchOptions,
    BatchReport, Fault, FaultPlan, ItemSummary, WorkerScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::oracle::{naive_pipeline, EagerGreedy};
use crate::scenario::{Scenario, ScenarioKind, SynthInstance};

/// Worker counts every differential run is repeated at.
pub const JOBS_MATRIX: [usize; 3] = [1, 3, 8];

/// Largest candidate count the exact oracles (brute force / ILP) are
/// asked to solve.
pub const EXACT_MAX_CANDIDATES: usize = 14;

/// Which scenarios a check applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// Full-pipeline checks on corpus scenarios.
    Corpus,
    /// Corpus checks that only run under `--faults`.
    CorpusFaults,
    /// Corpus checks that only run under `--edits` (incremental-update
    /// differential oracles over seeded edit scripts).
    CorpusEdits,
    /// Graph/solver-level checks on synthetic pair scenarios.
    Synth,
}

/// One named invariant.
pub struct Check {
    /// Stable name — recorded in `check-case.json` and used by replay.
    pub name: &'static str,
    /// Scenario family the check applies to.
    pub kind: CheckKind,
    /// The check body: `Ok(())` or a failure description.
    pub run: fn(&Scenario) -> Result<(), String>,
}

impl Check {
    /// Does this check apply to `scenario` under the given fault/edit
    /// modes?
    pub fn applies(&self, scenario: &Scenario, faults: bool, edits: bool) -> bool {
        match self.kind {
            CheckKind::Corpus => matches!(scenario.kind, ScenarioKind::Corpus(_)),
            CheckKind::CorpusFaults => faults && matches!(scenario.kind, ScenarioKind::Corpus(_)),
            CheckKind::CorpusEdits => edits && matches!(scenario.kind, ScenarioKind::Corpus(_)),
            CheckKind::Synth => matches!(scenario.kind, ScenarioKind::Synth(_)),
        }
    }
}

/// Every check the harness knows, in execution order.
pub static CHECKS: &[Check] = &[
    Check {
        name: "impl-matrix-bytes",
        kind: CheckKind::Corpus,
        run: chk_impl_matrix,
    },
    Check {
        name: "ancestor-impl-bytes",
        kind: CheckKind::Corpus,
        run: chk_ancestor_impl_matrix,
    },
    Check {
        name: "summarizer-relations",
        kind: CheckKind::Corpus,
        run: chk_summarizer_relations,
    },
    Check {
        name: "cost-monotone-in-k",
        kind: CheckKind::Corpus,
        run: chk_cost_monotone_k,
    },
    Check {
        name: "fault-isolation",
        kind: CheckKind::CorpusFaults,
        run: chk_fault_isolation,
    },
    Check {
        name: "incremental-vs-rebuild",
        kind: CheckKind::CorpusEdits,
        run: chk_incremental_vs_rebuild,
    },
    Check {
        name: "graph-impl-equality",
        kind: CheckKind::Synth,
        run: chk_graph_impl_equality,
    },
    Check {
        name: "ancestor-relabel-invariance",
        kind: CheckKind::Synth,
        run: chk_ancestor_relabel,
    },
    Check {
        name: "eps-monotone-edges",
        kind: CheckKind::Synth,
        run: chk_eps_monotone_edges,
    },
    Check {
        name: "pair-permutation-invariance",
        kind: CheckKind::Synth,
        run: chk_pair_permutation,
    },
    Check {
        name: "synth-summarizer-invariants",
        kind: CheckKind::Synth,
        run: chk_synth_summarizers,
    },
];

/// Look a check up by its stable name (for replay).
pub fn check_by_name(name: &str) -> Option<&'static Check> {
    CHECKS.iter().find(|c| c.name == name)
}

fn corpus_of(s: &Scenario) -> &Corpus {
    match &s.kind {
        ScenarioKind::Corpus(c) => c,
        ScenarioKind::Synth(_) => unreachable!("corpus check on a synth scenario"),
    }
}

fn synth_of(s: &Scenario) -> &SynthInstance {
    match &s.kind {
        ScenarioKind::Synth(inst) => inst,
        ScenarioKind::Corpus(_) => unreachable!("synth check on a corpus scenario"),
    }
}

fn base_opts(s: &Scenario) -> BatchOptions {
    BatchOptions {
        k: s.k,
        eps: s.eps,
        granularity: s.granularity,
        corpus_seed: s.seed,
        ancestor_impl: s.ancestor,
        ..BatchOptions::default()
    }
}

fn pipeline(c: &Corpus, opts: &BatchOptions) -> BatchReport<ItemSummary> {
    osa_obs::global().add("check.pipeline.runs", 1);
    summarize_corpus(c, opts)
}

/// The seeded fault plan a scenario's fault checks use.
pub fn scenario_fault_plan(s: &Scenario) -> FaultPlan {
    FaultPlan::with_seed(item_seed(s.seed, 0xFA17))
}

/// Production output at every `jobs` is byte-identical to the
/// reference pipeline's, per deterministic summarizer. At sentence and
/// review granularity this holds the cached-assembly, warm-started path
/// to a naive graph solved cold.
fn chk_impl_matrix(s: &Scenario) -> Result<(), String> {
    let c = corpus_of(s);
    for algorithm in [BatchAlgorithm::Greedy, BatchAlgorithm::LocalSearch] {
        let opts = BatchOptions {
            algorithm,
            ..base_opts(s)
        };
        let reference: String = naive_pipeline(c, &opts)
            .iter()
            .map(render_item_summary)
            .collect();
        for jobs in JOBS_MATRIX {
            let rendered = pipeline(
                c,
                &BatchOptions {
                    jobs,
                    ..opts.clone()
                },
            )
            .render_items();
            if rendered != reference {
                return Err(format!(
                    "output of {algorithm:?}/jobs={jobs} diverges from the naive pipeline"
                ));
            }
        }
    }
    Ok(())
}

/// The twin-oracle check of the compressed reachability index: dense CSR
/// closure vs segmented index render **byte-identically** at every
/// `jobs`. The dense closure is the oracle; the segment index is the
/// only viable implementation at SNOMED scale — they may never disagree
/// on a single output byte.
fn chk_ancestor_impl_matrix(s: &Scenario) -> Result<(), String> {
    let c = corpus_of(s);
    for jobs in JOBS_MATRIX {
        let run = |ancestor_impl| {
            pipeline(
                c,
                &BatchOptions {
                    jobs,
                    ancestor_impl,
                    ..base_opts(s)
                },
            )
            .render_items()
        };
        if run(AncestorImpl::Segmented) != run(AncestorImpl::Dense) {
            return Err(format!(
                "segmented output diverges from the dense oracle at jobs={jobs}"
            ));
        }
    }
    Ok(())
}

/// `Err` naming the first way `got` differs from the eager Algorithm 2
/// oracle on `g` at budget `k`: selection sequence or cost.
fn against_oracle(label: &str, g: &CoverageGraph, k: usize, got: &Summary) -> Result<(), String> {
    let want = EagerGreedy.summarize(g, k);
    if *got != want {
        return Err(format!(
            "{label}: selected {:?} at cost {} but the eager oracle selects {:?} at cost {}",
            got.selected, got.cost, want.selected, want.cost
        ));
    }
    Ok(())
}

/// Production greedy, under both of its names, selects exactly what the
/// eager Algorithm 2 oracle selects; local search never does worse than
/// greedy; the exact ILP (on small instances) lower-bounds all
/// heuristics.
fn chk_summarizer_relations(s: &Scenario) -> Result<(), String> {
    let c = corpus_of(s);
    let run = |algorithm| {
        pipeline(
            c,
            &BatchOptions {
                algorithm,
                ..base_opts(s)
            },
        )
    };
    let greedy = run(BatchAlgorithm::Greedy);
    let lazy = run(BatchAlgorithm::LazyGreedy);
    let local = run(BatchAlgorithm::LocalSearch);
    let small = greedy
        .results
        .iter()
        .all(|r| r.num_candidates <= EXACT_MAX_CANDIDATES);
    let exact = small.then(|| run(BatchAlgorithm::Ilp));
    let extractor = Extractor::from_hierarchy(&c.hierarchy);
    let mut scratch = WorkerScratch::new();
    let opts = base_opts(s);
    for (i, g) in greedy.results.iter().enumerate() {
        let ex = extractor.extract(&c.items[i], ExtractImpl::Interned, &mut scratch.extract);
        // `item_graph` reads these at pairs granularity only.
        let _ = scratch.compress_into(&ex.pairs);
        let graph = item_graph(&c.hierarchy, &ex, &opts, GraphImpl::Indexed, &mut scratch);
        against_oracle(&format!("item {i} greedy"), &graph, s.k, &g.summary)?;
        against_oracle(
            &format!("item {i} lazy"),
            &graph,
            s.k,
            &lazy.results[i].summary,
        )?;
        let (gz, lo) = (g.summary.cost, local.results[i].summary.cost);
        if lo > gz {
            return Err(format!("item {i}: local-search cost {lo} > greedy {gz}"));
        }
        if let Some(exact) = &exact {
            let ez = exact.results[i].summary.cost;
            if ez > gz || ez > lo {
                return Err(format!(
                    "item {i}: exact cost {ez} above a heuristic (greedy {gz}, local {lo})"
                ));
            }
        }
    }
    Ok(())
}

/// C(F, P) is non-increasing in the summary budget k.
fn chk_cost_monotone_k(s: &Scenario) -> Result<(), String> {
    let c = corpus_of(s);
    let run = |k| pipeline(c, &BatchOptions { k, ..base_opts(s) });
    let at_k = run(s.k);
    let at_k1 = run(s.k + 1);
    for (a, b) in at_k.results.iter().zip(&at_k1.results) {
        if b.summary.cost > a.summary.cost {
            return Err(format!(
                "item {}: cost rose from {} at k={} to {} at k={}",
                a.item,
                a.summary.cost,
                s.k,
                b.summary.cost,
                s.k + 1
            ));
        }
    }
    Ok(())
}

/// Injected panics and corruptions are contained: the batch completes,
/// failure accounting is jobs-invariant and exactly matches the plan,
/// and every surviving item is byte-identical to the fault-free run.
fn chk_fault_isolation(s: &Scenario) -> Result<(), String> {
    let c = corpus_of(s);
    let plan = scenario_fault_plan(s);
    let clean = pipeline(c, &base_opts(s));
    let mut reference: Option<BatchReport<ItemSummary>> = None;
    for jobs in JOBS_MATRIX {
        let faulted = pipeline(
            c,
            &BatchOptions {
                jobs,
                fault_plan: Some(plan),
                retries: 1,
                ..base_opts(s)
            },
        );
        if let Some(base) = &reference {
            if faulted.results != base.results
                || faulted.failed != base.failed
                || faulted.retried != base.retried
            {
                return Err(format!(
                    "fault accounting at jobs={jobs} diverges from jobs={}",
                    JOBS_MATRIX[0]
                ));
            }
            continue;
        }
        // Survivors must match the fault-free run byte for byte.
        for item in &faulted.results {
            let counterpart = &clean.results[item.item];
            if render_item_summary(item) != render_item_summary(counterpart) {
                return Err(format!(
                    "surviving item {} diverges from the fault-free run",
                    item.item
                ));
            }
        }
        // The failed set is exactly the permanently faulted items:
        // sticky panics, plus NaN corruptions on items that have pairs.
        let predicted: Vec<usize> = (0..c.items.len())
            .filter(|&i| match plan.fault_for(i) {
                Fault::Panic { failing_attempts } => failing_attempts == u32::MAX,
                Fault::NanSentiment => clean.results[i].num_pairs > 0,
                _ => false,
            })
            .collect();
        let failed: Vec<usize> = faulted.failed.iter().map(|f| f.item).collect();
        if failed != predicted {
            return Err(format!(
                "failed items {failed:?} do not match the plan's permanent faults {predicted:?}"
            ));
        }
        let transients = (0..c.items.len())
            .filter(|&i| {
                matches!(
                    plan.fault_for(i),
                    Fault::Panic {
                        failing_attempts: 1
                    }
                )
            })
            .count() as u64;
        if faulted.retried != transients {
            return Err(format!(
                "retried {} != {transients} transiently faulted items",
                faulted.retried
            ));
        }
        if faulted.results.len() + faulted.failed.len() != c.items.len() {
            return Err("failed + surviving items do not cover the corpus".to_owned());
        }
        reference = Some(faulted);
    }
    Ok(())
}

/// Edits per seeded edit script (the `incremental-vs-rebuild` oracle).
pub const EDIT_SCRIPT_LEN: usize = 4;

/// One step of a seeded edit script, derived purely from
/// `(scenario seed, edit index, current review count)`: which item is
/// edited and whether the edit retracts the item's last review (only
/// ever chosen while the item keeps at least one review afterwards) or
/// appends a review recycled from the original corpus.
fn edit_step(
    s: &Scenario,
    original: &Corpus,
    corpus: &Corpus,
    edit: usize,
) -> (usize, bool, osa_datasets::Review) {
    let draw = item_seed(s.seed, 0xED17_0000 + edit as u64);
    let idx = (draw % corpus.items.len() as u64) as usize;
    let retract = (draw >> 33) & 1 == 1 && corpus.items[idx].reviews.len() > 1;
    let donor = &original.items[((draw >> 8) % original.items.len() as u64) as usize];
    let review = donor.reviews[((draw >> 24) % donor.reviews.len() as u64) as usize].clone();
    (idx, retract, review)
}

/// The incremental pipeline (`ItemArtifacts::update` after every edit)
/// renders **byte-identically** to rebuilding from scratch at every
/// `jobs` with greedy, over a seeded
/// random append/retract edit script. This is the end-to-end oracle for
/// the serve daemon's `POST /reviews` fast path: cached extractions are
/// extended review-by-review, graph plans/shards are merged as CSR
/// deltas, and greedy warm-starts from maintained initial keys —
/// none of which may change a single output byte.
fn chk_incremental_vs_rebuild(s: &Scenario) -> Result<(), String> {
    let original = corpus_of(s);
    let extractor = Extractor::from_hierarchy(&original.hierarchy);
    let opts = base_opts(s);
    let mut scratch = WorkerScratch::new();
    let mut corpus = original.clone();
    let mut artifacts: Vec<ItemArtifacts> = corpus
        .items
        .iter()
        .map(|it| ItemArtifacts::build(&corpus.hierarchy, &extractor, &opts, it, &mut scratch))
        .collect();
    for edit in 0..EDIT_SCRIPT_LEN {
        let (idx, retract, review) = edit_step(s, original, &corpus, edit);
        if retract {
            corpus.items[idx].reviews.pop();
        } else {
            corpus.items[idx].reviews.push(review);
        }
        artifacts[idx] = artifacts[idx].update(
            &corpus.hierarchy,
            &extractor,
            &opts,
            &corpus.items[idx],
            &mut scratch,
        );
        for jobs in JOBS_MATRIX {
            let fresh = pipeline(
                &corpus,
                &BatchOptions {
                    jobs,
                    ..opts.clone()
                },
            );
            for (i, result) in fresh.results.iter().enumerate() {
                let incremental = artifacts[i].summarize(
                    &corpus.hierarchy,
                    &opts,
                    i,
                    &corpus.items[i],
                    &mut scratch,
                    None,
                );
                if render_item_summary(&incremental) != render_item_summary(result) {
                    return Err(format!(
                        "after edit {edit} ({} item {idx}), \
                         incremental item {i} diverges from a fresh rebuild at jobs={jobs}",
                        if retract { "retract from" } else { "append to" },
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Build the scenario's coverage graph with the naive and the indexed
/// builder.
fn build_all_impls(s: &Scenario) -> Vec<(String, CoverageGraph)> {
    let inst = synth_of(s);
    let h = &inst.hierarchy;
    let pairs = &inst.pairs;
    let mut graphs = Vec::new();
    match s.granularity {
        Granularity::Pairs => {
            graphs.push((
                "naive".to_owned(),
                CoverageGraph::for_pairs_naive(h, pairs, s.eps),
            ));
            graphs.push((
                "indexed".to_owned(),
                CoverageGraph::for_pairs(h, pairs, s.eps),
            ));
        }
        Granularity::Sentences | Granularity::Reviews => {
            let groups = if s.granularity == Granularity::Sentences {
                &inst.sentence_groups
            } else {
                &inst.review_groups
            };
            graphs.push((
                "naive".to_owned(),
                CoverageGraph::for_groups_naive(h, pairs, groups, s.eps, s.granularity),
            ));
            graphs.push((
                "indexed".to_owned(),
                CoverageGraph::for_groups(h, pairs, groups, s.eps, s.granularity),
            ));
        }
    }
    graphs
}

/// The naive and indexed graph builds agree exactly.
fn chk_graph_impl_equality(s: &Scenario) -> Result<(), String> {
    let graphs = build_all_impls(s);
    let (ref_name, reference) = &graphs[0];
    for (name, g) in &graphs[1..] {
        if g != reference {
            return Err(format!("graph from {name} differs from {ref_name}"));
        }
    }
    Ok(())
}

/// One node's ancestor set as sorted `(name, distance)` rows — the
/// labeling-independent form both ancestor implementations must agree on.
fn ancestor_names(h: &Hierarchy, ancestors: &[(osa_ontology::NodeId, u32)]) -> Vec<(String, u32)> {
    let mut rows: Vec<(String, u32)> = ancestors
        .iter()
        .map(|&(a, d)| (h.name(a).to_owned(), d))
        .collect();
    rows.sort();
    rows
}

/// Rebuild `h` with its nodes inserted in a seeded random order: same
/// names, same edges, permuted `NodeId`s (and hence a different internal
/// topological layout for the segment index to chew on).
fn relabeled(h: &Hierarchy, seed: u64) -> Result<Hierarchy, String> {
    let mut order: Vec<osa_ontology::NodeId> = h.nodes().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut b = HierarchyBuilder::new();
    for &n in &order {
        b.add_node(h.name(n));
    }
    for &(p, c) in h.edge_list() {
        b.add_edge_by_name(h.name(p), h.name(c))
            .map_err(|e| format!("relabeled edge rejected: {e}"))?;
    }
    b.build()
        .map_err(|e| format!("relabeled build failed: {e}"))
}

/// Ancestor queries are implementation- *and* labeling-invariant. On the
/// synth DAG (multi-parent by construction) the segmented index must
/// reproduce the dense closure node for node; and after relabeling the
/// nodes — same names and edges, permuted `NodeId`s — every ancestor
/// `(name, distance)` set must come out unchanged under both
/// implementations. This is the structural half of the twin-oracle
/// layer: [`chk_ancestor_impl_matrix`] proves end-to-end bytes, this
/// check pins the index semantics the bytes rest on.
fn chk_ancestor_relabel(s: &Scenario) -> Result<(), String> {
    let inst = synth_of(s);
    let original = &inst.hierarchy;
    let permuted = relabeled(original, item_seed(s.seed, 0x5EC7))?;
    if permuted.node_count() != original.node_count()
        || permuted.edge_count() != original.edge_count()
    {
        return Err("relabeled hierarchy changed shape".to_owned());
    }
    for node in original.nodes() {
        let reference = ancestor_names(original, original.ancestor_index().ancestors(node));
        let seg = ancestor_names(
            original,
            &original.segment_index().ancestors_with_dist(node),
        );
        if seg != reference {
            return Err(format!(
                "segmented ancestors of '{}' disagree with the dense closure",
                original.name(node)
            ));
        }
        let twin = permuted
            .node_by_name(original.name(node))
            .ok_or_else(|| format!("relabeled hierarchy lost node '{}'", original.name(node)))?;
        for (label, got) in [
            (
                "dense",
                ancestor_names(&permuted, permuted.ancestor_index().ancestors(twin)),
            ),
            (
                "segmented",
                ancestor_names(
                    &permuted,
                    &permuted.segment_index().ancestors_with_dist(twin),
                ),
            ),
        ] {
            if got != reference {
                return Err(format!(
                    "{label} ancestors of '{}' changed under relabeling",
                    original.name(node)
                ));
            }
        }
    }
    Ok(())
}

/// Growing ε only adds edges: every candidate's covered-pair set at ε is
/// a subset of its set at a larger ε. Distances are non-increasing —
/// at group granularity an edge's distance is the best over the group's
/// member pairs, and a wider ε-window can only admit more members.
fn chk_eps_monotone_edges(s: &Scenario) -> Result<(), String> {
    let inst = synth_of(s);
    let build = |eps: f64| match s.granularity {
        Granularity::Pairs => CoverageGraph::for_pairs(&inst.hierarchy, &inst.pairs, eps),
        g => CoverageGraph::for_groups(
            &inst.hierarchy,
            &inst.pairs,
            if g == Granularity::Sentences {
                &inst.sentence_groups
            } else {
                &inst.review_groups
            },
            eps,
            g,
        ),
    };
    let lo = build(s.eps);
    let hi = build(s.eps + 0.25);
    if lo.num_candidates() != hi.num_candidates() {
        return Err("candidate count changed with ε".to_owned());
    }
    for u in 0..lo.num_candidates() {
        let wide: std::collections::HashMap<u32, u32> = hi.covered_by(u).iter().copied().collect();
        for &(q, d) in lo.covered_by(u) {
            match wide.get(&q) {
                Some(&dh) if dh <= d => {}
                Some(&dh) => {
                    return Err(format!(
                        "candidate {u} pair {q}: distance rose {d} -> {dh} as ε grew"
                    ))
                }
                None => {
                    return Err(format!(
                        "candidate {u} lost pair {q} when ε grew from {:.2} to {:.2}",
                        s.eps,
                        s.eps + 0.25
                    ))
                }
            }
        }
        if hi.covered_by(u).len() < lo.covered_by(u).len() {
            return Err(format!("candidate {u}'s edge set shrank as ε grew"));
        }
    }
    Ok(())
}

/// Relabeling the pair order changes nothing *instance-level*:
/// structural counts, the root-only cost, and (on small instances) the
/// exact optimum are all invariant, and every greedy run stays lower-
/// bounded by that optimum. Greedy's own cost is deliberately NOT
/// asserted equal across permutations: its tie-break is by candidate
/// index, so relabeling two gain-tied candidates can legitimately steer
/// the heuristic to a different (equally greedy) summary — the soak
/// found exactly that on a 66-node synth instance.
fn chk_pair_permutation(s: &Scenario) -> Result<(), String> {
    let inst = synth_of(s);
    let h = &inst.hierarchy;
    let base = CoverageGraph::for_pairs(h, &inst.pairs, s.eps);
    let base_exact = (base.num_candidates() <= EXACT_MAX_CANDIDATES)
        .then(|| osa_core::ExactBruteForce.summarize(&base, s.k).cost);
    if let Some(exact) = base_exact {
        let greedy = GreedySummarizer.summarize(&base, s.k).cost;
        if greedy < exact {
            return Err(format!(
                "greedy cost {greedy} beat the exact optimum {exact}"
            ));
        }
    }
    let mut shuffled = inst.pairs.clone();
    let mut rng = StdRng::seed_from_u64(item_seed(s.seed, 0x5117));
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    let mut reversed = inst.pairs.clone();
    reversed.reverse();
    for (label, permuted) in [("reversed", &reversed), ("shuffled", &shuffled)] {
        let g = CoverageGraph::for_pairs(h, permuted, s.eps);
        if g.num_pairs() != base.num_pairs()
            || g.num_candidates() != base.num_candidates()
            || g.num_edges() != base.num_edges()
        {
            return Err(format!("{label} pair order changed the graph's shape"));
        }
        if g.root_cost() != base.root_cost() {
            return Err(format!(
                "{label} pair order changed root cost {} -> {}",
                base.root_cost(),
                g.root_cost()
            ));
        }
        if let Some(exact) = base_exact {
            let e = osa_core::ExactBruteForce.summarize(&g, s.k).cost;
            if e != exact {
                return Err(format!(
                    "{label} pair order changed the exact optimum {exact} -> {e}"
                ));
            }
            let greedy = GreedySummarizer.summarize(&g, s.k).cost;
            if greedy < exact {
                return Err(format!(
                    "{label} greedy cost {greedy} beat the exact optimum {exact}"
                ));
            }
        }
    }
    Ok(())
}

/// Solver invariants directly on the synth graph: greedy's cost chain is
/// non-increasing in k, both greedy names match the eager oracle, local
/// search improves on greedy, exact oracles lower-bound everything (brute
/// force and the ILP agree when both run).
fn chk_synth_summarizers(s: &Scenario) -> Result<(), String> {
    let inst = synth_of(s);
    let g = match s.granularity {
        Granularity::Pairs => CoverageGraph::for_pairs(&inst.hierarchy, &inst.pairs, s.eps),
        gran => CoverageGraph::for_groups(
            &inst.hierarchy,
            &inst.pairs,
            if gran == Granularity::Sentences {
                &inst.sentence_groups
            } else {
                &inst.review_groups
            },
            s.eps,
            gran,
        ),
    };
    let mut prev = None;
    for k in 0..=s.k + 1 {
        let cost = GreedySummarizer.summarize(&g, k).cost;
        if let Some(p) = prev {
            if cost > p {
                return Err(format!("greedy cost rose from {p} to {cost} at k={k}"));
            }
        }
        prev = Some(cost);
    }
    let summary = GreedySummarizer.summarize(&g, s.k);
    against_oracle("greedy", &g, s.k, &summary)?;
    against_oracle("lazy", &g, s.k, &LazyGreedySummarizer.summarize(&g, s.k))?;
    let greedy = summary.cost;
    let local = LocalSearchSummarizer::default().summarize(&g, s.k).cost;
    if local > greedy {
        return Err(format!("local-search cost {local} > greedy {greedy}"));
    }
    if g.num_candidates() <= EXACT_MAX_CANDIDATES {
        let brute = osa_core::ExactBruteForce.summarize(&g, s.k).cost;
        let ilp = IlpSummarizer.summarize(&g, s.k).cost;
        if brute != ilp {
            return Err(format!("brute-force optimum {brute} != ILP optimum {ilp}"));
        }
        if brute > local || brute > greedy {
            return Err(format!(
                "exact optimum {brute} above a heuristic (greedy {greedy}, local {local})"
            ));
        }
    }
    Ok(())
}
