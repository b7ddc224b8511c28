//! Algorithm 2: the greedy summarizer, run with CELF lazy evaluation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CoverageGraph, Summarizer, Summary};

/// The paper's Algorithm 2.
///
/// Starts from `F = {root}` and repeatedly adds the candidate with the
/// largest marginal cost decrease `δ(p, F) = C(F, P) − C(F ∪ {p}, P)`,
/// smallest candidate id on ties.
///
/// The maximum is found CELF-style: heap keys are left stale after a
/// selection and re-evaluated only when popped. The cost is
/// submodular, so a stale key is an upper bound on its candidate's
/// fresh gain; a popped candidate is selected only if its *fresh*
/// `(gain, smallest id)` entry still tops the heap, which makes the
/// selection sequence byte-identical to the paper's eager two-hop
/// decrease-key heap, ties included. That eager form lives on as the
/// `osa_check::oracle::EagerGreedy` test oracle.
///
/// Selection stops early once the best marginal gain reaches 0 (coverage
/// saturated): padding the summary with zero-gain candidates would not
/// change the cost but would waste summary slots.
///
/// Wolsey's guarantee (Theorem 4): the returned size-`k` summary costs at
/// most `opt_{k'}(P)` with `k' = ⌈k / H(Δn)⌉`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedySummarizer;

/// The same engine as [`GreedySummarizer`] under its historical
/// "lazy" name (`--algorithm lazy`, `?algo=lazy`). Both names select,
/// count and cost identically.
#[derive(Debug, Clone, Copy, Default)]
pub struct LazyGreedySummarizer;

impl GreedySummarizer {
    /// The exact initial marginal gain `δ(u, {r})` of every candidate —
    /// the keys the greedy heap is seeded with. Cache this vector (and
    /// maintain it across appends with
    /// [`GraphBuildPlan::warm_keys`](crate::GraphBuildPlan::warm_keys))
    /// to warm-start [`summarize_seeded`](Self::summarize_seeded).
    pub fn initial_keys(graph: &CoverageGraph) -> Vec<u64> {
        (0..graph.num_candidates())
            .map(|u| {
                graph
                    .covered_by(u)
                    .iter()
                    .map(|&(q, d)| {
                        u64::from(graph.root_dist(q as usize).saturating_sub(d))
                            * graph.pair_weight(q as usize)
                    })
                    .sum()
            })
            .collect()
    }

    /// Greedy with a warm-started heap: `keys` must equal
    /// [`initial_keys`](Self::initial_keys)`(graph)` (debug-asserted).
    /// Because the initial keys are exact — not stale bounds — seeding
    /// the heap from a cached copy reproduces the cold run's selection
    /// sequence byte-for-byte; only the `O(|E|)` key computation is
    /// skipped.
    pub fn summarize_seeded(
        &self,
        graph: &CoverageGraph,
        k: usize,
        keys: &[u64],
        trace: Option<&osa_obs::Trace>,
    ) -> Summary {
        assert_eq!(keys.len(), graph.num_candidates(), "one key per candidate");
        debug_assert_eq!(keys, Self::initial_keys(graph), "seeded keys must be exact");
        osa_obs::global().add("greedy.warm_starts", 1);
        celf(graph, k, Some(keys), trace)
    }
}

impl Summarizer for GreedySummarizer {
    fn summarize(&self, graph: &CoverageGraph, k: usize) -> Summary {
        celf(graph, k, None, None)
    }

    fn summarize_traced(
        &self,
        graph: &CoverageGraph,
        k: usize,
        trace: Option<&osa_obs::Trace>,
    ) -> Summary {
        celf(graph, k, None, trace)
    }

    fn name(&self) -> &'static str {
        "greedy"
    }
}

impl Summarizer for LazyGreedySummarizer {
    fn summarize(&self, graph: &CoverageGraph, k: usize) -> Summary {
        celf(graph, k, None, None)
    }

    fn summarize_traced(
        &self,
        graph: &CoverageGraph,
        k: usize,
        trace: Option<&osa_obs::Trace>,
    ) -> Summary {
        celf(graph, k, None, trace)
    }

    fn name(&self) -> &'static str {
        "greedy-lazy"
    }
}

/// The one greedy engine: CELF over `(gain, smallest id)` heap entries,
/// seeded from `seed_keys` when given (they must be the exact initial
/// keys) or computed from the graph otherwise.
fn celf(
    graph: &CoverageGraph,
    k: usize,
    seed_keys: Option<&[u64]>,
    trace: Option<&osa_obs::Trace>,
) -> Summary {
    let n = graph.num_candidates();
    let k = k.min(n);
    let mut best: Vec<u32> = (0..graph.num_pairs()).map(|q| graph.root_dist(q)).collect();
    let gain = |u: usize, best: &[u32]| -> u64 {
        graph
            .covered_by(u)
            .iter()
            .map(|&(q, d)| {
                u64::from(best[q as usize].saturating_sub(d)) * graph.pair_weight(q as usize)
            })
            .sum()
    };

    // Entries are (possibly stale) upper bounds on the marginal gain,
    // ordered `(gain, smallest id)`. A warm start seeds the very same
    // exact initial keys from a cached vector instead of recomputing them.
    let mut heap: BinaryHeap<(u64, Reverse<u32>)> = match seed_keys {
        Some(keys) => keys
            .iter()
            .enumerate()
            .map(|(u, &g)| (g, Reverse(u as u32)))
            .collect(),
        None => (0..n)
            .map(|u| (gain(u, &best), Reverse(u as u32)))
            .collect(),
    };
    // Metric accumulators: counted locally, published once per call so
    // the hot loop never touches the registry.
    let mut gain_evals = n as u64; // the initial keys
    let mut repops = 0u64;

    let mut selected = Vec::with_capacity(k);
    while selected.len() < k {
        let Some((stale, Reverse(u))) = heap.pop() else {
            break;
        };
        let fresh = gain(u as usize, &best);
        gain_evals += 1;
        debug_assert!(fresh <= stale, "gains only shrink (submodularity)");
        let entry = (fresh, Reverse(u));
        // Select only if the *fresh* entry would still top the heap.
        // Every remaining entry is an upper bound on its candidate's
        // fresh entry, so winning here means winning against every fresh
        // gain under the `(gain, smallest id)` order.
        if heap.peek().is_none_or(|top| entry >= *top) {
            if fresh == 0 {
                // `fresh` dominates every (optimistic) stale key, so the
                // true maximum marginal gain is 0: coverage is saturated.
                break;
            }
            selected.push(u as usize);
            for &(q, d) in graph.covered_by(u as usize) {
                let b = &mut best[q as usize];
                if d < *b {
                    *b = d;
                }
            }
        } else {
            heap.push(entry);
            repops += 1;
        }
    }
    let obs = osa_obs::global();
    obs.add("greedy.gain_evals", gain_evals);
    obs.add("greedy.repops", repops);
    if let Some(t) = trace {
        t.count("greedy.gain_evals", gain_evals);
        t.count("greedy.repops", repops);
    }

    let cost = best
        .iter()
        .enumerate()
        .map(|(q, &d)| u64::from(d) * graph.pair_weight(q))
        .sum();
    debug_assert_eq!(cost, graph.cost_of(&selected));
    Summary { selected, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pair;
    use osa_ontology::{Hierarchy, HierarchyBuilder};

    fn star(children: usize) -> Hierarchy {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        for i in 0..children {
            let c = b.add_node(&format!("c{i}"));
            b.add_edge(r, c).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn greedy_on_star_picks_distinct_concepts() {
        let h = star(4);
        let pairs: Vec<Pair> = (0..4)
            .map(|i| Pair::new(h.node_by_name(&format!("c{i}")).unwrap(), 0.0))
            .collect();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let s = GreedySummarizer.summarize(&g, 2);
        assert_eq!(s.selected.len(), 2);
        // Each selection zeroes its own pair: cost = 2 remaining at depth 1.
        assert_eq!(s.cost, 2);
    }

    #[test]
    fn greedy_prefers_high_coverage_candidate() {
        // r -> mid -> {l1, l2, l3}: the `mid` pair covers everything.
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        let mid = b.add_node("mid");
        b.add_edge(r, mid).unwrap();
        let mut leaves = Vec::new();
        for i in 0..3 {
            let l = b.add_node(&format!("l{i}"));
            b.add_edge(mid, l).unwrap();
            leaves.push(l);
        }
        let h = b.build().unwrap();
        let mut pairs = vec![Pair::new(mid, 0.0)];
        pairs.extend(leaves.iter().map(|&l| Pair::new(l, 0.1)));
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let s = GreedySummarizer.summarize(&g, 1);
        assert_eq!(s.selected, vec![0]);
        assert_eq!(s.cost, 3); // three leaves at distance 1
    }

    #[test]
    fn k_larger_than_candidates_selects_all() {
        let h = star(2);
        let pairs: Vec<Pair> = (0..2)
            .map(|i| Pair::new(h.node_by_name(&format!("c{i}")).unwrap(), 0.0))
            .collect();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let s = GreedySummarizer.summarize(&g, 10);
        assert_eq!(s.selected.len(), 2);
        assert_eq!(s.cost, 0);
    }

    #[test]
    fn ties_resolve_to_the_smallest_candidate_id() {
        // Candidates 1 and 2 sit on the same concept and tie for the top
        // gain; the smaller id wins.
        let h = star(3);
        let c0 = h.node_by_name("c0").unwrap();
        let c1 = h.node_by_name("c1").unwrap();
        let pairs = vec![Pair::new(c0, 0.0), Pair::new(c1, 0.0), Pair::new(c1, 0.0)];
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_eq!(GreedySummarizer.summarize(&g, 1).selected, vec![1]);
    }

    #[test]
    #[should_panic(expected = "one key per candidate")]
    fn seeded_greedy_rejects_mismatched_keys() {
        let h = star(2);
        let pairs: Vec<Pair> = (0..2)
            .map(|i| Pair::new(h.node_by_name(&format!("c{i}")).unwrap(), 0.0))
            .collect();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let _ = GreedySummarizer.summarize_seeded(&g, 1, &[1], None);
    }

    #[test]
    fn reported_cost_is_exact() {
        let h = star(5);
        let pairs: Vec<Pair> = (0..5)
            .map(|i| Pair::new(h.node_by_name(&format!("c{i}")).unwrap(), 0.2 * i as f64))
            .collect();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let s = GreedySummarizer.summarize(&g, 3);
        assert_eq!(s.cost, g.cost_of(&s.selected));
    }
}
