//! Reference implementations kept only to check production code against.
//!
//! [`EagerGreedy`] is the paper's Algorithm 2 as written: an indexed
//! max-heap whose keys are exact at all times, kept so by two-hop
//! decrease-keys after every selection. Production runs the CELF form
//! (`osa_core::GreedySummarizer`), which must select byte-identically —
//! the same candidates in the same order, ties included — and report the
//! same cost. The differential's `{Greedy, LazyGreedy}` axis and the tests
//! below compare the two.

mod heap;

use heap::IndexedMaxHeap;
use osa_core::{CoverageGraph, Summarizer, Summary};

/// Algorithm 2 with eager two-hop key updates over an indexed max-heap
/// (larger gain first, smallest candidate id on ties).
///
/// After selecting a candidate, only the keys of candidates sharing a
/// covered pair with it (the two-hop neighborhood in `G`) can change,
/// and — the cost being submodular — they can only *decrease*, so a
/// decrease-key heap suffices. Selection stops once the top key is 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct EagerGreedy;

impl Summarizer for EagerGreedy {
    fn summarize(&self, graph: &CoverageGraph, k: usize) -> Summary {
        let n = graph.num_candidates();
        let k = k.min(n);
        // best[q] = current serving distance of pair q (root to start).
        let mut best: Vec<u32> = (0..graph.num_pairs()).map(|q| graph.root_dist(q)).collect();
        let mut heap = IndexedMaxHeap::new(osa_core::GreedySummarizer::initial_keys(graph));

        let mut selected = Vec::with_capacity(k);
        while selected.len() < k {
            let Some((u, gain)) = heap.pop_max() else {
                break;
            };
            if gain == 0 {
                // Eager keys are exact, so a zero top key means coverage
                // is saturated.
                break;
            }
            selected.push(u as usize);
            // Two-hop key updates: for each pair this candidate now serves
            // better, every other candidate covering that pair loses the
            // corresponding share of its marginal gain.
            for &(q, d) in graph.covered_by(u as usize) {
                let old = best[q as usize];
                if d >= old {
                    continue;
                }
                best[q as usize] = d;
                let weight = graph.pair_weight(q as usize);
                for &(v, dv) in graph.coverers_of(q as usize) {
                    if !heap.contains(v) {
                        continue;
                    }
                    let before = u64::from(old.saturating_sub(dv)) * weight;
                    let after = u64::from(d.saturating_sub(dv)) * weight;
                    if before > after {
                        let nk = heap.key(v) - (before - after);
                        heap.decrease_key(v, nk);
                    }
                }
            }
        }
        let cost = best
            .iter()
            .enumerate()
            .map(|(q, &d)| u64::from(d) * graph.pair_weight(q))
            .sum();
        Summary { selected, cost }
    }

    fn name(&self) -> &'static str {
        "greedy-eager"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osa_core::{compress_pairs, Granularity, GreedySummarizer, LazyGreedySummarizer, Pair};
    use osa_datasets::{sample_grouped_pairs, synthetic_ontology, SyntheticOntologyConfig};
    use osa_ontology::{Hierarchy, HierarchyBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn star(children: usize) -> Hierarchy {
        let mut b = HierarchyBuilder::new();
        let r = b.add_node("r");
        for i in 0..children {
            let c = b.add_node(&format!("c{i}"));
            b.add_edge(r, c).unwrap();
        }
        b.build().unwrap()
    }

    fn star_pairs(h: &Hierarchy, sentiments: &[f64]) -> Vec<Pair> {
        sentiments
            .iter()
            .enumerate()
            .map(|(i, &s)| Pair::new(h.node_by_name(&format!("c{i}")).unwrap(), s))
            .collect()
    }

    /// Production greedy, under both names and warm-started, equals the
    /// oracle — selections and costs — for every k in `0..=n + 1`.
    fn assert_matches_oracle(g: &CoverageGraph, label: &str) {
        let keys = GreedySummarizer::initial_keys(g);
        for k in 0..=g.num_candidates() + 1 {
            let oracle = EagerGreedy.summarize(g, k);
            assert_eq!(oracle.cost, g.cost_of(&oracle.selected), "{label} k={k}");
            for (name, got) in [
                ("greedy", GreedySummarizer.summarize(g, k)),
                ("lazy", LazyGreedySummarizer.summarize(g, k)),
                (
                    "seeded",
                    GreedySummarizer.summarize_seeded(g, k, &keys, None),
                ),
            ] {
                assert_eq!(
                    got, oracle,
                    "{label}: {name} diverges from the oracle at k={k}"
                );
            }
        }
    }

    #[test]
    fn saturated_instance_stops_before_k() {
        // Two concepts, each pair duplicated: after one selection per
        // concept the cost is 0 and every remaining marginal gain is 0.
        let h = star(2);
        let c0 = h.node_by_name("c0").unwrap();
        let c1 = h.node_by_name("c1").unwrap();
        let pairs = vec![
            Pair::new(c0, 0.0),
            Pair::new(c0, 0.0),
            Pair::new(c1, 0.0),
            Pair::new(c1, 0.0),
        ];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        for alg in [&EagerGreedy as &dyn Summarizer, &GreedySummarizer] {
            let s = alg.summarize(&g, 4);
            assert_eq!(s.cost, 0, "{}", alg.name());
            assert_eq!(
                s.selected.len(),
                2,
                "{}: zero-gain candidates must not pad the summary",
                alg.name()
            );
        }
        assert_matches_oracle(&g, "saturated");
    }

    #[test]
    fn lazy_matches_eager_selection_under_ties() {
        // Two candidates on the same concept tie for the top gain; both
        // engines must break the tie the same way (smallest id).
        let h = star(3);
        let c0 = h.node_by_name("c0").unwrap();
        let c1 = h.node_by_name("c1").unwrap();
        let pairs = vec![Pair::new(c0, 0.0), Pair::new(c1, 0.0), Pair::new(c1, 0.0)];
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        assert_matches_oracle(&g, "ties");
        assert_eq!(EagerGreedy.summarize(&g, 1).selected, vec![1]);
    }

    #[test]
    fn lazy_matches_eager_cost() {
        let h = star(6);
        let pairs = star_pairs(&h, &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        assert_matches_oracle(&CoverageGraph::for_pairs(&h, &pairs, 0.3), "star");
    }

    #[test]
    fn seeded_lazy_matches_cold_lazy_and_eager() {
        let h = star(6);
        let pairs = star_pairs(&h, &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]);
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.3);
        let keys = GreedySummarizer::initial_keys(&g);
        for k in 0..=6 {
            assert_eq!(
                GreedySummarizer.summarize_seeded(&g, k, &keys, None),
                EagerGreedy.summarize(&g, k),
                "k={k}"
            );
        }
    }

    /// Fixed instances: three seeded 60-node synthetic ontologies with
    /// 50 clustered pairs, as pairs and as sentence groups.
    #[test]
    fn lazy_greedy_matches_eager_exactly() {
        let cfg = SyntheticOntologyConfig {
            nodes: 60,
            levels: 4,
            multi_parent_prob: 0.15,
        };
        for seed in [3u64, 17, 99] {
            let h = synthetic_ontology(&cfg, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
            let (pairs, _, _) = sample_grouped_pairs(&h, 50, 3, 3, &mut rng);
            assert_matches_oracle(
                &CoverageGraph::for_pairs(&h, &pairs, 0.5),
                &format!("seed {seed} pairs"),
            );
            let mut rng = StdRng::seed_from_u64(seed);
            let (p, sents, _) = sample_grouped_pairs(&h, 50, 3, 3, &mut rng);
            assert_matches_oracle(
                &CoverageGraph::for_groups(&h, &p, &sents, 0.5, Granularity::Sentences),
                &format!("seed {seed} sentences"),
            );
        }
    }

    /// Seeded property test: on random DAG instances — pairs with forced
    /// duplicates (tied gains), weighted pairs, sentence and review
    /// groups, and ε up to 2 (every ancestor covers, so coverage
    /// saturates before k runs out) — production greedy equals the
    /// oracle for every k in `0..=n`.
    #[test]
    fn production_greedy_equals_the_oracle_on_random_instances() {
        let mut saturated = 0;
        let mut weighted = 0;
        for seed in 0..120u64 {
            let mut rng = StdRng::seed_from_u64(0x0A7C_1E00 + seed);
            let h = synthetic_ontology(
                &SyntheticOntologyConfig {
                    nodes: rng.gen_range(8..60),
                    levels: rng.gen_range(2..5),
                    multi_parent_prob: 0.2,
                },
                seed,
            );
            let n = rng.gen_range(2..36);
            let clusters = rng.gen_range(1..4);
            let (mut pairs, mut sentences, mut reviews) =
                sample_grouped_pairs(&h, n, clusters, 3, &mut rng);
            // Forced ties: copies of existing pairs (and groups) are
            // candidates with exactly the same gain as their originals.
            for _ in 0..rng.gen_range(0..=n / 2) {
                let p = pairs[rng.gen_range(0..pairs.len())];
                pairs.push(p);
                let s = sentences[rng.gen_range(0..sentences.len())].clone();
                sentences.push(s);
                let r = reviews[rng.gen_range(0..reviews.len())].clone();
                reviews.push(r);
            }
            let eps = [0.0, 0.25, 0.5, 1.0, 2.0][rng.gen_range(0..5)];
            // Quantized sentiments repeat, so the compressed set carries
            // weights above 1.
            let quantized: Vec<Pair> = pairs
                .iter()
                .map(|p| Pair::new(p.concept, (p.sentiment * 2.0).round() / 2.0))
                .collect();
            let (unique, weights) = compress_pairs(&quantized);
            weighted += usize::from(weights.iter().any(|&w| w > 1));
            let graphs = [
                CoverageGraph::for_pairs(&h, &pairs, eps),
                CoverageGraph::for_weighted_pairs(&h, &unique, &weights, eps),
                CoverageGraph::for_groups(&h, &pairs, &sentences, eps, Granularity::Sentences),
                CoverageGraph::for_groups(&h, &pairs, &reviews, eps, Granularity::Reviews),
            ];
            for (i, g) in graphs.iter().enumerate() {
                let full = EagerGreedy.summarize(g, g.num_candidates());
                saturated += usize::from(full.selected.len() < g.num_candidates());
                assert_matches_oracle(g, &format!("seed {seed} graph {i} eps {eps}"));
            }
        }
        // The generator really reaches the regimes it is meant to cover.
        assert!(saturated > 100, "saturated instances: {saturated}");
        assert!(weighted > 60, "weighted instances: {weighted}");
    }
}
