//! Metamorphic tests for the summarizers on synthetic instances: the
//! cost chain C(F, P) is non-increasing in `k`, and relabeling the pair
//! order leaves every instance-level quantity — graph shape, root cost,
//! exact optimum — unchanged. Heuristic costs across permutations are compared against
//! the exact optimum rather than each other: an index tie-break means a
//! relabeling can legitimately steer greedy to a different (equally
//! greedy) summary.

use osa_core::{
    CoverageGraph, ExactBruteForce, GreedySummarizer, LocalSearchSummarizer, Summarizer,
};
use osa_datasets::{sample_grouped_pairs, synthetic_ontology, SyntheticOntologyConfig};
use rand::{rngs::StdRng, SeedableRng};

/// A small synthetic instance: hierarchy, clustered pairs, and the
/// sentence/review groupings the pair sampler derives.
fn instance(seed: u64, n_pairs: usize) -> (osa_ontology::Hierarchy, Vec<osa_core::Pair>) {
    let cfg = SyntheticOntologyConfig {
        nodes: 60,
        levels: 4,
        multi_parent_prob: 0.15,
    };
    let h = synthetic_ontology(&cfg, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37);
    let (pairs, _, _) = sample_grouped_pairs(&h, n_pairs, 3, 3, &mut rng);
    (h, pairs)
}

fn summarizers() -> Vec<Box<dyn Summarizer>> {
    vec![
        Box::new(GreedySummarizer),
        Box::new(LocalSearchSummarizer::default()),
    ]
}

#[test]
fn cost_is_non_increasing_in_k() {
    for seed in [3u64, 17, 99] {
        let (h, pairs) = instance(seed, 40);
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        for s in summarizers() {
            let mut prev = None;
            for k in 0..=8 {
                let cost = s.summarize(&g, k).cost;
                if let Some(p) = prev {
                    assert!(
                        cost <= p,
                        "{} cost rose {p} -> {cost} at k={k} (seed {seed})",
                        s.name()
                    );
                }
                prev = Some(cost);
            }
        }
    }
}

#[test]
fn pair_permutation_preserves_instance_level_quantities() {
    for seed in [3u64, 17, 99] {
        // Small enough for the brute-force oracle to stay fast.
        let (h, pairs) = instance(seed, 12);
        let k = 3;
        let base = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let exact = ExactBruteForce.summarize(&base, k).cost;

        let mut reversed = pairs.clone();
        reversed.reverse();
        let mut rotated = pairs.clone();
        rotated.rotate_left(pairs.len() / 3);
        for (label, permuted) in [("reversed", &reversed), ("rotated", &rotated)] {
            let g = CoverageGraph::for_pairs(&h, permuted, 0.5);
            assert_eq!(g.num_pairs(), base.num_pairs(), "{label} (seed {seed})");
            assert_eq!(
                g.num_candidates(),
                base.num_candidates(),
                "{label} (seed {seed})"
            );
            assert_eq!(g.num_edges(), base.num_edges(), "{label} (seed {seed})");
            assert_eq!(g.root_cost(), base.root_cost(), "{label} (seed {seed})");
            assert_eq!(
                ExactBruteForce.summarize(&g, k).cost,
                exact,
                "{label} changed the exact optimum (seed {seed})"
            );
            for s in summarizers() {
                let cost = s.summarize(&g, k).cost;
                assert!(
                    cost >= exact,
                    "{} beat the exact optimum under {label}: {cost} < {exact} (seed {seed})",
                    s.name()
                );
            }
        }
    }
}
