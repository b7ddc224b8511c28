//! Property tests: the indexed §4.1 builders are *identical* — not just
//! cost-equivalent — to the naive oracle builder on random multi-parent
//! DAGs, and raw vs compressed-weighted instances agree on cost even
//! with signed-zero / NaN-sanitized sentiments. On a
//! 50k-node DAG, sparse plans keep one bucket per member concept and the
//! plan → shard and append → shard_append paths stay identical under both
//! ancestor indexes.

use std::collections::BTreeSet;

use osars::core::{
    compress_pairs, CoverageGraph, Granularity, GraphBuildPlan, GraphBuildScratch, Pair,
};
use osars::datasets::{sample_grouped_pairs, synthetic_ontology, SyntheticOntologyConfig};
use osars::ontology::{AncestorImpl, Hierarchy, HierarchyBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random rooted DAG: node i > 0 gets a parent among nodes 0..i, plus an
/// optional second parent (multi-parent closures are the hard case for
/// the topological closure merge).
fn arb_hierarchy(max_nodes: usize) -> impl Strategy<Value = Hierarchy> {
    (2..=max_nodes)
        .prop_flat_map(|n| {
            let parents = (1..n)
                .map(|i| (0..i, proptest::option::of(0..i)))
                .collect::<Vec<_>>();
            parents.prop_map(move |ps| {
                let mut b = HierarchyBuilder::new();
                for i in 0..n {
                    b.add_node(&format!("n{i}"));
                }
                for (i, (p1, p2)) in ps.into_iter().enumerate() {
                    let child = NodeId::from_index(i + 1);
                    b.add_edge(NodeId::from_index(p1), child).unwrap();
                    if let Some(p2) = p2 {
                        if p2 != p1 {
                            b.add_edge(NodeId::from_index(p2), child).unwrap();
                        }
                    }
                }
                b.build()
                    .expect("random construction is a valid rooted DAG")
            })
        })
        .no_shrink()
}

/// Pairs through `Pair::new` with boundary-rich sentiments: a 0.1 grid
/// plus `-0.0` (sentiment code 21) and NaN (code 22), both of which the
/// constructor sanitizes to `0.0`.
fn arb_pairs(h: &Hierarchy, max_pairs: usize) -> impl Strategy<Value = Vec<Pair>> {
    let n = h.node_count();
    proptest::collection::vec(
        (0..n, 0u8..=22).prop_map(|(c, code)| {
            let s = match code {
                21 => -0.0,
                22 => f64::NAN,
                lv => (f64::from(lv) - 10.0) / 10.0,
            };
            Pair::new(NodeId::from_index(c), s)
        }),
        1..=max_pairs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn indexed_pairs_graphs_equal_naive(
        (h, pairs, eps) in arb_hierarchy(14).prop_flat_map(|h| {
            let pairs = arb_pairs(&h, 24);
            (Just(h), pairs, (0u8..=10).prop_map(|e| f64::from(e) / 10.0))
        })
    ) {
        let naive = CoverageGraph::for_pairs_naive(&h, &pairs, eps);
        prop_assert_eq!(&CoverageGraph::for_pairs(&h, &pairs, eps), &naive);
    }

    #[test]
    fn indexed_group_graphs_equal_naive(
        (h, pairs) in arb_hierarchy(12).prop_flat_map(|h| {
            let pairs = arb_pairs(&h, 18);
            (Just(h), pairs)
        })
    ) {
        let eps = 0.3;
        let groups: Vec<Vec<usize>> = (0..pairs.len())
            .collect::<Vec<_>>()
            .chunks(4)
            .map(<[usize]>::to_vec)
            .collect();
        for gran in [Granularity::Sentences, Granularity::Reviews] {
            let naive = CoverageGraph::for_groups_naive(&h, &pairs, &groups, eps, gran);
            prop_assert_eq!(
                &CoverageGraph::for_groups(&h, &pairs, &groups, eps, gran),
                &naive
            );
        }
    }

    #[test]
    fn weighted_builders_agree_and_match_raw_costs(
        (h, pairs) in arb_hierarchy(12).prop_flat_map(|h| {
            let pairs = arb_pairs(&h, 20);
            (Just(h), pairs)
        })
    ) {
        let eps = 0.5;
        let (unique, weights) = compress_pairs(&pairs);
        let naive = CoverageGraph::for_weighted_pairs_naive(&h, &unique, &weights, eps);
        prop_assert_eq!(
            &CoverageGraph::for_weighted_pairs(&h, &unique, &weights, eps),
            &naive
        );

        // Raw-vs-weighted cost agreement: any selection of distinct pairs
        // costs the same as selecting all their duplicates in the raw
        // instance — incl. pairs whose sentiment was sanitized from -0.0
        // or NaN by `Pair::new` (equal bits → one compressed pair).
        let raw = CoverageGraph::for_pairs(&h, &pairs, eps);
        let to_raw: Vec<Vec<usize>> = unique
            .iter()
            .map(|u| {
                (0..pairs.len())
                    .filter(|&i| {
                        pairs[i].concept == u.concept
                            && pairs[i].sentiment.to_bits() == u.sentiment.to_bits()
                    })
                    .collect()
            })
            .collect();
        for sel_w in [vec![], vec![0], (0..unique.len()).collect::<Vec<_>>()] {
            let sel_raw: Vec<usize> =
                sel_w.iter().flat_map(|&u| to_raw[u].iter().copied()).collect();
            prop_assert_eq!(naive.cost_of(&sel_w), raw.cost_of(&sel_raw));
        }
    }
}

#[test]
fn sparse_plans_on_a_50k_node_dag_match_naive_under_both_ancestor_impls() {
    let h = synthetic_ontology(
        &SyntheticOntologyConfig {
            nodes: 50_000,
            ..SyntheticOntologyConfig::huge()
        },
        7,
    );
    let mut rng = StdRng::seed_from_u64(11);
    let (pairs, sentence_groups, _) = sample_grouped_pairs(&h, 400, 4, 5, &mut rng);
    let distinct = pairs
        .iter()
        .map(|p| p.concept)
        .collect::<BTreeSet<_>>()
        .len();
    let eps = 0.5;
    // The append path folds in the second half of the sentences.
    let keep = sentence_groups.len() / 2;
    let cut = sentence_groups[keep][0];
    let mut scratch = GraphBuildScratch::new();
    for (groups, prefix_groups, prefix_len, gran) in [
        (None, None, pairs.len() / 2, Granularity::Pairs),
        (
            Some(&sentence_groups[..]),
            Some(&sentence_groups[..keep]),
            cut,
            Granularity::Sentences,
        ),
    ] {
        let naive = match groups {
            None => CoverageGraph::for_pairs_naive(&h, &pairs, eps),
            Some(gs) => CoverageGraph::for_groups_naive(&h, &pairs, gs, eps, gran),
        };
        for imp in [AncestorImpl::Dense, AncestorImpl::Segmented] {
            let plan = GraphBuildPlan::new_with(&h, &pairs, groups, eps, imp);
            assert_eq!(plan.bucket_count(), distinct, "{imp:?} {gran:?}");
            let shard = plan.shard(&h, &pairs, 0..pairs.len(), &mut scratch);
            let fresh = CoverageGraph::assemble(&plan, gran, None, &[shard]);
            assert_eq!(fresh, naive, "plan -> shard, {imp:?} {gran:?}");

            let prefix = &pairs[..prefix_len];
            let plan0 = GraphBuildPlan::new_with(&h, prefix, prefix_groups, eps, imp);
            let shard0 = plan0.shard(&h, prefix, 0..prefix.len(), &mut scratch);
            let (plan1, delta) = plan0.append(&h, &pairs, groups);
            assert_eq!(plan1.bucket_count(), distinct, "{imp:?} {gran:?}");
            let (shard1, _) = plan1.shard_append(&h, &pairs, &shard0, &delta, &mut scratch);
            let appended = CoverageGraph::assemble(&plan1, gran, None, &[shard1]);
            assert_eq!(appended, naive, "append -> shard_append, {imp:?} {gran:?}");
        }
    }
}
