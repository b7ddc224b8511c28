//! One `GraphBuildScratch` shared by every build of a seeded sequence:
//! the target grouping (which row each repeated target copies) and the
//! candidate bitmap it keeps between calls must never leak one build's
//! rows into another. Plans differ in item, ε
//! and candidate count (63/64/65 straddle a bitmap word), targets repeat
//! and include a literal `-0.0` next to `0.0`, and appends grow ordinary
//! buckets and the root bucket. Every graph must equal the naive
//! builder's, every `shard_append` a fresh `shard`, and `recomputed`
//! must be exactly the old pairs whose ancestor rows meet a grown
//! bucket.

use std::collections::BTreeSet;

use osa_core::{CoverageGraph, Granularity, GraphBuildPlan, GraphBuildScratch, GraphShard, Pair};
use osa_ontology::{AncestorImpl, Hierarchy, HierarchyBuilder, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A rooted DAG of `n` nodes: node `i > 0` gets a parent among `0..i`
/// and, half the time, a second one.
fn dag(n: usize, rng: &mut StdRng) -> Hierarchy {
    let mut b = HierarchyBuilder::new();
    for i in 0..n {
        b.add_node(&format!("n{i}"));
    }
    for i in 1..n {
        let child = NodeId::from_index(i);
        let p1 = rng.gen_range(0..i);
        b.add_edge(NodeId::from_index(p1), child).unwrap();
        let p2 = rng.gen_range(0..i);
        if p2 != p1 && rng.gen_bool(0.5) {
            b.add_edge(NodeId::from_index(p2), child).unwrap();
        }
    }
    b.build().unwrap()
}

/// `n` pairs on non-root concepts with sentiments on a coarse grid, so
/// `(concept, sentiment)` targets repeat; every fifth pair is a literal
/// `-0.0` (which `Pair::new` would turn into `0.0`).
fn pairs(h: &Hierarchy, n: usize, rng: &mut StdRng) -> Vec<Pair> {
    let concepts = (h.node_count() / 3).max(2);
    (0..n)
        .map(|i| {
            let concept = NodeId::from_index(rng.gen_range(1..concepts));
            if i % 5 == 4 {
                Pair {
                    concept,
                    sentiment: -0.0,
                }
            } else {
                Pair::new(concept, f64::from(rng.gen_range(-4i32..=4)) / 4.0)
            }
        })
        .collect()
}

/// Consecutive runs of 1–3 pairs over `0..n_pairs`: the sentence groups.
fn runs(n_pairs: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < n_pairs {
        let take = rng.gen_range(1..=3).min(n_pairs - at);
        out.push((at..at + take).collect());
        at += take;
    }
    out
}

fn assemble(plan: &GraphBuildPlan, gran: Granularity, shard: &GraphShard) -> CoverageGraph {
    CoverageGraph::assemble(plan, gran, None, std::slice::from_ref(shard))
}

fn naive(h: &Hierarchy, pairs: &[Pair], groups: Option<&[Vec<usize>]>, eps: f64) -> CoverageGraph {
    match groups {
        None => CoverageGraph::for_pairs_naive(h, pairs, eps),
        Some(gs) => CoverageGraph::for_groups_naive(h, pairs, gs, eps, Granularity::Sentences),
    }
}

/// The old pairs whose ancestor row holds a concept that gained a
/// member: the members of the candidates from `prev_cands` on.
fn expected_recomputed(
    h: &Hierarchy,
    pairs: &[Pair],
    groups: Option<&[Vec<usize>]>,
    prev_pairs: usize,
    prev_cands: usize,
) -> Vec<u32> {
    let grown: BTreeSet<NodeId> = match groups {
        None => pairs[prev_cands..].iter().map(|p| p.concept).collect(),
        Some(gs) => gs[prev_cands..]
            .iter()
            .flatten()
            .map(|&pi| pairs[pi].concept)
            .collect(),
    };
    (0..prev_pairs)
        .filter(|&q| {
            h.ancestors_with_dist(pairs[q].concept)
                .into_iter()
                .any(|(a, _)| grown.contains(&a))
        })
        .map(|q| q as u32)
        .collect()
}

/// Build `pairs[..cut]` (and `groups[..keep]`), append the rest, and
/// check plan, shard and append against the oracles — all through the
/// one `scratch`.
#[allow(clippy::too_many_arguments)]
fn check_append(
    h: &Hierarchy,
    pairs: &[Pair],
    groups: Option<&[Vec<usize>]>,
    keep: usize,
    eps: f64,
    ancestor: AncestorImpl,
    scratch: &mut GraphBuildScratch,
    label: &str,
) {
    let gran = groups.map_or(Granularity::Pairs, |_| Granularity::Sentences);
    let cut = match groups {
        None => keep,
        Some(gs) => gs.get(keep).map_or(pairs.len(), |g| g[0]),
    };
    let (old_pairs, old_groups) = (&pairs[..cut], groups.map(|gs| &gs[..keep]));
    let plan0 = GraphBuildPlan::new_with(h, old_pairs, old_groups, eps, ancestor);
    let shard0 = plan0.shard(h, old_pairs, 0..cut, scratch);
    assert_eq!(
        assemble(&plan0, gran, &shard0),
        naive(h, old_pairs, old_groups, eps),
        "{label}: prefix"
    );

    let (plan1, delta) = plan0.append(h, pairs, groups);
    let (appended, recomputed) = plan1.shard_append(h, pairs, &shard0, &delta, scratch);
    let fresh = plan1.shard(h, pairs, 0..pairs.len(), scratch);
    for q in 0..pairs.len() {
        assert_eq!(appended.row(q), fresh.row(q), "{label}: row {q}");
    }
    assert_eq!(
        assemble(&plan1, gran, &appended),
        naive(h, pairs, groups, eps),
        "{label}: appended"
    );
    assert_eq!(
        recomputed,
        expected_recomputed(h, pairs, groups, cut, keep),
        "{label}: recomputed"
    );
}

#[test]
fn shared_scratch_builds_match_the_oracles() {
    let mut rng = StdRng::seed_from_u64(27);
    let hierarchies = [dag(40, &mut rng), dag(300, &mut rng)];
    let mut scratch = GraphBuildScratch::new();
    let mut root_grown = 0;
    for round in 0..6 {
        for (hi, h) in hierarchies.iter().enumerate() {
            for n in [1, 7, 63, 64, 65, 130] {
                let eps = [0.0, 0.25, 0.5, 2.0][(round + n) % 4];
                let ancestor = [AncestorImpl::Dense, AncestorImpl::Segmented][round % 2];
                let mut ps = pairs(h, n, &mut rng);
                // A root-concept pair late in the list makes the append
                // below grow the root bucket.
                if round % 3 == 2 && n > 1 {
                    ps[n - 1] = Pair::new(h.root(), 0.5);
                    root_grown += 1;
                }
                let label = format!("round {round} h{hi} n={n} eps={eps} {ancestor:?}");

                // k-Pairs: n candidates.
                let plan = GraphBuildPlan::new_with(h, &ps, None, eps, ancestor);
                let shard = plan.shard(h, &ps, 0..n, &mut scratch);
                assert_eq!(
                    assemble(&plan, Granularity::Pairs, &shard),
                    naive(h, &ps, None, eps),
                    "{label}: pairs"
                );
                check_append(h, &ps, None, n / 2, eps, ancestor, &mut scratch, &label);

                // k-Sentences: n groups over 2n pairs.
                let mut gp = ps.clone();
                gp.extend(pairs(h, n, &mut rng));
                let mut gs = runs(gp.len(), &mut rng);
                gs.truncate(n);
                let gp = &gp[..gs.last().map_or(0, |g| g[g.len() - 1] + 1)];
                let plan = GraphBuildPlan::new_with(h, gp, Some(&gs), eps, ancestor);
                let shard = plan.shard(h, gp, 0..gp.len(), &mut scratch);
                assert_eq!(
                    assemble(&plan, Granularity::Sentences, &shard),
                    naive(h, gp, Some(&gs), eps),
                    "{label}: groups"
                );
                let keep = gs.len() / 2;
                check_append(h, gp, Some(&gs), keep, eps, ancestor, &mut scratch, &label);
            }
        }
    }
    assert!(root_grown > 0);
}

#[test]
fn signed_zero_targets_keep_their_own_rows() {
    // r -> a -> c; candidates on `a` at -0.0 and 0.0, targets on `c` at
    // both zeros, repeated: with ε = 0 each zero covers the other (IEEE
    // `|-0 - 0| = 0`), and every repeat must copy its own key's row.
    let mut b = HierarchyBuilder::new();
    let r = b.add_node("r");
    let a = b.add_node("a");
    let c = b.add_node("c");
    b.add_edge(r, a).unwrap();
    b.add_edge(a, c).unwrap();
    let h = b.build().unwrap();
    let neg = |concept| Pair {
        concept,
        sentiment: -0.0,
    };
    let ps = vec![
        neg(a),
        Pair::new(a, 0.0),
        neg(c),
        Pair::new(c, 0.0),
        neg(c),
        Pair::new(c, 0.0),
        Pair::new(c, 0.25),
        neg(c),
    ];
    let mut scratch = GraphBuildScratch::new();
    for eps in [0.0, 0.25] {
        let g =
            CoverageGraph::for_pairs_with(&h, &ps, eps, osa_core::GraphImpl::Indexed, &mut scratch);
        assert_eq!(g, CoverageGraph::for_pairs_naive(&h, &ps, eps), "eps={eps}");
    }
}
