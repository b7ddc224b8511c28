//! Cross-algorithm agreement on random instances: the ILP matches brute
//! force exactly, greedy and randomized rounding respect their bounds,
//! and everything is sandwiched between the optimum and the root-only
//! cost.

use osars::core::{
    CoverageGraph, ExactBruteForce, GreedySummarizer, IlpSummarizer, LazyGreedySummarizer, Pair,
    RandomizedRounding, Summarizer,
};
use osars::ontology::{Hierarchy, HierarchyBuilder, NodeId};
use proptest::prelude::*;

fn arb_instance() -> impl Strategy<Value = (Hierarchy, Vec<Pair>)> {
    (3usize..=9)
        .prop_flat_map(|n| {
            let parents: Vec<_> = (1..n).map(|i| 0..i).collect();
            let pairs = proptest::collection::vec((0..n, -4i8..=4), 2..=9);
            (Just(n), parents, pairs)
        })
        .prop_map(|(n, parents, raw)| {
            let mut b = HierarchyBuilder::new();
            for i in 0..n {
                b.add_node(&format!("n{i}"));
            }
            for (i, p) in parents.into_iter().enumerate() {
                b.add_edge(NodeId::from_index(p), NodeId::from_index(i + 1))
                    .unwrap();
            }
            let h = b.build().expect("valid tree");
            let pairs = raw
                .into_iter()
                .map(|(c, s)| Pair::new(NodeId::from_index(c), f64::from(s) / 4.0))
                .collect();
            (h, pairs)
        })
        .no_shrink()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ilp_matches_brute_force((h, pairs) in arb_instance(), k in 1usize..=4) {
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let ilp = IlpSummarizer.summarize(&g, k);
        let exact = ExactBruteForce.summarize(&g, k);
        prop_assert_eq!(ilp.cost, exact.cost);
    }

    #[test]
    fn greedy_is_sandwiched((h, pairs) in arb_instance(), k in 1usize..=4) {
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let opt = ExactBruteForce.summarize(&g, k).cost;
        let greedy = GreedySummarizer.summarize(&g, k);
        prop_assert!(greedy.cost >= opt);
        prop_assert!(greedy.cost <= g.root_cost());
        // Reported cost is the real cost of the reported selection.
        prop_assert_eq!(greedy.cost, g.cost_of(&greedy.selected));
    }

    #[test]
    fn both_greedy_variants_make_argmax_choices((h, pairs) in arb_instance(), k in 0usize..=5) {
        // Greedy solutions are not unique under ties, so lazy and eager
        // may return different summaries — but every step of each must
        // pick a candidate of maximal marginal gain at that point.
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        for summary in [
            GreedySummarizer.summarize(&g, k),
            LazyGreedySummarizer.summarize(&g, k),
        ] {
            let mut selected: Vec<usize> = Vec::new();
            for &u in &summary.selected {
                let before = g.cost_of(&selected);
                let gain_of = |cand: usize, sel: &[usize]| {
                    let mut with = sel.to_vec();
                    with.push(cand);
                    before - g.cost_of(&with)
                };
                let chosen_gain = gain_of(u, &selected);
                for other in 0..g.num_candidates() {
                    if !selected.contains(&other) {
                        prop_assert!(
                            gain_of(other, &selected) <= chosen_gain,
                            "step violated argmax: picked {} (gain {}), {} is better",
                            u, chosen_gain, other
                        );
                    }
                }
                selected.push(u);
            }
            prop_assert_eq!(summary.cost, g.cost_of(&summary.selected));
        }
    }

    #[test]
    fn rounding_is_feasible_and_bounded((h, pairs) in arb_instance(), k in 1usize..=4) {
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let opt = ExactBruteForce.summarize(&g, k).cost;
        let rr = RandomizedRounding::with_seed(99).summarize(&g, k);
        prop_assert!(rr.cost >= opt);
        prop_assert!(rr.cost <= g.root_cost());
        prop_assert_eq!(rr.selected.len(), k.min(g.num_candidates()));
        let mut dedup = rr.selected.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), rr.selected.len(), "no duplicate selections");
    }

    #[test]
    fn optimal_cost_is_monotone_in_k((h, pairs) in arb_instance()) {
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let mut last = g.root_cost();
        for k in 1..=g.num_candidates().min(5) {
            let c = ExactBruteForce.summarize(&g, k).cost;
            prop_assert!(c <= last, "optimum must not increase with k");
            last = c;
        }
    }

    #[test]
    fn greedy_gain_sequence_is_diminishing((h, pairs) in arb_instance()) {
        // Submodularity: each greedy step's cost decrease never exceeds
        // the previous step's.
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let n = g.num_candidates().min(6);
        let full = GreedySummarizer.summarize(&g, n);
        let mut prev_cost = g.root_cost();
        let mut prev_gain = u64::MAX;
        for t in 1..=full.selected.len() {
            let cost = g.cost_of(&full.selected[..t]);
            let gain = prev_cost - cost;
            prop_assert!(gain <= prev_gain, "greedy gains must be non-increasing");
            prev_gain = gain;
            prev_cost = cost;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn weighted_compression_preserves_every_algorithm(
        (h, pairs) in arb_instance(),
        dup in proptest::collection::vec(0usize..8, 1..=6),
        k in 1usize..=3,
    ) {
        use osars::core::compress_pairs;
        // Duplicate some pairs to create real multiplicities.
        let mut fat = pairs.clone();
        for &d in &dup {
            fat.push(pairs[d % pairs.len()]);
        }
        let raw = CoverageGraph::for_pairs(&h, &fat, 0.5);
        let (unique, weights) = compress_pairs(&fat);
        let compressed = CoverageGraph::for_weighted_pairs(&h, &unique, &weights, 0.5);
        prop_assert!(compressed.num_pairs() <= raw.num_pairs());
        prop_assert_eq!(compressed.root_cost(), raw.root_cost());
        // Optimal costs coincide (candidate sets are equivalent up to
        // duplication, which never helps a summary).
        let raw_opt = ExactBruteForce.summarize(&raw, k).cost;
        let comp_opt = ExactBruteForce.summarize(&compressed, k).cost;
        prop_assert_eq!(raw_opt, comp_opt);
        // And the ILP on the weighted instance agrees too.
        let comp_ilp = IlpSummarizer.summarize(&compressed, k).cost;
        prop_assert_eq!(comp_ilp, comp_opt);
        // Greedy on the compressed instance reports its true cost.
        let g = GreedySummarizer.summarize(&compressed, k);
        prop_assert_eq!(g.cost, compressed.cost_of(&g.selected));
    }
}

/// Pinned regression: the shrunken instance from the checked-in
/// proptest seed (`tests/algorithm_agreement.proptest-regressions`).
/// A 3-node chain n0→n1→n2 with nine pairs and k = 4, where Greedy,
/// ILP, RR and ExactBruteForce were reported to disagree. Kept as a
/// named test so it can never silently shrink away or depend on RNG
/// replay (upstream `cc` seed hashes are not replayable).
///
/// Root-cause analysis (recorded in EXPERIMENTS.md): on this instance
/// the optimum at k = 4 is 0, and *eager* greedy legitimately lands at
/// cost 1 — every one of its steps is an exact argmax, but the step-2
/// tie between candidates {0, 7, 8} (gain 2 each) branches the run:
/// taking candidate 8 then 0 leaves pairs 3 and 4 to be closed by one
/// final pick, which no single candidate can do. Lazy greedy breaks the
/// same ties the other way and reaches 0. That 1-vs-0 gap is the
/// approximation guarantee working as designed, not a bookkeeping bug —
/// so this test pins the *real* invariants: ILP matches brute force,
/// both greedy variants report true costs, and every greedy step is an
/// argmax choice under the graph's true marginal gains.
#[test]
fn regression_chain_nine_pairs_k4() {
    let mut b = HierarchyBuilder::new();
    let n0 = b.add_node("n0");
    let n1 = b.add_node("n1");
    let n2 = b.add_node("n2");
    b.add_edge(n0, n1).unwrap();
    b.add_edge(n1, n2).unwrap();
    let h = b.build().unwrap();
    let pairs = vec![
        Pair::new(n2, -1.0),
        Pair::new(n1, 0.25),
        Pair::new(n0, -0.75),
        Pair::new(n1, 1.0),
        Pair::new(n2, 0.0),
        Pair::new(n1, 0.75),
        Pair::new(n0, 0.0),
        Pair::new(n2, 0.75),
        Pair::new(n2, 0.75),
    ];
    let k = 4;
    let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);

    let exact = ExactBruteForce.summarize(&g, k);
    let ilp = IlpSummarizer.summarize(&g, k);
    assert_eq!(ilp.cost, exact.cost, "ILP must match brute force");
    assert_eq!(
        ilp.cost,
        g.cost_of(&ilp.selected),
        "ILP reported cost must be real"
    );

    assert_eq!(exact.cost, 0, "optimum at k=4 fully covers this instance");

    for (name, summary) in [
        ("greedy", GreedySummarizer.summarize(&g, k)),
        ("lazy-greedy", LazyGreedySummarizer.summarize(&g, k)),
    ] {
        assert_eq!(
            summary.cost,
            g.cost_of(&summary.selected),
            "{name} reported cost must be real"
        );
        assert!(summary.cost >= exact.cost, "{name} below optimum");
        assert!(summary.cost <= g.root_cost(), "{name} above root cost");
        // The strongest bookkeeping check: each step must be an exact
        // argmax under true marginal gains. A stale-key bug in the
        // greedy heap would break this before anything else.
        let mut sel: Vec<usize> = Vec::new();
        for &u in &summary.selected {
            let before = g.cost_of(&sel);
            let gain_of = |cand: usize, s: &[usize]| {
                let mut with = s.to_vec();
                with.push(cand);
                before - g.cost_of(&with)
            };
            let chosen = gain_of(u, &sel);
            for other in 0..g.num_candidates() {
                if !sel.contains(&other) {
                    assert!(
                        gain_of(other, &sel) <= chosen,
                        "{name} step picked {u} (gain {chosen}) but {other} gains more"
                    );
                }
            }
            sel.push(u);
        }
    }

    let rr = RandomizedRounding::with_seed(99).summarize(&g, k);
    assert!(rr.cost >= exact.cost);
    assert!(rr.cost <= g.root_cost());
    assert_eq!(rr.selected.len(), k.min(g.num_candidates()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn greedy_respects_wolseys_bound((h, pairs) in arb_instance(), k in 1usize..=5) {
        // Theorem 4: greedy's size-k summary costs at most opt_{k'} where
        // k' = ⌈k / H(Δ·n)⌉ and H is the harmonic number.
        let g = CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let n = g.num_pairs() as f64;
        let delta = h.max_depth().max(1) as f64;
        let h_dn: f64 = (1..=(delta * n) as usize).map(|i| 1.0 / i as f64).sum();
        let k_prime = ((k as f64 / h_dn).ceil() as usize).max(1).min(g.num_candidates());
        let greedy = GreedySummarizer.summarize(&g, k).cost;
        let opt_kp = ExactBruteForce.summarize(&g, k_prime).cost;
        prop_assert!(
            greedy <= opt_kp,
            "greedy(k={}) = {} exceeds opt(k'={}) = {}",
            k, greedy, k_prime, opt_kp
        );
    }
}
