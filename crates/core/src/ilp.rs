//! The Section 4.2 integer linear program (and its LP relaxation).

use osa_solver::{Cmp, IlpOptions, Model, Solution, SolverError, Status, VarId};

use crate::{CoverageGraph, Summarizer, Summary};

/// Sizing information about a built LP/ILP (reported by benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LpRelaxationStats {
    /// Number of decision variables.
    pub variables: usize,
    /// Number of linear constraints.
    pub constraints: usize,
}

/// The exact summarizer: the paper's k-medians-style ILP
///
/// ```text
/// minimize    Σ_{(p,q)∈E} y_pq · d(p,q)
/// subject to  x_r = 1
///             Σ_{p≠r} x_p = k
///             Σ_{p:(p,q)∈E} y_pq = 1        ∀ q ∈ W
///             0 ≤ y_pq ≤ x_p,  x_p ∈ {0,1}
/// ```
///
/// solved by `osa-solver`'s branch & bound. The virtual root is not a
/// variable: `x_r = 1` is folded in by giving every pair an always-
/// available assignment edge to the root (weight = concept depth).
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpSummarizer;

/// Build the (M)ILP for `graph` and `k`. `integral` selects binary vs
/// relaxed `x` variables. Returns the model, the `x` variable per
/// candidate, and sizing stats.
pub(crate) fn build_model(
    graph: &CoverageGraph,
    k: usize,
    integral: bool,
) -> (Model, Vec<VarId>, LpRelaxationStats) {
    let n = graph.num_candidates();
    let mut m = Model::minimize();

    // x_p per candidate.
    let xs: Vec<VarId> = (0..n)
        .map(|_| {
            if integral {
                m.add_bin_var(0.0)
            } else {
                m.add_var(0.0, 1.0, 0.0)
            }
        })
        .collect();

    // Σ x_p = k (k is pre-clamped by the callers to ≤ n).
    let cardinality: Vec<(VarId, f64)> = xs.iter().map(|&x| (x, 1.0)).collect();
    m.add_constraint(&cardinality, Cmp::Eq, k as f64);

    // Assignment variables: y_root,q plus y_pq per coverage edge. Their
    // upper bounds are implied (y ≤ x ≤ 1, and Σ y = 1 with y ≥ 0), so
    // they are declared unbounded above — this halves the simplex row
    // count versus explicit y ≤ 1 rows.
    for q in 0..graph.num_pairs() {
        let w = graph.pair_weight(q) as f64;
        let y_root = m.add_var(0.0, f64::INFINITY, w * f64::from(graph.root_dist(q)));
        let mut assign: Vec<(VarId, f64)> = vec![(y_root, 1.0)];
        for &(u, d) in graph.coverers_of(q) {
            let y = m.add_var(0.0, f64::INFINITY, w * f64::from(d));
            assign.push((y, 1.0));
            // y_pq ≤ x_p
            m.add_constraint(&[(y, 1.0), (xs[u as usize], -1.0)], Cmp::Le, 0.0);
        }
        m.add_constraint(&assign, Cmp::Eq, 1.0);
    }

    let stats = LpRelaxationStats {
        variables: m.num_vars(),
        constraints: m.num_constraints(),
    };
    (m, xs, stats)
}

/// The summary a branch & bound result `sol` stands for, over the model
/// [`build_model`] made for `graph` and `k` (with `x` variables `xs`)
/// and seeded with the greedy warm start `warm`: the solver's selection
/// when it is proven optimal, or when the search stopped at its node
/// limit holding an incumbent strictly cheaper than `warm`. Otherwise the
/// search found nothing strictly better than greedy, whose solution is
/// then optimal (or the best known at the node limit).
fn summary_of(
    graph: &CoverageGraph,
    k: usize,
    xs: &[VarId],
    sol: &Solution,
    warm: Summary,
) -> Summary {
    let improved = match sol.status {
        Status::Optimal => true,
        Status::NodeLimit => sol.objective.is_finite() && sol.objective < warm.cost as f64,
        Status::Infeasible | Status::Unbounded => false,
    };
    if !improved {
        return warm;
    }
    let mut selected: Vec<usize> = xs
        .iter()
        .enumerate()
        .filter(|(_, &x)| sol.value(x) > 0.5)
        .map(|(u, _)| u)
        .collect();
    selected.truncate(k);
    let cost = graph.cost_of(&selected);
    debug_assert_eq!(cost as f64, sol.objective.round(), "ILP objective mismatch");
    Summary { selected, cost }
}

/// Diagnostic hook for benches: expose the built model (hidden from docs).
#[doc(hidden)]
pub fn __diag_build_model(
    graph: &CoverageGraph,
    k: usize,
    integral: bool,
) -> (Model, Vec<VarId>, LpRelaxationStats) {
    build_model(graph, k, integral)
}

impl IlpSummarizer {
    /// Report the size of the model this graph/k induces.
    pub fn model_stats(graph: &CoverageGraph, k: usize) -> LpRelaxationStats {
        build_model(graph, k.min(graph.num_candidates()), true).2
    }
}

impl Summarizer for IlpSummarizer {
    fn summarize(&self, graph: &CoverageGraph, k: usize) -> Summary {
        self.summarize_traced(graph, k, None)
    }

    fn summarize_traced(
        &self,
        graph: &CoverageGraph,
        k: usize,
        trace: Option<&osa_obs::Trace>,
    ) -> Summary {
        // `summarize` has no error channel: panic with the typed message,
        // which the batch runtime records as an item failure and serve
        // answers with a 500.
        self.try_summarize_traced(graph, k, trace)
            .unwrap_or_else(|e| panic!("coverage ILP: {e}"))
    }

    fn try_summarize_traced(
        &self,
        graph: &CoverageGraph,
        k: usize,
        trace: Option<&osa_obs::Trace>,
    ) -> Result<Summary, SolverError> {
        let k = k.min(graph.num_candidates());
        if k == 0 || graph.num_candidates() == 0 {
            return Ok(Summary {
                selected: Vec::new(),
                cost: graph.root_cost(),
            });
        }
        // Seed branch & bound with the greedy solution as an incumbent
        // bound — the same primal-heuristic warm start a commercial
        // solver performs internally. If the search cannot strictly beat
        // greedy, greedy was already optimal.
        let warm = crate::GreedySummarizer.summarize_traced(graph, k, trace);
        let (model, xs, _) = build_model(graph, k, true);
        let opts = IlpOptions {
            upper_bound: Some(warm.cost as f64),
            ..IlpOptions::default()
        };
        let _span = osa_obs::global().span("ilp.branch_bound");
        let _tspan = trace.map(|t| t.span("ilp.branch_bound"));
        // The coverage ILP is bounded and well-formed, so the one error
        // left is a model too large for the dense tableau.
        let sol = model.solve_ilp_traced(&opts, trace)?;
        Ok(summary_of(graph, k, &xs, &sol, warm))
    }

    fn name(&self) -> &'static str {
        "ilp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExactBruteForce, GreedySummarizer, Pair};
    use osa_ontology::{Hierarchy, HierarchyBuilder};

    fn two_level() -> (Hierarchy, Vec<Pair>) {
        // r -> a -> {a1, a2}; r -> b -> {b1}
        let mut bl = HierarchyBuilder::new();
        bl.add_edge_by_name("r", "a").unwrap();
        bl.add_edge_by_name("r", "b").unwrap();
        bl.add_edge_by_name("a", "a1").unwrap();
        bl.add_edge_by_name("a", "a2").unwrap();
        bl.add_edge_by_name("b", "b1").unwrap();
        let h = bl.build().unwrap();
        let p = |n: &str, s: f64| Pair::new(h.node_by_name(n).unwrap(), s);
        let pairs = vec![
            p("a", 0.5),
            p("a1", 0.4),
            p("a2", 0.6),
            p("b", -0.5),
            p("b1", -0.4),
        ];
        (h, pairs)
    }

    #[test]
    fn ilp_matches_brute_force() {
        let (h, pairs) = two_level();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        for k in 0..=4 {
            let ilp = IlpSummarizer.summarize(&g, k);
            let exact = ExactBruteForce.summarize(&g, k);
            assert_eq!(ilp.cost, exact.cost, "k={k}");
        }
    }

    #[test]
    fn ilp_is_never_worse_than_greedy() {
        let (h, pairs) = two_level();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        for k in 1..=4 {
            let ilp = IlpSummarizer.summarize(&g, k);
            let greedy = GreedySummarizer.summarize(&g, k);
            assert!(ilp.cost <= greedy.cost, "k={k}");
        }
    }

    #[test]
    fn branch_and_bound_statuses_map_to_summaries() {
        let (h, pairs) = two_level();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let k = 2;
        let (model, xs, _) = build_model(&g, k, true);
        // The cheapest and the dearest selections of k candidates.
        let mut picks: Vec<(u64, Vec<usize>)> = (0..g.num_candidates())
            .flat_map(|u| (u + 1..g.num_candidates()).map(move |v| vec![u, v]))
            .map(|sel| (g.cost_of(&sel), sel))
            .collect();
        picks.sort();
        let (best, dearest) = (picks[0].clone(), picks[picks.len() - 1].clone());
        assert!(best.0 < dearest.0);
        let warm = Summary {
            selected: dearest.1.clone(),
            cost: dearest.0,
        };
        let solution = |status, objective: f64, sel: &[usize]| {
            let mut values = vec![0.0; model.num_vars()];
            for &u in sel {
                values[xs[u].index()] = 1.0;
            }
            Solution {
                status,
                objective,
                values,
            }
        };
        let map = |sol: &Solution| summary_of(&g, k, &xs, sol, warm.clone());

        let proven = map(&solution(Status::Optimal, best.0 as f64, &best.1));
        assert_eq!((proven.selected, proven.cost), (best.1.clone(), best.0));
        // The node limit's incumbent beats greedy: it is kept.
        let incumbent = map(&solution(Status::NodeLimit, best.0 as f64, &best.1));
        assert_eq!(
            (incumbent.selected, incumbent.cost),
            (best.1.clone(), best.0)
        );
        // No incumbent, or none cheaper than greedy: greedy stands.
        for sol in [
            solution(Status::NodeLimit, f64::INFINITY, &[]),
            solution(Status::NodeLimit, dearest.0 as f64, &dearest.1),
            solution(Status::Infeasible, f64::INFINITY, &[]),
        ] {
            let s = map(&sol);
            assert_eq!((s.selected, s.cost), (warm.selected.clone(), warm.cost));
        }
    }

    #[test]
    fn k_zero_returns_root_cost() {
        let (h, pairs) = two_level();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let s = IlpSummarizer.summarize(&g, 0);
        assert!(s.selected.is_empty());
        assert_eq!(s.cost, g.root_cost());
    }

    #[test]
    fn model_stats_count_variables_and_constraints() {
        let (h, pairs) = two_level();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let st = IlpSummarizer::model_stats(&g, 2);
        // vars: n x's + |P| root-y's + |E| y's.
        assert_eq!(
            st.variables,
            g.num_candidates() + g.num_pairs() + g.num_edges()
        );
        // constraints: 1 cardinality + |P| assignments + |E| links.
        assert_eq!(st.constraints, 1 + g.num_pairs() + g.num_edges());
    }
}
