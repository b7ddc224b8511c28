//! Algorithm 1: LP relaxation + randomized rounding.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use osa_solver::SolverError;

use crate::ilp::build_model;
use crate::{CoverageGraph, Summarizer, Summary};

/// The paper's Algorithm 1 (after Young '02 / Chrobak et al. '06):
/// solve the LP relaxation of the Section 4.2 program, then sample `k`
/// candidates **without replacement** from the distribution
/// `q(p) = x_p / ‖x‖₁` over the fractional solution.
///
/// Theorem 3: the expected cost is `O(opt_{k'}(P))` for
/// `k' = O(k / log n)`; in practice (and in the paper's experiments) the
/// sampled summaries land within 1–2% of optimal.
///
/// `trials > 1` repeats the (cheap) sampling phase and keeps the best
/// draw — the LP is solved once either way.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedRounding {
    /// RNG seed, for reproducible experiments.
    pub seed: u64,
    /// Number of independent sampling rounds (best kept). The paper's
    /// algorithm corresponds to `trials = 1`.
    pub trials: usize,
}

impl Default for RandomizedRounding {
    fn default() -> Self {
        RandomizedRounding {
            seed: 42,
            trials: 1,
        }
    }
}

impl RandomizedRounding {
    /// Construct with an explicit seed and a single sampling trial.
    pub fn with_seed(seed: u64) -> Self {
        RandomizedRounding { seed, trials: 1 }
    }

    /// Sample `k` distinct indices from `weights` (∝ weight, without
    /// replacement). Zero-weight items are drawn (uniformly) only once
    /// the positive mass is exhausted.
    fn sample_without_replacement(rng: &mut StdRng, weights: &[f64], k: usize) -> Vec<usize> {
        let mut w: Vec<f64> = weights.to_vec();
        let mut taken = vec![false; w.len()];
        let mut total: f64 = w.iter().sum();
        let mut chosen = Vec::with_capacity(k);
        for _ in 0..k.min(w.len()) {
            let pick = if total <= 1e-12 {
                // Residual uniform draw over the not-yet-chosen items.
                let remaining: Vec<usize> = (0..w.len()).filter(|&i| !taken[i]).collect();
                if remaining.is_empty() {
                    None
                } else {
                    Some(remaining[rng.gen_range(0..remaining.len())])
                }
            } else {
                let mut t = rng.gen_range(0.0..total);
                let mut idx = None;
                for (i, &wi) in w.iter().enumerate() {
                    if taken[i] || wi <= 0.0 {
                        continue;
                    }
                    if t < wi {
                        idx = Some(i);
                        break;
                    }
                    t -= wi;
                }
                // Floating-point edge: fall back to the last positive.
                idx.or_else(|| (0..w.len()).rev().find(|&i| !taken[i] && w[i] > 0.0))
            };
            let Some(i) = pick else { break };
            chosen.push(i);
            taken[i] = true;
            total -= w[i];
            w[i] = 0.0;
        }
        chosen
    }
}

impl Summarizer for RandomizedRounding {
    fn summarize(&self, graph: &CoverageGraph, k: usize) -> Summary {
        self.summarize_traced(graph, k, None)
    }

    fn summarize_traced(
        &self,
        graph: &CoverageGraph,
        k: usize,
        trace: Option<&osa_obs::Trace>,
    ) -> Summary {
        // As in `IlpSummarizer`: a catchable panic with the typed message.
        self.try_summarize_traced(graph, k, trace)
            .unwrap_or_else(|e| panic!("coverage LP: {e}"))
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
        let (model, xs, _) = build_model(graph, k, false);
        // Auto picks the dual simplex here (non-negative distances), the
        // same method the paper selected in Gurobi for this LP class.
        // As in `IlpSummarizer`: a too-large model is the only error left.
        let sol = model.solve_lp_with(osa_solver::LpMethod::Auto)?;
        let weights: Vec<f64> = xs.iter().map(|&x| sol.value(x).max(0.0)).collect();
        let obs = osa_obs::global();
        obs.add("rr.lp_solves", 1);
        obs.add("rr.rounding_attempts", self.trials.max(1) as u64);
        if let Some(t) = trace {
            t.count("rr.lp_solves", 1);
            t.count("rr.rounding_attempts", self.trials.max(1) as u64);
        }

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut best: Option<Summary> = None;
        for _ in 0..self.trials.max(1) {
            let selected = Self::sample_without_replacement(&mut rng, &weights, k);
            let cost = graph.cost_of(&selected);
            if best.as_ref().is_none_or(|b| cost < b.cost) {
                best = Some(Summary { selected, cost });
            }
        }
        Ok(best.expect("at least one trial runs"))
    }

    fn name(&self) -> &'static str {
        "randomized-rounding"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedySummarizer, IlpSummarizer, Pair};
    use osa_ontology::HierarchyBuilder;

    fn instance() -> (osa_ontology::Hierarchy, Vec<Pair>) {
        let mut bl = HierarchyBuilder::new();
        bl.add_edge_by_name("r", "a").unwrap();
        bl.add_edge_by_name("r", "b").unwrap();
        bl.add_edge_by_name("r", "c").unwrap();
        bl.add_edge_by_name("a", "a1").unwrap();
        bl.add_edge_by_name("b", "b1").unwrap();
        let h = bl.build().unwrap();
        let p = |n: &str, s: f64| Pair::new(h.node_by_name(n).unwrap(), s);
        let pairs = vec![
            p("a", 0.3),
            p("a1", 0.2),
            p("b", -0.6),
            p("b1", -0.7),
            p("c", 0.9),
        ];
        (h, pairs)
    }

    #[test]
    fn returns_k_distinct_candidates() {
        let (h, pairs) = instance();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let s = RandomizedRounding::with_seed(7).summarize(&g, 3);
        assert_eq!(s.selected.len(), 3);
        let mut sorted = s.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "no duplicates");
        assert_eq!(s.cost, g.cost_of(&s.selected));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (h, pairs) = instance();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let a = RandomizedRounding::with_seed(11).summarize(&g, 2);
        let b = RandomizedRounding::with_seed(11).summarize(&g, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn cost_between_opt_and_root() {
        let (h, pairs) = instance();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let opt = IlpSummarizer.summarize(&g, 2).cost;
        let rr = RandomizedRounding::with_seed(3).summarize(&g, 2).cost;
        assert!(rr >= opt);
        assert!(rr <= g.root_cost());
    }

    #[test]
    fn multi_trial_never_hurts() {
        let (h, pairs) = instance();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let one = RandomizedRounding { seed: 5, trials: 1 }.summarize(&g, 2);
        let many = RandomizedRounding {
            seed: 5,
            trials: 16,
        }
        .summarize(&g, 2);
        assert!(many.cost <= one.cost);
    }

    #[test]
    fn expected_quality_is_near_greedy() {
        // Averaged over seeds, RR should be in the same ballpark as
        // greedy on this easy instance (sanity check of the distribution,
        // not of the worst case).
        let (h, pairs) = instance();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let greedy = GreedySummarizer.summarize(&g, 2).cost;
        let avg: f64 = (0..32)
            .map(|s| RandomizedRounding::with_seed(s).summarize(&g, 2).cost as f64)
            .sum::<f64>()
            / 32.0;
        assert!(avg <= greedy as f64 + 2.0, "avg={avg}, greedy={greedy}");
    }

    #[test]
    fn integral_mass_is_recovered_exactly() {
        // Regression: when the LP solution is integral (k unit weights),
        // sampling without replacement must return exactly that support —
        // an earlier version corrupted the running total with taken-item
        // markers and fell through to arbitrary zero-weight picks.
        let weights = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0];
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut got = RandomizedRounding::sample_without_replacement(&mut rng, &weights, 3);
            got.sort_unstable();
            assert_eq!(got, vec![1, 3, 4], "seed {seed}");
        }
    }

    #[test]
    fn exhausted_mass_falls_back_to_uniform_without_duplicates() {
        let weights = [0.0, 0.5, 0.0, 0.0];
        let mut rng = StdRng::seed_from_u64(7);
        let mut got = RandomizedRounding::sample_without_replacement(&mut rng, &weights, 4);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn k_zero_is_root_cost() {
        let (h, pairs) = instance();
        let g = crate::CoverageGraph::for_pairs(&h, &pairs, 0.5);
        let s = RandomizedRounding::default().summarize(&g, 0);
        assert_eq!(s.cost, g.root_cost());
    }
}
