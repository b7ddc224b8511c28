//! Best-first branch & bound for mixed-integer models.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::model::{Model, Solution, Status};
use crate::SolverError;

/// Tuning knobs for the branch & bound search.
#[derive(Debug, Clone, Copy)]
pub struct IlpOptions {
    /// A variable counts as integral when within this distance of an
    /// integer.
    pub int_tolerance: f64,
    /// Stop after exploring this many nodes (status becomes
    /// [`Status::NodeLimit`]).
    pub max_nodes: usize,
    /// Prune nodes whose LP bound is within this of the incumbent.
    pub gap_tolerance: f64,
    /// A known objective value of some feasible solution (e.g. from a
    /// heuristic). Subtrees whose LP bound cannot beat it are pruned from
    /// the start. If the search finds nothing strictly better, the result
    /// is [`Status::Infeasible`]-with-bound semantics: the caller should
    /// fall back to the heuristic solution, which is then proven optimal.
    pub upper_bound: Option<f64>,
}

impl Default for IlpOptions {
    fn default() -> Self {
        IlpOptions {
            int_tolerance: 1e-6,
            max_nodes: 200_000,
            gap_tolerance: 1e-9,
            upper_bound: None,
        }
    }
}

/// A search node: bound-altering decisions layered over the base model.
#[derive(Debug, Clone)]
struct Node {
    /// LP bound of the parent (optimistic estimate for this node).
    bound: f64,
    /// `(var, new_lb, new_ub)` decisions along the path from the root.
    decisions: Vec<(usize, f64, f64)>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the smallest bound first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
    }
}

pub(crate) fn solve(
    model: &Model,
    opts: &IlpOptions,
    trace: Option<&osa_obs::Trace>,
) -> Result<Solution, SolverError> {
    if !model.has_integers() {
        return model.solve_lp();
    }

    let mut heap = BinaryHeap::new();
    heap.push(Node {
        bound: f64::NEG_INFINITY,
        decisions: Vec::new(),
    });

    let mut incumbent: Option<Solution> = None;
    let mut nodes = 0usize;
    let mut pruned = 0u64;
    let publish = |nodes: usize, pruned: u64| {
        let obs = osa_obs::global();
        obs.add("solver.bb_nodes", nodes as u64);
        obs.add("solver.bb_pruned", pruned);
        if let Some(t) = trace {
            t.count("solver.bb_nodes", nodes as u64);
            t.count("solver.bb_pruned", pruned);
        }
    };

    while let Some(node) = heap.pop() {
        if nodes >= opts.max_nodes {
            publish(nodes, pruned);
            return Ok(match incumbent {
                Some(mut s) => {
                    s.status = Status::NodeLimit;
                    s
                }
                None => Solution {
                    status: Status::NodeLimit,
                    objective: f64::INFINITY,
                    values: vec![0.0; model.num_vars()],
                },
            });
        }
        nodes += 1;

        let cutoff = |incumbent: &Option<Solution>| -> f64 {
            let inc = incumbent.as_ref().map_or(f64::INFINITY, |s| s.objective);
            inc.min(opts.upper_bound.unwrap_or(f64::INFINITY))
        };
        if node.bound >= cutoff(&incumbent) - opts.gap_tolerance {
            pruned += 1;
            continue; // pruned by bound
        }

        // Apply the node's bound decisions to a copy of the model, which
        // presolve then reduces in place.
        let mut sub = model.clone();
        let mut infeasible_bounds = false;
        for &(v, lb, ub) in &node.decisions {
            let var = &mut sub.vars[v];
            var.lb = var.lb.max(lb);
            var.ub = var.ub.min(ub);
            if var.lb > var.ub + 1e-12 {
                infeasible_bounds = true;
                break;
            }
        }
        if infeasible_bounds {
            pruned += 1;
            continue;
        }

        let relax = sub.into_solve_lp(crate::LpMethod::Auto)?;
        if relax.status == Status::Infeasible {
            pruned += 1;
            continue;
        }
        if relax.objective >= cutoff(&incumbent) - opts.gap_tolerance {
            pruned += 1;
            continue;
        }

        // Most fractional integer variable.
        let mut branch_var: Option<(usize, f64)> = None;
        let mut best_frac = opts.int_tolerance;
        for (j, var) in model.vars.iter().enumerate() {
            if !var.integer {
                continue;
            }
            let v = relax.values[j];
            let frac = (v - v.round()).abs();
            if frac > best_frac {
                best_frac = frac;
                branch_var = Some((j, v));
            }
        }

        match branch_var {
            None => {
                // Integral: snap and accept as incumbent.
                let mut vals = relax.values.clone();
                for (j, var) in model.vars.iter().enumerate() {
                    if var.integer {
                        vals[j] = vals[j].round();
                    }
                }
                let obj: f64 = model
                    .vars
                    .iter()
                    .enumerate()
                    .map(|(j, v)| v.obj * vals[j])
                    .sum();
                if incumbent
                    .as_ref()
                    .is_none_or(|inc| obj < inc.objective - opts.gap_tolerance)
                {
                    incumbent = Some(Solution {
                        status: Status::Optimal,
                        objective: obj,
                        values: vals,
                    });
                }
            }
            Some((j, v)) => {
                let floor = v.floor();
                let mut down = node.decisions.clone();
                down.push((j, f64::NEG_INFINITY, floor));
                let mut up = node.decisions;
                up.push((j, floor + 1.0, f64::INFINITY));
                heap.push(Node {
                    bound: relax.objective,
                    decisions: down,
                });
                heap.push(Node {
                    bound: relax.objective,
                    decisions: up,
                });
            }
        }
    }

    publish(nodes, pruned);
    Ok(incumbent.unwrap_or(Solution {
        status: Status::Infeasible,
        objective: f64::INFINITY,
        values: vec![0.0; model.num_vars()],
    }))
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, IlpOptions, Model, Status};

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c, weights 3,4,2, capacity 6 → {b,c} = 20.
        let mut m = Model::minimize();
        let a = m.add_bin_var(-10.0);
        let b = m.add_bin_var(-13.0);
        let c = m.add_bin_var(-7.0);
        m.add_constraint(&[(a, 3.0), (b, 4.0), (c, 2.0)], Cmp::Le, 6.0);
        let s = m.solve_ilp().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 20.0).abs() < 1e-6);
        assert!((s.value(a) - 0.0).abs() < 1e-6);
        assert!((s.value(b) - 1.0).abs() < 1e-6);
        assert!((s.value(c) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 3, integer → 1 (LP gives 1.5).
        let mut m = Model::minimize();
        let x = m.add_int_var(0.0, 10.0, -1.0);
        let y = m.add_int_var(0.0, 10.0, -1.0);
        m.add_constraint(&[(x, 2.0), (y, 2.0)], Cmp::Le, 3.0);
        let lp = m.solve_lp().unwrap();
        assert!((lp.objective + 1.5).abs() < 1e-7);
        let ip = m.solve_ilp().unwrap();
        assert!((ip.objective + 1.0).abs() < 1e-7);
    }

    #[test]
    fn set_cover_ilp() {
        // Universe {1..5}; S1={1,2,3}, S2={2,4}, S3={3,4}, S4={4,5}, S5={1,5}.
        // Minimum cover has size 2 (S1, S4).
        let sets: Vec<Vec<usize>> = vec![
            vec![1, 2, 3],
            vec![2, 4],
            vec![3, 4],
            vec![4, 5],
            vec![1, 5],
        ];
        let mut m = Model::minimize();
        let vars: Vec<_> = sets.iter().map(|_| m.add_bin_var(1.0)).collect();
        for u in 1..=5usize {
            let terms: Vec<_> = sets
                .iter()
                .enumerate()
                .filter(|(_, s)| s.contains(&u))
                .map(|(i, _)| (vars[i], 1.0))
                .collect();
            m.add_constraint(&terms, Cmp::Ge, 1.0);
        }
        let s = m.solve_ilp().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_ilp() {
        let mut m = Model::minimize();
        let x = m.add_bin_var(1.0);
        m.add_constraint(&[(x, 2.0)], Cmp::Eq, 1.0); // x = 0.5 impossible
        let s = m.solve_ilp().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn mixed_integer_model() {
        // min -x - 2y, x integer in [0,3], y continuous in [0, 2.5],
        // x + y <= 4 → x=3 (int), y=1 → wait: y ≤ 2.5 allows x=1.5.. but x
        // integer: best is x=3? obj(x=3,y=1) = -5; obj(x=1,y=2.5)=-6;
        // obj(x=2,y=2)=-6... x=1.5 forbidden; optimum -6.
        let mut m = Model::minimize();
        let x = m.add_int_var(0.0, 3.0, -1.0);
        let y = m.add_var(0.0, 2.5, -2.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        let s = m.solve_ilp().unwrap();
        assert!((s.objective + 6.0).abs() < 1e-6);
        let xv = s.value(x);
        assert!((xv - xv.round()).abs() < 1e-6);
    }

    #[test]
    fn node_limit_reports_status() {
        let mut m = Model::minimize();
        // A small packing problem that needs more than one node.
        let vars: Vec<_> = (0..6)
            .map(|i| m.add_bin_var(-(1.0 + i as f64 * 0.1)))
            .collect();
        let terms: Vec<_> = vars.iter().map(|&v| (v, 2.0)).collect();
        m.add_constraint(&terms, Cmp::Le, 5.0);
        let opts = IlpOptions {
            max_nodes: 1,
            ..Default::default()
        };
        let s = m.solve_ilp_with(&opts).unwrap();
        assert_eq!(s.status, Status::NodeLimit);
    }

    #[test]
    fn pure_lp_shortcut() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, -1.0);
        let _ = x;
        let s = m.solve_ilp().unwrap();
        assert!((s.objective + 1.0).abs() < 1e-9);
    }
}
