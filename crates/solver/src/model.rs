//! The LP/ILP model builder and solution types.

use crate::branch_bound::{self, IlpOptions};
use crate::SolverError;
use crate::{dual, simplex};

/// Which simplex variant to run for an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LpMethod {
    /// Dual simplex when the model qualifies (non-negative shifted
    /// costs), primal otherwise — mirrors how the paper configures
    /// Gurobi, which picked dual simplex for this problem class.
    #[default]
    Auto,
    /// Two-phase primal simplex.
    Primal,
    /// Dual simplex from the all-slack basis (errors with
    /// [`SolverError::DualUnsupported`] on negative shifted costs).
    Dual,
}

/// Identifier of a decision variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Dense index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `≤ rhs`
    Le,
    /// `= rhs`
    Eq,
    /// `≥ rhs`
    Ge,
}

#[derive(Debug, Clone)]
pub(crate) struct Var {
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
    pub integer: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Proven optimal (within tolerance).
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Branch & bound hit its node limit; the incumbent (if any) is
    /// returned but not proven optimal.
    NodeLimit,
}

/// Result of an LP or ILP solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Why the solver stopped.
    pub status: Status,
    /// Objective value at `values` (minimization). Meaningless unless the
    /// status is `Optimal` or `NodeLimit`-with-incumbent.
    pub objective: f64,
    /// One value per variable, in `VarId` order.
    pub values: Vec<f64>,
}

impl Solution {
    /// Read the value of a variable.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }
}

/// A linear (or mixed-integer linear) minimization model.
///
/// Build with [`add_var`](Model::add_var) /
/// [`add_int_var`](Model::add_int_var) /
/// [`add_constraint`](Model::add_constraint), then call
/// [`solve_lp`](Model::solve_lp) (integrality ignored) or
/// [`solve_ilp`](Model::solve_ilp).
#[derive(Debug, Clone, Default)]
pub struct Model {
    pub(crate) vars: Vec<Var>,
    pub(crate) cons: Vec<Constraint>,
}

impl Model {
    /// New empty minimization model.
    pub fn minimize() -> Self {
        Model::default()
    }

    /// Add a continuous variable with bounds `lb ≤ x ≤ ub` (use
    /// `f64::INFINITY` for an unbounded `ub`) and objective coefficient
    /// `obj`.
    ///
    /// # Panics
    /// If `lb` is not finite, `lb > ub`, or `obj` is not finite — the
    /// solver requires finite lower bounds (all OSARS models have them).
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        assert!(lb.is_finite(), "lower bound must be finite");
        assert!(obj.is_finite(), "objective coefficient must be finite");
        assert!(lb <= ub, "lb must not exceed ub");
        self.vars.push(Var {
            lb,
            ub,
            obj,
            integer: false,
        });
        VarId(self.vars.len() - 1)
    }

    /// Add an integer variable (same contract as [`add_var`](Model::add_var)).
    pub fn add_int_var(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        let id = self.add_var(lb, ub, obj);
        self.vars[id.0].integer = true;
        id
    }

    /// Add a binary (0/1 integer) variable.
    pub fn add_bin_var(&mut self, obj: f64) -> VarId {
        self.add_int_var(0.0, 1.0, obj)
    }

    /// Add a linear constraint `Σ coefᵢ·xᵢ  cmp  rhs`. Terms on the same
    /// variable are summed.
    ///
    /// # Panics
    /// If any referenced variable does not exist or a coefficient/rhs is
    /// not finite.
    pub fn add_constraint(&mut self, terms: &[(VarId, f64)], cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "rhs must be finite");
        let mut combined: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        let mut sorted: Vec<(usize, f64)> = terms
            .iter()
            .map(|&(v, c)| {
                assert!(v.0 < self.vars.len(), "unknown variable in constraint");
                assert!(c.is_finite(), "coefficient must be finite");
                (v.0, c)
            })
            .collect();
        sorted.sort_unstable_by_key(|&(v, _)| v);
        for (v, c) in sorted {
            match combined.last_mut() {
                Some(last) if last.0 == v => last.1 += c,
                _ => combined.push((v, c)),
            }
        }
        combined.retain(|&(_, c)| c != 0.0);
        self.cons.push(Constraint {
            terms: combined,
            cmp,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.cons.len()
    }

    /// Is any variable marked integer?
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.integer)
    }

    /// Solve the LP relaxation (integrality is ignored) with the two-phase
    /// primal simplex (after presolve).
    pub fn solve_lp(&self) -> Result<Solution, SolverError> {
        self.solve_lp_with(LpMethod::Primal)
    }

    /// Solve the LP relaxation with an explicit simplex method. A light
    /// presolve (empty-row elimination, singleton-row bound tightening)
    /// runs first and can prove infeasibility outright.
    pub fn solve_lp_with(&self, method: LpMethod) -> Result<Solution, SolverError> {
        self.clone().into_solve_lp(method)
    }

    /// [`solve_lp_with`](Model::solve_lp_with) on a model the caller no
    /// longer needs: presolve reduces it in place instead of copying it.
    pub(crate) fn into_solve_lp(self, method: LpMethod) -> Result<Solution, SolverError> {
        let nv = self.num_vars();
        let reduced = match crate::presolve::presolve(self) {
            crate::presolve::Presolved::Model(m) => m,
            crate::presolve::Presolved::Infeasible => {
                return Ok(Solution {
                    status: Status::Infeasible,
                    objective: f64::INFINITY,
                    values: vec![0.0; nv],
                })
            }
        };
        match method {
            LpMethod::Primal => simplex::solve(&reduced),
            LpMethod::Dual => dual::solve(&reduced),
            LpMethod::Auto => match dual::solve(&reduced) {
                // Not dual-applicable, the (rarely) cycling-prone dual
                // ran out of iterations, or its tableau (with equality
                // rows doubled) is over the cap: use the primal.
                Err(
                    SolverError::DualUnsupported
                    | SolverError::IterationLimit
                    | SolverError::ModelTooLarge { .. },
                ) => simplex::solve(&reduced),
                other => other,
            },
        }
    }

    /// Solve the mixed-integer model by branch & bound with default
    /// options.
    pub fn solve_ilp(&self) -> Result<Solution, SolverError> {
        self.solve_ilp_with(&IlpOptions::default())
    }

    /// Solve the mixed-integer model with explicit options.
    pub fn solve_ilp_with(&self, opts: &IlpOptions) -> Result<Solution, SolverError> {
        branch_bound::solve(self, opts, None)
    }

    /// Like [`Model::solve_ilp_with`], but also attaches the search's
    /// node/prune counters to `trace` (when one is provided). Passing
    /// `None` is exactly `solve_ilp_with`.
    pub fn solve_ilp_traced(
        &self,
        opts: &IlpOptions,
        trace: Option<&osa_obs::Trace>,
    ) -> Result<Solution, SolverError> {
        branch_bound::solve(self, opts, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_terms_are_combined_and_cleaned() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, 1.0);
        let y = m.add_var(0.0, 1.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 2.0), (x, 2.0), (y, -2.0)], Cmp::Le, 1.0);
        assert_eq!(m.cons[0].terms, vec![(0, 3.0)]);
    }

    #[test]
    #[should_panic(expected = "lower bound must be finite")]
    fn rejects_infinite_lb() {
        Model::minimize().add_var(f64::NEG_INFINITY, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn rejects_foreign_var() {
        let mut m = Model::minimize();
        m.add_constraint(&[(VarId(3), 1.0)], Cmp::Le, 1.0);
    }

    #[test]
    fn flags_integrality() {
        let mut m = Model::minimize();
        m.add_var(0.0, 1.0, 0.0);
        assert!(!m.has_integers());
        m.add_bin_var(0.0);
        assert!(m.has_integers());
    }
}
