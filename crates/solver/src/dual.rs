//! Dual simplex.
//!
//! The paper runs Gurobi with **dual simplex** — chosen after trials
//! against primal simplex and barrier — so this crate provides the same
//! method. The coverage LP has non-negative objective coefficients
//! (distances), which makes the all-slack basis *dual feasible* after
//! converting every row to `≤` form: the dual simplex then needs no
//! artificial variables and no phase 1 at all, which is exactly why it
//! wins on this problem class.
//!
//! Scope: requires finite lower bounds (like the primal) and a
//! non-negative shifted objective; [`solve`] reports
//! [`SolverError::DualUnsupported`] otherwise so the caller can fall
//! back to the two-phase primal.

use crate::model::{Cmp, Model, Solution, Status};
use crate::SolverError;

const TOL: f64 = 1e-9;
const MAX_ITERS: usize = 200_000;

/// Solve the LP relaxation of `model` with the dual simplex.
pub(crate) fn solve(model: &Model) -> Result<Solution, SolverError> {
    let nv = model.vars.len();
    if nv == 0 {
        return Ok(Solution {
            status: Status::Optimal,
            objective: 0.0,
            values: Vec::new(),
        });
    }

    // Standardize exactly like the primal: shift x' = x − lb, substitute
    // fixed variables out, finite ub → extra row.
    let mut obj_const = 0.0;
    for v in &model.vars {
        obj_const += v.obj * v.lb;
    }
    let fixed: Vec<bool> = model
        .vars
        .iter()
        .map(|v| v.ub.is_finite() && v.ub - v.lb <= TOL)
        .collect();
    // Dual feasibility of the slack basis needs shifted costs ≥ 0.
    if model
        .vars
        .iter()
        .enumerate()
        .any(|(j, v)| !fixed[j] && v.obj < -TOL)
    {
        return Err(SolverError::DualUnsupported);
    }

    // Rows, all converted to ≤ (Eq → a pair of ≤ rows).
    let mut rows: Vec<(Vec<(usize, f64)>, f64)> = Vec::new();
    for c in &model.cons {
        let mut rhs = c.rhs;
        for &(j, coef) in &c.terms {
            rhs -= coef * model.vars[j].lb;
        }
        let terms: Vec<(usize, f64)> = c
            .terms
            .iter()
            .copied()
            .filter(|&(j, _)| !fixed[j])
            .collect();
        let neg = |ts: &[(usize, f64)]| ts.iter().map(|&(j, c)| (j, -c)).collect::<Vec<_>>();
        match c.cmp {
            Cmp::Le => rows.push((terms, rhs)),
            Cmp::Ge => rows.push((neg(&terms), -rhs)),
            Cmp::Eq => {
                rows.push((terms.clone(), rhs));
                rows.push((neg(&terms), -rhs));
            }
        }
    }
    for (j, v) in model.vars.iter().enumerate() {
        if !fixed[j] && v.ub.is_finite() {
            rows.push((vec![(j, 1.0)], v.ub - v.lb));
        }
    }

    let m = rows.len();
    let n = nv + m; // one slack per row
    let w = n + 1;
    SolverError::check_tableau(m, w)?;
    let mut a = vec![0.0f64; m * w];
    let mut basis = vec![0usize; m];
    for (i, (terms, rhs)) in rows.iter().enumerate() {
        for &(j, coef) in terms {
            a[i * w + j] += coef;
        }
        a[i * w + nv + i] = 1.0;
        a[i * w + n] = *rhs;
        basis[i] = nv + i;
    }
    // Reduced-cost row (slack basis has zero basic costs): z_j = c_j ≥ 0.
    let mut z = vec![0.0f64; w];
    for (j, v) in model.vars.iter().enumerate() {
        if !fixed[j] {
            z[j] = v.obj;
        }
    }

    let allowed = |j: usize| j >= nv || !fixed[j];

    let mut pivots = 0u64;
    for _ in 0..MAX_ITERS {
        // Leaving row: most negative rhs.
        let mut pr: Option<usize> = None;
        let mut worst = -TOL;
        for r in 0..m {
            let b = a[r * w + n];
            if b < worst {
                worst = b;
                pr = Some(r);
            }
        }
        let Some(pr) = pr else {
            // Primal feasible and dual feasible → optimal.
            let mut values = vec![0.0; nv];
            for r in 0..m {
                if basis[r] < nv {
                    values[basis[r]] = a[r * w + n];
                }
            }
            for (j, v) in model.vars.iter().enumerate() {
                values[j] = (values[j] + v.lb).clamp(v.lb, v.ub);
            }
            let objective = obj_const
                + model
                    .vars
                    .iter()
                    .enumerate()
                    .map(|(j, v)| v.obj * (values[j] - v.lb))
                    .sum::<f64>();
            osa_obs::global().add("solver.dual_pivots", pivots);
            return Ok(Solution {
                status: Status::Optimal,
                objective,
                values,
            });
        };

        // Entering column: dual ratio test over negative row entries.
        let mut pc: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for j in 0..n {
            if !allowed(j) {
                continue;
            }
            let arj = a[pr * w + j];
            if arj < -TOL {
                let ratio = z[j] / (-arj);
                // First (smallest-index) column wins ties — Bland-style.
                if ratio < best_ratio - TOL {
                    best_ratio = ratio;
                    pc = Some(j);
                }
            }
        }
        let Some(pc) = pc else {
            // The row reads (non-negative coefficients) ≤ negative rhs:
            // primal infeasible.
            osa_obs::global().add("solver.dual_pivots", pivots);
            return Ok(Solution {
                status: Status::Infeasible,
                objective: f64::INFINITY,
                values: vec![0.0; nv],
            });
        };

        // Pivot (pr, pc).
        pivots += 1;
        let piv = a[pr * w + pc];
        let inv = 1.0 / piv;
        for c in 0..w {
            a[pr * w + c] *= inv;
        }
        let prow: Vec<f64> = a[pr * w..(pr + 1) * w].to_vec();
        for r in 0..m {
            if r == pr {
                continue;
            }
            let f = a[r * w + pc];
            if f == 0.0 {
                continue;
            }
            let row = &mut a[r * w..(r + 1) * w];
            for (x, &p) in row.iter_mut().zip(&prow) {
                *x -= f * p;
            }
            row[pc] = 0.0;
        }
        let f = z[pc];
        if f != 0.0 {
            for (x, &p) in z.iter_mut().zip(&prow) {
                *x -= f * p;
            }
            z[pc] = 0.0;
        }
        basis[pr] = pc;
    }
    Err(SolverError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, LpMethod, Model, Status};

    /// Build the toy coverage-style LP: min Σ d·y with assignment rows.
    fn coverage_like() -> Model {
        let mut m = Model::minimize();
        let x1 = m.add_var(0.0, 1.0, 0.0);
        let x2 = m.add_var(0.0, 1.0, 0.0);
        let y11 = m.add_var(0.0, f64::INFINITY, 1.0);
        let y21 = m.add_var(0.0, f64::INFINITY, 2.0);
        let yr1 = m.add_var(0.0, f64::INFINITY, 3.0);
        m.add_constraint(&[(x1, 1.0), (x2, 1.0)], Cmp::Eq, 1.0);
        m.add_constraint(&[(y11, 1.0), (y21, 1.0), (yr1, 1.0)], Cmp::Eq, 1.0);
        m.add_constraint(&[(y11, 1.0), (x1, -1.0)], Cmp::Le, 0.0);
        m.add_constraint(&[(y21, 1.0), (x2, -1.0)], Cmp::Le, 0.0);
        m
    }

    #[test]
    fn dual_matches_primal_on_coverage_lp() {
        let m = coverage_like();
        let p = m.solve_lp().unwrap();
        let d = m.solve_lp_with(LpMethod::Dual).unwrap();
        assert_eq!(p.status, Status::Optimal);
        assert_eq!(d.status, Status::Optimal);
        assert!((p.objective - d.objective).abs() < 1e-7);
        assert!((d.objective - 1.0).abs() < 1e-7, "x1=1, y11=1");
    }

    #[test]
    fn dual_detects_infeasible() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        let d = m.solve_lp_with(LpMethod::Dual).unwrap();
        assert_eq!(d.status, Status::Infeasible);
    }

    #[test]
    fn dual_rejects_negative_costs() {
        let mut m = Model::minimize();
        m.add_var(0.0, 1.0, -1.0);
        assert!(matches!(
            m.solve_lp_with(LpMethod::Dual),
            Err(crate::SolverError::DualUnsupported)
        ));
    }

    #[test]
    fn dual_handles_ge_and_bounds() {
        // min x + y s.t. x + y >= 3, x <= 2, y <= 2 → obj 3.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 2.0, 1.0);
        let y = m.add_var(0.0, 2.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        let d = m.solve_lp_with(LpMethod::Dual).unwrap();
        assert_eq!(d.status, Status::Optimal);
        assert!((d.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn dual_with_fixed_variables() {
        let mut m = Model::minimize();
        let x = m.add_var(2.0, 2.0, 1.0); // fixed
        let y = m.add_var(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        let d = m.solve_lp_with(LpMethod::Dual).unwrap();
        assert!((d.objective - 5.0).abs() < 1e-7);
        assert!((d.value(y) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn auto_prefers_dual_when_applicable() {
        let m = coverage_like();
        let a = m.solve_lp_with(LpMethod::Auto).unwrap();
        assert!((a.objective - 1.0).abs() < 1e-7);
        // And falls back to primal when costs are negative.
        let mut neg = Model::minimize();
        let x = neg.add_var(0.0, 1.0, -1.0);
        let _ = x;
        let s = neg.solve_lp_with(LpMethod::Auto).unwrap();
        assert!((s.objective + 1.0).abs() < 1e-9);
    }
}
