//! Two-phase dense-tableau primal simplex.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible point; phase 2 minimizes the real objective. The pivot rule is
//! Dantzig's (most negative reduced cost) with an automatic switch to
//! Bland's rule when the objective stalls, which guarantees termination on
//! the heavily degenerate k-median LPs the summarizer produces.
//!
//! Pivots run through the row-indexed kernel shared with the dual
//! simplex ([`crate::tableau`]). The ratio test scans the rows in
//! ascending index order, which its tolerance-based tie-breaking
//! depends on.

use crate::model::{Cmp, Model, Solution, Status};
use crate::tableau::Tableau;
use crate::SolverError;

const TOL: f64 = 1e-9;
/// Switch to Bland's rule after this many non-improving pivots.
const STALL_LIMIT: usize = 64;
const MAX_ITERS: usize = 200_000;

/// The primal method's state around the shared [`Tableau`].
struct Primal {
    t: Tableau,
    /// Columns allowed to enter the basis (artificials get banned after
    /// phase 1).
    allowed: Vec<bool>,
    /// Rows still active (redundant rows are deactivated after phase 1).
    active: Vec<bool>,
}

impl Primal {
    /// Rebuild the reduced-cost row for objective `costs` (length `n`)
    /// given the current basis.
    fn set_objective(&mut self, costs: &[f64]) {
        let t = &mut self.t;
        t.z.copy_from_slice(costs);
        t.z0 = 0.0;
        for r in 0..t.m {
            if !self.active[r] {
                continue;
            }
            let cb = costs[t.basis[r]];
            if cb == 0.0 {
                continue;
            }
            t.price_out(r, cb);
        }
        // Basic columns must read exactly zero.
        for r in 0..t.m {
            if self.active[r] {
                t.z[t.basis[r]] = 0.0;
            }
        }
    }

    /// Run simplex iterations until optimality or unboundedness.
    fn optimize(&mut self) -> Result<(), SolverError> {
        let t = &mut self.t;
        let mut stall = 0usize;
        let mut last_obj = f64::INFINITY;
        for _ in 0..MAX_ITERS {
            let bland = stall >= STALL_LIMIT;
            // Entering column.
            let mut enter: Option<usize> = None;
            if bland {
                for j in 0..t.n {
                    if self.allowed[j] && t.z[j] < -TOL {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                let mut best = -TOL;
                for j in 0..t.n {
                    if self.allowed[j] && t.z[j] < best {
                        best = t.z[j];
                        enter = Some(j);
                    }
                }
            }
            let Some(pc) = enter else {
                return Ok(()); // optimal
            };
            // Ratio test (leaving row) in ascending row order; ties broken
            // by smallest basis column index (Bland-compatible).
            let mut pr: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..t.m {
                if !self.active[r] {
                    continue;
                }
                let arc = t.at(r, pc);
                if arc > TOL {
                    let ratio = t.rhs()[r] / arc;
                    let better = ratio < best_ratio - TOL
                        || (ratio < best_ratio + TOL
                            && pr.is_some_and(|p| t.basis[r] < t.basis[p]));
                    if better {
                        best_ratio = ratio;
                        pr = Some(r);
                    }
                }
            }
            let Some(pr) = pr else {
                return Err(SolverError::Unbounded);
            };
            // Inactive rows are all zero, so the kernel never updates them.
            t.gather_row(pr);
            t.pivot(pc);
            let obj = -t.z0;
            if obj < last_obj - TOL {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
        Err(SolverError::IterationLimit)
    }
}

/// Solve the LP relaxation of `model`.
pub(crate) fn solve(model: &Model) -> Result<Solution, SolverError> {
    let nv = model.vars.len();
    if nv == 0 {
        return Ok(Solution {
            status: Status::Optimal,
            objective: 0.0,
            values: Vec::new(),
        });
    }

    // --- Standardize -----------------------------------------------------
    // Shift every variable to x' = x - lb ≥ 0; finite upper bounds become
    // extra ≤ rows. Fixed variables (lb == ub) are substituted out
    // entirely: their value is folded into each row's RHS and their column
    // is banned from ever entering the basis.
    let mut obj_const = 0.0;
    for v in &model.vars {
        obj_const += v.obj * v.lb;
    }
    let fixed: Vec<bool> = model
        .vars
        .iter()
        .map(|v| v.ub.is_finite() && v.ub - v.lb <= TOL)
        .collect();

    struct Row {
        terms: Vec<(usize, f64)>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(model.cons.len() + nv);
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
        rows.push(Row {
            terms,
            cmp: c.cmp,
            rhs,
        });
    }
    for (j, v) in model.vars.iter().enumerate() {
        if !fixed[j] && v.ub.is_finite() {
            rows.push(Row {
                terms: vec![(j, 1.0)],
                cmp: Cmp::Le,
                rhs: v.ub - v.lb,
            });
        }
    }

    // Normalize RHS ≥ 0.
    for r in &mut rows {
        if r.rhs < 0.0 {
            r.rhs = -r.rhs;
            for t in &mut r.terms {
                t.1 = -t.1;
            }
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = rows.len();
    let n_slack = rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Le | Cmp::Ge))
        .count();
    let n_art = rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Ge | Cmp::Eq))
        .count();
    let n = nv + n_slack + n_art;

    let mut allowed = vec![true; n];
    for (j, &f) in fixed.iter().enumerate() {
        if f {
            allowed[j] = false;
        }
    }
    let mut p = Primal {
        t: Tableau::new(m, n)?,
        allowed,
        active: vec![true; m],
    };
    let t = &mut p.t;

    let mut next_slack = nv;
    let mut next_art = nv + n_slack;
    let mut art_cols: Vec<usize> = Vec::with_capacity(n_art);
    for (i, r) in rows.iter().enumerate() {
        for &(j, coef) in &r.terms {
            t.add(i, j, coef);
        }
        t.set_rhs(i, r.rhs);
        match r.cmp {
            Cmp::Le => {
                t.add(i, next_slack, 1.0);
                t.basis[i] = next_slack;
                next_slack += 1;
            }
            Cmp::Ge => {
                t.add(i, next_slack, -1.0);
                next_slack += 1;
                t.add(i, next_art, 1.0);
                t.basis[i] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
            Cmp::Eq => {
                t.add(i, next_art, 1.0);
                t.basis[i] = next_art;
                art_cols.push(next_art);
                next_art += 1;
            }
        }
    }

    // --- Phase 1 ----------------------------------------------------------
    if !art_cols.is_empty() {
        let mut phase1 = vec![0.0; n];
        for &j in &art_cols {
            phase1[j] = 1.0;
        }
        p.set_objective(&phase1);
        p.optimize()?;
        let infeas = -p.t.z0;
        if infeas > 1e-6 {
            osa_obs::global().add("solver.simplex_pivots", p.t.pivots);
            return Ok(Solution {
                status: Status::Infeasible,
                objective: f64::INFINITY,
                values: vec![0.0; nv],
            });
        }
        // Ban artificials and clear any still in the basis (at value 0).
        let is_art = |j: usize| j >= nv + n_slack;
        for &j in &art_cols {
            p.allowed[j] = false;
        }
        let t = &mut p.t;
        for r in 0..m {
            if !is_art(t.basis[r]) {
                continue;
            }
            // Try to pivot a structural/slack column in.
            match (0..nv + n_slack).find(|&j| p.allowed[j] && t.at(r, j).abs() > 1e-7) {
                Some(j) => {
                    t.gather_row(r);
                    t.pivot(j);
                }
                None => {
                    // Redundant row: deactivate it.
                    p.active[r] = false;
                    t.clear_row(r);
                }
            }
        }
    }

    // --- Phase 2 ----------------------------------------------------------
    let mut costs = vec![0.0; n];
    for (j, v) in model.vars.iter().enumerate() {
        costs[j] = v.obj;
    }
    p.set_objective(&costs);
    p.optimize()?;

    let t = &p.t;
    let mut values = vec![0.0; nv];
    for r in 0..m {
        if p.active[r] && t.basis[r] < nv {
            values[t.basis[r]] = t.rhs()[r];
        }
    }
    for (j, v) in model.vars.iter().enumerate() {
        values[j] += v.lb;
        // Clamp tiny numerical noise back into the box.
        values[j] = values[j].clamp(v.lb, v.ub);
    }
    let objective: f64 = obj_const
        + model
            .vars
            .iter()
            .enumerate()
            .map(|(j, v)| v.obj * (values[j] - v.lb))
            .sum::<f64>();
    osa_obs::global().add("solver.simplex_pivots", t.pivots);

    Ok(Solution {
        status: Status::Optimal,
        objective,
        values,
    })
}

#[cfg(test)]
mod tests {
    use crate::{Cmp, Model, Status};

    #[test]
    fn textbook_maximization_as_min() {
        // max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18  → (2,6), obj 36.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, f64::INFINITY, -3.0);
        let y = m.add_var(0.0, f64::INFINITY, -5.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = m.solve_lp().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 36.0).abs() < 1e-7);
        assert!((s.value(x) - 2.0).abs() < 1e-7);
        assert!((s.value(y) - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x + y  s.t. x + y = 10, x >= 3, y >= 2 → obj 10.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 10.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Ge, 3.0);
        m.add_constraint(&[(y, 1.0)], Cmp::Ge, 2.0);
        let s = m.solve_lp().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective - 10.0).abs() < 1e-7);
        assert!((s.value(x) + s.value(y) - 10.0).abs() < 1e-7);
        assert!(s.value(x) >= 3.0 - 1e-7);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        let s = m.solve_lp().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, f64::INFINITY, -1.0);
        m.add_constraint(&[(x, -1.0)], Cmp::Le, 0.0);
        assert!(matches!(m.solve_lp(), Err(crate::SolverError::Unbounded)));
    }

    #[test]
    fn respects_variable_bounds() {
        // min -x with 1 <= x <= 5 → x = 5.
        let mut m = Model::minimize();
        let x = m.add_var(1.0, 5.0, -1.0);
        let s = m.solve_lp().unwrap();
        assert!((s.value(x) - 5.0).abs() < 1e-7);
        assert!((s.objective + 5.0).abs() < 1e-7);
    }

    #[test]
    fn shifted_lower_bounds() {
        // min x + y s.t. x + y >= 7, x >= 2, y >= 1.5 → obj 7.
        let mut m = Model::minimize();
        let x = m.add_var(2.0, f64::INFINITY, 1.0);
        let y = m.add_var(1.5, f64::INFINITY, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 7.0);
        let s = m.solve_lp().unwrap();
        assert!((s.objective - 7.0).abs() < 1e-7);
    }

    #[test]
    fn fixed_variable() {
        let mut m = Model::minimize();
        let x = m.add_var(3.0, 3.0, 2.0);
        let y = m.add_var(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        let s = m.solve_lp().unwrap();
        assert!((s.value(x) - 3.0).abs() < 1e-9);
        assert!((s.value(y) - 2.0).abs() < 1e-7);
        assert!((s.objective - 8.0).abs() < 1e-7);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate example (multiple constraints tight at the
        // origin); must terminate via the Bland fallback.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, f64::INFINITY, -0.75);
        let y = m.add_var(0.0, f64::INFINITY, 150.0);
        let z = m.add_var(0.0, f64::INFINITY, -0.02);
        let w = m.add_var(0.0, f64::INFINITY, 6.0);
        m.add_constraint(&[(x, 0.25), (y, -60.0), (z, -0.04), (w, 9.0)], Cmp::Le, 0.0);
        m.add_constraint(&[(x, 0.5), (y, -90.0), (z, -0.02), (w, 3.0)], Cmp::Le, 0.0);
        m.add_constraint(&[(z, 1.0)], Cmp::Le, 1.0);
        let s = m.solve_lp().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.objective + 0.05).abs() < 1e-6, "obj={}", s.objective);
    }

    #[test]
    fn empty_model() {
        let m = Model::minimize();
        let s = m.solve_lp().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn objective_constant_from_lower_bounds() {
        // min 2x with x in [4, 10], no constraints → 8.
        let mut m = Model::minimize();
        m.add_var(4.0, 10.0, 2.0);
        let s = m.solve_lp().unwrap();
        assert!((s.objective - 8.0).abs() < 1e-9);
    }
}
