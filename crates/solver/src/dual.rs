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
//! Each iteration picks the leaving row (most negative right-hand side,
//! first on ties) among the rows the tableau keeps in its negative set,
//! gathers that row's nonzeros once from the tableau's column index,
//! runs the ratio test over them in ascending column order, and pivots
//! with the row-indexed kernel of [`crate::tableau`], which updates only
//! the rows listed in the entering column's index. On the Figs. 4–5
//! coverage LPs (~530 rows × ~1,000 columns) a pivot row holds a few
//! dozen nonzeros, and a pivot changes about ten rows. No step scans a
//! whole row or the whole right-hand side. The rows themselves stay dense, so
//! [`MAX_TABLEAU_CELLS`](crate::MAX_TABLEAU_CELLS) still bounds their
//! storage, checked before the tableau or its column index is allocated.
//! They are not zero-filled per solve, though: the tableau reuses its
//! thread's all-zero cell buffer, and dropping it zeroes only the cells
//! its column index lists (a few percent of the ~550k cells), so a node
//! of branch and bound no longer pays for its tableau's width up front.
//!
//! Scope: requires finite lower bounds (like the primal) and a
//! non-negative shifted objective; [`solve`] reports
//! [`SolverError::DualUnsupported`] otherwise so the caller can fall
//! back to the two-phase primal.

use crate::model::{Cmp, Model, Solution, Status};
use crate::tableau::{Tableau, TOL};
use crate::SolverError;

const MAX_ITERS: usize = 200_000;

/// Solve the LP relaxation of `model` with the dual simplex.
pub(crate) fn solve(model: &Model) -> Result<Solution, SolverError> {
    if model.vars.is_empty() {
        return Ok(Solution {
            status: Status::Optimal,
            objective: 0.0,
            values: Vec::new(),
        });
    }
    let (sol, pivots) = solve_counted(model)?;
    osa_obs::global().add("solver.dual_pivots", pivots);
    Ok(sol)
}

/// A model in the dual's standard form.
struct Standard {
    /// Rows `Σ coef·x' ≤ rhs` over the shifted variables `x' = x − lb`,
    /// fixed variables substituted out.
    rows: Vec<(Vec<(usize, f64)>, f64)>,
    /// Variables fixed by their bounds; they never enter the basis.
    fixed: Vec<bool>,
    /// Objective contribution of the lower bounds.
    obj_const: f64,
}

/// Standardize exactly like the primal: shift x' = x − lb, substitute
/// fixed variables out, finite ub → extra row; then convert every row
/// to `≤` (Eq → a pair of ≤ rows).
fn standardize(model: &Model) -> Result<Standard, SolverError> {
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
    Ok(Standard {
        rows,
        fixed,
        obj_const,
    })
}

/// The optimal solution from the shifted values `values` of the basic
/// variables (zero for the others).
fn optimal(model: &Model, obj_const: f64, mut values: Vec<f64>) -> Solution {
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
    Solution {
        status: Status::Optimal,
        objective,
        values,
    }
}

/// The primal-infeasible outcome.
fn infeasible(nv: usize) -> Solution {
    Solution {
        status: Status::Infeasible,
        objective: f64::INFINITY,
        values: vec![0.0; nv],
    }
}

/// [`solve`] for a model with variables, returning the pivot count too.
fn solve_counted(model: &Model) -> Result<(Solution, u64), SolverError> {
    let nv = model.vars.len();
    let Standard {
        rows,
        fixed,
        obj_const,
    } = standardize(model)?;

    let m = rows.len();
    let mut t = Tableau::new(m, nv + m)?; // one slack per row
    for (i, (terms, rhs)) in rows.iter().enumerate() {
        for &(j, coef) in terms {
            t.add(i, j, coef);
        }
        t.add(i, nv + i, 1.0);
        t.set_rhs(i, *rhs);
        t.basis[i] = nv + i;
    }
    // Reduced-cost row (slack basis has zero basic costs): z_j = c_j ≥ 0.
    for (j, v) in model.vars.iter().enumerate() {
        if !fixed[j] {
            t.z[j] = v.obj;
        }
    }

    let allowed = |j: usize| j >= nv || !fixed[j];

    for _ in 0..MAX_ITERS {
        // Leaving row: most negative rhs, first one on ties. Rows off the
        // tableau's negative set read at least `-TOL`, so never win.
        let mut pr: Option<usize> = None;
        let mut worst = -TOL;
        for r in t.negative_rows() {
            let b = t.rhs()[r];
            if b < worst {
                worst = b;
                pr = Some(r);
            }
        }
        let Some(pr) = pr else {
            // Primal feasible and dual feasible → optimal.
            let mut values = vec![0.0; nv];
            for (&j, &b) in t.basis.iter().zip(t.rhs()) {
                if j < nv {
                    values[j] = b;
                }
            }
            return Ok((optimal(model, obj_const, values), t.pivots));
        };

        // Entering column: dual ratio test over the row's negative
        // entries, visited in ascending column order.
        t.gather_row(pr);
        let mut pc: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for &(j, arj) in t.gathered() {
            let j = j as usize;
            if arj < -TOL && allowed(j) {
                let ratio = t.z[j] / (-arj);
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
            return Ok((infeasible(nv), t.pivots));
        };
        t.pivot(pc);
    }
    Err(SolverError::IterationLimit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LpMethod;
    use proptest::prelude::*;

    /// The dense dual simplex loop the row-indexed kernel replaced, kept
    /// as the oracle of the bit-identity tests: every pivot scans the
    /// whole pivot row and updates every cell of every row whose entry
    /// in the pivot column is nonzero, right-hand side included.
    fn dense_reference(model: &Model) -> Result<(Solution, u64), SolverError> {
        let nv = model.vars.len();
        let Standard {
            rows,
            fixed,
            obj_const,
        } = standardize(model)?;
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
        let mut z = vec![0.0f64; w];
        for (j, v) in model.vars.iter().enumerate() {
            if !fixed[j] {
                z[j] = v.obj;
            }
        }
        let allowed = |j: usize| j >= nv || !fixed[j];

        let mut pivots = 0u64;
        for _ in 0..MAX_ITERS {
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
                let mut values = vec![0.0; nv];
                for r in 0..m {
                    if basis[r] < nv {
                        values[basis[r]] = a[r * w + n];
                    }
                }
                return Ok((optimal(model, obj_const, values), pivots));
            };
            let mut pc: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..n {
                if !allowed(j) {
                    continue;
                }
                let arj = a[pr * w + j];
                if arj < -TOL {
                    let ratio = z[j] / (-arj);
                    if ratio < best_ratio - TOL {
                        best_ratio = ratio;
                        pc = Some(j);
                    }
                }
            }
            let Some(pc) = pc else {
                return Ok((infeasible(nv), pivots));
            };
            pivots += 1;
            let inv = 1.0 / a[pr * w + pc];
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

    /// Kernel and dense reference agree bit for bit: same error, or the
    /// same status, objective bits, value bits and pivot count.
    fn assert_bit_identical(model: &Model) -> Result<(), TestCaseError> {
        match (solve_counted(model), dense_reference(model)) {
            (Ok((s, p)), Ok((r, q))) => {
                prop_assert_eq!(p, q, "pivot counts differ");
                prop_assert_eq!(s.status, r.status);
                prop_assert_eq!(s.objective.to_bits(), r.objective.to_bits());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&s.values), bits(&r.values));
            }
            (Err(e), Err(f)) => prop_assert_eq!(e, f),
            (s, r) => prop_assert!(false, "kernel {:?} vs reference {:?}", s, r),
        }
        Ok(())
    }

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

    /// A random LP in the dual's domain: non-negative costs, a mix of
    /// `Le`/`Ge`/`Eq` rows with small integer coefficients (so ratio
    /// ties and degenerate pivots are common) and some variables fixed by
    /// their bounds. Each row holds at a point inside the boxes, with a
    /// slack of 0 (degenerate) to 3, except that one row in eight is
    /// shifted by 6 the wrong way, which usually makes the LP infeasible.
    fn arb_model() -> impl Strategy<Value = Model> {
        (2usize..=12, 1usize..=10)
            .prop_flat_map(|(nv, nc)| {
                let vars = proptest::collection::vec(
                    (0u8..=4, 0u8..=3, 0u8..=5, 0u8..=6, 0u8..=5),
                    nv..=nv,
                );
                let rows = proptest::collection::vec(
                    (
                        proptest::collection::vec(-2i8..=3, nv..=nv),
                        0u8..=3,
                        0u8..=5,
                        0u8..=7,
                    ),
                    nc..=nc,
                );
                (vars, rows)
            })
            .prop_map(|(vars, rows)| {
                let mut m = Model::minimize();
                let mut point = Vec::new();
                let xs: Vec<_> = vars
                    .iter()
                    .map(|&(cost, lb, width, kind, at)| {
                        let lb = f64::from(lb);
                        let (ub, x) = match kind {
                            0 => (lb, lb), // fixed
                            1 => (f64::INFINITY, lb + f64::from(at)),
                            _ => (lb + f64::from(width), lb + f64::from(at.min(width))),
                        };
                        point.push(x);
                        m.add_var(lb, ub, f64::from(cost))
                    })
                    .collect();
                for (coefs, slack, cmp, shift) in rows {
                    let coefs: Vec<f64> = coefs.into_iter().map(f64::from).collect();
                    let at: f64 = coefs.iter().zip(&point).map(|(c, x)| c * x).sum();
                    let (slack, miss) = (f64::from(slack), if shift == 0 { 6.0 } else { 0.0 });
                    let (cmp, rhs) = match cmp {
                        0..=2 => (Cmp::Le, at + slack - miss),
                        3 | 4 => (Cmp::Ge, at - slack + miss),
                        _ => (Cmp::Eq, at + miss),
                    };
                    let terms: Vec<_> = xs.iter().copied().zip(coefs).collect();
                    m.add_constraint(&terms, cmp, rhs);
                }
                m
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kernel_is_bit_identical_to_the_dense_loop(model in arb_model()) {
            assert_bit_identical(&model)?;
        }
    }

    #[test]
    fn kernel_is_bit_identical_on_degenerate_and_infeasible_shapes() {
        // Equal costs and equal coefficients tie every ratio.
        let mut ties = Model::minimize();
        let xs: Vec<_> = (0..6).map(|_| ties.add_var(0.0, 1.0, 1.0)).collect();
        for w in xs.windows(3) {
            let terms: Vec<_> = w.iter().map(|&x| (x, 1.0)).collect();
            ties.add_constraint(&terms, Cmp::Ge, 1.0);
        }
        // Infeasible: x + y ≥ 5 over unit boxes, next to an Eq row.
        let mut infeasible = Model::minimize();
        let x = infeasible.add_var(0.0, 1.0, 1.0);
        let y = infeasible.add_var(0.0, 1.0, 2.0);
        infeasible.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 1.0);
        infeasible.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        // A fixed variable inside Eq and Ge rows.
        let mut fixed = Model::minimize();
        let f = fixed.add_var(2.0, 2.0, 3.0);
        let u = fixed.add_var(0.0, f64::INFINITY, 1.0);
        let v = fixed.add_var(1.0, 4.0, 0.0);
        fixed.add_constraint(&[(f, 1.0), (u, 1.0), (v, 1.0)], Cmp::Eq, 6.0);
        fixed.add_constraint(&[(f, -1.0), (u, 2.0)], Cmp::Ge, 1.0);
        for model in [coverage_like(), ties, infeasible, fixed] {
            assert_bit_identical(&model).unwrap();
        }
        assert_eq!(
            solve_counted(&coverage_like()).unwrap().0.status,
            Status::Optimal
        );
    }
}
