//! Presolve: cheap model reductions applied before the simplex.
//!
//! Two safe, solution-preserving reductions (variables are never
//! eliminated, so solutions need no postsolve mapping):
//!
//! 1. **Empty rows** — `0 cmp rhs` is either a tautology (dropped) or a
//!    proof of infeasibility.
//! 2. **Singleton rows** — `a·x cmp b` tightens `x`'s bound and the row
//!    is dropped (equality rows *fix* the variable).
//!
//! Bound tightening can cascade into an empty box (`lb > ub`), which is
//! reported as infeasibility without invoking the simplex at all. The
//! coverage ILP benefits directly: every `y ≤ x` link with a branching-
//! fixed `x = 0` becomes a singleton row fixing `y = 0`.

use crate::model::{Cmp, Model};

const TOL: f64 = 1e-9;

/// Outcome of presolving.
pub(crate) enum Presolved {
    /// The reduced (or unchanged) model.
    Model(Model),
    /// The model is infeasible; no solve needed.
    Infeasible,
}

/// Apply the reductions to `m` in place.
pub(crate) fn presolve(mut m: Model) -> Presolved {
    let initial_rows = m.cons.len();
    let mut changed = true;
    // Iterate to a fixpoint: tightening a bound can make other rows
    // redundant, but each pass only drops rows, so this terminates.
    while changed {
        changed = false;
        let mut keep = Vec::with_capacity(m.cons.len());
        for mut con in std::mem::take(&mut m.cons) {
            // Substitute variables fixed by their bounds (lb == ub) into
            // the RHS — this is what shrinks `y − x ≤ 0` into a singleton
            // once branching fixes `x`.
            let before = con.terms.len();
            let mut rhs = con.rhs;
            let vars = &m.vars;
            con.terms.retain(|&(j, a)| {
                let v = &vars[j];
                if v.ub.is_finite() && v.ub - v.lb <= TOL {
                    rhs -= a * v.lb;
                    false
                } else {
                    true
                }
            });
            con.rhs = rhs;
            if con.terms.len() != before {
                changed = true;
            }
            match con.terms.len() {
                0 => {
                    let ok = match con.cmp {
                        Cmp::Le => 0.0 <= con.rhs + TOL,
                        Cmp::Ge => 0.0 >= con.rhs - TOL,
                        Cmp::Eq => con.rhs.abs() <= TOL,
                    };
                    if !ok {
                        return Presolved::Infeasible;
                    }
                    changed = true; // row dropped
                }
                1 => {
                    let (j, a) = con.terms[0];
                    debug_assert!(a != 0.0, "zero coefficients are cleaned on add");
                    let bound = con.rhs / a;
                    let var = &mut m.vars[j];
                    // a·x ≤ b ⇔ x ≤ b/a (a > 0) or x ≥ b/a (a < 0).
                    let upper = (con.cmp == Cmp::Le) == (a > 0.0);
                    match con.cmp {
                        Cmp::Eq => {
                            var.lb = var.lb.max(bound);
                            var.ub = var.ub.min(bound);
                        }
                        _ if upper => var.ub = var.ub.min(bound),
                        _ => var.lb = var.lb.max(bound),
                    }
                    if var.lb > var.ub + TOL {
                        return Presolved::Infeasible;
                    }
                    // Integer variables: a fractional forced value is
                    // infeasible for the ILP path; leave that to branch &
                    // bound (the LP relaxation is still valid).
                    changed = true; // row absorbed into bounds
                }
                _ => keep.push(con),
            }
        }
        m.cons = keep;
    }
    osa_obs::global().add(
        "solver.presolve_rows_dropped",
        (initial_rows - m.cons.len()) as u64,
    );
    Presolved::Model(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Status};

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, -1.0);
        m.add_constraint(&[(x, 2.0)], Cmp::Le, 6.0); // x ≤ 3
        m.add_constraint(&[(x, -1.0)], Cmp::Le, -1.0); // x ≥ 1
        let s = m.solve_lp().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert!((s.value(x) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn equality_singleton_fixes_variable() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, 1.0);
        let y = m.add_var(0.0, 10.0, 1.0);
        m.add_constraint(&[(x, 2.0)], Cmp::Eq, 4.0); // x = 2
        m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 5.0);
        let s = m.solve_lp().unwrap();
        assert!((s.value(x) - 2.0).abs() < 1e-7);
        assert!((s.value(y) - 3.0).abs() < 1e-7);
    }

    #[test]
    fn conflicting_singletons_are_infeasible_without_simplex() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 10.0, 0.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Ge, 7.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 3.0);
        assert!(matches!(presolve(m.clone()), Presolved::Infeasible));
        let s = m.solve_lp().unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn empty_rows_checked_and_dropped() {
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 1.0, 1.0);
        // x − x ≤ 5 collapses to an empty row (terms cancel).
        m.add_constraint(&[(x, 1.0), (x, -1.0)], Cmp::Le, 5.0);
        match presolve(m.clone()) {
            Presolved::Model(r) => assert_eq!(r.num_constraints(), 0),
            Presolved::Infeasible => panic!("tautology dropped, not infeasible"),
        }
        // x − x = 3 is a contradiction.
        let mut bad = Model::minimize();
        let y = bad.add_var(0.0, 1.0, 1.0);
        bad.add_constraint(&[(y, 1.0), (y, -1.0)], Cmp::Eq, 3.0);
        assert!(matches!(presolve(bad), Presolved::Infeasible));
    }

    #[test]
    fn fixed_variables_are_substituted_out_of_rows() {
        // y − x ≤ 0 with x fixed at 0 must collapse to the singleton
        // y ≤ 0, fixing y too (the branch & bound node pattern).
        let mut m = Model::minimize();
        let x = m.add_var(0.0, 0.0, 0.0); // fixed by bounds
        let y = m.add_var(0.0, 1.0, -1.0);
        m.add_constraint(&[(y, 1.0), (x, -1.0)], Cmp::Le, 0.0);
        match presolve(m.clone()) {
            Presolved::Model(r) => {
                assert_eq!(r.num_constraints(), 0, "row absorbed");
                let s = r.solve_lp().unwrap();
                assert!((s.value(y) - 0.0).abs() < 1e-9);
            }
            Presolved::Infeasible => panic!("feasible"),
        }
        let s = m.solve_lp().unwrap();
        assert!((s.value(y)).abs() < 1e-9);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn presolve_preserves_optimum_of_general_models() {
        // A model mixing singleton and general rows.
        let mut m = Model::minimize();
        let x = m.add_var(0.0, f64::INFINITY, -3.0);
        let y = m.add_var(0.0, f64::INFINITY, -5.0);
        m.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = m.solve_lp().unwrap();
        assert!((s.objective + 36.0).abs() < 1e-7);
        match presolve(m.clone()) {
            Presolved::Model(r) => {
                assert_eq!(r.num_constraints(), 1, "two singletons absorbed");
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }
}
