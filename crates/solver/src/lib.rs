//! # osa-solver
//!
//! A from-scratch linear and integer-linear programming solver — the
//! workspace's stand-in for the Gurobi dependency of the paper (Section
//! 4.2 solves the k-medians ILP, Section 4.3 its LP relaxation).
//!
//! * [`Model`] — a builder for `minimize cᵀx  s.t.  Ax {≤,=,≥} b, l ≤ x ≤ u`
//!   with optional per-variable integrality,
//! * [`Model::solve_lp`] — two-phase dense-tableau primal simplex with a
//!   Dantzig/Bland hybrid pivot rule (anti-cycling),
//! * [`Model::solve_ilp`] — best-first branch & bound on LP relaxations
//!   with most-fractional branching and incumbent pruning.
//!
//! The solver is deterministic, exact up to floating tolerance, and sized
//! for the per-item instances the summarization benchmarks produce
//! (hundreds of variables and constraints). It is a teaching-grade dense
//! implementation: a model whose tableau would exceed
//! [`MAX_TABLEAU_CELLS`] is refused with [`SolverError::ModelTooLarge`]
//! instead of being allocated.
//!
//! ## Example
//!
//! ```
//! use osa_solver::{Cmp, Model};
//!
//! // minimize -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y >= 0
//! let mut m = Model::minimize();
//! let x = m.add_var(0.0, 3.0, -1.0);
//! let y = m.add_var(0.0, 2.0, -2.0);
//! m.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
//! let sol = m.solve_lp().unwrap();
//! assert!((sol.objective - (-6.0)).abs() < 1e-9); // x=2, y=2
//! ```

#![warn(missing_docs)]

mod branch_bound;
mod dual;
mod error;
mod model;
mod presolve;
mod simplex;

pub use branch_bound::IlpOptions;
pub use error::{SolverError, MAX_TABLEAU_CELLS};
pub use model::{Cmp, LpMethod, Model, Solution, Status, VarId};
