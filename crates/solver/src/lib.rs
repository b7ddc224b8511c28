//! # osa-solver
//!
//! A from-scratch linear and integer-linear programming solver — the
//! workspace's stand-in for the Gurobi dependency of the paper (Section
//! 4.2 solves the k-medians ILP, Section 4.3 its LP relaxation).
//!
//! * [`Model`] — a builder for `minimize cᵀx  s.t.  Ax {≤,=,≥} b, l ≤ x ≤ u`
//!   with optional per-variable integrality,
//! * [`Model::solve_lp`] — two-phase primal simplex with a Dantzig/Bland
//!   hybrid pivot rule (anti-cycling),
//! * [`Model::solve_lp_with`] — the same, or the dual simplex from the
//!   all-slack basis ([`LpMethod::Auto`] picks it whenever the shifted
//!   costs are non-negative, as they are on every coverage LP),
//! * [`Model::solve_ilp`] — best-first branch & bound on LP relaxations
//!   with most-fractional branching and incumbent pruning.
//!
//! Both simplex methods keep a dense, row-major tableau and pivot with
//! one shared row-indexed kernel whose cost grows with the nonzeros, not
//! the tableau's width: a pivot gathers the pivot row's nonzeros from a
//! bitmap of the cells a flat column index lists, and updates only the
//! rows that index lists for the entering column, applying to every
//! nonzero cell exactly the arithmetic of a full dense update. The
//! tableau also keeps the set of rows with a negative right-hand side,
//! where the dual looks for its leaving row. The rows stay dense, so a
//! model whose `rows × (columns + 1)` tableau would exceed
//! [`MAX_TABLEAU_CELLS`] is refused with [`SolverError::ModelTooLarge`]
//! before the tableau or its column index is allocated. Each thread
//! reuses the all-zero cell buffer and bitmap of its last tableau, which
//! a dropped tableau scrubs per listed cell; [`tableau_pool_bytes`] is
//! the memory kept that way between solves.
//!
//! The solver is deterministic, exact up to floating tolerance, and sized
//! for the per-item instances the summarization benchmarks produce
//! (hundreds of variables and constraints).
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
mod tableau;

pub use branch_bound::IlpOptions;
pub use error::{SolverError, MAX_TABLEAU_CELLS};
pub use model::{Cmp, LpMethod, Model, Solution, Status, VarId};
pub use tableau::tableau_pool_bytes;
