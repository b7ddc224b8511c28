//! Solver error type.

use std::fmt;

/// Largest dense simplex tableau either method builds: `2^27` cells, 1 GiB
/// of `f64`. A larger model is refused with [`SolverError::ModelTooLarge`]
/// before its tableau is allocated.
pub const MAX_TABLEAU_CELLS: usize = 1 << 27;

/// Failures the solver can report (as opposed to model statuses like
/// infeasibility, which are returned in [`Solution`](crate::Solution)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverError {
    /// The LP is unbounded below (no finite optimum exists).
    Unbounded,
    /// The simplex iteration cap was hit — numerically pathological input.
    IterationLimit,
    /// The dual simplex requires non-negative shifted objective
    /// coefficients; this model has some. Use the primal (or `Auto`).
    DualUnsupported,
    /// The standardized model needs a `rows × cols` dense tableau larger
    /// than [`MAX_TABLEAU_CELLS`]; nothing that size was allocated.
    ModelTooLarge {
        /// Tableau rows.
        rows: usize,
        /// Tableau columns, the right-hand side included.
        cols: usize,
    },
}

impl SolverError {
    /// `Err(ModelTooLarge)` when a `rows × cols` tableau exceeds
    /// [`MAX_TABLEAU_CELLS`].
    pub(crate) fn check_tableau(rows: usize, cols: usize) -> Result<(), SolverError> {
        if rows.saturating_mul(cols) > MAX_TABLEAU_CELLS {
            Err(SolverError::ModelTooLarge { rows, cols })
        } else {
            Ok(())
        }
    }
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Unbounded => write!(f, "objective is unbounded below"),
            Self::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            Self::DualUnsupported => {
                write!(f, "dual simplex requires non-negative shifted costs")
            }
            Self::ModelTooLarge { rows, cols } => write!(
                f,
                "model too large: a {rows} x {cols} dense tableau exceeds \
                 the {MAX_TABLEAU_CELLS}-cell cap"
            ),
        }
    }
}

impl std::error::Error for SolverError {}
