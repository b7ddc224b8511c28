//! The dense simplex tableau and the row-indexed pivot kernel that both
//! simplex methods share.
//!
//! Rows are dense and row-major (`m × n`); the right-hand side is a
//! separate contiguous vector, so a scan over it is one linear pass. A
//! pivot touches only nonzeros:
//!
//! * [`Tableau::gather_row`] collects the pivot row's nonzero entries
//!   once, in ascending column order. The caller's ratio test, the row
//!   normalization and the reduced-cost update all run over that list.
//! * The rows to update come from a flat column index: for every column a
//!   singly linked list (`head`/`links`) of the rows whose entry in it has
//!   *ever* been nonzero, deduplicated by a bitmap over the cells. A row
//!   joins a column's list when its entry there first becomes nonzero and
//!   never leaves it; rows whose entry is zero again are skipped, as a
//!   full dense update skips them.
//!
//! Every nonzero cell receives exactly the floating-point operations of a
//! full dense update (every cell of every row with a nonzero in the pivot
//! column), so pivot choices and results are bit-identical to it; only
//! the sign of a cell that stays zero can differ, which no comparison
//! observes. The dense update survives as the test oracle in `dual.rs`.

use crate::SolverError;

/// End of a column list.
const NIL: u32 = u32::MAX;

/// For every column, the rows whose entry in it has ever been nonzero.
struct ColumnIndex {
    n: usize,
    /// First link of each column's list, or [`NIL`].
    head: Vec<u32>,
    /// `(row, next link)` entries of all lists.
    links: Vec<(u32, u32)>,
    /// One bit per cell: is the cell's row on its column's list?
    listed: Vec<u64>,
}

impl ColumnIndex {
    /// Put row `r` on column `c`'s list unless it is already there.
    #[inline]
    fn insert(&mut self, r: usize, c: usize) {
        let cell = r * self.n + c;
        let (word, bit) = (cell / 64, 1u64 << (cell % 64));
        if self.listed[word] & bit == 0 {
            self.listed[word] |= bit;
            // Both fit: rows and columns are bounded by `MAX_TABLEAU_CELLS`
            // (2^27), and so is the number of links.
            self.links.push((r as u32, self.head[c]));
            self.head[c] = (self.links.len() - 1) as u32;
        }
    }
}

/// A dense simplex tableau with its reduced-cost row.
pub(crate) struct Tableau {
    /// Rows.
    pub m: usize,
    /// Columns, the right-hand side excluded.
    pub n: usize,
    /// Row-major `m × n` coefficients.
    pub a: Vec<f64>,
    /// Right-hand side, one entry per row.
    pub b: Vec<f64>,
    /// Basic variable (column index) of each row.
    pub basis: Vec<usize>,
    /// Reduced costs, one per column.
    pub z: Vec<f64>,
    /// The reduced-cost row's right-hand-side cell: `-objective`.
    pub z0: f64,
    /// Pivot operations performed.
    pub pivots: u64,
    cols: ColumnIndex,
    /// Nonzeros of the gathered row `prow_of`, ascending by column.
    prow: Vec<(u32, f64)>,
    prow_of: usize,
}

impl Tableau {
    /// An all-zero `m × n` tableau, refused with
    /// [`SolverError::ModelTooLarge`] before anything tableau-sized is
    /// allocated when `m × (n + 1)` exceeds
    /// [`MAX_TABLEAU_CELLS`](crate::MAX_TABLEAU_CELLS).
    pub fn new(m: usize, n: usize) -> Result<Self, SolverError> {
        SolverError::check_tableau(m, n + 1)?;
        Ok(Tableau {
            m,
            n,
            a: vec![0.0; m * n],
            b: vec![0.0; m],
            basis: vec![0; m],
            z: vec![0.0; n],
            z0: 0.0,
            pivots: 0,
            cols: ColumnIndex {
                n,
                head: vec![NIL; n],
                links: Vec::new(),
                listed: vec![0; (m * n).div_ceil(64)],
            },
            prow: Vec::with_capacity(n),
            prow_of: usize::MAX,
        })
    }

    /// Entry `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * self.n + c]
    }

    /// Add `v` to entry `(r, c)` while the tableau is being filled.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.n + c] += v;
        self.cols.insert(r, c);
    }

    /// Collect the nonzeros of row `r` for the next [`pivot`](Self::pivot).
    pub fn gather_row(&mut self, r: usize) {
        self.prow.clear();
        let row = &self.a[r * self.n..(r + 1) * self.n];
        self.prow.extend(
            row.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(c, &v)| (c as u32, v)),
        );
        self.prow_of = r;
    }

    /// The gathered row's nonzeros `(column, value)`, ascending by column.
    pub fn gathered(&self) -> &[(u32, f64)] {
        &self.prow
    }

    /// Pivot on column `pc` of the row last passed to
    /// [`gather_row`](Self::gather_row): normalize that row, eliminate
    /// `pc` from every other row and from the reduced costs, and make
    /// `pc` the row's basic variable.
    pub fn pivot(&mut self, pc: usize) {
        let (n, pr) = (self.n, self.prow_of);
        debug_assert!(pr < self.m, "pivot without a gathered row");
        self.pivots += 1;
        let inv = 1.0 / self.a[pr * n + pc];
        let row = &mut self.a[pr * n..(pr + 1) * n];
        for (c, v) in &mut self.prow {
            *v *= inv;
            row[*c as usize] = *v;
        }
        self.b[pr] *= inv;
        let bp = self.b[pr];

        let mut link = self.cols.head[pc];
        while link != NIL {
            let (r, next) = self.cols.links[link as usize];
            link = next;
            let r = r as usize;
            if r == pr {
                continue;
            }
            let f = self.a[r * n + pc];
            if f == 0.0 {
                continue;
            }
            let row = &mut self.a[r * n..(r + 1) * n];
            for &(c, p) in &self.prow {
                let c = c as usize;
                let old = row[c];
                row[c] = old - f * p;
                if old == 0.0 {
                    // Fill-in: the pivot column's own list is not
                    // touched, since `row[pc]` is `f ≠ 0`.
                    self.cols.insert(r, c);
                }
            }
            row[pc] = 0.0; // exact zero against drift
            self.b[r] -= f * bp;
        }

        let f = self.z[pc];
        if f != 0.0 {
            for &(c, p) in &self.prow {
                self.z[c as usize] -= f * p;
            }
            self.z0 -= f * bp;
            self.z[pc] = 0.0;
        }
        self.basis[pr] = pc;
    }
}
