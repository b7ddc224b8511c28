//! The dense simplex tableau and the row-indexed pivot kernel that both
//! simplex methods share.
//!
//! Rows are dense and row-major (`m × n`), the right-hand side a separate
//! vector. A pivot costs per nonzero, not per tableau width:
//!
//! * A flat column index lists, for every column, the rows whose entry in
//!   it has *ever* been nonzero: a singly linked list (`head`/`links`)
//!   per column, deduplicated by a bitmap over the cells (`listed`). A
//!   row joins a column's list when its entry there first becomes nonzero
//!   and never leaves it, so every nonzero cell is listed.
//! * [`Tableau::gather_row`] collects the pivot row's nonzero entries
//!   once, in ascending column order, by walking the set bits of that
//!   row's slice of the bitmap. The caller's ratio test, the row
//!   normalization and the reduced-cost update all run over that list.
//! * [`Tableau::pivot`] updates only the rows on the entering column's
//!   list; rows whose entry there is zero again are skipped, as a full
//!   dense update skips them.
//! * A bitset marks the rows whose right-hand side is below `−TOL`. It is
//!   kept exact wherever the right-hand side changes, so the dual's
//!   leaving-row rule walks [`Tableau::negative_rows`] instead of every
//!   row.
//!
//! Every nonzero cell receives exactly the floating-point operations of a
//! full dense update (every cell of every row with a nonzero in the pivot
//! column), so pivot choices and results are bit-identical to it; only
//! the sign of a cell that stays zero can differ, which no comparison
//! observes. The dense update survives as the test oracle in `dual.rs`.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::SolverError;

/// A right-hand side below `−TOL` marks its row primal infeasible.
pub(crate) const TOL: f64 = 1e-9;

/// End of a column list.
const NIL: u32 = u32::MAX;

/// Indices of the set bits of `bits`, ascending.
#[inline]
fn ones(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            i
        })
    })
}

/// Largest cell buffer a thread keeps between solves: 2^21 cells, 16 MiB
/// of `f64`, above the largest Figs. 4–5 tableau (958 × 1,854). A
/// tableau over it frees its buffers when it is dropped.
const POOL_MAX_CELLS: usize = 1 << 21;

/// Bytes of cell buffers and bitmaps that threads keep between solves.
static POOLED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// Bytes of tableau memory all threads keep between solves: the all-zero
/// cell buffers and bitmaps that the next solve on each thread reuses.
pub fn tableau_pool_bytes() -> usize {
    POOLED_BYTES.load(Ordering::Relaxed)
}

/// A thread's all-zero cell buffer and `listed` bitmap, kept between
/// solves; counted in [`POOLED_BYTES`] while kept.
#[derive(Default)]
struct Pooled {
    a: Vec<f64>,
    listed: Vec<u64>,
}

impl Pooled {
    fn bytes(&self) -> usize {
        8 * (self.a.len() + self.listed.len())
    }
}

impl Drop for Pooled {
    fn drop(&mut self) {
        POOLED_BYTES.fetch_sub(self.bytes(), Ordering::Relaxed);
    }
}

thread_local! {
    /// The buffers of the thread's last dropped tableau, scrubbed to zero.
    static POOL: RefCell<Pooled> = RefCell::default();
}

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
    /// Row-major `m × n` coefficients, at the front of a buffer that may
    /// be longer and is zero past them; every nonzero cell is listed in
    /// `cols`, so only [`add`](Self::add), [`clear_row`](Self::clear_row)
    /// and the pivot write them.
    a: Vec<f64>,
    /// Right-hand side, one entry per row; written through
    /// [`set_rhs`](Self::set_rhs) and the pivot, which keep `negative`.
    b: Vec<f64>,
    /// One bit per row: is `b[r] < −TOL`?
    negative: Vec<u64>,
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
    /// [`MAX_TABLEAU_CELLS`](crate::MAX_TABLEAU_CELLS). Its cell buffer
    /// and bitmap are the thread's pooled ones when those are large
    /// enough, else fresh zeroed allocations: a `resize` would write
    /// every cell and make untouched pages resident.
    pub fn new(m: usize, n: usize) -> Result<Self, SolverError> {
        SolverError::check_tableau(m, n + 1)?;
        let (cells, words) = (m * n, (m * n).div_ceil(64));
        let (mut a, mut listed) = POOL
            .try_with(|p| {
                let mut p = p.borrow_mut();
                POOLED_BYTES.fetch_sub(p.bytes(), Ordering::Relaxed);
                (std::mem::take(&mut p.a), std::mem::take(&mut p.listed))
            })
            .unwrap_or_default();
        debug_assert!(
            a.iter().all(|v| v.to_bits() == 0) && listed.iter().all(|&w| w == 0),
            "a pooled tableau buffer is not all-zero"
        );
        if a.len() < cells {
            a = vec![0.0; cells];
        }
        if listed.len() < words {
            listed = vec![0; words];
        }
        Ok(Tableau {
            m,
            n,
            a,
            b: vec![0.0; m],
            negative: vec![0; m.div_ceil(64)],
            basis: vec![0; m],
            z: vec![0.0; n],
            z0: 0.0,
            pivots: 0,
            cols: ColumnIndex {
                n,
                head: vec![NIL; n],
                links: Vec::new(),
                listed,
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

    /// Subtract `cb` times row `r`, right-hand side included, from the
    /// reduced-cost row: price out the row's basic variable of cost `cb`.
    pub fn price_out(&mut self, r: usize, cb: f64) {
        let row = &self.a[r * self.n..(r + 1) * self.n];
        for (zj, &aj) in self.z.iter_mut().zip(row) {
            *zj -= cb * aj;
        }
        self.z0 -= cb * self.b[r];
    }

    /// Zero row `r`, right-hand side included. Its cells stay listed.
    pub fn clear_row(&mut self, r: usize) {
        self.a[r * self.n..(r + 1) * self.n].fill(0.0);
        self.set_rhs(r, 0.0);
    }

    /// Add `v` to entry `(r, c)` while the tableau is being filled.
    pub fn add(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * self.n + c] += v;
        self.cols.insert(r, c);
    }

    /// The right-hand side, one entry per row.
    pub fn rhs(&self) -> &[f64] {
        &self.b
    }

    /// Set row `r`'s right-hand side to `v`.
    pub fn set_rhs(&mut self, r: usize, v: f64) {
        self.b[r] = v;
        self.mark(r);
    }

    /// Record whether row `r`'s right-hand side is below `−TOL`.
    #[inline]
    fn mark(&mut self, r: usize) {
        let bit = 1u64 << (r % 64);
        if self.b[r] < -TOL {
            self.negative[r / 64] |= bit;
        } else {
            self.negative[r / 64] &= !bit;
        }
    }

    /// The rows whose right-hand side is below `−TOL`, ascending.
    pub fn negative_rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.negative
            .iter()
            .enumerate()
            .flat_map(|(w, &bits)| ones(bits).map(move |i| w * 64 + i))
    }

    /// Collect the nonzeros of row `r` for the next [`pivot`](Self::pivot):
    /// the nonzero cells of the row's slice of the `listed` bitmap,
    /// ascending.
    pub fn gather_row(&mut self, r: usize) {
        self.prow.clear();
        self.prow_of = r;
        let (lo, hi) = (r * self.n, (r + 1) * self.n);
        if lo == hi {
            return;
        }
        let (first, last) = (lo / 64, (hi - 1) / 64);
        for w in first..=last {
            let mut bits = self.cols.listed[w];
            if w == first {
                bits &= !0u64 << (lo % 64);
            }
            if w == last {
                bits &= !0u64 >> (63 - (hi - 1) % 64);
            }
            for i in ones(bits) {
                let cell = w * 64 + i;
                let v = self.a[cell];
                if v != 0.0 {
                    self.prow.push(((cell - lo) as u32, v));
                }
            }
        }
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
        self.mark(pr);
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
            self.mark(r);
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

impl Drop for Tableau {
    /// Scrub the cell buffer and the bitmap back to zero and pool them for
    /// the thread's next tableau: every nonzero cell is listed, so zeroing
    /// the listed cells word by word, then the words, zeroes both. Buffers
    /// over [`POOL_MAX_CELLS`], or dropped while the thread panics, are
    /// freed instead.
    fn drop(&mut self) {
        if std::thread::panicking() || self.a.len() > POOL_MAX_CELLS {
            return;
        }
        let (mut a, mut listed) = (
            std::mem::take(&mut self.a),
            std::mem::take(&mut self.cols.listed),
        );
        for (w, word) in listed[..(self.m * self.n).div_ceil(64)]
            .iter_mut()
            .enumerate()
        {
            for i in ones(*word) {
                a[w * 64 + i] = 0.0;
            }
            *word = 0;
        }
        let kept = Pooled { a, listed };
        POOLED_BYTES.fetch_add(kept.bytes(), Ordering::Relaxed);
        // During thread-local teardown the buffers are simply freed.
        let _ = POOL.try_with(|p| *p.borrow_mut() = kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seeded xorshift generator, enough to draw test tableaus.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }
    }

    /// A random `m × n` tableau with small integer entries, so that
    /// eliminations cancel cells to exactly zero and ratio-free pivots
    /// stay well conditioned over a few dozen steps. Widths around and
    /// at multiples of 64 put row boundaries inside and at the ends of
    /// the bitmap's words.
    fn random_tableau(rng: &mut Rng) -> Tableau {
        let m = 1 + rng.below(24);
        let n = [1, 7, 63, 64, 65, 100, 128, 130][rng.below(8)];
        let density = 1 + rng.below(4);
        let mut t = Tableau::new(m, n).unwrap();
        for r in 0..m {
            for c in 0..n {
                if rng.below(8) < density {
                    t.add(r, c, rng.below(7) as f64 - 3.0);
                }
            }
            t.set_rhs(r, rng.below(9) as f64 - 4.0);
        }
        for c in 0..n {
            t.z[c] = rng.below(4) as f64;
        }
        t
    }

    /// The kernel's indexes agree with the dense cells: every row
    /// gathers exactly its dense nonzeros in column order, every column
    /// list holds each of its rows once with their bits set (and no
    /// other bits), every nonzero cell is listed, and the negative set
    /// is exactly the rows with a right-hand side below `−TOL`.
    fn assert_indexes_exact(t: &mut Tableau) {
        let (m, n) = (t.m, t.n);
        for r in 0..m {
            t.gather_row(r);
            let dense: Vec<(u32, u64)> = (0..n)
                .filter(|&c| t.at(r, c) != 0.0)
                .map(|c| (c as u32, t.at(r, c).to_bits()))
                .collect();
            let gathered: Vec<(u32, u64)> = t
                .gathered()
                .iter()
                .map(|&(c, v)| (c, v.to_bits()))
                .collect();
            assert_eq!(gathered, dense, "row {r} gathers its dense nonzeros");
        }
        let mut on_list = vec![false; m * n];
        for c in 0..n {
            let mut link = t.cols.head[c];
            while link != NIL {
                let (r, next) = t.cols.links[link as usize];
                let cell = r as usize * n + c;
                assert!(!on_list[cell], "row {r} twice on column {c}'s list");
                on_list[cell] = true;
                link = next;
            }
        }
        for (cell, &listed) in on_list.iter().enumerate() {
            let bit = t.cols.listed[cell / 64] >> (cell % 64) & 1 == 1;
            assert_eq!(bit, listed, "cell {cell}: bit and list disagree");
            assert!(
                listed || t.a[cell] == 0.0,
                "nonzero cell ({}, {}) is off its column's list",
                cell / n,
                cell % n
            );
        }
        let negative: Vec<usize> = (0..m).filter(|&r| t.rhs()[r] < -TOL).collect();
        assert_eq!(t.negative_rows().collect::<Vec<_>>(), negative);
    }

    /// The bytes of the buffers this thread keeps.
    fn pool_len() -> (usize, usize) {
        POOL.with_borrow(|p| (p.a.len(), p.listed.len()))
    }

    #[test]
    fn dropping_a_tableau_pools_its_buffers_scrubbed() {
        let mut rng = Rng(0x0dd5_eed5);
        drop(random_tableau(&mut rng));
        let (cells, words) = pool_len();
        assert!(cells > 0 && words == cells.div_ceil(64));
        POOL.with_borrow(|p| {
            assert!(p.a.iter().all(|v| v.to_bits() == 0));
            assert!(p.listed.iter().all(|&w| w == 0));
        });
    }

    #[test]
    fn a_tableau_dropped_while_panicking_is_not_pooled() {
        drop(Tableau::new(3, 70).unwrap());
        assert_eq!(pool_len(), (210, 4));
        let unwound = std::panic::catch_unwind(|| {
            let mut t = Tableau::new(3, 70).unwrap();
            t.add(2, 69, 1.0);
            panic!("a solve panics with its tableau alive");
        });
        assert!(unwound.is_err());
        assert_eq!(pool_len(), (0, 0), "a panicking thread kept its buffers");
    }

    #[test]
    fn kernel_indexes_stay_exact_after_every_pivot() {
        for seed in 1..=300u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut t = random_tableau(&mut rng);
            assert_indexes_exact(&mut t);
            for _ in 0..2 * t.m {
                // Leave on the dual's row when there is one, else on a
                // random row; enter on a random well-sized entry of it.
                let r = t.negative_rows().next().unwrap_or(rng.below(t.m));
                t.gather_row(r);
                let entering: Vec<usize> = t
                    .gathered()
                    .iter()
                    .filter(|&&(_, v)| v.abs() >= 0.5)
                    .map(|&(c, _)| c as usize)
                    .collect();
                if entering.is_empty() {
                    continue;
                }
                t.pivot(entering[rng.below(entering.len())]);
                assert_indexes_exact(&mut t);
            }
        }
    }
}
