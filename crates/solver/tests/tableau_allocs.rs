//! Pins the allocation profile of repeated exact solves on one thread:
//! the first solve allocates its dense tableau, and a second solve of the
//! same model reuses the thread's cell buffer, so it makes no allocation
//! of the tableau's size or more, and returns the same bits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use osa_solver::{Cmp, LpMethod, Model, Solution, VarId};

struct LargeAllocs;

thread_local! {
    /// The allocation threshold for this thread and how many allocations
    /// at or above it this thread has made; other test-harness threads
    /// do not disturb the count.
    static LARGE: Cell<(usize, u64)> = const { Cell::new((usize::MAX, 0)) };
}

fn note(size: usize) {
    let _ = LARGE.try_with(|c| {
        let (min, n) = c.get();
        if size >= min {
            c.set((min, n + 1));
        }
    });
}

unsafe impl GlobalAlloc for LargeAllocs {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargeAllocs = LargeAllocs;

/// The k-medians coverage LP of a Figs. 4–5 item at pairs granularity:
/// 60 pairs in 5 clusters of 12. Each pair covers itself at distance 0
/// and is covered by 5 more pairs of its cluster at distances 1–3; the
/// root covers every pair at distance 4. `x` is binary when `integral`.
/// Returns the model and its coverage edge count.
fn coverage_lp(k: usize, integral: bool) -> (Model, usize) {
    let (pairs, clusters) = (60, 5);
    let per = pairs / clusters;
    let mut rng = 0x9e37_79b9_7f4a_7c15u64;
    let mut below = |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    let mut m = Model::minimize();
    let xs: Vec<VarId> = (0..pairs)
        .map(|_| match integral {
            true => m.add_bin_var(0.0),
            false => m.add_var(0.0, 1.0, 0.0),
        })
        .collect();
    let all: Vec<(VarId, f64)> = xs.iter().map(|&x| (x, 1.0)).collect();
    m.add_constraint(&all, Cmp::Eq, k as f64);
    let mut edges = 0;
    for q in 0..pairs {
        let base = q / per * per;
        let mut coverers = vec![(q, 0.0)];
        while coverers.len() < 6 {
            let p = base + below(per);
            if coverers.iter().all(|&(u, _)| u != p) {
                coverers.push((p, 1.0 + below(3) as f64));
            }
        }
        let y_root = m.add_var(0.0, f64::INFINITY, 4.0);
        let mut assign = vec![(y_root, 1.0)];
        for (p, d) in coverers {
            let y = m.add_var(0.0, f64::INFINITY, d);
            assign.push((y, 1.0));
            m.add_constraint(&[(y, 1.0), (xs[p], -1.0)], Cmp::Le, 0.0);
            edges += 1;
        }
        m.add_constraint(&assign, Cmp::Eq, 1.0);
    }
    (m, edges)
}

/// Allocations of at least `min` bytes made by `f` on this thread, with
/// its result.
fn large_allocs<T>(min: usize, f: impl FnOnce() -> T) -> (u64, T) {
    LARGE.with(|c| c.set((min, 0)));
    let out = f();
    let (_, n) = LARGE.with(|c| c.replace((usize::MAX, 0)));
    (n, out)
}

fn bits(sol: &Solution) -> (u64, Vec<u64>) {
    let values = sol.values.iter().map(|v| v.to_bits()).collect();
    (sol.objective.to_bits(), values)
}

#[test]
fn a_second_solve_on_a_thread_allocates_no_tableau() {
    let (model, edges) = coverage_lp(5, false);
    assert_eq!(edges, 360);
    // The dual's rows: the cardinality equation twice, the 60 `x ≤ 1`
    // bounds, one `y ≤ x` row per edge and every assignment equation
    // twice. Its columns: the variables and one slack per row.
    let rows = 2 + 60 + edges + 2 * 60;
    let cols = 60 + 60 + edges + rows;
    let tableau = 8 * rows * cols;
    assert!(tableau > 4 << 20, "a {rows} x {cols} tableau");

    let (first, a) = large_allocs(tableau, || model.solve_lp_with(LpMethod::Dual).unwrap());
    assert_eq!(first, 1, "the first solve allocates the tableau once");
    let (second, b) = large_allocs(tableau, || model.solve_lp_with(LpMethod::Dual).unwrap());
    assert_eq!(second, 0, "the second solve reuses the thread's buffer");
    assert_eq!(bits(&a), bits(&b));

    // Every node of branch and bound reuses it too.
    let (ilp, _) = coverage_lp(5, true);
    let (nodes, _) = large_allocs(tableau, || ilp.solve_ilp().unwrap());
    assert_eq!(nodes, 0, "branch and bound allocates no tableau");
}
