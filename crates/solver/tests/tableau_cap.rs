//! Pins the dense-tableau cap: a model whose simplex tableau would exceed
//! `MAX_TABLEAU_CELLS` is refused with `SolverError::ModelTooLarge` by
//! every method, and the refusal allocates nothing tableau-sized. Before
//! the cap, such a model aborted the process on the failed allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use osa_solver::{Cmp, LpMethod, Model, SolverError, MAX_TABLEAU_CELLS};

/// Records the largest single allocation requested.
struct PeakAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

#[test]
fn oversized_models_are_refused_without_allocating_the_tableau() {
    // A covering chain: binary x_i, x_i + x_{i+1} >= 1, unit costs. Every
    // row has two terms, so presolve keeps them all: about 16k rows by
    // 32k columns in the primal, a 4 GB tableau.
    let n = 8_000;
    let mut m = Model::minimize();
    let xs: Vec<_> = (0..n).map(|_| m.add_bin_var(1.0)).collect();
    for w in xs.windows(2) {
        m.add_constraint(&[(w[0], 1.0), (w[1], 1.0)], Cmp::Ge, 1.0);
    }
    // The model and its standardized rows take a few MB; the refused
    // tableau would take GBs.
    let small = 64 << 20;

    let refused = |r: Result<_, SolverError>| match r {
        Err(SolverError::ModelTooLarge { rows, cols }) => {
            assert!(rows * cols > MAX_TABLEAU_CELLS, "{rows} x {cols}");
            let msg = SolverError::ModelTooLarge { rows, cols }.to_string();
            assert!(msg.starts_with("model too large"), "{msg}");
        }
        other => panic!("expected ModelTooLarge, got {:?}", other.map(|_| ())),
    };
    for method in [LpMethod::Primal, LpMethod::Dual, LpMethod::Auto] {
        LARGEST.store(0, Ordering::Relaxed);
        refused(m.solve_lp_with(method));
        let largest = LARGEST.load(Ordering::Relaxed);
        assert!(largest < small, "{method:?} allocated {largest} B at once");
    }
    LARGEST.store(0, Ordering::Relaxed);
    refused(m.solve_ilp());
    assert!(LARGEST.load(Ordering::Relaxed) < small);
}
