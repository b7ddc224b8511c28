//! `tableau_pool_bytes` counts the tableau memory threads keep between
//! solves: nothing before the first solve, the kept cell buffer and
//! bitmap after one, nothing after a tableau too large to keep, and
//! nothing once the solving thread exits.
//! One test in its own binary, so no other test's solves are counted.

use osa_solver::{tableau_pool_bytes, Cmp, LpMethod, Model};

#[test]
fn pool_bytes_count_the_buffers_kept_between_solves() {
    assert_eq!(tableau_pool_bytes(), 0, "nothing is kept before any solve");

    // Three variables without upper bounds and two rows of two terms
    // each: the dual's tableau is 2 × (3 + 2) cells, one bitmap word.
    let mut m = Model::minimize();
    let x: Vec<_> = (0..3)
        .map(|j| m.add_var(0.0, f64::INFINITY, 1.0 + j as f64))
        .collect();
    m.add_constraint(&[(x[0], 1.0), (x[1], 1.0)], Cmp::Ge, 1.0);
    m.add_constraint(&[(x[1], 1.0), (x[2], 2.0)], Cmp::Ge, 2.0);
    let kept = 8 * (2 * 5 + 1);

    // One row over 2^21 + 1 variables: a tableau over the pooling bound.
    let mut wide = Model::minimize();
    let y: Vec<_> = (0..(1 << 21) + 1)
        .map(|_| wide.add_var(0.0, f64::INFINITY, 1.0))
        .collect();
    wide.add_constraint(&[(y[0], 1.0), (y[1], 1.0)], Cmp::Ge, 1.0);

    // `join` returns after the thread's exit, its thread-locals dropped.
    std::thread::spawn(move || {
        m.solve_lp_with(LpMethod::Dual).unwrap();
        assert_eq!(tableau_pool_bytes(), kept);
        m.solve_lp_with(LpMethod::Dual).unwrap();
        assert_eq!(tableau_pool_bytes(), kept, "a second solve reuses them");
        wide.solve_lp_with(LpMethod::Dual).unwrap();
        assert_eq!(tableau_pool_bytes(), 0, "a tableau over the bound is freed");
    })
    .join()
    .unwrap();
    assert_eq!(tableau_pool_bytes(), 0, "an exited thread keeps nothing");
}
