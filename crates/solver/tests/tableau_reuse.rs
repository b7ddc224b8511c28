//! Each thread reuses the cell buffer and bitmap of its last tableau, and
//! a dropped tableau scrubs only its listed cells. This drives one seeded
//! sequence of dual, primal and branch-and-bound solves on one thread,
//! through growing and shrinking shapes (widths 63, 64 and 65 among them),
//! infeasible models, a refused oversized model and a tableau too large to
//! keep, and holds every outcome bit for bit to the same solve on a fresh
//! thread, whose buffers have never been used. In debug builds
//! `Tableau::new` also asserts that every buffer it takes reads all-zero.

use osa_solver::{Cmp, LpMethod, Model, Solution, SolverError, Status, VarId};

/// A seeded xorshift generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// `rows` covering rows `Σ x ≥ rhs` of two to four terms over `nv`
/// variables with small integer coefficients and non-negative costs. With
/// no finite upper bound, the dual's tableau is `rows × (nv + rows)`.
/// When `ub` is finite, every variable gets it, which adds `nv` rows; a
/// small `ub` under a large `rhs` makes the model infeasible. For
/// branch and bound the variables are binary.
fn covering(rng: &mut Rng, how: Solve, nv: usize, rows: usize, ub: f64, rhs: f64) -> Model {
    let mut m = Model::minimize();
    let xs: Vec<VarId> = (0..nv)
        .map(|_| {
            let cost = 1.0 + rng.below(5) as f64;
            match how {
                Solve::Ilp => m.add_bin_var(cost),
                _ => m.add_var(0.0, ub, cost),
            }
        })
        .collect();
    for _ in 0..rows {
        let len = 2 + rng.below(3);
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        while terms.len() < len {
            let x = xs[rng.below(nv)];
            if terms.iter().all(|&(y, _)| y != x) {
                terms.push((x, 1.0 + rng.below(3) as f64));
            }
        }
        m.add_constraint(&terms, Cmp::Ge, rhs);
    }
    m
}

/// A covering chain over `n` binaries: about `2n × 4n` cells in the
/// primal, far over the tableau cap.
fn oversized(n: usize) -> Model {
    let mut m = Model::minimize();
    let xs: Vec<_> = (0..n).map(|_| m.add_bin_var(1.0)).collect();
    for w in xs.windows(2) {
        m.add_constraint(&[(w[0], 1.0), (w[1], 1.0)], Cmp::Ge, 1.0);
    }
    m
}

#[derive(Clone, Copy, Debug)]
enum Solve {
    Dual,
    Primal,
    Ilp,
}

/// The outcome of `how` on `model`, with every float as its bits.
fn run(model: &Model, how: Solve) -> Result<(Status, u64, Vec<u64>), SolverError> {
    let sol: Solution = match how {
        Solve::Dual => model.solve_lp_with(LpMethod::Dual)?,
        Solve::Primal => model.solve_lp_with(LpMethod::Primal)?,
        Solve::Ilp => model.solve_ilp()?,
    };
    Ok((
        sol.status,
        sol.objective.to_bits(),
        sol.values.iter().map(|v| v.to_bits()).collect(),
    ))
}

#[test]
fn reused_buffers_solve_like_fresh_ones() {
    let mut rng = Rng(0x5eed_7ab1_e5ee_d000);
    let mut steps: Vec<(Model, Solve)> = Vec::new();
    let step = |rng: &mut Rng, how, nv, rows, ub, rhs| (covering(rng, how, nv, rows, ub, rhs), how);
    let inf = f64::INFINITY;
    // Dual widths 63, 64 and 65 (nv + rows), growing and shrinking
    // between row counts so row ends fall inside and at word ends.
    for (nv, rows) in [(40, 23), (40, 24), (40, 25), (20, 43), (33, 31), (20, 45)] {
        steps.push(step(&mut rng, Solve::Dual, nv, rows, inf, 2.0));
    }
    // A larger tableau, then a much smaller one on the grown buffer.
    steps.push(step(&mut rng, Solve::Dual, 90, 120, inf, 3.0));
    steps.push(step(&mut rng, Solve::Primal, 8, 5, inf, 1.0));
    // Infeasible: unit bounds under right-hand sides no row can reach.
    steps.push(step(&mut rng, Solve::Dual, 30, 34, 1.0, 40.0));
    steps.push(step(&mut rng, Solve::Primal, 30, 34, 1.0, 40.0));
    // A refusal between two solves leaves the pool as it was.
    steps.push((oversized(8_000), Solve::Dual));
    steps.push(step(&mut rng, Solve::Ilp, 25, 39, 1.0, 1.0));
    // Over the 2^21-cell pooling bound: 110 × 20,110 cells, freed on
    // drop; the next solve starts from a fresh buffer again.
    steps.push(step(&mut rng, Solve::Dual, 20_000, 110, inf, 1.0));
    for _ in 0..12 {
        let how = [Solve::Dual, Solve::Primal, Solve::Ilp][rng.below(3)];
        let (nv, rows) = (5 + rng.below(60), 3 + rng.below(60));
        let ub = if rng.below(2) == 0 { 1.0 } else { inf };
        steps.push(step(&mut rng, how, nv, rows, ub, 1.0));
    }

    let (mut refused, mut infeasible) = (0, 0);
    for (i, (model, how)) in steps.iter().enumerate() {
        let reused = run(model, *how);
        let fresh = std::thread::scope(|s| s.spawn(|| run(model, *how)).join().unwrap());
        assert_eq!(
            reused, fresh,
            "step {i} ({how:?}) differs from a fresh thread"
        );
        match reused {
            Err(SolverError::ModelTooLarge { .. }) => refused += 1,
            Ok((Status::Infeasible, ..)) => infeasible += 1,
            _ => {}
        }
    }
    assert_eq!(refused, 1, "exactly the oversized model is refused");
    assert!(infeasible >= 2, "the infeasible models reach the solver");
}
