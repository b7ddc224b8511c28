//! Property tests for the LP/ILP solver substrate: solutions are always
//! feasible, LP optima dominate every sampled feasible point, and the
//! branch & bound matches dynamic programming on knapsack instances.

use osars::solver::{Cmp, Model, Status};
use proptest::prelude::*;

const FEAS_TOL: f64 = 1e-6;

/// Random bounded LP: minimize cᵀx over box [0, u] with ≤ constraints
/// having non-negative coefficients (always feasible at x = 0).
#[derive(Debug, Clone)]
struct RandomLp {
    costs: Vec<f64>,
    ubs: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
}

fn arb_lp() -> impl Strategy<Value = RandomLp> {
    (1usize..=4, 0usize..=4)
        .prop_flat_map(|(nv, nc)| {
            let costs = proptest::collection::vec(-5i8..=5, nv..=nv);
            let ubs = proptest::collection::vec(1u8..=10, nv..=nv);
            let rows = proptest::collection::vec(
                (proptest::collection::vec(0u8..=3, nv..=nv), 1u8..=20),
                nc..=nc,
            );
            (costs, ubs, rows)
        })
        .prop_map(|(costs, ubs, rows)| RandomLp {
            costs: costs.into_iter().map(f64::from).collect(),
            ubs: ubs.into_iter().map(f64::from).collect(),
            rows: rows
                .into_iter()
                .map(|(coefs, rhs)| (coefs.into_iter().map(f64::from).collect(), f64::from(rhs)))
                .collect(),
        })
}

fn build(lp: &RandomLp) -> (Model, Vec<osars::solver::VarId>) {
    let mut m = Model::minimize();
    let xs: Vec<_> = lp
        .costs
        .iter()
        .zip(&lp.ubs)
        .map(|(&c, &u)| m.add_var(0.0, u, c))
        .collect();
    for (coefs, rhs) in &lp.rows {
        let terms: Vec<_> = xs.iter().copied().zip(coefs.iter().copied()).collect();
        m.add_constraint(&terms, Cmp::Le, *rhs);
    }
    (m, xs)
}

fn is_feasible(lp: &RandomLp, x: &[f64]) -> bool {
    x.iter()
        .zip(&lp.ubs)
        .all(|(&v, &u)| v >= -FEAS_TOL && v <= u + FEAS_TOL)
        && lp.rows.iter().all(|(coefs, rhs)| {
            x.iter().zip(coefs).map(|(v, c)| v * c).sum::<f64>() <= rhs + FEAS_TOL
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lp_solution_is_feasible_and_dominant(lp in arb_lp(), probe in proptest::collection::vec(0.0f64..1.0, 4)) {
        let (m, _) = build(&lp);
        let sol = m.solve_lp().expect("bounded LP");
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(is_feasible(&lp, &sol.values), "solver returned infeasible point");

        // The optimum dominates a sampled feasible point (scaled box
        // point pushed inside the constraints).
        let mut cand: Vec<f64> = probe
            .iter()
            .zip(&lp.ubs)
            .map(|(&p, &u)| p * u)
            .collect();
        // Scale down until feasible (coefficients are non-negative).
        let mut scale = 1.0f64;
        for (coefs, rhs) in &lp.rows {
            let lhs: f64 = cand.iter().zip(coefs).map(|(v, c)| v * c).sum();
            if lhs > *rhs {
                scale = scale.min(rhs / lhs);
            }
        }
        for v in &mut cand {
            *v *= scale;
        }
        prop_assert!(is_feasible(&lp, &cand));
        let cand_obj: f64 = cand.iter().zip(&lp.costs).map(|(v, c)| v * c).sum();
        prop_assert!(
            sol.objective <= cand_obj + 1e-6,
            "optimum {} beaten by sample {}",
            sol.objective,
            cand_obj
        );
    }

    #[test]
    fn ilp_matches_knapsack_dp(
        values in proptest::collection::vec(1u16..=30, 1..=8),
        weights in proptest::collection::vec(1u16..=10, 1..=8),
        capacity in 1u16..=30,
    ) {
        let n = values.len().min(weights.len());
        let values = &values[..n];
        let weights = &weights[..n];

        // DP reference.
        let cap = capacity as usize;
        let mut dp = vec![0u32; cap + 1];
        for i in 0..n {
            let w = weights[i] as usize;
            let v = u32::from(values[i]);
            for c in (w..=cap).rev() {
                dp[c] = dp[c].max(dp[c - w] + v);
            }
        }
        let best = dp[cap];

        // ILP.
        let mut m = Model::minimize();
        let xs: Vec<_> = values.iter().map(|&v| m.add_bin_var(-f64::from(v))).collect();
        let terms: Vec<_> = xs
            .iter()
            .copied()
            .zip(weights.iter().map(|&w| f64::from(w)))
            .collect();
        m.add_constraint(&terms, Cmp::Le, f64::from(capacity));
        let sol = m.solve_ilp().expect("knapsack solves");
        prop_assert_eq!(sol.status, Status::Optimal);
        prop_assert!(
            (sol.objective + f64::from(best)).abs() < 1e-6,
            "ILP {} vs DP {}",
            -sol.objective,
            best
        );
    }

    #[test]
    fn lp_relaxation_never_exceeds_ilp(
        values in proptest::collection::vec(1u16..=20, 2..=6),
        capacity in 2u16..=20,
    ) {
        // Same knapsack; LP bound must dominate (min: LP ≤ ILP).
        let mut m = Model::minimize();
        let xs: Vec<_> = values.iter().map(|&v| m.add_bin_var(-f64::from(v))).collect();
        let terms: Vec<_> = xs.iter().map(|&x| (x, 2.0)).collect();
        m.add_constraint(&terms, Cmp::Le, f64::from(capacity));
        let lp = m.solve_lp().expect("lp").objective;
        let ilp = m.solve_ilp().expect("ilp").objective;
        prop_assert!(lp <= ilp + 1e-6, "LP {} > ILP {}", lp, ilp);
    }
}

// --- degenerate corner cases ----------------------------------------------
//
// The property blocks above only generate feasible, bounded, non-degenerate
// models; these pin the solver's behavior on the pathological shapes the
// differential harness can feed it.

#[test]
fn infeasible_model_reports_infeasible() {
    // x ∈ [0, 1] but a constraint demands x ≥ 2: no feasible point.
    let mut m = Model::minimize();
    let x = m.add_var(0.0, 1.0, 1.0);
    m.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
    let sol = m
        .solve_lp()
        .expect("infeasibility is a status, not an error");
    assert_eq!(sol.status, Status::Infeasible);

    // The ILP path surfaces the same status for an integer variable.
    let mut m = Model::minimize();
    let x = m.add_int_var(0.0, 1.0, 1.0);
    m.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
    let sol = m
        .solve_ilp()
        .expect("infeasibility is a status, not an error");
    assert_eq!(sol.status, Status::Infeasible);
}

#[test]
fn unbounded_objective_is_an_error() {
    // minimize −x with x free above: the objective dives to −∞.
    let mut m = Model::minimize();
    let _ = m.add_var(0.0, f64::INFINITY, -1.0);
    assert!(matches!(
        m.solve_lp(),
        Err(osars::solver::SolverError::Unbounded)
    ));
}

#[test]
fn integral_relaxation_solves_at_the_root_node() {
    // min x + y s.t. x ≥ 1, y ≥ 1 over integer boxes: the LP relaxation
    // lands on the integral vertex (1, 1), so branch & bound must finish
    // without branching — pinned by allowing it exactly one node.
    use osars::solver::IlpOptions;
    let mut m = Model::minimize();
    let x = m.add_int_var(0.0, 3.0, 1.0);
    let y = m.add_int_var(0.0, 3.0, 1.0);
    m.add_constraint(&[(x, 1.0)], Cmp::Ge, 1.0);
    m.add_constraint(&[(y, 1.0)], Cmp::Ge, 1.0);
    let opts = IlpOptions {
        max_nodes: 1,
        ..IlpOptions::default()
    };
    let sol = m.solve_ilp_with(&opts).expect("root relaxation solves");
    assert_eq!(
        sol.status,
        Status::Optimal,
        "root node must prove optimality"
    );
    assert!((sol.objective - 2.0).abs() < 1e-9);
    assert!((sol.value(x) - 1.0).abs() < 1e-6);
    assert!((sol.value(y) - 1.0).abs() < 1e-6);
}

#[test]
fn degenerate_ties_do_not_cycle() {
    // Beale's classic cycling example: every basic feasible solution on
    // the way to the optimum is degenerate (RHS zeros force ratio-test
    // ties), and a naive largest-coefficient pivot rule loops forever.
    // The solver must break the ties consistently and reach the known
    // optimum −0.05 instead of hitting its iteration cap.
    let mut m = Model::minimize();
    let x1 = m.add_var(0.0, f64::INFINITY, -0.75);
    let x2 = m.add_var(0.0, f64::INFINITY, 150.0);
    let x3 = m.add_var(0.0, 1.0, -0.02);
    let x4 = m.add_var(0.0, f64::INFINITY, 6.0);
    m.add_constraint(
        &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Cmp::Le,
        0.0,
    );
    m.add_constraint(
        &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Cmp::Le,
        0.0,
    );
    let sol = m.solve_lp().expect("degenerate pivots must not cycle");
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - (-0.05)).abs() < 1e-9,
        "objective {} != -0.05",
        sol.objective
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dual_simplex_matches_primal_on_nonnegative_costs(
        costs in proptest::collection::vec(0u8..=5, 1..=4),
        ubs in proptest::collection::vec(1u8..=8, 1..=4),
        rows in proptest::collection::vec(
            (proptest::collection::vec(-2i8..=3, 4), -5i8..=20, 0u8..=2),
            0..=4,
        ),
    ) {
        use osars::solver::LpMethod;
        let n = costs.len().min(ubs.len());
        let mut m = Model::minimize();
        let xs: Vec<_> = (0..n)
            .map(|j| m.add_var(0.0, f64::from(ubs[j]), f64::from(costs[j])))
            .collect();
        for (coefs, rhs, cmp) in &rows {
            let terms: Vec<_> = xs
                .iter()
                .copied()
                .zip(coefs.iter().map(|&c| f64::from(c)))
                .collect();
            let cmp = match cmp {
                0 => Cmp::Le,
                1 => Cmp::Ge,
                _ => Cmp::Eq,
            };
            m.add_constraint(&terms, cmp, f64::from(*rhs));
        }
        let p = m.solve_lp().expect("primal solves bounded model");
        let d = m.solve_lp_with(LpMethod::Dual).expect("costs are non-negative");
        prop_assert_eq!(p.status, d.status, "status mismatch");
        if p.status == Status::Optimal {
            prop_assert!(
                (p.objective - d.objective).abs() < 1e-6,
                "primal {} vs dual {}",
                p.objective,
                d.objective
            );
        }
    }
}

// --- golden digest --------------------------------------------------------
//
// Bit-level pin of the exact solvers on the Figs. 4–5 coverage LPs: any
// change to a pivot rule, to the order of the floating-point operations
// or to the branch & bound search moves this digest. A change that is
// meant to keep every pivot must leave it exactly as it is.

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn solution(&mut self, s: &osars::solver::Solution) {
        self.word(s.status as u64);
        self.word(s.objective.to_bits());
        self.word(s.values.len() as u64);
        for v in &s.values {
            self.word(v.to_bits());
        }
    }

    fn summary(&mut self, s: &osars::core::Summary) {
        self.word(s.cost);
        self.word(s.selected.len() as u64);
        for &u in &s.selected {
            self.word(u as u64);
        }
    }
}

/// Recorded with dense pivot loops that updated every cell of every
/// row; the row-indexed kernel must reproduce it bit for bit.
const GOLDEN_DIGEST: u64 = 0x9d15_517e_5722_1ffb;

#[test]
fn exact_solvers_match_the_golden_digest_on_coverage_lps() {
    use osars::core::{
        __diag_build_model, Granularity, IlpSummarizer, RandomizedRounding, Summarizer,
    };
    use osars::solver::LpMethod;

    let w = osa_bench::quant_workload(6, 40, 2024);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    for (i, item) in w.items.iter().enumerate() {
        for g in [
            Granularity::Pairs,
            Granularity::Sentences,
            Granularity::Reviews,
        ] {
            let graph = item.graph(&w.hierarchy, 0.5, g);
            for k in [2, 4] {
                d.summary(&IlpSummarizer.summarize(&graph, k));
                d.summary(&RandomizedRounding::with_seed(7 + i as u64).summarize(&graph, k));
                // The LP relaxation itself, through both simplex methods.
                let (model, _, _) = __diag_build_model(&graph, k, false);
                d.solution(&model.solve_lp_with(LpMethod::Auto).expect("coverage LP"));
                if g == Granularity::Pairs {
                    d.solution(&model.solve_lp_with(LpMethod::Primal).expect("coverage LP"));
                }
            }
        }
    }
    assert_eq!(d.0, GOLDEN_DIGEST, "golden digest moved: {:#018x}", d.0);
}
