//! # osa-check — deterministic differential testing & fault injection
//!
//! The correctness-tooling backbone of the workspace: a seeded harness
//! that generates scenarios (synthesized review corpora and synthetic
//! ontology instances), runs each through the full pipeline across every
//! implementation pair the repo carries — `graph-impl indexed|naive`,
//! `extract-impl interned|naive`, `jobs 1|3|8`, and the summarizers
//! (greedy under both names against the [`oracle::EagerGreedy`]
//! reference, local-search, exact-on-small) — and
//! asserts byte-identical output for impl twins plus the paper-level
//! invariants (C(F, P) non-increasing in k, permutation invariance of
//! pair order, ε-monotone edge sets, heuristic cost ≥ exact cost).
//!
//! With faults enabled, a seeded [`osa_runtime::FaultPlan`] injects
//! per-item panics, NaN-sentiment corruptions, and delays, and the
//! harness asserts the batch engine's isolation contract: the batch
//! completes, failure accounting is jobs-invariant, and surviving items
//! are byte-identical to a fault-free run.
//!
//! On failure, the scenario is [shrunk](shrink_scenario) to a minimal
//! reproducing instance and written as a replayable `check-case.json`.
//!
//! Everything — scenario data, check order, report text — derives from
//! the run seed, so `osars check --seed S --cases N` is byte-
//! deterministic.

#![warn(missing_docs)]

mod differential;
pub mod oracle;
mod scenario;
mod shrink;

pub use differential::{
    check_by_name, scenario_fault_plan, Check, CheckKind, CHECKS, EDIT_SCRIPT_LEN,
    EXACT_MAX_CANDIDATES, JOBS_MATRIX,
};
pub use scenario::{
    granularity_from_name, granularity_name, Scenario, ScenarioKind, SynthInstance,
};
pub use shrink::{shrink_scenario, MAX_SHRINK_TRIALS};

use std::path::PathBuf;

/// Configuration of one `osars check` run.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Run seed — every scenario derives from it.
    pub seed: u64,
    /// Number of scenarios to generate and check.
    pub cases: usize,
    /// Enable deterministic fault injection (adds the fault checks).
    pub faults: bool,
    /// Enable the incremental-vs-rebuild differential oracle: seeded
    /// append/retract edit scripts whose incrementally-updated output
    /// must be byte-identical to a from-scratch rebuild.
    pub edits: bool,
    /// Baseline ancestor-query implementation every pipeline check runs
    /// under (`osars check --ancestor-impl`). The dedicated twin checks
    /// cross dense against segmented regardless of this setting; running
    /// the suite once per value exercises *every* invariant on both
    /// index implementations.
    pub ancestor_impl: osa_ontology::AncestorImpl,
    /// Where to write the shrunk case file on failure
    /// (default `check-case.json`).
    pub case_out: Option<PathBuf>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            seed: 42,
            cases: 25,
            faults: false,
            edits: false,
            ancestor_impl: osa_ontology::AncestorImpl::Dense,
            case_out: None,
        }
    }
}

/// One failed `(case, check)` with its shrink result.
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// Case index.
    pub case: usize,
    /// Name of the failed check.
    pub check: &'static str,
    /// The check's failure description.
    pub message: String,
}

/// Outcome of a run: the deterministic report plus structured failures.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Human-readable run report. Byte-identical for a given config —
    /// it contains no timing and no absolute paths beyond `case_out`.
    pub report: String,
    /// All failures, in case order.
    pub failures: Vec<CheckFailure>,
}

impl CheckOutcome {
    /// Did every check of every case pass?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Run the harness: generate `cfg.cases` scenarios from `cfg.seed`, run
/// every applicable check on each, and shrink + persist the first
/// failing case.
pub fn run_check(cfg: &CheckConfig) -> CheckOutcome {
    let obs = osa_obs::global();
    let mut report = format!(
        "check: seed {}, {} cases, faults {}{}, ancestor {}\n",
        cfg.seed,
        cfg.cases,
        if cfg.faults { "on" } else { "off" },
        if cfg.edits { ", edits on" } else { "" },
        cfg.ancestor_impl.name()
    );
    let mut failures: Vec<CheckFailure> = Vec::new();
    let mut checks_total = 0usize;
    let mut cases_passed = 0usize;
    for case in 0..cfg.cases {
        obs.add("check.cases.run", 1);
        let mut scenario = Scenario::generate(cfg.seed, case);
        scenario.ancestor = cfg.ancestor_impl;
        let mut case_failures: Vec<(&'static str, String)> = Vec::new();
        let mut ran = 0usize;
        for check in CHECKS {
            if !check.applies(&scenario, cfg.faults, cfg.edits) {
                continue;
            }
            obs.add("check.invariants.checked", 1);
            ran += 1;
            if let Err(message) = (check.run)(&scenario) {
                obs.add("check.failures", 1);
                case_failures.push((check.name, message));
            }
        }
        checks_total += ran;
        if case_failures.is_empty() {
            cases_passed += 1;
            report.push_str(&format!(
                "case {case} [{}]: ok ({ran} checks)\n",
                scenario.describe()
            ));
            continue;
        }
        obs.add("check.cases.failed", 1);
        for (name, message) in &case_failures {
            report.push_str(&format!(
                "case {case} [{}]: FAIL {name}: {message}\n",
                scenario.describe()
            ));
        }
        // Shrink and persist the first failure of the run only — later
        // failures usually share the root cause, and one stable artifact
        // is what CI uploads.
        if failures.is_empty() {
            let (name, _) = case_failures[0];
            let check = check_by_name(name).expect("failed check is registered");
            let mut shrunk = Scenario::generate(cfg.seed, case);
            shrunk.ancestor = cfg.ancestor_impl;
            let trials = shrink_scenario(&mut shrunk, check);
            let path = cfg
                .case_out
                .clone()
                .unwrap_or_else(|| PathBuf::from("check-case.json"));
            let doc = shrunk.to_case_value(name, cfg.faults, cfg.edits);
            match std::fs::write(&path, osa_json::to_string_pretty(&doc)) {
                Ok(()) => report.push_str(&format!(
                    "  shrunk to [{}] in {trials} trials; wrote {}\n",
                    shrunk.describe(),
                    path.display()
                )),
                Err(e) => report.push_str(&format!(
                    "  shrunk to [{}] in {trials} trials; could not write {}: {e}\n",
                    shrunk.describe(),
                    path.display()
                )),
            }
        }
        for (check, message) in case_failures {
            failures.push(CheckFailure {
                case,
                check,
                message,
            });
        }
    }
    report.push_str(&format!(
        "summary: {cases_passed}/{} cases passed, {checks_total} checks run, {} failure{}\n",
        cfg.cases,
        failures.len(),
        if failures.len() == 1 { "" } else { "s" }
    ));
    CheckOutcome { report, failures }
}

/// Replay a `check-case.json` document: re-run the recorded check on the
/// embedded scenario and report the result.
pub fn replay_case(json: &str) -> Result<CheckOutcome, String> {
    let doc = osa_json::parse(json).map_err(|e| format!("case file: {e}"))?;
    let (scenario, check_name, faults, edits) = Scenario::from_case_value(&doc)?;
    let check = check_by_name(&check_name)
        .ok_or_else(|| format!("case file references unknown check '{check_name}'"))?;
    if !check.applies(&scenario, faults, edits) {
        return Err(format!(
            "check '{check_name}' does not apply to the embedded scenario"
        ));
    }
    let mut report = format!(
        "replay: case {} [{}], check {check_name}\n",
        scenario.case,
        scenario.describe()
    );
    let mut failures = Vec::new();
    match (check.run)(&scenario) {
        Ok(()) => report.push_str("result: ok\n"),
        Err(message) => {
            report.push_str(&format!("result: FAIL {message}\n"));
            failures.push(CheckFailure {
                case: scenario.case,
                check: check.name,
                message,
            });
        }
    }
    Ok(CheckOutcome { report, failures })
}

/// Install a panic hook that silences deliberately injected panics (the
/// fault checks provoke them on purpose); every other panic still
/// reports through the previous hook. Delegates to
/// [`osa_runtime::quiet_injected_panics`], which recognizes injection by
/// the typed [`osa_runtime::InjectedPanic`] payload — a genuine bug
/// whose message happens to contain "injected" is not silenced.
/// Idempotent.
pub fn quiet_injected_panics() {
    osa_runtime::quiet_injected_panics();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_passes_and_is_deterministic() {
        quiet_injected_panics();
        let cfg = CheckConfig {
            seed: 7,
            cases: 6,
            ..CheckConfig::default()
        };
        let a = run_check(&cfg);
        assert!(a.passed(), "{}", a.report);
        let b = run_check(&cfg);
        assert_eq!(a.report, b.report, "report must be byte-deterministic");
        assert!(a.report.contains("summary: 6/6 cases passed"));
    }

    #[test]
    fn fault_mode_passes_on_a_small_run() {
        quiet_injected_panics();
        let cfg = CheckConfig {
            seed: 7,
            cases: 6,
            faults: true,
            ..CheckConfig::default()
        };
        let outcome = run_check(&cfg);
        assert!(outcome.passed(), "{}", outcome.report);
        assert!(outcome.report.contains("faults on"));
        // Fault mode runs strictly more checks than plain mode (the
        // fault-isolation check joins in on every corpus case).
        let plain = run_check(&CheckConfig {
            faults: false,
            ..cfg
        });
        let checks_run = |r: &str| -> usize {
            let line = r.lines().last().unwrap_or_default();
            line.split(", ")
                .find_map(|part| part.strip_suffix(" checks run"))
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        assert!(
            checks_run(&outcome.report) > checks_run(&plain.report),
            "{} vs {}",
            outcome.report,
            plain.report
        );
    }

    #[test]
    fn edits_mode_passes_and_adds_the_incremental_check() {
        quiet_injected_panics();
        let cfg = CheckConfig {
            seed: 7,
            cases: 4,
            edits: true,
            ..CheckConfig::default()
        };
        let outcome = run_check(&cfg);
        assert!(outcome.passed(), "{}", outcome.report);
        assert!(outcome.report.contains("edits on"));
        let plain = run_check(&CheckConfig {
            edits: false,
            ..cfg.clone()
        });
        let checks_run = |r: &str| -> usize {
            let line = r.lines().last().unwrap_or_default();
            line.split(", ")
                .find_map(|part| part.strip_suffix(" checks run"))
                .and_then(|n| n.parse().ok())
                .unwrap_or(0)
        };
        // Edits mode runs the incremental-vs-rebuild oracle on every
        // corpus case on top of the plain checks.
        assert!(
            checks_run(&outcome.report) > checks_run(&plain.report),
            "{} vs {}",
            outcome.report,
            plain.report
        );
        // Determinism: the edit scripts are seeded, so the whole report
        // reproduces byte for byte.
        assert_eq!(outcome.report, run_check(&cfg).report);
    }

    /// Broad soak across seeds — not part of the default suite (slow);
    /// run explicitly with `cargo test -p osa-check --release -- --ignored`.
    #[test]
    #[ignore]
    fn soak_many_seeds() {
        quiet_injected_panics();
        for seed in [1u64, 2, 3, 42, 1337] {
            for ancestor_impl in [
                osa_ontology::AncestorImpl::Dense,
                osa_ontology::AncestorImpl::Segmented,
            ] {
                let outcome = run_check(&CheckConfig {
                    seed,
                    cases: 60,
                    faults: true,
                    edits: true,
                    ancestor_impl,
                    case_out: Some(std::env::temp_dir().join("osa-check-soak-case.json")),
                });
                assert!(outcome.passed(), "seed {seed}:\n{}", outcome.report);
            }
        }
    }

    #[test]
    fn segmented_baseline_passes_the_whole_suite() {
        quiet_injected_panics();
        let cfg = CheckConfig {
            seed: 7,
            cases: 6,
            ancestor_impl: osa_ontology::AncestorImpl::Segmented,
            ..CheckConfig::default()
        };
        let outcome = run_check(&cfg);
        assert!(outcome.passed(), "{}", outcome.report);
        assert!(outcome.report.contains("ancestor segmented"));
        // Same seed, same case count: the two baselines must agree on
        // everything except the impl labels in the report text.
        let dense = run_check(&CheckConfig {
            ancestor_impl: osa_ontology::AncestorImpl::Dense,
            ..cfg
        });
        assert_eq!(
            outcome.report.replace("segmented", "dense"),
            dense.report,
            "baselines diverge beyond the impl label"
        );
    }

    #[test]
    fn replay_roundtrip_reruns_the_named_check() {
        let scenario = Scenario::generate(5, 2);
        let doc = scenario.to_case_value("graph-impl-equality", false, false);
        let outcome = replay_case(&osa_json::to_string(&doc)).unwrap();
        assert!(outcome.passed(), "{}", outcome.report);
        assert!(outcome.report.contains("graph-impl-equality"));
    }

    #[test]
    fn replay_rejects_unknown_checks() {
        let scenario = Scenario::generate(5, 2);
        let doc = scenario.to_case_value("no-such-check", false, false);
        assert!(replay_case(&osa_json::to_string(&doc)).is_err());
    }
}
