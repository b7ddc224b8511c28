//! Deterministic, seeded fault injection for batch runs.
//!
//! A [`FaultPlan`] maps every item index to at most one [`Fault`] as a
//! pure function of `(plan seed, item index)` — the same SplitMix64 mix
//! as [`item_seed`](crate::item_seed) — so a plan assigns identical
//! faults no matter how many workers run the batch or in which order
//! items are claimed. That determinism is what lets the `osa-check`
//! harness assert that failed/retried sets are jobs-invariant and that
//! the surviving items' output is byte-identical to a fault-free run.

use crate::item_seed;

/// Uniform draw in `[0, 1)` from the 53 high bits of a mixed word.
fn unit(r: u64) -> f64 {
    (r >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded per-item fault assignment. Rates are cumulative-checked in
/// field order, so they should sum to at most 1.0; the remainder is the
/// probability of no fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream — independent of the corpus seed, so
    /// faults can be re-rolled without changing the workload.
    pub seed: u64,
    /// Probability an item panics on its first attempt only (a retry
    /// succeeds — models a transient glitch).
    pub transient_panic_rate: f64,
    /// Probability an item panics on every attempt (permanent failure).
    pub sticky_panic_rate: f64,
    /// Probability the item's extraction counts as NaN-poisoned: an
    /// item with at least one pair then fails every attempt with a typed
    /// [`InjectedPanic`] (see [`Fault::apply`]). The graph builders' own
    /// NaN guard is unit-tested in `osa-core`.
    pub nan_rate: f64,
    /// Probability the item's work is delayed before running. Delays
    /// perturb scheduling only; results must not change.
    pub delay_rate: f64,
    /// Exclusive upper bound of an injected delay, in microseconds.
    pub max_delay_micros: u64,
}

impl FaultPlan {
    /// The default fault mix used by `osars check --faults`: roughly a
    /// third of items faulted, split across every fault class.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_panic_rate: 0.12,
            sticky_panic_rate: 0.08,
            nan_rate: 0.08,
            delay_rate: 0.10,
            max_delay_micros: 400,
        }
    }

    /// A plan that injects nothing (useful as a control).
    pub fn none(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_panic_rate: 0.0,
            sticky_panic_rate: 0.0,
            nan_rate: 0.0,
            delay_rate: 0.0,
            max_delay_micros: 0,
        }
    }

    /// The fault assigned to `item` — a pure function of
    /// `(self.seed, item)`, independent of scheduling.
    pub fn fault_for(&self, item: usize) -> Fault {
        let r = item_seed(self.seed, item as u64);
        let u = unit(r);
        // A second, independent draw sizes an injected delay.
        let param = item_seed(r, 0xFA);
        let mut edge = self.transient_panic_rate;
        if u < edge {
            return Fault::Panic {
                failing_attempts: 1,
            };
        }
        edge += self.sticky_panic_rate;
        if u < edge {
            return Fault::Panic {
                failing_attempts: u32::MAX,
            };
        }
        edge += self.nan_rate;
        if u < edge {
            return Fault::NanSentiment;
        }
        edge += self.delay_rate;
        if u < edge {
            return Fault::Delay {
                micros: param % self.max_delay_micros.max(1),
            };
        }
        Fault::None
    }
}

impl Fault {
    /// Run `work` as attempt `attempt` of batch item `item` under this
    /// fault — the wrapper the batch engine puts around its work closure:
    ///
    /// * [`Fault::Panic`] raises an [`InjectedPanic`] instead of running
    ///   `work` while `attempt < failing_attempts`;
    /// * [`Fault::Delay`] sleeps, then runs `work`;
    /// * [`Fault::NanSentiment`] runs `work`, then raises an
    ///   [`InjectedPanic`] if `has_pairs` says the result came from an
    ///   item with at least one extracted pair (a poisoned pair is a
    ///   permanent failure; an item without pairs has nothing to
    ///   poison);
    /// * [`Fault::None`] just runs `work`.
    pub fn apply<R>(
        self,
        item: usize,
        attempt: u32,
        work: impl FnOnce() -> R,
        has_pairs: impl FnOnce(&R) -> bool,
    ) -> R {
        match self {
            Fault::Panic { failing_attempts } if attempt < failing_attempts => {
                injected_panic(format!("injected panic (item {item}, attempt {attempt})"))
            }
            Fault::Delay { micros } => std::thread::sleep(std::time::Duration::from_micros(micros)),
            _ => {}
        }
        let out = work();
        if self == Fault::NanSentiment && has_pairs(&out) {
            injected_panic(format!("injected NaN sentiments (item {item})"));
        }
        out
    }
}

/// One item's injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// No fault: the item runs normally.
    None,
    /// Panic while the attempt counter is below `failing_attempts`
    /// (`u32::MAX` = panic on every attempt, i.e. a sticky failure).
    Panic {
        /// Number of leading attempts that panic.
        failing_attempts: u32,
    },
    /// A NaN-corrupted extracted sentiment: a permanent failure of every
    /// item that has pairs (no-op on items without).
    NanSentiment,
    /// Sleep for `micros` before doing the work.
    Delay {
        /// Injected delay in microseconds.
        micros: u64,
    },
}

/// Marker payload carried by every panic this codebase raises **on
/// purpose** — the fault plan's `Panic` and `NanSentiment` faults and
/// the daemon's `?inject=panic` hook. Raised via [`injected_panic`]
/// (`std::panic::panic_any`), so handlers recognize injection by
/// **payload type** (`downcast_ref::<InjectedPanic>`) instead of
/// substring-matching the message: a genuine bug whose panic text
/// happens to contain "injected" is no longer silenced.
#[derive(Debug)]
pub struct InjectedPanic(pub String);

/// Raise a deliberately injected panic carrying the typed
/// [`InjectedPanic`] marker payload.
pub fn injected_panic(message: String) -> ! {
    std::panic::panic_any(InjectedPanic(message))
}

/// Install a process-wide panic hook that suppresses the default
/// backtrace spam for [`InjectedPanic`] payloads only — injected
/// panics are provoked on purpose (fault plans, `?inject=panic`) and
/// answered by design, so a backtrace per poisoned item would drown
/// the log. Every other panic still prints through the previous hook.
/// Idempotent; shared by the serve daemon, the `osa-check` harness,
/// and their test binaries.
pub fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                prev(info);
            }
        }));
    });
}

/// A permanently failed item in a [`BatchReport`](crate::BatchReport):
/// every attempt panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemFailure {
    /// Item index in the batch.
    pub item: usize,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// Panic message of the final attempt.
    pub message: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_assignment_is_deterministic() {
        let plan = FaultPlan::with_seed(7);
        for item in 0..200 {
            assert_eq!(plan.fault_for(item), plan.fault_for(item), "item {item}");
        }
        // Different seeds reshuffle the assignment.
        let other = FaultPlan::with_seed(8);
        assert!((0..200).any(|i| plan.fault_for(i) != other.fault_for(i)));
    }

    #[test]
    fn default_mix_hits_every_fault_class() {
        let plan = FaultPlan::with_seed(42);
        let faults: Vec<Fault> = (0..2000).map(|i| plan.fault_for(i)).collect();
        assert!(faults.contains(&Fault::None));
        assert!(faults.iter().any(|f| matches!(
            f,
            Fault::Panic {
                failing_attempts: 1
            }
        )));
        assert!(faults.iter().any(|f| matches!(
            f,
            Fault::Panic {
                failing_attempts: u32::MAX
            }
        )));
        assert!(faults.contains(&Fault::NanSentiment));
        assert!(faults.iter().any(|f| matches!(f, Fault::Delay { .. })));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::none(3);
        assert!((0..500).all(|i| plan.fault_for(i) == Fault::None));
    }

    #[test]
    fn nan_faults_fail_only_items_with_pairs() {
        quiet_injected_panics();
        let run = |fault: Fault, pairs: usize| {
            std::panic::catch_unwind(|| fault.apply(0, 0, || pairs, |&n| n > 0))
        };
        assert!(run(Fault::NanSentiment, 3).is_err());
        assert_eq!(run(Fault::NanSentiment, 0).ok(), Some(0));
        // Every other fault leaves a completed result alone.
        for f in [
            Fault::None,
            Fault::Panic {
                failing_attempts: 0,
            },
            Fault::Delay { micros: 10 },
        ] {
            assert_eq!(run(f, 3).ok(), Some(3), "{f:?}");
        }
    }

    #[test]
    fn delays_respect_the_bound() {
        let plan = FaultPlan {
            delay_rate: 1.0,
            ..FaultPlan::none(11)
        };
        for i in 0..500 {
            match plan.fault_for(i) {
                Fault::Delay { micros } => assert!(micros < plan.max_delay_micros.max(1)),
                f => panic!("expected a delay, got {f:?}"),
            }
        }
    }
}
