//! Fault-injection and watchdog integration tests.
//!
//! Three guarantees pin the robustness subsystem:
//!
//! 1. **Determinism** — a fault sweep is a pure function of its seed:
//!    re-running the same sweep yields byte-identical tables, CSVs,
//!    reports, and plans (property-tested over seeds).
//! 2. **Zero-cost default** — running every engine through its faulted
//!    entry point with [`NoFaults`] and an unlimited budget reproduces
//!    the unfaulted cycle counts and breakdowns bit-for-bit, so the
//!    instrumentation cannot perturb the paper's numbers.
//! 3. **Bounded termination** — a deliberately tiny cycle budget makes
//!    every machine × kernel run abort with
//!    [`SimError::BudgetExceeded`] instead of running unboundedly.
//! 4. **Observed faults** — a run that is faulted and traced at once
//!    attributes its ECC and retry cycles to counted spans, so a fold of
//!    the trace still re-adds to the run's cycles and breakdown.

use proptest::prelude::*;
use triarch_core::arch::Architecture;
use triarch_core::faultsweep;
use triarch_kernels::{Kernel, Probe, WorkloadSet};
use triarch_profile::FoldSink;
use triarch_simcore::faults::{FaultInjector, FaultPlan, NoFaults};
use triarch_simcore::{CycleBudget, SimError};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Same seed, same sweep: rendered table, CSV, outcomes, reports,
    /// and derived plans are all byte-identical.
    #[test]
    fn same_seed_sweeps_are_byte_identical(seed in any::<u64>()) {
        let workloads = WorkloadSet::small(5).unwrap();
        let a = faultsweep::sweep(&workloads, seed, 1).unwrap();
        let b = faultsweep::sweep(&workloads, seed, 1).unwrap();
        prop_assert_eq!(a.render(), b.render());
        prop_assert_eq!(a.to_csv(), b.to_csv());
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            prop_assert_eq!(ra.outcome, rb.outcome);
            prop_assert_eq!(ra.report, rb.report);
            prop_assert_eq!(&ra.plan, &rb.plan);
            prop_assert_eq!(&ra.abort, &rb.abort);
        }
    }

    /// Fault effects are a pure function of the plan: two injectors
    /// executing the same campaign against the same machine agree on the
    /// tally even when runs end in a detected abort.
    #[test]
    fn campaign_runs_replay_exactly(seed in any::<u64>(), campaign in 0u64..16) {
        let workloads = WorkloadSet::small(5).unwrap();
        let a = faultsweep::campaign_run(
            Architecture::Viram, Kernel::CornerTurn, &workloads, seed, campaign).unwrap();
        let b = faultsweep::campaign_run(
            Architecture::Viram, Kernel::CornerTurn, &workloads, seed, campaign).unwrap();
        prop_assert_eq!(a.outcome, b.outcome);
        prop_assert_eq!(a.report, b.report);
    }
}

/// `NoFaults` + unlimited budget must be invisible: the faulted entry
/// point reproduces the plain run's cycles and breakdown exactly on
/// every machine × kernel pair.
#[test]
fn nofaults_reproduces_unfaulted_cycles_exactly() {
    let workloads = WorkloadSet::small(42).unwrap();
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let plain = arch.machine().unwrap().run(kernel, &workloads).unwrap();
            let mut machine = arch.machine().unwrap();
            machine.set_cycle_budget(CycleBudget::UNLIMITED);
            let faulted = machine
                .run_with(workloads.get(kernel), Probe::default().with_faults(&mut NoFaults))
                .unwrap();
            assert_eq!(
                plain.cycles, faulted.cycles,
                "{arch}/{kernel}: NoFaults changed the cycle count"
            );
            assert_eq!(
                plain.breakdown.to_string(),
                faulted.breakdown.to_string(),
                "{arch}/{kernel}: NoFaults changed the breakdown"
            );
            assert_eq!(format!("{:?}", plain.verification), format!("{:?}", faulted.verification));
        }
    }
}

/// A quiet fault plan (ECC on, but a rate so low nothing fires on a
/// small workload) must also leave the cycle counts untouched: the cost
/// model charges only actual fault work.
#[test]
fn silent_injector_matches_unfaulted_cycles() {
    let workloads = WorkloadSet::small(42).unwrap();
    let plan = FaultPlan { mean_words_between_faults: u64::MAX / 4, ..FaultPlan::new(1) };
    for arch in Architecture::ALL {
        let plain = arch.machine().unwrap().run(Kernel::CornerTurn, &workloads).unwrap();
        let mut injector = FaultInjector::new(plan.clone());
        let probe = Probe::default().with_faults(&mut injector);
        let faulted =
            arch.machine().unwrap().run_with((&workloads.corner_turn).into(), probe).unwrap();
        assert_eq!(injector.report().injected, 0, "{arch}: fault fired unexpectedly");
        assert_eq!(plain.cycles, faulted.cycles, "{arch}");
    }
}

/// The watchdog: a deliberately tiny budget terminates every machine ×
/// kernel pair with `SimError::BudgetExceeded` — no run survives, hangs,
/// or panics.
#[test]
fn tiny_budget_terminates_every_engine() {
    let workloads = WorkloadSet::small(42).unwrap();
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let mut machine = arch.machine().unwrap();
            machine.set_cycle_budget(CycleBudget::limited(10));
            let result = machine
                .run_with(workloads.get(kernel), Probe::default().with_faults(&mut NoFaults));
            match result {
                Err(SimError::BudgetExceeded { spent, limit }) => {
                    assert_eq!(limit, 10, "{arch}/{kernel}");
                    assert!(spent > limit, "{arch}/{kernel}: spent {spent} <= limit {limit}");
                }
                other => panic!("{arch}/{kernel}: expected BudgetExceeded, got {other:?}"),
            }
        }
    }
}

/// An oversized workload under a realistic-but-insufficient budget also
/// trips the watchdog: budgets bound wall-clock for paper-sized runs too.
#[test]
fn oversized_workload_trips_a_realistic_budget() {
    let workloads = WorkloadSet::paper(42).unwrap();
    let mut machine = Architecture::Viram.machine().unwrap();
    machine.set_cycle_budget(CycleBudget::limited(1_000));
    let err = machine
        .run_with(workloads.get(Kernel::CornerTurn), Probe::default().with_faults(&mut NoFaults))
        .expect_err("a 1024x1024 corner turn cannot fit in 1000 cycles");
    assert!(err.is_detected_abort(), "{err:?}");
    assert!(err.to_string().contains("budget"), "{err}");
}

/// Budgets also bound the *unfaulted* paths: `set_cycle_budget` applies
/// to the plain `run` entry points, not just the faulted ones.
#[test]
fn budget_applies_to_plain_runs_too() {
    let workloads = WorkloadSet::small(42).unwrap();
    for arch in Architecture::ALL {
        let mut machine = arch.machine().unwrap();
        machine.set_cycle_budget(CycleBudget::limited(10));
        let result = machine.run(Kernel::CornerTurn, &workloads);
        assert!(
            matches!(result, Err(SimError::BudgetExceeded { .. })),
            "{arch}: plain run ignored the budget: {result:?}"
        );
    }
}

/// A seeded injector and a folding sink in one probe, on every small
/// cell: each run either aborts with a typed detected fault or watchdog
/// trip, or its fold total equals its cycles and its `ecc` / `retry`
/// fold categories equal its breakdown — fault-handling cycles are
/// traced like any other work.
#[test]
fn faulted_runs_trace_their_ecc_and_retry_cycles() {
    let workloads = WorkloadSet::small(42).unwrap();
    let plan = FaultPlan { mean_words_between_faults: 1024, ..FaultPlan::new(7) };
    let (mut completed, mut fault_cycles) = (0, 0);
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            let mut injector = FaultInjector::new(plan.clone());
            let mut sink = FoldSink::new();
            let probe = Probe::default().with_sink(&mut sink).with_faults(&mut injector);
            let run = match arch.machine().unwrap().run_with(workloads.get(kernel), probe) {
                Ok(run) => run,
                Err(SimError::DetectedFault { .. } | SimError::BudgetExceeded { .. }) => continue,
                Err(e) => panic!("{arch}/{kernel}: untyped abort {e:?}"),
            };
            let fold = sink.into_fold();
            assert_eq!(fold.total(), run.cycles.get(), "{arch}/{kernel}: fold drift");
            for category in ["ecc", "retry"] {
                let charged = run.breakdown.get(category).get();
                assert_eq!(fold.category_total(category), charged, "{arch}/{kernel}: {category}");
                fault_cycles += charged;
            }
            completed += 1;
        }
    }
    assert!(completed > 0, "every cell aborted; nothing was checked");
    assert!(fault_cycles > 0, "no run charged ECC or retry cycles; the plan is too quiet");
}
