//! Validation of the `triarch-profile` attribution pipeline end to end:
//! fold totals re-add to every engine's `CycleBreakdown` with drift
//! exactly 0 on all 15 grid cells, and the two byte-stable artifacts —
//! the collapsed-stack ("folded") profiles and the HTML attribution
//! report — are byte-identical across `--jobs` worker counts (1, 2, 16)
//! and across consecutive runs.

use triarch_core::arch::{grid, Architecture};
use triarch_core::experiments::Table3;
use triarch_core::faultsweep;
use triarch_core::htmlreport::{self, FoldedCell, ReportInputs};
use triarch_core::roofline::Scorecard;
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_profile::{flamegraph_svg, is_fold_safe};

const SEED: u64 = 42;

/// Worker counts checked against the serial baseline; 16 oversubscribes
/// the 15-cell grid.
const WORKER_COUNTS: [usize; 2] = [2, 16];

fn folds_at(jobs: usize) -> Vec<FoldedCell> {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let (folds, _) = htmlreport::collect_folds_jobs(&workloads, jobs).unwrap();
    folds
}

/// The concatenated collapsed-stack rendering of a full grid.
fn collapsed_corpus(folds: &[FoldedCell]) -> String {
    folds
        .iter()
        .map(|c| c.fold.render_collapsed(c.arch.name(), c.kernel.name()))
        .collect::<Vec<_>>()
        .join("")
}

#[test]
fn fold_totals_readd_to_breakdowns_with_drift_zero_on_all_cells() {
    let folds = folds_at(1);
    assert_eq!(folds.len(), grid().len());
    assert_eq!(folds.len(), 18);
    for cell in &folds {
        // Total conservation: fold total == engine-reported cycles.
        assert_eq!(cell.fold_drift(), 0, "{}: fold drift", cell.label());
        // Per-category conservation: each breakdown category's cycles
        // equal the fold's per-category sum exactly.
        for (category, cycles) in cell.run.breakdown.iter() {
            assert_eq!(
                cell.fold.category_total(category),
                cycles.get(),
                "{}: category '{category}'",
                cell.label(),
            );
        }
    }
}

/// Span-label hygiene: every counted span on every cell uses fold-safe
/// frame labels (`[A-Za-z0-9._/-]`), so collapsed stacks never need
/// lossy sanitization and the flamegraph color keys stay 1:1 with the
/// engines' `CycleBreakdown` categories.
#[test]
fn counted_span_labels_are_fold_safe_on_every_cell() {
    for cell in &folds_at(1) {
        assert!(!cell.fold.is_empty(), "{}: no counted spans", cell.label());
        for (category, name, _) in cell.fold.iter() {
            assert!(is_fold_safe(category), "{}: unsafe category '{category}'", cell.label());
            assert!(is_fold_safe(name), "{}: unsafe span label '{name}'", cell.label());
        }
    }
}

#[test]
fn collapsed_stacks_are_byte_identical_across_worker_counts() {
    let baseline = collapsed_corpus(&folds_at(1));
    assert!(!baseline.is_empty());
    for jobs in WORKER_COUNTS {
        assert_eq!(baseline, collapsed_corpus(&folds_at(jobs)), "jobs {jobs}");
    }
    // And across consecutive runs at the same worker count.
    assert_eq!(baseline, collapsed_corpus(&folds_at(1)));
}

#[test]
fn flamegraph_svgs_are_byte_identical_across_worker_counts() {
    let svg_corpus = |folds: &[FoldedCell]| {
        folds
            .iter()
            .map(|c| flamegraph_svg(c.arch.name(), c.kernel.name(), &c.fold))
            .collect::<Vec<_>>()
            .join("")
    };
    let baseline = svg_corpus(&folds_at(1));
    for jobs in WORKER_COUNTS {
        assert_eq!(baseline, svg_corpus(&folds_at(jobs)), "jobs {jobs}");
    }
}

/// Renders the full HTML report from a grid folded at `jobs` workers.
fn report_at(jobs: usize) -> String {
    let workloads = WorkloadSet::small(SEED).unwrap();
    let (folds, _) = htmlreport::collect_folds_jobs(&workloads, jobs).unwrap();
    let table3 =
        Table3::from_runs(folds.iter().map(|c| ((c.arch, c.kernel), c.run.clone())).collect());
    let scorecard = Scorecard::compute(&table3, &workloads).unwrap();
    let sweep = faultsweep::sweep(&workloads, SEED, 2).unwrap();
    htmlreport::render(&ReportInputs {
        table3: &table3,
        scorecard: &scorecard,
        sweep: &sweep,
        folds: &folds,
        workloads: &workloads,
        workload_kind: "small",
    })
    .unwrap()
}

#[test]
fn html_report_is_byte_identical_across_worker_counts() {
    let baseline = report_at(1);
    for arch in Architecture::ALL {
        for kernel in Kernel::ALL {
            assert!(baseline.contains(&format!("{arch} / {kernel}")), "{arch}/{kernel}");
        }
    }
    for jobs in WORKER_COUNTS {
        assert_eq!(baseline, report_at(jobs), "report differs at jobs {jobs}");
    }
}

#[test]
fn table3_from_folded_runs_matches_the_direct_grid() {
    use triarch_core::experiments;
    let workloads = WorkloadSet::small(SEED).unwrap();
    let direct = experiments::table3(&workloads).unwrap();
    let folds = folds_at(1);
    let folded =
        Table3::from_runs(folds.iter().map(|c| ((c.arch, c.kernel), c.run.clone())).collect());
    assert_eq!(direct.render(), folded.render());
    assert_eq!(direct.render_breakdowns(), folded.render_breakdowns());
}
