//! `report-paper`: one operation is the HTML attribution report,
//! `driver::report_html(&WorkloadSet::paper(seed), Paper, seed, 8, 2)`:
//! fold + timeline observers on all 18 cells, a 144-run fault sweep, the
//! roofline scorecard, and the HTML render.
//!
//! It runs the same engines as `grid-paper`, but traced and faulted, so
//! the observer, fault, render and pool layers do most of the work: a
//! traced-path gain that costs the untraced path (or the reverse) shows
//! on one of the two.

use triarch_core::arch::{grid, Architecture, MachineSpec};
use triarch_core::driver::{self, cell_slug, WorkloadKind, DEFAULT_CAMPAIGNS};
use triarch_core::faultsweep::{self, SweepTable};
use triarch_core::htmlreport::{self, FoldedCell, ReportInputs};
use triarch_core::parallel::{run_jobs, PoolStats};
use triarch_core::roofline::Scorecard;
use triarch_core::timelinedoc;
use triarch_core::Table3;
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_timeline::DEFAULT_WINDOW;

use crate::spans::{median_ms, Recorder};
use crate::{
    closed_loop, end_to_end, finish_trace, peak_rss_mib, pool_metrics, probe, sliced, stats, timed,
    Opts, Outcome, SERVE,
};

/// Pool workers per report.
const JOBS: usize = 2;

/// Every cell's fold and timeline re-add to its cycle count exactly.
fn drift_free(folds: &[FoldedCell]) -> bool {
    folds.len() == grid().len()
        && folds.iter().all(|c| c.fold_drift() == 0 && c.timeline_drift() == 0)
}

/// What one traced report produced.
struct Traced {
    html: String,
    folds: Vec<FoldedCell>,
    table3: Table3,
    scorecard: Scorecard,
    sweep: SweepTable,
    pools: Vec<PoolStats>,
}

/// The traced operation: `report_html`'s steps called one by one, with
/// spans around each layer and around every pool job.
fn traced_report(rec: &Recorder, op: u64, w: &WorkloadSet, seed: u64) -> Result<Traced, String> {
    rec.time(op, None, "bench", "report-paper", |root| {
        let (folds, fold_pool) = rec
            .time(op, Some(root), "pool", "pool.folds", |batch| {
                run_jobs(JOBS, grid(), |(arch, kernel)| {
                    let ((run, fold, timeline), wall) = rec.time(
                        op,
                        Some(batch),
                        "observe",
                        format!("observe.{}", cell_slug(arch, kernel)),
                        |_| {
                            let t = std::time::Instant::now();
                            MachineSpec::Paper(arch)
                                .run_cell_folded_windowed(kernel, w, DEFAULT_WINDOW)
                                .map(|r| (r, t.elapsed()))
                        },
                    )?;
                    Ok(FoldedCell { arch, kernel, run, fold, timeline, wall })
                })
            })
            .map_err(|e| e.to_string())?;
        let table3 = driver::table_from_folds(&folds);
        let scorecard = rec
            .time(op, Some(root), "core.roofline", "core.roofline.scorecard", |_| {
                Scorecard::compute(&table3, w)
            })
            .map_err(|e| e.to_string())?;
        let cells: Vec<(Architecture, Kernel, u64)> = grid()
            .into_iter()
            .flat_map(|(a, k)| (0..DEFAULT_CAMPAIGNS).map(move |c| (a, k, c)))
            .collect();
        let (runs, sweep_pool) = rec
            .time(op, Some(root), "pool", "pool.sweep", |batch| {
                run_jobs(JOBS, cells, |(arch, kernel, campaign)| {
                    rec.time(op, Some(batch), "faults", "faults.run", |_| {
                        faultsweep::campaign_run(arch, kernel, w, seed, campaign)
                    })
                })
            })
            .map_err(|e| e.to_string())?;
        let sweep = SweepTable { seed, campaigns: DEFAULT_CAMPAIGNS, runs };
        let html = rec
            .time(op, Some(root), "core.render", "core.render.report_html", |_| {
                htmlreport::render(&ReportInputs {
                    table3: &table3,
                    scorecard: &scorecard,
                    sweep: &sweep,
                    folds: &folds,
                    workloads: w,
                    workload_kind: WorkloadKind::Paper.name(),
                })
            })
            .map_err(|e| e.to_string())?;
        Ok(Traced { html, folds, table3, scorecard, sweep, pools: vec![fold_pool, sweep_pool] })
    })
}

/// Golden-reference computations per kernel (in `Kernel::ALL` order) in
/// one report: every observed cell and every fault run that completes
/// recomputes its kernel's reference; an aborted fault run stops before.
fn reference_calls_per_kernel(t: &Traced) -> Vec<f64> {
    Kernel::ALL
        .iter()
        .map(|&k| {
            let cells = t.folds.iter().filter(|c| c.kernel == k).count();
            let runs = t.sweep.runs.iter().filter(|r| r.kernel == k && r.abort.is_none()).count();
            (cells + runs) as f64
        })
        .collect()
}

/// Times the renderers the report does not call, on the report's own
/// inputs, outside the operation: timeline JSON, metrics exposition and
/// the Table 3 text, in ms.
fn render_probes(t: &Traced) -> [f64; 3] {
    let ms = |f: &dyn Fn() -> usize| timed(|| std::hint::black_box(f())).1 * 1e3;
    [
        ms(&|| timelinedoc::render_timeline_json(WorkloadKind::Paper.name(), &t.folds).len()),
        ms(&|| driver::metrics_prom(&t.folds, &t.scorecard).len()),
        ms(&|| driver::table3_text(&t.table3).len()),
    ]
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up fails, the reference report cannot be built, or the layer
/// probe finds a wrong output.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let setup = || WorkloadSet::paper(o.seed).map_err(|e| e.to_string());
    let (ready, first_setup) = timed(setup);
    let w = ready?;
    let report =
        |jobs| driver::report_html(&w, WorkloadKind::Paper, o.seed, DEFAULT_CAMPAIGNS, jobs);

    // Every report of the run must be byte-identical to the first; the
    // first is compared with the jobs-1 report after the loop.
    let mut first: Option<String> = None;
    let mut untraced = sliced(
        o.untraced(),
        first_setup,
        || {
            let (built, s) = timed(setup);
            built.map(|_| s)
        },
        |_, stop| {
            closed_loop(
                stop,
                |_| report(JOBS),
                |r| match (r, &first) {
                    (Ok(html), Some(f)) => html == *f,
                    (Ok(html), None) => {
                        first = Some(html);
                        true
                    }
                    (Err(_), _) => false,
                },
            )
        },
    )?;
    let rss = peak_rss_mib();
    let reference = report(1).map_err(|e| e.to_string())?;
    let (folds, _) = htmlreport::collect_folds_jobs(&w, JOBS).map_err(|e| e.to_string())?;
    if first.as_ref() != Some(&reference) || !drift_free(&folds) {
        untraced.samples.fail_all();
    }
    let mut out = Outcome::default();
    end_to_end(&mut out, o.trace, &untraced, rss);
    if !o.trace {
        return Ok(out);
    }

    let rec = Recorder::default();
    let (mut pools, mut reference_calls, mut fault_runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut renders = Vec::new();
    let traced = closed_loop(
        o.traced(),
        |op| traced_report(&rec, op, &w, o.seed),
        |r| match r {
            Ok(t) => {
                renders.push(render_probes(&t));
                pools.push(t.pools.clone());
                fault_runs.push(t.sweep.runs.len() as f64);
                reference_calls.push(reference_calls_per_kernel(&t));
                t.html == reference && drift_free(&t.folds)
            }
            Err(_) => false,
        },
    );

    let m = &mut out.metrics;
    let probe = probe::run(o.seed, m)?;
    let reference_ms: Vec<f64> = reference_calls
        .iter()
        .map(|calls| Kernel::ALL.iter().zip(calls).map(|(k, n)| probe.reference_ms[k] * n).sum())
        .collect();
    m.set(
        "kernels.reference_share",
        stats::median(&reference_ms) / stats::mean(&untraced.samples.lat_ms),
        "ratio",
    );

    let spans = rec.spans();
    m.set("faults.sweep_ms", median_ms(&spans, "pool.sweep"), "ms");
    m.set("faults.runs", stats::median(&fault_runs), "count");
    m.set("faults.ms_per_run", median_ms(&spans, "faults.run"), "ms");
    pool_metrics(m, &pools);
    m.set("core.render.report_html_ms", median_ms(&spans, "core.render.report_html"), "ms");
    for (i, name) in ["timeline_json", "metrics_prom", "table3_text"].into_iter().enumerate() {
        let ms: Vec<f64> = renders.iter().map(|r| r[i]).collect();
        m.set(format!("core.render.{name}_ms"), stats::median(&ms), "ms");
    }
    m.set("core.roofline.scorecard_ms", median_ms(&spans, "core.roofline.scorecard"), "ms");
    m.idle(SERVE);
    finish_trace(&mut out, o, &untraced.samples, &traced, &rec)?;
    Ok(out)
}
