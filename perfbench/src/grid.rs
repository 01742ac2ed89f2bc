//! `grid-paper`: one operation is the untraced 18-cell paper grid,
//! `experiments::table3_jobs(&WorkloadSet::paper(seed), 1)`.
//!
//! The engines do almost all the work (the six corner-turn cells about
//! three quarters of it), so this is the no-change control for the
//! observer, fault, render, pool and serve layers. Jobs 1 keeps each
//! engine's time its own.

use std::collections::HashMap;

use triarch_core::arch::{grid, Architecture};
use triarch_core::benchjson::BenchReport;
use triarch_core::experiments;
use triarch_core::parallel::{run_jobs, PoolStats};
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_simcore::KernelRun;

use crate::spans::Recorder;
use crate::{
    closed_loop, end_to_end, finish_trace, peak_rss_mib, pool_metrics, probe, sliced, stats, timed,
    Opts, Outcome, FAULTS, RENDER, SERVE,
};

/// Pool workers per grid.
const JOBS: usize = 1;

/// Simulated cycles per cell, as committed in the repository's cycle
/// baseline.
type Baseline = HashMap<(String, String), u64>;

fn load_baseline() -> Result<Baseline, String> {
    let text = std::fs::read_to_string("BENCH_table3.json")
        .map_err(|e| format!("BENCH_table3.json: {e}"))?;
    let report = BenchReport::parse(&text).map_err(|e| format!("BENCH_table3.json: {e}"))?;
    Ok(report.cells.into_iter().map(|c| ((c.arch, c.kernel), c.cycles)).collect())
}

/// Every cell of the grid is present, verifies, and has its baseline
/// cycle count.
fn grid_ok<'a>(
    runs: impl Iterator<Item = (Architecture, Kernel, &'a KernelRun)>,
    baseline: &Baseline,
) -> bool {
    let mut cells = 0;
    for (arch, kernel, run) in runs {
        cells += 1;
        let key = (arch.name().to_string(), kernel.name().to_string());
        if !run.verification.is_ok(triarch_kernels::verify::tolerance(kernel))
            || baseline.get(&key) != Some(&run.cycles.get())
        {
            return false;
        }
    }
    cells == grid().len() && cells == baseline.len()
}

/// The cells of one traced grid.
type Cells = Vec<(Architecture, Kernel, KernelRun)>;

/// The traced operation: the same grid through the same pool path, with
/// spans around each machine build and engine run.
fn traced_grid(rec: &Recorder, op: u64, w: &WorkloadSet) -> Result<(Cells, PoolStats), String> {
    rec.time(op, None, "bench", "grid-paper", |root| {
        run_jobs(JOBS, grid(), |(arch, kernel)| {
            probe::run_cell(rec, op, root, arch, kernel, w).map(|run| (arch, kernel, run))
        })
        .map_err(|e| e.to_string())
    })
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up fails or the layer probe finds a wrong output.
pub fn run(o: &Opts) -> Result<Outcome, String> {
    let setup = || -> Result<_, String> {
        Ok((WorkloadSet::paper(o.seed).map_err(|e| e.to_string())?, load_baseline()?))
    };
    let (ready, first) = timed(setup);
    let (w, baseline) = ready?;

    let untraced = sliced(
        o.untraced(),
        first,
        || {
            let (built, s) = timed(setup);
            built.map(|_| s)
        },
        |_, stop| {
            closed_loop(
                stop,
                |_| experiments::table3_jobs(&w, JOBS),
                |r| r.is_ok_and(|(t, _)| grid_ok(t.iter(), &baseline)),
            )
        },
    )?;
    let mut out = Outcome::default();
    end_to_end(&mut out, o.trace, &untraced, peak_rss_mib());
    if !o.trace {
        return Ok(out);
    }

    let rec = Recorder::default();
    let mut pools = Vec::new();
    let traced = closed_loop(
        o.traced(),
        |op| traced_grid(&rec, op, &w),
        |r| match r {
            Ok((runs, pool)) => {
                pools.push(vec![pool]);
                grid_ok(runs.iter().map(|(a, k, run)| (*a, *k, run)), &baseline)
            }
            Err(_) => false,
        },
    );
    let m = &mut out.metrics;
    let probe = probe::run(o.seed, m)?;
    // Every engine run recomputes its kernel's golden reference: one run
    // per architecture and kernel.
    let reference: f64 =
        probe.reference_ms.values().map(|ms| ms * Architecture::ALL.len() as f64).sum();
    m.set("kernels.reference_share", reference / stats::mean(&untraced.samples.lat_ms), "ratio");
    pool_metrics(m, &pools);
    m.idle(FAULTS);
    m.idle(RENDER);
    m.idle(SERVE);
    finish_trace(&mut out, o, &untraced.samples, &traced, &rec)?;
    Ok(out)
}
