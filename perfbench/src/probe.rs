//! The layer probe of every traced run: workload build, golden
//! references, machine build, each engine's plain run, and the same run
//! with the fold + timeline observers attached, on the paper grid.
//!
//! The probe runs the grid serially in its own span recorder, so its
//! per-cell times are free of the workloads' pool contention and equal
//! across workloads; its event counts are exact.

use std::collections::HashMap;
use std::time::Duration;

use triarch_core::arch::{grid, Architecture, MachineSpec};
use triarch_core::driver::{cell_slug, slug};
use triarch_core::htmlreport::FoldedCell;
use triarch_kernels::{Kernel, WorkloadSet};
use triarch_simcore::{KernelRun, SimError};
use triarch_timeline::DEFAULT_WINDOW;
use triarch_trace::{TraceEvent, TraceSink};

use crate::spans::{median_ms, Recorder};
use crate::{stats, Metrics};

/// Grid passes of the probe (plain and observed); medians over them.
const PASSES: u64 = 2;

/// Repeats of each timed reference and workload build.
const REPEATS: usize = 3;

/// Counts every trace event an engine emits.
#[derive(Default)]
struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn record(&mut self, _event: TraceEvent) {
        self.0 += 1;
    }
}

/// Builds a paper machine and runs one kernel, with a span around each
/// layer: `core.arch` for the build, `engine` for the run.
///
/// # Errors
///
/// Propagates construction and simulation errors.
pub fn run_cell(
    rec: &Recorder,
    op: u64,
    parent: u32,
    arch: Architecture,
    kernel: Kernel,
    w: &WorkloadSet,
) -> Result<KernelRun, SimError> {
    let mut machine = rec.time(op, Some(parent), "core.arch", "core.arch.build", |_| {
        MachineSpec::Paper(arch).build()
    })?;
    rec.time(op, Some(parent), "engine", format!("engine.{}", cell_slug(arch, kernel)), |_| {
        machine.run(kernel, w)
    })
}

/// Golden-reference host time per kernel, in ms (median of
/// [`REPEATS`]).
pub fn reference_ms(w: &WorkloadSet) -> HashMap<Kernel, f64> {
    let mut out = HashMap::new();
    for kernel in Kernel::ALL {
        let samples: Vec<f64> = (0..REPEATS)
            .map(|_| {
                let (_, s) = crate::timed(|| match kernel {
                    Kernel::CornerTurn => {
                        std::hint::black_box(w.corner_turn.reference_transpose()).len()
                    }
                    Kernel::Cslc => std::hint::black_box(w.cslc.reference_output()).len(),
                    Kernel::BeamSteering => {
                        std::hint::black_box(w.beam_steering.reference_output()).len()
                    }
                });
                s * 1e3
            })
            .collect();
        out.insert(kernel, stats::median(&samples));
    }
    out
}

/// What the probe measured, for the workload-specific shares.
pub struct Probe {
    /// Golden-reference ms per kernel on the paper workload.
    pub reference_ms: HashMap<Kernel, f64>,
}

/// Runs the probe on the paper workload built from `seed` and adds the
/// `kernels.*` (except the share), `core.arch.*`, `engine.*` and
/// `observe.*` metrics.
///
/// # Errors
///
/// A cell fails to simulate, its output does not verify, or its
/// observers disagree with its cycle count.
pub fn run(seed: u64, m: &mut Metrics) -> Result<Probe, String> {
    let builds: Vec<f64> =
        (0..REPEATS).map(|_| crate::timed(|| WorkloadSet::paper(seed)).1 * 1e3).collect();
    let w = WorkloadSet::paper(seed).map_err(|e| e.to_string())?;
    let reference_ms = reference_ms(&w);

    let rec = Recorder::default();
    let mut cycles = HashMap::new();
    for pass in 0..PASSES {
        rec.time(pass, None, "bench", "probe.grid", |root| -> Result<(), String> {
            for (arch, kernel) in grid() {
                let cell = cell_slug(arch, kernel);
                let plain =
                    run_cell(&rec, pass, root, arch, kernel, &w).map_err(|e| e.to_string())?;
                if !plain.verification.is_ok(triarch_kernels::verify::tolerance(kernel)) {
                    return Err(format!("{cell} does not verify"));
                }
                let (run, fold, timeline) = rec
                    .time(pass, Some(root), "observe", format!("observe.{cell}"), |_| {
                        MachineSpec::Paper(arch).run_cell_folded_windowed(
                            kernel,
                            &w,
                            DEFAULT_WINDOW,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let folded = FoldedCell { arch, kernel, run, fold, timeline, wall: Duration::ZERO };
                if folded.run.cycles != plain.cycles
                    || folded.fold_drift() != 0
                    || folded.timeline_drift() != 0
                {
                    return Err(format!("{cell}: observers change or drift from the cycles"));
                }
                cycles.insert((arch, kernel), plain.cycles.get());
            }
            Ok(())
        })?;
    }

    let mut events: HashMap<Architecture, u64> = HashMap::new();
    for (arch, kernel) in grid() {
        let mut sink = CountingSink::default();
        let mut machine = MachineSpec::Paper(arch).build().map_err(|e| e.to_string())?;
        machine.run_traced(kernel, &w, &mut sink).map_err(|e| e.to_string())?;
        *events.entry(arch).or_default() += sink.0;
    }

    let spans = rec.spans();
    let median_of = |name: &str| median_ms(&spans, name);
    let build_us: Vec<f64> = (0..PASSES)
        .map(|pass| {
            spans
                .iter()
                .filter(|s| s.op == pass && s.name == "core.arch.build")
                .map(|s| s.ms() * 1e3)
                .sum()
        })
        .collect();

    m.set("kernels.workload_build_ms", stats::median(&builds), "ms");
    for kernel in Kernel::ALL {
        m.set(format!("kernels.reference_ms.{}", slug(kernel.name())), reference_ms[&kernel], "ms");
    }
    m.set("core.arch.build_us", stats::median(&build_us), "us");
    let (mut all_ms, mut corner_ms, mut extra_ns, mut all_events) = (0.0, 0.0, 0.0, 0);
    for arch in Architecture::ALL {
        let (mut plain, mut observed, mut sim_cycles) = (0.0, 0.0, 0);
        for kernel in Kernel::ALL {
            let cell = cell_slug(arch, kernel);
            let ms = median_of(&format!("engine.{cell}"));
            m.set(format!("engine.{cell}.host_ms"), ms, "ms");
            plain += ms;
            observed += median_of(&format!("observe.{cell}"));
            sim_cycles += cycles[&(arch, kernel)];
            if kernel == Kernel::CornerTurn {
                corner_ms += ms;
            }
        }
        let a = slug(arch.name());
        m.set(format!("engine.{a}.ns_per_sim_cycle"), plain * 1e6 / sim_cycles as f64, "ns");
        m.set(format!("observe.{a}.overhead_ratio"), (observed - plain) / plain, "ratio");
        m.set(format!("observe.{a}.events"), events[&arch] as f64, "count");
        all_ms += plain;
        extra_ns += (observed - plain) * 1e6;
        all_events += events[&arch];
    }
    m.set("engine.corner_turn_share", corner_ms / all_ms, "ratio");
    m.set("observe.ns_per_event", extra_ns / all_events as f64, "ns");
    Ok(Probe { reference_ms })
}
