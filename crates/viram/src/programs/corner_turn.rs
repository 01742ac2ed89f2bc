//! VIRAM corner turn (paper Section 3.1).
//!
//! "Our VIRAM corner turn uses a blocking algorithm … Blocking allows the
//! vector registers to be used for temporary storage between the loads and
//! stores. We used strided load operations with padding added to the
//! matrix rows to avoid DRAM bank conflicts. Initial load latencies are
//! not hidden. Stores are done sequentially from the vector registers to
//! the memory."
//!
//! Mapping: a strided vector load gathers one source *column* of a row
//! panel — which is a contiguous run of one destination *row* — and a
//! unit-stride store writes it out. Two placement tricks keep DRAM row
//! costs amortized, both instances of the paper's "padding added to the
//! matrix rows to avoid DRAM bank conflicts":
//!
//! 1. each matrix row is padded so consecutive column elements rotate
//!    across all of a wing's banks, and rows are grouped into
//!    **stripe-aligned panels** so one panel's columns reuse one open DRAM
//!    row per bank;
//! 2. the source lives in wing 0 and the destination in wing 1, so the
//!    read and write streams own disjoint bank sets.

use triarch_kernels::corner_turn::CornerTurnWorkload;
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{KernelRun, SimError};

use crate::config::ViramConfig;
use crate::vector::VectorUnit;

/// Padding in words added to each matrix row so consecutive column
/// elements rotate across a wing's banks (stride ≢ 0 mod banks·interleave).
pub const ROW_PAD_WORDS: usize = 8;

/// A stripe-aligned panel layout: rows are stored in groups of
/// `panel_rows`, each group starting at a DRAM row-stripe boundary.
#[derive(Debug, Clone, Copy)]
struct PanelLayout {
    base: usize,
    pitch: usize,
    panel_rows: usize,
    panel_words: usize,
}

impl PanelLayout {
    fn new(base: usize, items: usize, pitch: usize, stripe: usize, mvl: usize) -> Self {
        let panel_rows = (stripe / pitch).clamp(1, mvl).min(items.max(1));
        // A panel occupies a whole number of stripes so every panel starts
        // stripe-aligned.
        let panel_words = (panel_rows * pitch).div_ceil(stripe.max(1)) * stripe.max(1);
        PanelLayout { base, pitch, panel_rows, panel_words }
    }

    fn addr(&self, row: usize, col: usize) -> usize {
        let panel = row / self.panel_rows;
        let within = row % self.panel_rows;
        self.base + panel * self.panel_words + within * self.pitch + col
    }

    fn words(&self, rows: usize) -> usize {
        rows.div_ceil(self.panel_rows) * self.panel_words
    }
}

/// Runs the corner turn: resident in on-chip DRAM when it fits (the
/// paper's measured configuration), streamed from off-chip in row bands
/// otherwise (paper Section 4.6: "If the application size is larger than
/// the on-chip DRAM, the data needs to come from off-chip memory and
/// VIRAM would lose much of its advantage").
///
/// Emits cycle-attribution trace events into `sink` and consults `faults`
/// at every DRAM transfer and applies its effects.
///
/// # Errors
///
/// Returns [`SimError`] if even a single row band cannot fit on chip or
/// the configuration is degenerate. Also [`SimError::DetectedFault`] /
/// [`SimError::BudgetExceeded`] from the hook and watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &ViramConfig,
    workload: &CornerTurnWorkload,
    sink: S,
    faults: F,
) -> Result<KernelRun, SimError> {
    if fits_on_chip(cfg, workload.rows(), workload.cols()) {
        resident(cfg, workload, sink, faults)
    } else {
        streaming(cfg, workload, sink, faults)
    }
}

fn fits_on_chip(cfg: &ViramConfig, rows: usize, cols: usize) -> bool {
    let stripe = cfg.dram.row_words * cfg.dram.banks_per_wing();
    let src = PanelLayout::new(0, rows, cols + ROW_PAD_WORDS, stripe, cfg.mvl);
    let dst_start =
        if cfg.dram.wings > 1 { cfg.dram.wing_words.max(src.words(rows)) } else { src.words(rows) };
    let dst = PanelLayout::new(dst_start, cols, rows + ROW_PAD_WORDS, stripe, cfg.mvl);
    src.words(rows) <= dst_start && dst_start + dst.words(cols) <= cfg.dram_words
}

/// The paper's measured configuration: the matrix is resident on chip.
fn resident<S: TraceSink, F: FaultHook>(
    cfg: &ViramConfig,
    workload: &CornerTurnWorkload,
    sink: S,
    faults: F,
) -> Result<KernelRun, SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let stripe = cfg.dram.row_words * cfg.dram.banks_per_wing();
    let src = PanelLayout::new(0, rows, cols + ROW_PAD_WORDS, stripe, cfg.mvl);
    // Destination in wing 1 (disjoint banks from the source stream).
    let dst_start =
        if cfg.dram.wings > 1 { cfg.dram.wing_words.max(src.words(rows)) } else { src.words(rows) };
    let dst = PanelLayout::new(dst_start, cols, rows + ROW_PAD_WORDS, stripe, cfg.mvl);
    if src.words(rows) > dst_start {
        return Err(SimError::capacity("viram wing 0", src.words(rows), dst_start));
    }
    let needed = dst_start + dst.words(cols);
    if needed > cfg.dram_words {
        return Err(SimError::capacity("viram on-chip DRAM", needed, cfg.dram_words));
    }

    let mut unit = VectorUnit::with_hooks(cfg, sink, faults)?;

    // Workload data is resident in on-chip DRAM (panel layout), as in the
    // paper: the corner turn measures on-chip bandwidth, not ingest.
    let data = workload.source_slice();
    for r in 0..rows {
        unit.memory_mut().write_block_u32(src.addr(r, 0), &data[r * cols..(r + 1) * cols])?;
    }

    transpose_on_chip(&mut unit, &src, &dst, rows, cols)?;

    // Extract the destination (dropping pad) and verify bit-exactness.
    let mut out = Vec::with_capacity(rows * cols);
    for c in 0..cols {
        out.extend_from_slice(unit.memory().block(dst.addr(c, 0), rows)?);
    }
    let verification = workload.verify_transpose(&out);
    unit.finish(verification)
}

/// The strided-load / unit-store panel transpose over on-chip data.
fn transpose_on_chip<S: TraceSink, F: FaultHook>(
    unit: &mut VectorUnit<S, F>,
    src: &PanelLayout,
    dst: &PanelLayout,
    rows: usize,
    cols: usize,
) -> Result<(), SimError> {
    let mut r0 = 0;
    while r0 < rows {
        let vl = src.panel_rows.min(rows - r0);
        for c in 0..cols {
            // One strided load gathers column c of the panel …
            unit.vload_strided(0, src.addr(r0, c), src.pitch, vl)?;
            // … which is a contiguous run of destination row c.
            unit.vstore_unit(0, dst.addr(c, r0), vl)?;
        }
        // Scalar loop maintenance per panel.
        unit.scalar(8);
        r0 += vl;
    }
    Ok(())
}

/// Off-chip streaming fallback: row bands DMA in at the off-chip rate,
/// transpose on chip, and DMA back out.
fn streaming<S: TraceSink, F: FaultHook>(
    cfg: &ViramConfig,
    workload: &CornerTurnWorkload,
    sink: S,
    faults: F,
) -> Result<KernelRun, SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let mut band = rows;
    while band > 1 && !fits_on_chip(cfg, band, cols) {
        band /= 2;
    }
    if !fits_on_chip(cfg, band, cols) {
        return Err(SimError::capacity(
            "viram on-chip DRAM (one row band)",
            2 * (cols + ROW_PAD_WORDS),
            cfg.dram_words,
        ));
    }

    let mut unit = VectorUnit::with_hooks(cfg, sink, faults)?;
    let data = workload.source_slice();
    let mut out = vec![0u32; rows * cols];
    let stripe = cfg.dram.row_words * cfg.dram.banks_per_wing();

    let mut r0 = 0;
    while r0 < rows {
        let h = band.min(rows - r0);
        let src = PanelLayout::new(0, h, cols + ROW_PAD_WORDS, stripe, cfg.mvl);
        let dst_start =
            if cfg.dram.wings > 1 { cfg.dram.wing_words.max(src.words(h)) } else { src.words(h) };
        let dst = PanelLayout::new(dst_start, cols, h + ROW_PAD_WORDS, stripe, cfg.mvl);

        // DMA the band in through the off-chip interface.
        unit.dma(h * cols);
        for r in 0..h {
            let row = &data[(r0 + r) * cols..(r0 + r + 1) * cols];
            unit.memory_mut().write_block_u32(src.addr(r, 0), row)?;
        }

        transpose_on_chip(&mut unit, &src, &dst, h, cols)?;

        // DMA the transposed band back out and collect it.
        unit.dma(h * cols);
        for c in 0..cols {
            let strip = unit.memory().block(dst.addr(c, 0), h)?;
            out[c * rows + r0..c * rows + r0 + h].copy_from_slice(strip);
        }
        r0 += h;
    }

    let verification = workload.verify_transpose(&out);
    unit.finish(verification)
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;
    use triarch_simcore::Verification;

    #[test]
    fn small_transpose_is_bit_exact() {
        let w = CornerTurnWorkload::with_dims(32, 48, 5).unwrap();
        let run = run(&ViramConfig::paper(), &w, NullSink, NoFaults).unwrap();
        assert_eq!(run.verification, Verification::BitExact);
        assert_eq!(run.mem_words, 2 * 32 * 48);
    }

    #[test]
    fn non_square_and_tiny_matrices() {
        for (r, c) in [(1usize, 1usize), (1, 64), (64, 1), (7, 13), (65, 33)] {
            let w = CornerTurnWorkload::with_dims(r, c, 1).unwrap();
            let run = run(&ViramConfig::paper(), &w, NullSink, NoFaults).unwrap();
            assert_eq!(run.verification, Verification::BitExact, "{r}x{c}");
        }
    }

    #[test]
    fn oversized_matrix_streams_from_off_chip() {
        // 2048x2048 (16 MB) exceeds the 13 MB on-chip DRAM: the kernel
        // falls back to off-chip streaming and pays the 2-words/cycle DMA
        // toll (paper Section 4.6).
        let big = CornerTurnWorkload::with_dims(2048, 2048, 0).unwrap();
        let run_big = run(&ViramConfig::paper(), &big, NullSink, NoFaults).unwrap();
        assert_eq!(run_big.verification, Verification::BitExact);
        assert!(run_big.breakdown.get("dma").get() > 0);
        // 4x the data of the resident 1024 case, but far more than 4x the
        // cycles: the advantage is gone.
        let resident = CornerTurnWorkload::with_dims(1024, 1024, 0).unwrap();
        let run_res = run(&ViramConfig::paper(), &resident, NullSink, NoFaults).unwrap();
        assert_eq!(run_res.breakdown.get("dma").get(), 0);
        assert!(run_big.cycles.ratio(run_res.cycles) > 6.0);
    }

    #[test]
    fn row_wider_than_on_chip_memory_is_capacity_error() {
        let w = CornerTurnWorkload::with_dims(2, 2_000_000, 0).unwrap();
        let err = run(&ViramConfig::paper(), &w, NullSink, NoFaults).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
    }

    #[test]
    fn strided_loads_dominate_cycles() {
        let w = CornerTurnWorkload::with_dims(256, 256, 2).unwrap();
        let run = run(&ViramConfig::paper(), &w, NullSink, NoFaults).unwrap();
        // Memory is the only real consumer; compute category is absent.
        assert!(run.breakdown.fraction("memory") > 0.5);
        assert_eq!(run.breakdown.get("compute").get(), 0);
    }

    #[test]
    fn panel_layout_is_stripe_aligned() {
        let p = PanelLayout::new(0, 1024, 1032, 8192, 64);
        assert_eq!(p.panel_rows, 7);
        assert_eq!(p.panel_words % 8192, 0);
        // Row 7 starts a new panel at a stripe boundary.
        assert_eq!(p.addr(7, 0) % 8192, 0);
        assert_eq!(p.addr(3, 5), 3 * 1032 + 5);
    }
}
