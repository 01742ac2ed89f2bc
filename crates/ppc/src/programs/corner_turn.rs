//! G4 corner turn: the naive row-major-read / column-major-write loop.
//!
//! The strided writes alias into a handful of cache sets (1024-element
//! rows are a power of two), so both cache levels thrash and virtually
//! every store goes to memory — which is why the paper finds AltiVec
//! "does not significantly improve performance for the corner turn, which
//! is limited by main memory bandwidth".

use triarch_kernels::corner_turn::{transpose_into, CornerTurnWorkload};
use triarch_simcore::faults::FaultHook;
use triarch_simcore::trace::TraceSink;
use triarch_simcore::{KernelRun, SimError};

use super::Variant;
use crate::cache::Stream;
use crate::config::PpcConfig;
use crate::machine::PpcMachine;

/// Runs the corner turn on the G4.
///
/// Emits cycle-attribution trace events into `sink` and consults `faults`
/// at the memory transfer of each output row and applies its effects.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for a degenerate configuration.
/// Also [`SimError::DetectedFault`] / [`SimError::BudgetExceeded`]
/// from the hook and watchdog.
pub fn run<S: TraceSink, F: FaultHook>(
    cfg: &PpcConfig,
    workload: &CornerTurnWorkload,
    variant: Variant,
    sink: S,
    faults: F,
) -> Result<KernelRun, SimError> {
    let rows = workload.rows();
    let cols = workload.cols();
    let mut dst = vec![0u32; rows * cols];
    let mut m = PpcMachine::with_hooks(cfg, sink, faults)?;

    // Virtual layout: src at 0, dst right after. Each source row is one
    // loop: a load walking the row, a store walking the column.
    let dst_base = rows * cols;
    let lanes = cfg.vector_lanes;

    match variant {
        Variant::Scalar => {
            for r in 0..rows {
                m.strided_loop(
                    [Stream::read(r * cols, 1), Stream::write(dst_base + r, rows)],
                    cols,
                );
                m.issue(2 * cols as u64); // index arithmetic + loop
                m.check_budget()?;
            }
        }
        Variant::Altivec => {
            // Vector loads along each source row, then element stores:
            // the destinations of one vector's four lanes lie a full
            // column apart, and AltiVec offers no scatter, so every lane
            // is written with a scalar store into the same thrashing sets
            // as the scalar code. This is why the paper finds AltiVec
            // "does not significantly improve performance for the corner
            // turn, which is limited by main memory bandwidth".
            for r in 0..rows {
                m.strided_loop(
                    [Stream::read(r * cols, 1).every(lanes), Stream::write(dst_base + r, rows)],
                    cols,
                );
                // Per vector: extract/permute lanes, then the loop.
                m.issue(3 * cols.div_ceil(lanes) as u64);
                m.check_budget()?;
            }
        }
    }

    transpose_into(workload.source_slice(), rows, cols, &mut dst);
    // The destination matrix crosses the DRAM fault surface as one long
    // streamed write-back.
    m.fault_transfer(dst_base, &mut dst)?;
    m.checkpoint("transpose-loop-done");
    let verification = workload.verify_transpose(&dst);
    Ok(m.finish(verification))
}

#[cfg(test)]
mod tests {
    use super::*;
    use triarch_simcore::faults::NoFaults;
    use triarch_simcore::trace::NullSink;
    use triarch_simcore::Verification;

    #[test]
    fn both_variants_are_bit_exact() {
        let w = CornerTurnWorkload::with_dims(50, 70, 2).unwrap();
        for v in [Variant::Scalar, Variant::Altivec] {
            let run = run(&PpcConfig::paper(), &w, v, NullSink, NoFaults).unwrap();
            assert_eq!(run.verification, Verification::BitExact, "{v:?}");
        }
    }

    #[test]
    fn altivec_barely_helps_the_corner_turn() {
        // Power-of-two dimensions trigger the set-aliasing wall.
        let w = CornerTurnWorkload::with_dims(512, 512, 1).unwrap();
        let scalar = run(&PpcConfig::paper(), &w, Variant::Scalar, NullSink, NoFaults).unwrap();
        let altivec = run(&PpcConfig::paper(), &w, Variant::Altivec, NullSink, NoFaults).unwrap();
        let speedup = scalar.cycles.ratio(altivec.cycles);
        assert!(speedup > 1.0 && speedup < 1.6, "speedup {speedup}");
        // Store stalls dominate both.
        assert!(scalar.breakdown.fraction("store-stall") > 0.5);
    }
}
