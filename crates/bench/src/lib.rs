//! Shared workload construction for the `repro` binary that regenerates
//! the paper's tables and figures.

use triarch_kernels::WorkloadSet;

pub use triarch_core::benchjson;

/// Seed shared by every `repro` selector so all runs see identical data.
pub const SEED: u64 = 42;

/// Builds the paper-sized workload set used by the `repro` binary.
///
/// # Panics
///
/// Panics if workload construction fails (cannot happen for the paper
/// parameters).
#[must_use]
pub fn paper_workloads() -> WorkloadSet {
    WorkloadSet::paper(SEED).expect("paper workloads build")
}

/// Builds the reduced workload set used where host wall-clock matters.
///
/// # Panics
///
/// Panics if workload construction fails (cannot happen for the built-in
/// parameters).
#[must_use]
pub fn small_workloads() -> WorkloadSet {
    WorkloadSet::small(SEED).expect("small workloads build")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_are_paper_shaped() {
        let p = paper_workloads();
        assert_eq!(p.corner_turn.rows(), 1024);
        assert_eq!(p.cslc.config().subbands, 73);
        assert_eq!(p.beam_steering.outputs(), 51_456);
        let s = small_workloads();
        assert!(s.corner_turn.rows() < p.corner_turn.rows());
    }
}
