//! Pins the engine-internal memory counters that the cycle gate cannot see.
//!
//! `perfgate` gates simulated cycles at tolerance 0, but several counters
//! can drift without moving a single cycle: a DRAM walk that opens the
//! same rows in a different order, a TLB that evicts a different page, or
//! a cache model that writes back one line more. This suite runs the 18
//! paper cells on the small workloads and compares every such counter
//! against values recorded before the engines' memory paths were moved
//! to block-at-a-time host code, so a block copy that lands one word off
//! fails here instead of only changing `metrics.prom`. The six G4 cells
//! are also pinned at paper scale, where the corner turn thrashes both
//! cache levels.

use triarch_core::arch::{Architecture, MachineSpec};
use triarch_core::driver::cell_slug;
use triarch_core::experiments;
use triarch_kernels::{Kernel, Probe, WorkloadSet};

/// Counter-name suffixes under test: DRAM row misses and bank conflicts
/// (VIRAM, Imagine, Raw), VIRAM TLB misses, and the PPC L1/L2 hit, miss
/// and write-back counts.
fn pinned(name: &str) -> bool {
    name.ends_with(".dram.row_misses")
        || name.ends_with(".dram.bank_conflicts")
        || name == "viram.tlb.misses"
        || ((name.starts_with("ppc.l1.") || name.starts_with("ppc.l2."))
            && (name.ends_with(".hits")
                || name.ends_with(".misses")
                || name.ends_with(".writebacks")))
}

/// `(cell, counter, value)` on `WorkloadSet::small(7)`.
const EXPECTED: &[(&str, &str, u64)] = &[
    ("ppc-corner-turn", "ppc.l1.hits", 7168),
    ("ppc-corner-turn", "ppc.l1.misses", 1024),
    ("ppc-corner-turn", "ppc.l1.writebacks", 0),
    ("ppc-corner-turn", "ppc.l2.hits", 512),
    ("ppc-corner-turn", "ppc.l2.misses", 512),
    ("ppc-corner-turn", "ppc.l2.writebacks", 0),
    ("ppc-cslc", "ppc.l1.hits", 70532),
    ("ppc-cslc", "ppc.l1.misses", 1148),
    ("ppc-cslc", "ppc.l1.writebacks", 0),
    ("ppc-cslc", "ppc.l2.hits", 560),
    ("ppc-cslc", "ppc.l2.misses", 588),
    ("ppc-cslc", "ppc.l2.writebacks", 0),
    ("ppc-beam-steering", "ppc.l1.hits", 2912),
    ("ppc-beam-steering", "ppc.l1.misses", 160),
    ("ppc-beam-steering", "ppc.l1.writebacks", 0),
    ("ppc-beam-steering", "ppc.l2.hits", 80),
    ("ppc-beam-steering", "ppc.l2.misses", 80),
    ("ppc-beam-steering", "ppc.l2.writebacks", 0),
    ("altivec-corner-turn", "ppc.l1.hits", 4096),
    ("altivec-corner-turn", "ppc.l1.misses", 1024),
    ("altivec-corner-turn", "ppc.l1.writebacks", 0),
    ("altivec-corner-turn", "ppc.l2.hits", 512),
    ("altivec-corner-turn", "ppc.l2.misses", 512),
    ("altivec-corner-turn", "ppc.l2.writebacks", 0),
    ("altivec-cslc", "ppc.l1.hits", 18116),
    ("altivec-cslc", "ppc.l1.misses", 1148),
    ("altivec-cslc", "ppc.l1.writebacks", 0),
    ("altivec-cslc", "ppc.l2.hits", 560),
    ("altivec-cslc", "ppc.l2.misses", 588),
    ("altivec-cslc", "ppc.l2.writebacks", 0),
    ("altivec-beam-steering", "ppc.l1.hits", 608),
    ("altivec-beam-steering", "ppc.l1.misses", 160),
    ("altivec-beam-steering", "ppc.l1.writebacks", 0),
    ("altivec-beam-steering", "ppc.l2.hits", 80),
    ("altivec-beam-steering", "ppc.l2.misses", 80),
    ("altivec-beam-steering", "ppc.l2.writebacks", 0),
    ("viram-corner-turn", "viram.dram.bank_conflicts", 0),
    ("viram-corner-turn", "viram.dram.row_misses", 8),
    ("viram-corner-turn", "viram.tlb.misses", 2),
    ("viram-cslc", "viram.dram.bank_conflicts", 56),
    ("viram-cslc", "viram.dram.row_misses", 456),
    ("viram-cslc", "viram.tlb.misses", 2),
    ("viram-beam-steering", "viram.dram.bank_conflicts", 7),
    ("viram-beam-steering", "viram.dram.row_misses", 4),
    ("viram-beam-steering", "viram.tlb.misses", 1),
    ("imagine-corner-turn", "imagine.dram.bank_conflicts", 0),
    ("imagine-corner-turn", "imagine.dram.row_misses", 20),
    ("imagine-cslc", "imagine.dram.bank_conflicts", 0),
    ("imagine-cslc", "imagine.dram.row_misses", 140),
    ("imagine-beam-steering", "imagine.dram.bank_conflicts", 0),
    ("imagine-beam-steering", "imagine.dram.row_misses", 4),
    ("raw-corner-turn", "raw.dram.bank_conflicts", 0),
    ("raw-corner-turn", "raw.dram.row_misses", 16),
    ("raw-cslc", "raw.dram.bank_conflicts", 0),
    ("raw-cslc", "raw.dram.row_misses", 16),
    ("raw-beam-steering", "raw.dram.bank_conflicts", 0),
    ("raw-beam-steering", "raw.dram.row_misses", 16),
];

#[test]
fn small_workload_memory_counters_are_pinned() {
    let workloads = WorkloadSet::small(7).expect("small workloads build");
    let table = experiments::table3(&workloads).expect("table3 runs");
    let mut observed = Vec::new();
    for (arch, kernel, run) in table.iter() {
        let cell = cell_slug(arch, kernel);
        for (name, _) in run.metrics.iter() {
            if pinned(name) {
                let value = run.metrics.counter_value(name).expect("pinned metrics are counters");
                observed.push((cell.clone(), name.to_string(), value));
            }
        }
    }
    let expected: Vec<(String, String, u64)> =
        EXPECTED.iter().map(|&(c, n, v)| (c.to_string(), n.to_string(), v)).collect();
    assert_eq!(observed, expected, "pinned engine counters moved");
}

/// `(cell, counter, value)` of the G4 rows on `WorkloadSet::paper(7)`.
/// The small workloads never leave the caches' warm-up regime (their
/// write-backs are all 0); at paper scale the corner turn's column stores
/// thrash both levels, which is where the run-level cache path
/// (`Hierarchy::access_run`) queues misses and folds evictions in bulk.
const PAPER_EXPECTED: &[(&str, &str, u64)] = &[
    ("ppc-corner-turn", "ppc.l1.evictions", 1178624),
    ("ppc-corner-turn", "ppc.l1.hits", 917504),
    ("ppc-corner-turn", "ppc.l1.misses", 1179648),
    ("ppc-corner-turn", "ppc.l1.writebacks", 1048569),
    ("ppc-corner-turn", "ppc.l2.evictions", 1110016),
    ("ppc-corner-turn", "ppc.l2.hits", 65536),
    ("ppc-corner-turn", "ppc.l2.misses", 1114112),
    ("ppc-corner-turn", "ppc.l2.writebacks", 1048418),
    ("ppc-cslc", "ppc.l1.evictions", 21216),
    ("ppc-cslc", "ppc.l1.hits", 1697056),
    ("ppc-cslc", "ppc.l1.misses", 22240),
    ("ppc-cslc", "ppc.l1.writebacks", 4460),
    ("ppc-cslc", "ppc.l2.evictions", 7024),
    ("ppc-cslc", "ppc.l2.hits", 11120),
    ("ppc-cslc", "ppc.l2.misses", 11120),
    ("ppc-cslc", "ppc.l2.writebacks", 1600),
    ("ppc-beam-steering", "ppc.l1.evictions", 5810),
    ("ppc-beam-steering", "ppc.l1.hits", 147534),
    ("ppc-beam-steering", "ppc.l1.misses", 6834),
    ("ppc-beam-steering", "ppc.l1.writebacks", 5810),
    ("ppc-beam-steering", "ppc.l2.evictions", 0),
    ("ppc-beam-steering", "ppc.l2.hits", 3417),
    ("ppc-beam-steering", "ppc.l2.misses", 3417),
    ("ppc-beam-steering", "ppc.l2.writebacks", 0),
    ("altivec-corner-turn", "ppc.l1.evictions", 1178624),
    ("altivec-corner-turn", "ppc.l1.hits", 131072),
    ("altivec-corner-turn", "ppc.l1.misses", 1179648),
    ("altivec-corner-turn", "ppc.l1.writebacks", 1048569),
    ("altivec-corner-turn", "ppc.l2.evictions", 1110016),
    ("altivec-corner-turn", "ppc.l2.hits", 65536),
    ("altivec-corner-turn", "ppc.l2.misses", 1114112),
    ("altivec-corner-turn", "ppc.l2.writebacks", 1048418),
    ("altivec-cslc", "ppc.l1.evictions", 21216),
    ("altivec-cslc", "ppc.l1.hits", 421600),
    ("altivec-cslc", "ppc.l1.misses", 22240),
    ("altivec-cslc", "ppc.l1.writebacks", 4460),
    ("altivec-cslc", "ppc.l2.evictions", 7024),
    ("altivec-cslc", "ppc.l2.hits", 11120),
    ("altivec-cslc", "ppc.l2.misses", 11120),
    ("altivec-cslc", "ppc.l2.writebacks", 1600),
    ("altivec-beam-steering", "ppc.l1.evictions", 5810),
    ("altivec-beam-steering", "ppc.l1.hits", 31758),
    ("altivec-beam-steering", "ppc.l1.misses", 6834),
    ("altivec-beam-steering", "ppc.l1.writebacks", 5810),
    ("altivec-beam-steering", "ppc.l2.evictions", 0),
    ("altivec-beam-steering", "ppc.l2.hits", 3417),
    ("altivec-beam-steering", "ppc.l2.misses", 3417),
    ("altivec-beam-steering", "ppc.l2.writebacks", 0),
];

#[test]
fn paper_scale_g4_cache_counters_are_pinned() {
    let workloads = WorkloadSet::paper(7).expect("paper workloads build");
    let mut observed = Vec::new();
    for arch in [Architecture::Ppc, Architecture::Altivec] {
        for kernel in Kernel::ALL {
            let run = MachineSpec::Paper(arch)
                .run_cell(kernel, &workloads, Probe::default())
                .expect("G4 cell runs");
            let cell = cell_slug(arch, kernel);
            for (name, _) in run.metrics.iter() {
                if (name.starts_with("ppc.l1.") || name.starts_with("ppc.l2."))
                    && [".hits", ".misses", ".writebacks", ".evictions"]
                        .iter()
                        .any(|suffix| name.ends_with(suffix))
                {
                    let value =
                        run.metrics.counter_value(name).expect("cache metrics are counters");
                    observed.push((cell.clone(), name.to_string(), value));
                }
            }
        }
    }
    let expected: Vec<(String, String, u64)> =
        PAPER_EXPECTED.iter().map(|&(c, n, v)| (c.to_string(), n.to_string(), v)).collect();
    assert_eq!(observed, expected, "paper-scale G4 cache counters moved");
}
