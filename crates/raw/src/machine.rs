//! The Raw execution engine: tiles, networks, ports, and phase accounting.
//!
//! Kernel programs execute functionally against off-chip memory and
//! per-tile local stores, while recording per-tile instruction counts and
//! stalls. Work proceeds in *phases* (a round of blocks, a batch of
//! sub-bands); a phase completes when its slowest resource does:
//! `max(slowest tile, DRAM-port occupancy, network occupancy)`.

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults, TransferFaults};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{
    AccessPattern, CycleBudget, CycleLedger, Cycles, DramModel, KernelRun, SimError, Verification,
    WordMemory,
};

use crate::config::RawConfig;

/// Trace track for tile/phase execution.
const TRACK_TILES: &str = "raw.tiles";
/// Trace track for DRAM-port occupancy.
const TRACK_MEM: &str = "raw.mem";
/// Trace track for the off-chip DRAM cost decomposition.
const TRACK_DRAM: &str = "raw.dram";

#[derive(Debug, Clone, Copy, Default)]
struct TileCounters {
    issue: u64,
    stall: u64,
    net_words: u64,
}

/// The Raw machine state.
///
/// Generic over a [`TraceSink`] and a [`FaultHook`]; the defaults
/// ([`NullSink`], [`NoFaults`]) are statically dispatched, disabled, and
/// empty, so an untraced, unfaulted machine pays nothing for the
/// instrumentation.
#[derive(Debug, Clone)]
pub struct RawMachine<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: RawConfig,
    dram: DramModel,
    mem: WordMemory,
    locals: Vec<WordMemory>,
    tiles: Vec<TileCounters>,
    phase_mem: u64,
    phase_mem_overhead: u64,
    /// Cumulative issue slots across all phases (per-phase tile counters
    /// reset at `begin_phase`; these never reset).
    total_issue: u64,
    /// Cumulative exposed stall cycles across all phases.
    total_stall: u64,
    /// Cumulative static-network words across all phases.
    total_net_words: u64,
    /// Number of completed phases.
    phases: u64,
    /// Fixed-bucket histogram of per-phase charged cycles.
    phase_hist: Histogram,
    ledger: CycleLedger,
    ops: u64,
    mem_words: u64,
    in_phase: bool,
    budget: CycleBudget,
    /// Simulated activity charged so far (watchdog basis).
    spent: u64,
    /// Activity accrued inside the open phase, before `end_phase` settles
    /// it into the breakdown. Counts every resource's raw demand so a
    /// livelocked loop trips the watchdog without waiting for a phase
    /// boundary.
    phase_activity: u64,
    sink: S,
    faults: F,
}

impl RawMachine<NullSink, NoFaults> {
    /// Builds an untraced machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: &RawConfig) -> Result<Self, SimError> {
        Self::with_sink(cfg, NullSink)
    }
}

impl<S: TraceSink> RawMachine<S, NoFaults> {
    /// Builds a machine that emits cycle-attribution events into `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_sink(cfg: &RawConfig, sink: S) -> Result<Self, SimError> {
        Self::with_hooks(cfg, sink, NoFaults)
    }
}

impl<S: TraceSink, F: FaultHook> RawMachine<S, F> {
    /// Builds a machine with both a trace sink and a fault hook.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_hooks(cfg: &RawConfig, sink: S, faults: F) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(RawMachine {
            dram: DramModel::new(cfg.dram)?,
            mem: WordMemory::new(cfg.mem_words),
            locals: vec![WordMemory::new(cfg.local_words); cfg.tiles()],
            tiles: vec![TileCounters::default(); cfg.tiles()],
            phase_mem: 0,
            phase_mem_overhead: 0,
            total_issue: 0,
            total_stall: 0,
            total_net_words: 0,
            phases: 0,
            phase_hist: Histogram::cycles(),
            ledger: CycleLedger::new(),
            ops: 0,
            mem_words: 0,
            in_phase: false,
            budget: cfg.budget,
            spent: 0,
            phase_activity: 0,
            cfg: cfg.clone(),
            sink,
            faults,
        })
    }

    /// Off-chip memory for workload setup and result extraction.
    pub fn memory_mut(&mut self) -> &mut WordMemory {
        &mut self.mem
    }

    /// Immutable off-chip memory view.
    #[must_use]
    pub fn memory(&self) -> &WordMemory {
        &self.mem
    }

    /// A tile's local store.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an out-of-range tile.
    pub fn local_mut(&mut self, tile: usize) -> Result<&mut WordMemory, SimError> {
        Ok(self.memory_and_local_mut(tile)?.1)
    }

    /// Off-chip memory and one tile's local store, borrowed together for
    /// block moves between them.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an out-of-range tile.
    pub fn memory_and_local_mut(
        &mut self,
        tile: usize,
    ) -> Result<(&mut WordMemory, &mut WordMemory), SimError> {
        let local = self
            .locals
            .get_mut(tile)
            .ok_or_else(|| SimError::invalid_config(format!("tile {tile} out of range")))?;
        Ok((&mut self.mem, local))
    }

    fn tile_mut(&mut self, tile: usize) -> Result<&mut TileCounters, SimError> {
        self.tiles
            .get_mut(tile)
            .ok_or_else(|| SimError::invalid_config(format!("tile {tile} out of range")))
    }

    /// Opens a phase.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if one is already open.
    pub fn begin_phase(&mut self) -> Result<(), SimError> {
        if self.in_phase {
            return Err(SimError::unsupported("nested raw phases"));
        }
        self.in_phase = true;
        self.tiles.iter_mut().for_each(|t| *t = TileCounters::default());
        self.phase_mem = 0;
        self.phase_mem_overhead = 0;
        self.phase_activity = 0;
        if self.sink.is_enabled() {
            self.sink.instant(TRACK_TILES, "phase-begin", self.ledger.total().get());
        }
        Ok(())
    }

    /// Charges instruction-issue slots on a tile (compute, loads, stores,
    /// address arithmetic — everything retires at one per cycle).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an out-of-range tile or no open phase.
    pub fn tile_issue(&mut self, tile: usize, instrs: u64) -> Result<(), SimError> {
        self.check_phase()?;
        self.tile_mut(tile)?.issue += instrs;
        self.phase_activity = self.phase_activity.saturating_add(instrs);
        self.budget.check(self.spent.saturating_add(self.phase_activity))
    }

    /// Counts arithmetic operations for utilization reporting (does not
    /// consume issue slots by itself — pair with [`tile_issue`](Self::tile_issue)).
    pub fn count_ops(&mut self, ops: u64) {
        self.ops += ops;
    }

    /// Charges exposed stall cycles on a tile (cache misses, waits).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an out-of-range tile or no open phase.
    pub fn tile_stall(&mut self, tile: usize, cycles: u64) -> Result<(), SimError> {
        self.check_phase()?;
        self.tile_mut(tile)?.stall += cycles;
        self.phase_activity = self.phase_activity.saturating_add(cycles);
        self.budget.check(self.spent.saturating_add(self.phase_activity))
    }

    /// Charges static-network occupancy on a tile: `words` at one word
    /// per cycle per link, after an initial `nn_latency + hops` fill.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an out-of-range tile or no open phase.
    pub fn tile_net_words(&mut self, tile: usize, words: u64, hops: u64) -> Result<(), SimError> {
        self.check_phase()?;
        let latency = self.cfg.nn_latency + self.cfg.hop_latency * hops.saturating_sub(1);
        let t = self.tile_mut(tile)?;
        t.net_words += words;
        // The pipeline-fill latency is exposed once per stream.
        t.stall += latency;
        self.phase_activity = self.phase_activity.saturating_add(words.saturating_add(latency));
        self.budget.check(self.spent.saturating_add(self.phase_activity))
    }

    fn check_phase(&self) -> Result<(), SimError> {
        if self.in_phase {
            Ok(())
        } else {
            Err(SimError::unsupported("raw tile activity outside a phase"))
        }
    }

    /// Performs a DRAM port transfer (functionally moving nothing — pair
    /// with explicit memory reads/writes) and accrues port occupancy for
    /// the current phase.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on bad patterns or no open phase.
    pub fn dram_traffic(
        &mut self,
        addr: usize,
        words: usize,
        pattern: AccessPattern,
    ) -> Result<(), SimError> {
        self.check_phase()?;
        // Uncounted DRAM detail on the port's own timeline (phase charges
        // only land at end_phase, on whichever resource binds).
        let cursor = self.ledger.total().get() + self.phase_mem + self.phase_mem_overhead;
        let cost = self.dram.transfer_observed(
            addr,
            words,
            pattern,
            &mut self.sink,
            TRACK_DRAM,
            cursor,
        )?;
        self.mem_words += words as u64;
        self.phase_mem += (cost.data + cost.startup).get();
        self.phase_mem_overhead += cost.overhead.get();
        self.phase_activity =
            self.phase_activity.saturating_add((cost.data + cost.startup + cost.overhead).get());

        if self.faults.is_enabled() {
            // DRAM bit flips land in off-chip memory itself (persistent
            // cell corruption observed by this and later transfers).
            let fx = self.faults.transfer(FaultDomain::Dram, addr, words);
            for flip in &fx.flips {
                let a = pattern.addr(addr, flip.offset);
                if let Ok(v) = self.mem.read_u32(a) {
                    self.mem.write_u32(a, v ^ flip.xor_mask)?;
                }
            }
            // A stuck tile corrupts the words it moves through the port:
            // transfers round-robin words across tiles, so every
            // `tiles`-th word of the region passes the faulty datapath.
            if let Some(fault) = self.faults.stuck(FaultDomain::Tile) {
                let tiles = self.cfg.tiles().max(1);
                let mut i = fault.index % tiles;
                while i < words {
                    let a = pattern.addr(addr, i);
                    if let Ok(v) = self.mem.read_u32(a) {
                        self.mem.write_u32(a, fault.force(v))?;
                    }
                    i += tiles;
                }
            }
            self.apply_fault_costs(&fx)?;
        }
        self.budget.check(self.spent.saturating_add(self.phase_activity))
    }

    /// Charges ECC/retry recovery cycles from a transfer's fault effects
    /// and converts an unrecoverable failure into a typed error.
    fn apply_fault_costs(&mut self, fx: &TransferFaults) -> Result<(), SimError> {
        self.charge(TRACK_MEM, "ecc", "ecc-correct", Cycles::new(fx.ecc_cycles));
        self.charge(TRACK_MEM, "retry", "dram-retry", Cycles::new(fx.retry_cycles));
        match &fx.failure {
            Some(what) => Err(SimError::detected_fault(what.clone())),
            None => Ok(()),
        }
    }

    /// Closes a phase. The phase costs `max(slowest tile, port occupancy,
    /// network occupancy) + phase_startup`. When `balanced` is set, the
    /// tile bound uses the *average* tile time instead of the maximum —
    /// the paper's perfect-load-balance extrapolation for CSLC — so the
    /// idle time a real 73-over-16 distribution would add is simply never
    /// charged.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no phase is open.
    pub fn end_phase(&mut self, balanced: bool) -> Result<(), SimError> {
        if !self.in_phase {
            return Err(SimError::unsupported("end_phase without begin_phase"));
        }
        self.in_phase = false;
        let charged_before = self.ledger.total().get();
        self.total_issue += self.tiles.iter().map(|t| t.issue).sum::<u64>();
        self.total_stall += self.tiles.iter().map(|t| t.stall).sum::<u64>();
        self.total_net_words += self.tiles.iter().map(|t| t.net_words).sum::<u64>();
        self.phases += 1;

        let totals: Vec<u64> = self.tiles.iter().map(|t| t.issue + t.stall).collect();
        let max_tile = totals.iter().copied().max().unwrap_or(0);
        let avg_tile = if totals.is_empty() {
            0
        } else {
            totals.iter().sum::<u64>().div_ceil(totals.len() as u64)
        };
        let tile_bound = if balanced { avg_tile } else { max_tile };
        let net_bound = self.tiles.iter().map(|t| t.net_words).max().unwrap_or(0);
        let mem_bound = self.phase_mem + self.phase_mem_overhead;

        // Attribute the phase to its binding resource; startup separately.
        // The charges below always sum to
        // max(tile_bound, net_bound, mem_bound) + phase_startup.
        if tile_bound >= net_bound && tile_bound >= mem_bound {
            let issue: u64 = if balanced {
                self.tiles.iter().map(|t| t.issue).sum::<u64>() / totals.len().max(1) as u64
            } else {
                self.tiles.iter().map(|t| t.issue).max().unwrap_or(0)
            };
            let stall = tile_bound - issue.min(tile_bound);
            self.charge(TRACK_TILES, "issue", "tile-issue", Cycles::new(issue.min(tile_bound)));
            self.charge(TRACK_TILES, "stall", "tile-stall", Cycles::new(stall));
        } else if mem_bound >= net_bound {
            self.charge(TRACK_MEM, "memory", "dram-port", Cycles::new(self.phase_mem));
            self.charge(
                TRACK_MEM,
                "precharge",
                "row-precharge-activate",
                Cycles::new(self.phase_mem_overhead),
            );
        } else {
            self.charge(TRACK_TILES, "network", "static-network", Cycles::new(net_bound));
        }
        self.charge(TRACK_TILES, "startup", "phase-startup", Cycles::new(self.cfg.phase_startup));
        self.phase_hist.observe(self.ledger.total().get() - charged_before);
        if self.sink.is_enabled() {
            self.sink.instant(TRACK_TILES, "phase-end", self.ledger.total().get());
        }
        self.phase_activity = 0;
        self.budget.check(self.spent)
    }

    /// Charges the breakdown and mirrors the charge as a counted span, so
    /// the trace aggregation reproduces the breakdown exactly.
    fn charge(
        &mut self,
        track: &'static str,
        category: &'static str,
        name: &'static str,
        cycles: Cycles,
    ) {
        if cycles == Cycles::ZERO {
            return;
        }
        if self.sink.is_enabled() {
            let at = self.ledger.total().get();
            self.sink.span(track, category, name, at, cycles.get());
        }
        self.spent = self.spent.saturating_add(cycles.get());
        self.ledger.charge(category, cycles);
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.ledger.total()
    }

    /// Consumes the machine into a [`KernelRun`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a phase is still open.
    pub fn finish(self, verification: Verification) -> Result<KernelRun, SimError> {
        if self.in_phase {
            return Err(SimError::unsupported("finish with open phase"));
        }
        let breakdown = self.ledger.into_breakdown();
        let total = breakdown.total();
        let mut metrics = MetricsReport::new();
        breakdown.export_metrics(&mut metrics, "raw.cycles");
        self.dram.export_metrics(&mut metrics, "raw.dram");
        self.budget.export_metrics(&mut metrics, "raw.budget", self.spent);
        metrics.counter("raw.net.words", self.total_net_words);
        // Per-link occupancy: each of the mesh's tiles owns one static
        // network link, and every link moves at most one word per cycle,
        // so words / (tiles × cycles) is a true ≤ 1 utilization.
        metrics.ratio(
            "raw.net.link_util",
            self.total_net_words,
            (self.cfg.tiles() as u64).saturating_mul(total.get()),
        );
        metrics.counter("raw.tiles.issue", self.total_issue);
        metrics.counter("raw.tiles.stall", self.total_stall);
        metrics.ratio(
            "raw.tiles.issue_occupancy",
            self.total_issue,
            (self.cfg.tiles() as u64).saturating_mul(total.get()),
        );
        metrics.counter("raw.phases.count", self.phases);
        metrics.counter("raw.run.ops", self.ops);
        metrics.counter("raw.run.mem_words", self.mem_words);
        metrics.bandwidth("raw.run.achieved_bw", self.mem_words, total.get());
        metrics.bandwidth("raw.run.achieved_ops", self.ops, total.get());
        metrics.set("raw.phases.cycles", Metric::Histogram(self.phase_hist));
        Ok(KernelRun {
            cycles: total,
            breakdown,
            ops_executed: self.ops,
            mem_words: self.mem_words,
            verification,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> RawMachine {
        RawMachine::new(&RawConfig::paper()).unwrap()
    }

    /// Flips bit 31 of word `flip` of every transfer long enough and
    /// holds bit 0 of resource `stuck` at one.
    struct Scripted {
        flip: usize,
        stuck: usize,
    }

    impl FaultHook for Scripted {
        fn transfer(&mut self, _: FaultDomain, _: usize, words: usize) -> TransferFaults {
            let flips = if self.flip < words {
                vec![triarch_simcore::faults::WordFlip { offset: self.flip, xor_mask: 1 << 31 }]
            } else {
                Vec::new()
            };
            TransferFaults { flips, ..TransferFaults::default() }
        }

        fn stuck(&mut self, _: FaultDomain) -> Option<triarch_simcore::faults::StuckFault> {
            Some(triarch_simcore::faults::StuckFault { index: self.stuck, bit: 0, stuck_one: true })
        }
    }

    #[test]
    fn dram_flips_and_stuck_tile_land_where_the_pattern_says() {
        let cfg = RawConfig::paper();
        let tiles = cfg.tiles();
        let mut m = RawMachine::with_hooks(&cfg, NullSink, Scripted { flip: 5, stuck: 2 }).unwrap();
        let init: Vec<u32> = (0..600u32).map(|i| (i * 2) << 1).collect();
        m.memory_mut().write_block_u32(0, &init).unwrap();
        let pattern = AccessPattern::Chunked { chunk_words: 7, stride_words: 20 };
        m.begin_phase().unwrap();
        m.dram_traffic(11, 40, pattern).unwrap();
        m.end_phase(false).unwrap();
        let mut want = init.clone();
        want[pattern.addr(11, 5)] ^= 1 << 31;
        for i in (2..40).step_by(tiles) {
            want[pattern.addr(11, i)] |= 1;
        }
        assert_eq!(m.memory().as_words()[..600], want[..]);
    }

    #[test]
    fn phase_takes_slowest_tile() {
        let mut m = machine();
        m.begin_phase().unwrap();
        m.tile_issue(0, 100).unwrap();
        m.tile_issue(1, 500).unwrap();
        m.end_phase(false).unwrap();
        let total = m.cycles().get();
        assert_eq!(total, 500 + RawConfig::paper().phase_startup);
    }

    #[test]
    fn balanced_phase_uses_average() {
        let mut m = machine();
        m.begin_phase().unwrap();
        m.tile_issue(0, 1_600).unwrap(); // one busy tile
        m.end_phase(true).unwrap();
        // 1600 / 16 tiles = 100 average.
        assert_eq!(m.cycles().get(), 100 + RawConfig::paper().phase_startup);
    }

    #[test]
    fn memory_bound_phase_charges_memory() {
        let mut m = machine();
        m.begin_phase().unwrap();
        m.tile_issue(0, 10).unwrap();
        m.dram_traffic(0, 28_000, AccessPattern::Sequential).unwrap();
        m.end_phase(false).unwrap();
        assert!(m.cycles().get() >= 1_000);
        assert!(m.breakdown_get("memory") >= 1_000);
    }

    impl RawMachine {
        fn breakdown_get(&self, cat: &str) -> u64 {
            self.ledger.get(cat).get()
        }
    }

    #[test]
    fn network_stream_charges_occupancy_and_latency() {
        let mut m = machine();
        m.begin_phase().unwrap();
        m.tile_net_words(3, 1_000, 4).unwrap();
        m.end_phase(false).unwrap();
        // 1000 words at 1/cycle bound the phase; the fill latency appears
        // as a tile stall (3 + 3 extra hops = 6 cycles here).
        assert!(m.cycles().get() >= 1_000);
    }

    #[test]
    fn misuse_is_typed_error() {
        let mut m = machine();
        assert!(m.tile_issue(0, 1).is_err()); // outside phase
        assert!(m.end_phase(false).is_err());
        m.begin_phase().unwrap();
        assert!(m.begin_phase().is_err());
        assert!(m.tile_issue(99, 1).is_err());
        assert!(m.clone().finish(Verification::Unchecked).is_err());
        m.end_phase(false).unwrap();
    }

    #[test]
    fn network_bound_phase_charges_network() {
        let mut m = machine();
        m.begin_phase().unwrap();
        m.tile_issue(0, 5).unwrap();
        m.tile_net_words(1, 50_000, 2).unwrap();
        m.end_phase(false).unwrap();
        assert!(m.breakdown_get("network") >= 50_000);
        assert_eq!(m.breakdown_get("issue"), 0);
    }

    #[test]
    fn finish_carries_metrics() {
        let mut m = machine();
        m.begin_phase().unwrap();
        m.tile_issue(0, 100).unwrap();
        m.tile_net_words(1, 50, 2).unwrap();
        m.count_ops(80);
        m.end_phase(false).unwrap();
        let run = m.finish(Verification::BitExact).unwrap();
        assert_eq!(run.metrics.counter_sum("raw.cycles."), run.cycles.get());
        assert_eq!(run.metrics.counter_value("raw.net.words"), Some(50));
        assert_eq!(run.metrics.counter_value("raw.tiles.issue"), Some(100));
        assert_eq!(run.metrics.counter_value("raw.phases.count"), Some(1));
        assert_eq!(run.metrics.counter_value("raw.run.ops"), Some(80));
        assert!(run.metrics.get("raw.net.link_util").is_some());
        assert!(run.metrics.get("raw.phases.cycles").is_some());
    }

    #[test]
    fn locals_are_per_tile() {
        let mut m = machine();
        m.local_mut(0).unwrap().write_u32(0, 7).unwrap();
        m.local_mut(1).unwrap().write_u32(0, 9).unwrap();
        assert_eq!(m.local_mut(0).unwrap().read_u32(0).unwrap(), 7);
        assert_eq!(m.local_mut(1).unwrap().read_u32(0).unwrap(), 9);
        assert!(m.local_mut(99).is_err());
    }
}
