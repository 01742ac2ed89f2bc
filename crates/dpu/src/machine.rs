//! The DPU execution engine: host transfers, WRAM/MRAM DMA, tasklets.
//!
//! One [`DpuMachine`] models a whole module — every DPU owns a private
//! MRAM bank slice and shares nothing with its neighbours. A kernel runs
//! as: host bulk-pushes operands into per-DPU MRAM, [`DpuMachine::launch`]
//! boots the tasklets, each DPU moves data between its MRAM bank and its
//! WRAM scratchpad with explicit DMA and executes instructions on the
//! revolving pipeline, [`DpuMachine::sync`] closes the phase, and the
//! host bulk-pulls results back. Because DPUs run in parallel, the phase
//! charges the **makespan** (the slowest DPU) for DMA and pipeline time;
//! host transfers serialize on the single host↔module interface and are
//! charged in full as they happen.

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults, TransferFaults};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{
    CycleBudget, CycleLedger, Cycles, KernelRun, SimError, Verification, WordMemory,
};

use crate::config::DpuConfig;

/// Trace track for host↔MRAM bulk transfers and launches.
const TRACK_HOST: &str = "dpu.host";
/// Trace track for WRAM↔MRAM DMA makespans.
const TRACK_DMA: &str = "dpu.dma";
/// Trace track for revolving-pipeline makespans.
const TRACK_PIPELINE: &str = "dpu.pipeline";

/// A range of WRAM words returned by [`DpuMachine::wram_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WramRange {
    /// First word of the range.
    pub start: usize,
    /// Length in words.
    pub len: usize,
}

/// Per-DPU accumulators for one launched phase.
#[derive(Debug, Clone)]
struct PhaseAcc {
    /// DMA cycles accrued by each DPU this phase.
    dma: Vec<u64>,
    /// Instructions issued by each DPU this phase.
    instrs: Vec<u64>,
    /// Running DMA total across all DPUs (watchdog bound).
    dma_spent: u64,
}

/// The DPU module state: host memory, MRAM banks, WRAM, accounting.
///
/// Generic over a [`TraceSink`] and a [`FaultHook`]; the defaults
/// ([`NullSink`], [`NoFaults`]) are statically dispatched, disabled, and
/// empty, so an untraced, unfaulted machine pays nothing for either kind
/// of instrumentation.
///
/// The WRAM buffer models the scratchpad of the DPU *currently being
/// simulated*: DPUs share no state, so programs walk them one at a time
/// within a phase and call [`DpuMachine::wram_reset`] between DPUs.
#[derive(Debug, Clone)]
pub struct DpuMachine<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: DpuConfig,
    host: WordMemory,
    mram: WordMemory,
    wram: WordMemory,
    wram_next: usize,
    /// High-water mark of WRAM allocation across the whole run (words).
    wram_peak: usize,
    /// Fixed-bucket histogram of per-transfer host↔MRAM cycles.
    host_hist: Histogram,
    ledger: CycleLedger,
    phase: Option<PhaseAcc>,
    /// Parallel work hidden under the per-phase makespan.
    hidden: Cycles,
    ops: u64,
    /// Words moved by WRAM↔MRAM DMA (the on-chip interface).
    mem_words: u64,
    /// Words moved over the host↔MRAM interface.
    host_words: u64,
    launches: u64,
    budget: CycleBudget,
    /// Watchdog activity counter: charged cycles plus the parallel DPU
    /// work hidden under each phase makespan.
    spent: u64,
    sink: S,
    faults: F,
}

impl DpuMachine<NullSink, NoFaults> {
    /// Builds an untraced machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: &DpuConfig) -> Result<Self, SimError> {
        Self::with_sink(cfg, NullSink)
    }
}

impl<S: TraceSink> DpuMachine<S, NoFaults> {
    /// Builds a machine that emits cycle-attribution events into `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_sink(cfg: &DpuConfig, sink: S) -> Result<Self, SimError> {
        Self::with_hooks(cfg, sink, NoFaults)
    }
}

impl<S: TraceSink, F: FaultHook> DpuMachine<S, F> {
    /// Builds a machine with both a trace sink and a fault hook.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_hooks(cfg: &DpuConfig, sink: S, faults: F) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(DpuMachine {
            host: WordMemory::new(cfg.host_mem_words),
            mram: WordMemory::new(cfg.dpus() * cfg.mram_words_per_dpu),
            wram: WordMemory::new(cfg.wram_words),
            wram_next: 0,
            wram_peak: 0,
            host_hist: Histogram::cycles(),
            ledger: CycleLedger::new(),
            phase: None,
            hidden: Cycles::ZERO,
            ops: 0,
            mem_words: 0,
            host_words: 0,
            launches: 0,
            budget: cfg.budget,
            spent: 0,
            cfg: cfg.clone(),
            sink,
            faults,
        })
    }

    /// Host main memory for workload setup and result extraction.
    pub fn host_mut(&mut self) -> &mut WordMemory {
        &mut self.host
    }

    /// Immutable host memory view.
    #[must_use]
    pub fn host(&self) -> &WordMemory {
        &self.host
    }

    /// WRAM contents of the DPU currently being simulated.
    #[must_use]
    pub fn wram(&self) -> &WordMemory {
        &self.wram
    }

    /// Mutable WRAM contents.
    pub fn wram_mut(&mut self) -> &mut WordMemory {
        &mut self.wram
    }

    /// Base address of one DPU's MRAM bank in the module arena.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] for an out-of-range DPU index or a
    /// window that overruns the bank.
    fn mram_addr(&self, dpu: usize, offset: usize, len: usize) -> Result<usize, SimError> {
        if dpu >= self.cfg.dpus() {
            return Err(SimError::capacity("dpu index", dpu + 1, self.cfg.dpus()));
        }
        if offset + len > self.cfg.mram_words_per_dpu {
            return Err(SimError::capacity(
                "mram bank window",
                offset + len,
                self.cfg.mram_words_per_dpu,
            ));
        }
        Ok(dpu * self.cfg.mram_words_per_dpu + offset)
    }

    /// Allocates `words` of WRAM, aligned up to the DMA block size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] when the scratchpad is exhausted.
    pub fn wram_alloc(&mut self, words: usize) -> Result<WramRange, SimError> {
        let block = self.cfg.wram_block_words;
        let len = words.div_ceil(block) * block;
        if self.wram_next + len > self.cfg.wram_words {
            return Err(SimError::capacity(
                "wram scratchpad",
                self.wram_next + len,
                self.cfg.wram_words,
            ));
        }
        let range = WramRange { start: self.wram_next, len };
        self.wram_next += len;
        self.wram_peak = self.wram_peak.max(self.wram_next);
        Ok(range)
    }

    /// Releases all WRAM allocations (between DPUs or passes).
    pub fn wram_reset(&mut self) {
        self.wram_next = 0;
    }

    /// Emits a counted span and charges the breakdown.
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
        self.spent += cycles.get();
        if self.sink.is_enabled() {
            let at = self.ledger.total().get();
            self.sink.span(track, category, name, at, cycles.get());
        }
        self.ledger.charge(category, cycles);
    }

    /// Cycles for one host↔MRAM bulk transfer of `len` words.
    fn host_cost(&self, len: usize) -> u64 {
        self.cfg.host_startup + (len as u64).div_ceil(self.cfg.host_words_per_cycle)
    }

    /// Cycles for one WRAM↔MRAM DMA transfer of `len` words.
    fn dma_cost(&self, len: usize) -> u64 {
        self.cfg.dma_startup + (len as u64).div_ceil(self.cfg.dma_words_per_cycle)
    }

    /// Bulk-pushes `len` words of host memory into one DPU's MRAM bank.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses, a detected fault,
    /// or an exhausted watchdog budget.
    pub fn host_push(
        &mut self,
        host_addr: usize,
        dpu: usize,
        mram_off: usize,
        len: usize,
    ) -> Result<(), SimError> {
        let base = self.mram_addr(dpu, mram_off, len)?;
        self.mram.block_mut(base, len)?.copy_from_slice(self.host.block(host_addr, len)?);
        let cost = self.host_cost(len);
        self.host_hist.observe(cost);
        self.host_words += len as u64;
        self.charge(TRACK_HOST, "host_xfer", "host-to-mram", Cycles::new(cost));
        if self.faults.is_enabled() {
            // Words crossing the host↔module interface: flips corrupt the
            // MRAM copy (the data in flight), not the host original.
            let fx = self.faults.transfer(FaultDomain::Dram, host_addr, len);
            for flip in &fx.flips {
                let a = base + flip.offset;
                let word = self.mram.read_u32(a)?;
                self.mram.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.apply_fault_costs(&fx)?;
        }
        self.budget.check(self.spent)
    }

    /// Bulk-pulls `len` words of one DPU's MRAM bank back to host memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses, a detected fault,
    /// or an exhausted watchdog budget.
    pub fn host_pull(
        &mut self,
        dpu: usize,
        mram_off: usize,
        host_addr: usize,
        len: usize,
    ) -> Result<(), SimError> {
        let base = self.mram_addr(dpu, mram_off, len)?;
        // An active stuck-at fault in the module's output interface
        // corrupts every `dpus`-th word of the outgoing bulk transfer.
        let stuck =
            if self.faults.is_enabled() { self.faults.stuck(FaultDomain::Dram) } else { None };
        let lanes = self.cfg.dpus().max(1);
        let landing = self.host.block_mut(host_addr, len)?;
        landing.copy_from_slice(self.mram.block(base, len)?);
        if let Some(fault) = stuck {
            for word in landing.iter_mut().skip(fault.index % lanes).step_by(lanes) {
                *word = fault.force(*word);
            }
        }
        let cost = self.host_cost(len);
        self.host_hist.observe(cost);
        self.host_words += len as u64;
        self.charge(TRACK_HOST, "host_xfer", "mram-to-host", Cycles::new(cost));
        if self.faults.is_enabled() {
            // Words leaving over the interface: flips corrupt the host
            // destination.
            let fx = self.faults.transfer(FaultDomain::Dram, base, len);
            for flip in &fx.flips {
                let a = host_addr + flip.offset;
                let word = self.host.read_u32(a)?;
                self.host.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.apply_fault_costs(&fx)?;
        }
        self.budget.check(self.spent)
    }

    /// Boots the tasklets: opens a parallel DPU phase.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a phase is already open, or
    /// [`SimError::BudgetExceeded`] from the watchdog.
    pub fn launch(&mut self) -> Result<(), SimError> {
        if self.phase.is_some() {
            return Err(SimError::unsupported("launch inside an open DPU phase"));
        }
        self.launches += 1;
        self.charge(TRACK_HOST, "launch", "tasklet-boot", Cycles::new(self.cfg.launch_cycles));
        if self.sink.is_enabled() {
            self.sink.instant(TRACK_PIPELINE, "phase-begin", self.ledger.total().get());
        }
        self.phase = Some(PhaseAcc {
            dma: vec![0; self.cfg.dpus()],
            instrs: vec![0; self.cfg.dpus()],
            dma_spent: 0,
        });
        self.budget.check(self.spent)
    }

    /// The open phase, or a typed error naming the misused operation.
    fn phase_mut(&mut self, what: &'static str) -> Result<&mut PhaseAcc, SimError> {
        self.phase.as_mut().ok_or_else(|| SimError::unsupported(what))
    }

    /// DMA `len` words from one DPU's MRAM bank into its WRAM.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] outside a launched phase, on out-of-bounds
    /// addresses, a detected fault, or an exhausted watchdog budget.
    pub fn dma_read(
        &mut self,
        dpu: usize,
        mram_off: usize,
        dst: WramRange,
        len: usize,
    ) -> Result<(), SimError> {
        if len > dst.len {
            return Err(SimError::capacity("wram dma range", len, dst.len));
        }
        let base = self.mram_addr(dpu, mram_off, len)?;
        self.wram.block_mut(dst.start, len)?.copy_from_slice(self.mram.block(base, len)?);
        let cost = self.dma_cost(len);
        self.mem_words += len as u64;
        let spent = self.spent;
        let acc = self.phase_mut("dma_read outside a launched phase")?;
        acc.dma[dpu] += cost;
        acc.dma_spent += cost;
        let bound = spent + acc.dma_spent;
        if self.faults.is_enabled() {
            // Words crossing the bank interface: flips corrupt the WRAM
            // copy.
            let fx = self.faults.transfer(FaultDomain::Dram, base, len);
            for flip in &fx.flips {
                let a = dst.start + flip.offset;
                let word = self.wram.read_u32(a)?;
                self.wram.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.apply_fault_costs(&fx)?;
        }
        self.budget.check(bound)
    }

    /// DMA `len` words from one DPU's WRAM back into its MRAM bank.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] outside a launched phase, on out-of-bounds
    /// addresses, a detected fault, or an exhausted watchdog budget.
    pub fn dma_write(
        &mut self,
        dpu: usize,
        src: WramRange,
        mram_off: usize,
        len: usize,
    ) -> Result<(), SimError> {
        if len > src.len {
            return Err(SimError::capacity("wram dma range", len, src.len));
        }
        let base = self.mram_addr(dpu, mram_off, len)?;
        self.mram.block_mut(base, len)?.copy_from_slice(self.wram.block(src.start, len)?);
        let cost = self.dma_cost(len);
        self.mem_words += len as u64;
        let spent = self.spent;
        let acc = self.phase_mut("dma_write outside a launched phase")?;
        acc.dma[dpu] += cost;
        acc.dma_spent += cost;
        let bound = spent + acc.dma_spent;
        if self.faults.is_enabled() {
            // Words landing in the bank: flips corrupt the MRAM copy.
            let fx = self.faults.transfer(FaultDomain::Dram, base, len);
            for flip in &fx.flips {
                let a = base + flip.offset;
                let word = self.mram.read_u32(a)?;
                self.mram.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.apply_fault_costs(&fx)?;
        }
        self.budget.check(bound)
    }

    /// Issues `instrs` pipeline instructions on one DPU, of which `ops`
    /// retire as 32-bit arithmetic (software-emulated FP issues
    /// [`DpuConfig::fp_instrs_per_op`] instructions per flop).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] outside a launched phase.
    pub fn exec(&mut self, dpu: usize, instrs: u64, ops: u64) -> Result<(), SimError> {
        if dpu >= self.cfg.dpus() {
            return Err(SimError::capacity("dpu index", dpu + 1, self.cfg.dpus()));
        }
        self.ops += ops;
        let acc = self.phase_mut("exec outside a launched phase")?;
        acc.instrs[dpu] += instrs;
        Ok(())
    }

    /// Closes the phase: every DPU ran in parallel, so the slowest DPU's
    /// DMA and pipeline times are charged as the phase makespans
    /// (`mram_dma` and `tasklet`), and the rest of the module's work is
    /// recorded as hidden parallel cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no phase is open, or
    /// [`SimError::BudgetExceeded`] from the watchdog.
    pub fn sync(&mut self) -> Result<(), SimError> {
        let acc = self.phase.take().ok_or_else(|| SimError::unsupported("sync without launch"))?;
        let fill = self.cfg.pipeline_fill();
        let depth = self.cfg.revolve_depth;
        let pipe: Vec<u64> = acc.instrs.iter().map(|&i| (i * depth).div_ceil(fill)).collect();
        let dma_max = acc.dma.iter().copied().max().unwrap_or(0);
        let dma_sum: u64 = acc.dma.iter().sum();
        let pipe_max = pipe.iter().copied().max().unwrap_or(0);
        let pipe_sum: u64 = pipe.iter().sum();
        self.charge(TRACK_DMA, "mram_dma", "wram-mram-dma", Cycles::new(dma_max));
        self.charge(TRACK_PIPELINE, "tasklet", "revolving-pipeline", Cycles::new(pipe_max));
        if self.sink.is_enabled() {
            self.sink.instant(TRACK_PIPELINE, "phase-end", self.ledger.total().get());
        }
        let hidden = (dma_sum - dma_max) + (pipe_sum - pipe_max);
        self.spent += hidden;
        self.hidden += Cycles::new(hidden);
        self.budget.check(self.spent)
    }

    /// Charges a fault verdict's ECC/retry costs and converts a failure
    /// into [`SimError::DetectedFault`].
    fn apply_fault_costs(&mut self, fx: &TransferFaults) -> Result<(), SimError> {
        self.charge(TRACK_HOST, "ecc", "ecc-correct", Cycles::new(fx.ecc_cycles));
        self.charge(TRACK_HOST, "retry", "transfer-retry", Cycles::new(fx.retry_cycles));
        match &fx.failure {
            Some(what) => Err(SimError::detected_fault(what.clone())),
            None => Ok(()),
        }
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.ledger.total()
    }

    /// Parallel DPU cycles hidden under the phase makespans.
    #[must_use]
    pub fn hidden_cycles(&self) -> Cycles {
        self.hidden
    }

    /// Consumes the machine into a [`KernelRun`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if a phase is still open.
    pub fn finish(self, verification: Verification) -> Result<KernelRun, SimError> {
        if self.phase.is_some() {
            return Err(SimError::unsupported("finish with open DPU phase"));
        }
        let breakdown = self.ledger.into_breakdown();
        let total = breakdown.total();
        let mut metrics = MetricsReport::new();
        breakdown.export_metrics(&mut metrics, "dpu.cycles");
        self.budget.export_metrics(&mut metrics, "dpu.budget", self.spent);
        metrics.ratio("dpu.wram.occupancy", self.wram_peak as u64, self.cfg.wram_words as u64);
        metrics.counter("dpu.wram.peak_words", self.wram_peak as u64);
        metrics.counter("dpu.run.ops", self.ops);
        metrics.counter("dpu.run.mem_words", self.mem_words);
        metrics.counter("dpu.run.hidden_cycles", self.hidden.get());
        metrics.counter("dpu.host.words", self.host_words);
        metrics.counter("dpu.host.launches", self.launches);
        metrics.bandwidth("dpu.run.achieved_bw", self.mem_words, total.get());
        metrics.bandwidth("dpu.run.achieved_ops", self.ops, total.get());
        metrics.set("dpu.host.xfer_cycles", Metric::Histogram(self.host_hist));
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

    fn machine() -> DpuMachine {
        DpuMachine::new(&DpuConfig::paper()).unwrap()
    }

    #[test]
    fn wram_allocation_is_block_aligned() {
        let mut m = machine();
        let a = m.wram_alloc(5).unwrap();
        assert_eq!(a.start, 0);
        assert_eq!(a.len, 6); // rounded to 8-byte DMA blocks
        let b = m.wram_alloc(4).unwrap();
        assert_eq!(b.start, 6);
        m.wram_reset();
        assert_eq!(m.wram_alloc(1).unwrap().start, 0);
    }

    #[test]
    fn wram_overflow_is_capacity_error() {
        let mut m = machine();
        let err = m.wram_alloc(1024 * 1024).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
    }

    #[test]
    fn host_transfers_move_real_data() {
        let mut m = machine();
        m.host_mut().write_block_u32(10, &[1, 2, 3, 4]).unwrap();
        m.host_push(10, 3, 100, 4).unwrap();
        m.host_pull(3, 100, 500, 4).unwrap();
        assert_eq!(m.host().read_block_u32(500, 4).unwrap(), vec![1, 2, 3, 4]);
        assert!(m.cycles() > Cycles::ZERO);
        assert_eq!(m.ledger.get("host_xfer").get(), 2 * (64 + 1));
    }

    /// Flips bit 31 of word 3, 7, 11, … of successive transfers and holds
    /// bit 0 of interface lane 5 at one.
    struct Scripted {
        next: usize,
    }

    impl FaultHook for Scripted {
        fn transfer(&mut self, _: FaultDomain, _: usize, _: usize) -> TransferFaults {
            self.next += 4;
            let flip =
                triarch_simcore::faults::WordFlip { offset: self.next - 1, xor_mask: 1 << 31 };
            TransferFaults { flips: vec![flip], ..TransferFaults::default() }
        }

        fn stuck(&mut self, _: FaultDomain) -> Option<triarch_simcore::faults::StuckFault> {
            Some(triarch_simcore::faults::StuckFault { index: 5, bit: 0, stuck_one: true })
        }
    }

    #[test]
    fn block_moves_flips_and_stuck_lane_land_on_the_transfer_words() {
        let cfg = DpuConfig::paper();
        let mut m = DpuMachine::with_hooks(&cfg, NullSink, Scripted { next: 0 }).unwrap();
        let init: Vec<u32> = (0..300u32).map(|i| (i * 2) << 1).collect();
        m.host_mut().write_block_u32(0, &init).unwrap();
        m.host_push(0, 0, 0, 300).unwrap();
        m.launch().unwrap();
        let r = m.wram_alloc(300).unwrap();
        m.dma_read(0, 0, r, 300).unwrap();
        m.dma_write(0, r, 400, 300).unwrap();
        m.sync().unwrap();
        m.host_pull(0, 400, 1000, 300).unwrap();
        // Push, read and write each flip their own word in flight; the pull
        // forces every dpus-th word from lane 5 on, then flips word 15.
        let mut want = init.clone();
        for offset in [3, 7, 11] {
            want[offset] ^= 1 << 31;
        }
        for word in want.iter_mut().skip(5).step_by(cfg.dpus()) {
            *word |= 1;
        }
        want[15] ^= 1 << 31;
        assert_eq!(m.host().block(1000, 300).unwrap(), &want[..]);
        assert_eq!(m.host().block(0, 300).unwrap(), &init[..]);
    }

    #[test]
    fn dma_moves_data_and_charges_makespan_at_sync() {
        let mut m = machine();
        m.host_mut().write_block_u32(0, &[9; 8]).unwrap();
        m.host_push(0, 0, 0, 8).unwrap();
        m.launch().unwrap();
        let r = m.wram_alloc(8).unwrap();
        m.dma_read(0, 0, r, 8).unwrap();
        m.dma_write(0, r, 64, 8).unwrap();
        assert_eq!(m.ledger.get("mram_dma"), Cycles::ZERO, "charged only at sync");
        m.sync().unwrap();
        assert_eq!(m.ledger.get("mram_dma").get(), 2 * (32 + 8));
        m.host_pull(0, 64, 100, 8).unwrap();
        assert_eq!(m.host().read_block_u32(100, 8).unwrap(), vec![9; 8]);
    }

    #[test]
    fn pipeline_rate_follows_tasklet_fill() {
        // 16 tasklets saturate the 11-deep pipeline: 1 instr/cycle.
        let mut m = machine();
        m.launch().unwrap();
        m.exec(0, 1100, 0).unwrap();
        m.sync().unwrap();
        assert_eq!(m.ledger.get("tasklet").get(), 1100);
        // 2 tasklets leave 9 of 11 slots revolving empty.
        let mut cfg = DpuConfig::paper();
        cfg.tasklets = 2;
        let mut m = DpuMachine::new(&cfg).unwrap();
        m.launch().unwrap();
        m.exec(0, 1100, 0).unwrap();
        m.sync().unwrap();
        assert_eq!(m.ledger.get("tasklet").get(), 1100 * 11 / 2);
    }

    #[test]
    fn phase_charges_slowest_dpu_and_hides_the_rest() {
        let mut m = machine();
        m.launch().unwrap();
        m.exec(0, 100, 0).unwrap();
        m.exec(1, 300, 0).unwrap();
        m.sync().unwrap();
        assert_eq!(m.ledger.get("tasklet").get(), 300);
        assert_eq!(m.hidden_cycles().get(), 100);
    }

    #[test]
    fn phase_misuse_is_error() {
        let mut m = machine();
        assert!(m.sync().is_err());
        let r = WramRange { start: 0, len: 4 };
        assert!(m.dma_read(0, 0, r, 4).is_err());
        assert!(m.exec(0, 1, 0).is_err());
        m.launch().unwrap();
        assert!(m.launch().is_err());
        assert!(m.clone().finish(Verification::Unchecked).is_err());
    }

    #[test]
    fn out_of_range_dpu_or_bank_is_capacity_error() {
        let mut m = machine();
        assert!(matches!(m.host_push(0, 128, 0, 1), Err(SimError::Capacity { .. })));
        let words = DpuConfig::paper().mram_words_per_dpu;
        assert!(matches!(m.host_push(0, 0, words, 1), Err(SimError::Capacity { .. })));
        m.launch().unwrap();
        assert!(matches!(m.exec(128, 1, 0), Err(SimError::Capacity { .. })));
    }

    #[test]
    fn finish_carries_metrics() {
        let mut m = machine();
        m.host_mut().write_block_u32(0, &[7; 64]).unwrap();
        m.host_push(0, 0, 0, 64).unwrap();
        m.launch().unwrap();
        let r = m.wram_alloc(64).unwrap();
        m.dma_read(0, 0, r, 64).unwrap();
        m.exec(0, 64, 64).unwrap();
        m.sync().unwrap();
        let run = m.finish(Verification::BitExact).unwrap();
        assert_eq!(run.metrics.counter_sum("dpu.cycles."), run.cycles.get());
        assert_eq!(run.metrics.counter_value("dpu.wram.peak_words"), Some(64));
        assert_eq!(run.metrics.counter_value("dpu.host.words"), Some(64));
        assert_eq!(run.metrics.counter_value("dpu.run.ops"), Some(64));
        assert!(run.metrics.get("dpu.host.xfer_cycles").is_some());
    }

    #[test]
    fn tiny_budget_trips_on_first_transfer() {
        let mut cfg = DpuConfig::paper();
        cfg.budget = CycleBudget::limited(10);
        let mut m = DpuMachine::new(&cfg).unwrap();
        let err = m.host_push(0, 0, 0, 4).unwrap_err();
        assert!(matches!(err, SimError::BudgetExceeded { .. }));
    }
}
