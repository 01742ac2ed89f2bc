//! The Imagine execution engine: SRF, memory streams, and cluster kernels.

use triarch_simcore::faults::{FaultDomain, FaultHook, NoFaults, TransferFaults};
use triarch_simcore::metrics::{Histogram, Metric, MetricsReport};
use triarch_simcore::trace::{NullSink, TraceSink};
use triarch_simcore::{
    AccessPattern, CycleBudget, CycleLedger, Cycles, DramModel, KernelRun, SimError, Verification,
    WordMemory,
};

use crate::config::ImagineConfig;

/// Trace track for the stream/memory system.
const TRACK_MEM: &str = "imagine.mem";
/// Trace track for cluster (kernel) execution.
const TRACK_CLUSTER: &str = "imagine.cluster";
/// Trace track for the off-chip DRAM cost decomposition.
const TRACK_DRAM: &str = "imagine.dram";

/// Per-unit-class operation totals for one kernel invocation, summed over
/// all stream elements (the machine divides across clusters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterOps {
    /// Additions/subtractions (3 adders per cluster).
    pub adds: u64,
    /// Multiplications (2 multipliers per cluster).
    pub muls: u64,
    /// Divisions (1 divider per cluster).
    pub divs: u64,
    /// Inter-cluster communication words (1 comm port per cluster).
    pub comms: u64,
}

impl ClusterOps {
    /// Sum of arithmetic operations (excludes communication).
    #[must_use]
    pub fn arithmetic(&self) -> u64 {
        self.adds + self.muls + self.divs
    }

    /// Component-wise sum.
    #[must_use]
    pub fn plus(self, other: ClusterOps) -> ClusterOps {
        ClusterOps {
            adds: self.adds + other.adds,
            muls: self.muls + other.muls,
            divs: self.divs + other.divs,
            comms: self.comms + other.comms,
        }
    }
}

/// A range of SRF words returned by [`ImagineMachine::srf_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrfRange {
    /// First word of the range.
    pub start: usize,
    /// Length in words.
    pub len: usize,
}

#[derive(Debug, Default, Clone)]
struct OverlapAcc {
    /// Per-category totals for each side of the region: [`CycleLedger`]s
    /// keep `&'static str` keys in first-charge order so the winner can
    /// be replayed as counted trace spans at
    /// [`ImagineMachine::end_overlap`].
    mem: CycleLedger,
    kernel: CycleLedger,
    /// Cycle cursor (== charged total) when the region opened.
    start: u64,
}

/// The Imagine machine state: off-chip DRAM, SRF, clusters, accounting.
///
/// Generic over a [`TraceSink`] and a [`FaultHook`]; the defaults
/// ([`NullSink`], [`NoFaults`]) are statically dispatched, disabled, and
/// empty, so an untraced, unfaulted machine pays nothing for either kind
/// of instrumentation.
#[derive(Debug, Clone)]
pub struct ImagineMachine<S: TraceSink = NullSink, F: FaultHook = NoFaults> {
    cfg: ImagineConfig,
    dram: DramModel,
    mem: WordMemory,
    srf: WordMemory,
    srf_next: usize,
    /// High-water mark of SRF allocation across the whole run (words).
    srf_peak: usize,
    /// Fixed-bucket histogram of per-stream DRAM occupancy cycles.
    mem_hist: Histogram,
    ledger: CycleLedger,
    hidden: Cycles,
    ops: u64,
    mem_words: u64,
    overlap: Option<OverlapAcc>,
    budget: CycleBudget,
    /// Watchdog activity counter: all charged cycles, including both sides
    /// of an overlap region.
    spent: u64,
    sink: S,
    faults: F,
}

impl ImagineMachine<NullSink, NoFaults> {
    /// Builds an untraced machine from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn new(cfg: &ImagineConfig) -> Result<Self, SimError> {
        Self::with_sink(cfg, NullSink)
    }
}

impl<S: TraceSink> ImagineMachine<S, NoFaults> {
    /// Builds a machine that emits cycle-attribution events into `sink`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_sink(cfg: &ImagineConfig, sink: S) -> Result<Self, SimError> {
        Self::with_hooks(cfg, sink, NoFaults)
    }
}

impl<S: TraceSink, F: FaultHook> ImagineMachine<S, F> {
    /// Builds a machine with both a trace sink and a fault hook.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for degenerate configurations.
    pub fn with_hooks(cfg: &ImagineConfig, sink: S, faults: F) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(ImagineMachine {
            dram: DramModel::new(cfg.dram)?,
            mem: WordMemory::new(cfg.mem_words),
            srf: WordMemory::new(cfg.srf_words),
            srf_next: 0,
            srf_peak: 0,
            mem_hist: Histogram::cycles(),
            ledger: CycleLedger::new(),
            hidden: Cycles::ZERO,
            ops: 0,
            mem_words: 0,
            overlap: None,
            budget: cfg.budget,
            spent: 0,
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

    /// SRF contents (for kernels operating in place).
    #[must_use]
    pub fn srf(&self) -> &WordMemory {
        &self.srf
    }

    /// Mutable SRF contents.
    pub fn srf_mut(&mut self) -> &mut WordMemory {
        &mut self.srf
    }

    /// Allocates `words` of SRF, aligned up to the 128-byte block size.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] when the SRF is exhausted.
    pub fn srf_alloc(&mut self, words: usize) -> Result<SrfRange, SimError> {
        let block = self.cfg.srf_block_words;
        let len = words.div_ceil(block) * block;
        if self.srf_next + len > self.cfg.srf_words {
            return Err(SimError::capacity(
                "stream register file",
                self.srf_next + len,
                self.cfg.srf_words,
            ));
        }
        let range = SrfRange { start: self.srf_next, len };
        self.srf_next += len;
        self.srf_peak = self.srf_peak.max(self.srf_next);
        Ok(range)
    }

    /// Releases all SRF allocations (between double-buffered phases).
    pub fn srf_reset(&mut self) {
        self.srf_next = 0;
    }

    /// Declares the peak number of concurrently-active streams in the
    /// upcoming phase; the hardware holds only `stream_descriptors`
    /// stream descriptor registers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Capacity`] when `concurrent` exceeds the
    /// machine's descriptor count.
    pub fn declare_streams(&self, concurrent: usize) -> Result<(), SimError> {
        if concurrent > self.cfg.stream_descriptors {
            return Err(SimError::capacity(
                "stream descriptor registers",
                concurrent,
                self.cfg.stream_descriptors,
            ));
        }
        Ok(())
    }

    fn charge(&mut self, is_mem: bool, category: &'static str, name: &'static str, cycles: Cycles) {
        if cycles == Cycles::ZERO {
            return;
        }
        self.spent += cycles.get();
        let track = if is_mem { TRACK_MEM } else { TRACK_CLUSTER };
        match &mut self.overlap {
            Some(acc) => {
                let side = if is_mem { &mut acc.mem } else { &mut acc.kernel };
                if self.sink.is_enabled() {
                    // Inside an overlap region only the slower side will be
                    // charged (at end_overlap); per-op spans here are
                    // uncounted detail on each side's own timeline.
                    let at = acc.start + side.total().get();
                    self.sink.span_uncounted(track, category, name, at, cycles.get());
                }
                side.charge(category, cycles);
            }
            None => {
                if self.sink.is_enabled() {
                    let at = self.ledger.total().get();
                    self.sink.span(track, category, name, at, cycles.get());
                }
                self.ledger.charge(category, cycles);
            }
        }
    }

    /// Cycle cursor for the memory side (used to position DRAM detail spans).
    fn mem_cursor(&self) -> u64 {
        match &self.overlap {
            Some(acc) => acc.start + acc.mem.total().get(),
            None => self.ledger.total().get(),
        }
    }

    /// Opens a stream/kernel overlap region.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if one is already open.
    pub fn begin_overlap(&mut self) -> Result<(), SimError> {
        if self.overlap.is_some() {
            return Err(SimError::unsupported("nested overlap regions"));
        }
        let start = self.ledger.total().get();
        if self.sink.is_enabled() {
            self.sink.instant(TRACK_CLUSTER, "overlap-begin", start);
        }
        self.overlap = Some(OverlapAcc { start, ..OverlapAcc::default() });
        Ok(())
    }

    /// Closes the overlap region. The slower side is charged in full; a
    /// `descriptor_penalty` fraction of the faster side remains visible as
    /// `"unoverlapped"` (the stream-descriptor-register limit), and the
    /// rest is hidden.
    ///
    /// When tracing, the winning side's per-category totals plus the
    /// visible `"unoverlapped"` residue are emitted as *counted* spans
    /// tiling the charged interval, so the trace aggregation reproduces
    /// the breakdown exactly while the per-op detail recorded during the
    /// region stays uncounted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if no region is open.
    pub fn end_overlap(&mut self) -> Result<(), SimError> {
        let acc = self
            .overlap
            .take()
            .ok_or_else(|| SimError::unsupported("end_overlap without begin_overlap"))?;
        let mem_total = acc.mem.total();
        let kernel_total = acc.kernel.total();
        let (winner, winner_track, loser_total) = if mem_total >= kernel_total {
            (&acc.mem, TRACK_MEM, kernel_total)
        } else {
            (&acc.kernel, TRACK_CLUSTER, mem_total)
        };
        let visible = loser_total.scale(self.cfg.descriptor_penalty);
        if self.sink.is_enabled() {
            let mut t = acc.start;
            for (category, cycles) in winner.iter() {
                self.sink.span(winner_track, category, "overlap-charged", t, cycles.get());
                t += cycles.get();
            }
            self.sink.span(
                TRACK_CLUSTER,
                "unoverlapped",
                "descriptor-limit-residue",
                t,
                visible.get(),
            );
            self.sink.instant(TRACK_CLUSTER, "overlap-end", t + visible.get());
        }
        for (category, cycles) in winner.iter() {
            self.ledger.charge(category, cycles);
        }
        self.ledger.charge("unoverlapped", visible);
        self.spent += visible.get();
        self.hidden += loser_total.saturating_sub(visible);
        self.budget.check(self.spent)
    }

    /// Streams `len` words from off-chip memory into the SRF.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses or a bad pattern.
    pub fn stream_in(
        &mut self,
        mem_addr: usize,
        dst: SrfRange,
        len: usize,
        pattern: AccessPattern,
    ) -> Result<(), SimError> {
        if len > dst.len {
            return Err(SimError::capacity("srf stream range", len, dst.len));
        }
        pattern.validate()?;
        let landing = self.srf.block_mut(dst.start, len)?;
        let mut done = 0;
        for (addr, n) in pattern.runs(mem_addr, 0..len) {
            landing[done..done + n].copy_from_slice(self.mem.block(addr, n)?);
            done += n;
        }
        let cursor = self.mem_cursor();
        let cost = self.dram.transfer_observed(
            mem_addr,
            len,
            pattern,
            &mut self.sink,
            TRACK_DRAM,
            cursor,
        )?;
        self.mem_hist.observe(cost.total.get());
        self.mem_words += len as u64;
        self.charge(true, "memory", "stream-in", cost.data + cost.startup);
        self.charge(true, "precharge", "row-precharge-activate", cost.overhead);
        if self.faults.is_enabled() {
            // Words arriving over the DRAM interface: flips corrupt the SRF
            // copy (the data in flight), not the off-chip original.
            let fx = self.faults.transfer(FaultDomain::Dram, mem_addr, len);
            for flip in &fx.flips {
                let a = dst.start + flip.offset;
                let word = self.srf.read_u32(a)?;
                self.srf.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.apply_fault_costs(&fx)?;
        }
        self.budget.check(self.spent)
    }

    /// Streams `len` words from the SRF out to off-chip memory.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds addresses or a bad pattern.
    pub fn stream_out(
        &mut self,
        src: SrfRange,
        mem_addr: usize,
        len: usize,
        pattern: AccessPattern,
    ) -> Result<(), SimError> {
        if len > src.len {
            return Err(SimError::capacity("srf stream range", len, src.len));
        }
        // An active stuck-at fault in a cluster's output port corrupts
        // every `clusters`-th word it emits into the outgoing stream.
        let stuck =
            if self.faults.is_enabled() { self.faults.stuck(FaultDomain::Cluster) } else { None };
        let clusters = self.cfg.clusters.max(1);
        pattern.validate()?;
        let outgoing = self.srf.block(src.start, len)?;
        let mut done = 0;
        for (addr, n) in pattern.runs(mem_addr, 0..len) {
            let run = self.mem.block_mut(addr, n)?;
            run.copy_from_slice(&outgoing[done..done + n]);
            if let Some(fault) = stuck {
                // Word `i` of the stream left through cluster `i % clusters`.
                let lag = (fault.index % clusters + clusters - done % clusters) % clusters;
                for word in run.iter_mut().skip(lag).step_by(clusters) {
                    *word = fault.force(*word);
                }
            }
            done += n;
        }
        let cursor = self.mem_cursor();
        let cost = self.dram.transfer_observed(
            mem_addr,
            len,
            pattern,
            &mut self.sink,
            TRACK_DRAM,
            cursor,
        )?;
        self.mem_hist.observe(cost.total.get());
        self.mem_words += len as u64;
        self.charge(true, "memory", "stream-out", cost.data + cost.startup);
        self.charge(true, "precharge", "row-precharge-activate", cost.overhead);
        if self.faults.is_enabled() {
            // Words leaving over the DRAM interface: flips corrupt the
            // off-chip destination.
            let fx = self.faults.transfer(FaultDomain::Dram, mem_addr, len);
            for flip in &fx.flips {
                let a = pattern.addr(mem_addr, flip.offset);
                let word = self.mem.read_u32(a)?;
                self.mem.write_u32(a, word ^ flip.xor_mask)?;
            }
            self.apply_fault_costs(&fx)?;
        }
        self.budget.check(self.spent)
    }

    /// Charges a fault verdict's ECC/retry costs and converts a failure
    /// into [`SimError::DetectedFault`].
    fn apply_fault_costs(&mut self, fx: &TransferFaults) -> Result<(), SimError> {
        self.charge(true, "ecc", "ecc-correct", Cycles::new(fx.ecc_cycles));
        self.charge(true, "retry", "dram-retry", Cycles::new(fx.retry_cycles));
        match &fx.failure {
            Some(what) => Err(SimError::detected_fault(what.clone())),
            None => Ok(()),
        }
    }

    /// Charges one kernel invocation: the inner loop retires at the
    /// initiation interval of the busiest unit class (ops are totals over
    /// all elements and are divided across the clusters), plus the
    /// software-pipeline prologue.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BudgetExceeded`] once the watchdog budget is
    /// exhausted.
    pub fn kernel_exec(&mut self, ops: ClusterOps) -> Result<(), SimError> {
        let c = self.cfg.clusters as u64;
        let add_cycles = ops.adds.div_ceil(c * self.cfg.adders as u64);
        let mul_cycles = ops.muls.div_ceil(c * self.cfg.multipliers as u64);
        let div_cycles = if self.cfg.dividers > 0 {
            ops.divs.div_ceil(c * self.cfg.dividers as u64)
        } else if ops.divs > 0 {
            u64::MAX
        } else {
            0
        };
        let comm_cycles = ops.comms.div_ceil(c);
        let loop_cycles = add_cycles.max(mul_cycles).max(div_cycles);
        // Communication shares the VLIW schedule, but data-exchange
        // dependencies keep a fraction of it exposed even when the
        // arithmetic bound could hide it.
        let comm_exposed = (comm_cycles as f64 * self.cfg.comm_exposure).ceil() as u64;
        let comm_extra = comm_cycles.saturating_sub(loop_cycles).max(comm_exposed.min(comm_cycles));
        self.ops += ops.arithmetic();
        self.charge(false, "kernel", "kernel-loop", Cycles::new(loop_cycles));
        self.charge(false, "comm", "comm-exposed", Cycles::new(comm_extra));
        self.charge(
            false,
            "prologue",
            "sw-pipeline-prologue",
            Cycles::new(self.cfg.kernel_startup),
        );
        self.budget.check(self.spent)
    }

    /// Total cycles charged so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.ledger.total()
    }

    /// Cycles hidden by stream/kernel overlap.
    #[must_use]
    pub fn hidden_cycles(&self) -> Cycles {
        self.hidden
    }

    /// Consumes the machine into a [`KernelRun`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Unsupported`] if an overlap region is open.
    pub fn finish(self, verification: Verification) -> Result<KernelRun, SimError> {
        if self.overlap.is_some() {
            return Err(SimError::unsupported("finish with open overlap region"));
        }
        let breakdown = self.ledger.into_breakdown();
        let total = breakdown.total();
        let mut metrics = MetricsReport::new();
        breakdown.export_metrics(&mut metrics, "imagine.cycles");
        self.dram.export_metrics(&mut metrics, "imagine.dram");
        self.budget.export_metrics(&mut metrics, "imagine.budget", self.spent);
        metrics.ratio("imagine.srf.occupancy", self.srf_peak as u64, self.cfg.srf_words as u64);
        metrics.counter("imagine.srf.peak_words", self.srf_peak as u64);
        metrics.counter("imagine.run.ops", self.ops);
        metrics.counter("imagine.run.mem_words", self.mem_words);
        metrics.counter("imagine.run.hidden_cycles", self.hidden.get());
        metrics.bandwidth("imagine.run.achieved_bw", self.mem_words, total.get());
        metrics.bandwidth("imagine.run.achieved_ops", self.ops, total.get());
        metrics.set("imagine.mem.xfer_cycles", Metric::Histogram(self.mem_hist));
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

    fn machine() -> ImagineMachine {
        ImagineMachine::new(&ImagineConfig::paper()).unwrap()
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
    fn stream_words_flips_and_stuck_cluster_land_where_the_pattern_says() {
        let cfg = ImagineConfig::paper();
        let clusters = cfg.clusters;
        let mut m =
            ImagineMachine::with_hooks(&cfg, NullSink, Scripted { flip: 7, stuck: 3 }).unwrap();
        let init: Vec<u32> = (0..400u32).map(|i| (i * 2) << 1).collect();
        m.memory_mut().write_block_u32(0, &init).unwrap();
        let pattern = AccessPattern::Chunked { chunk_words: 6, stride_words: 9 };
        let range = m.srf_alloc(20).unwrap();

        // In: word i of the stream lands in SRF slot i; the flip corrupts
        // the SRF copy of word 7, not the off-chip original.
        m.stream_in(3, range, 20, pattern).unwrap();
        let mut staged: Vec<u32> = (0..20).map(|i| init[pattern.addr(3, i)]).collect();
        staged[7] ^= 1 << 31;
        assert_eq!(m.srf().block(range.start, 20).unwrap(), &staged[..]);
        assert_eq!(m.memory().as_words()[..400], init[..]);

        // Out: every word that leaves through cluster 3 has bit 0 forced,
        // then the flip corrupts the off-chip copy of word 7.
        m.stream_out(range, 200, 20, pattern).unwrap();
        let mut want = init.clone();
        for (i, &v) in staged.iter().enumerate() {
            want[pattern.addr(200, i)] = if i % clusters == 3 { v | 1 } else { v };
        }
        want[pattern.addr(200, 7)] ^= 1 << 31;
        assert_eq!(m.memory().as_words()[..400], want[..]);
        assert!(m
            .stream_in(0, range, 4, AccessPattern::Chunked { chunk_words: 0, stride_words: 4 })
            .is_err());
    }

    #[test]
    fn srf_allocation_is_block_aligned() {
        let mut m = machine();
        let a = m.srf_alloc(5).unwrap();
        assert_eq!(a.start, 0);
        assert_eq!(a.len, 32); // rounded to one 128-byte block
        let b = m.srf_alloc(33).unwrap();
        assert_eq!(b.start, 32);
        assert_eq!(b.len, 64);
        m.srf_reset();
        assert_eq!(m.srf_alloc(1).unwrap().start, 0);
    }

    #[test]
    fn srf_overflow_is_capacity_error() {
        let mut m = machine();
        let err = m.srf_alloc(1024 * 1024).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
    }

    #[test]
    fn streams_move_real_data() {
        let mut m = machine();
        m.memory_mut().write_block_u32(100, &[1, 2, 3, 4]).unwrap();
        let r = m.srf_alloc(4).unwrap();
        m.stream_in(100, r, 4, AccessPattern::Sequential).unwrap();
        assert_eq!(m.srf().read_block_u32(r.start, 4).unwrap(), vec![1, 2, 3, 4]);
        m.srf_mut().write_u32(r.start, 42).unwrap();
        m.stream_out(r, 200, 4, AccessPattern::Sequential).unwrap();
        assert_eq!(m.memory().read_u32(200).unwrap(), 42);
        assert!(m.cycles() > Cycles::ZERO);
    }

    #[test]
    fn kernel_exec_uses_busiest_unit() {
        let mut m = machine();
        // 4800 adds over 8 clusters x 3 adders = 200 cycles.
        m.kernel_exec(ClusterOps { adds: 4_800, ..Default::default() }).unwrap();
        assert_eq!(m.breakdown_get("kernel"), 200);
        // 4800 muls over 8 clusters x 2 multipliers = 300 cycles.
        let mut m = machine();
        m.kernel_exec(ClusterOps { muls: 4_800, ..Default::default() }).unwrap();
        assert_eq!(m.breakdown_get("kernel"), 300);
        // Communication beyond the arithmetic bound shows separately.
        let mut m = machine();
        m.kernel_exec(ClusterOps { adds: 240, comms: 800, ..Default::default() }).unwrap();
        assert_eq!(m.breakdown_get("kernel"), 10);
        assert_eq!(m.breakdown_get("comm"), 90);
    }

    impl ImagineMachine {
        fn breakdown_get(&self, cat: &str) -> u64 {
            self.ledger.get(cat).get()
        }
    }

    #[test]
    fn finish_carries_metrics() {
        let mut m = machine();
        m.memory_mut().write_block_u32(0, &[7; 64]).unwrap();
        let r = m.srf_alloc(64).unwrap();
        m.stream_in(0, r, 64, AccessPattern::Sequential).unwrap();
        m.kernel_exec(ClusterOps { adds: 64, ..Default::default() }).unwrap();
        let run = m.finish(Verification::BitExact).unwrap();
        assert_eq!(run.metrics.counter_sum("imagine.cycles."), run.cycles.get());
        assert_eq!(run.metrics.counter_value("imagine.srf.peak_words"), Some(64));
        assert!(run.metrics.get("imagine.srf.occupancy").is_some());
        assert!(run.metrics.get("imagine.dram.achieved_bw").is_some());
        assert!(run.metrics.get("imagine.mem.xfer_cycles").is_some());
    }

    #[test]
    fn overlap_leaves_descriptor_penalty_visible() {
        let mut m = machine();
        m.begin_overlap().unwrap();
        m.memory_mut().write_block_u32(0, &[0; 256]).unwrap();
        let r = m.srf_alloc(256).unwrap();
        m.stream_in(0, r, 256, AccessPattern::Sequential).unwrap();
        m.kernel_exec(ClusterOps { adds: 48, ..Default::default() }).unwrap();
        m.end_overlap().unwrap();
        // Memory dominates; a fraction of the kernel remains visible.
        assert!(m.breakdown_get("unoverlapped") > 0);
        assert!(
            m.hidden_cycles() > Cycles::ZERO || ImagineConfig::paper().descriptor_penalty == 1.0
        );
    }

    #[test]
    fn overlap_misuse_is_error() {
        let mut m = machine();
        assert!(m.end_overlap().is_err());
        m.begin_overlap().unwrap();
        assert!(m.begin_overlap().is_err());
        assert!(m.clone().finish(Verification::Unchecked).is_err());
    }

    #[test]
    fn stream_range_too_small_is_error() {
        let mut m = machine();
        let r = m.srf_alloc(8).unwrap();
        assert!(m.stream_in(0, r, 64, AccessPattern::Sequential).is_err());
    }

    #[test]
    fn stream_descriptor_limit_is_enforced() {
        let m = machine();
        assert!(m.declare_streams(8).is_ok());
        let err = m.declare_streams(9).unwrap_err();
        assert!(matches!(err, SimError::Capacity { .. }));
        // A config with fewer descriptors rejects the paper's CSLC
        // concurrency (4 windows + 4 weight vectors).
        let mut cfg = ImagineConfig::paper();
        cfg.stream_descriptors = 4;
        let m = ImagineMachine::new(&cfg).unwrap();
        assert!(m.declare_streams(8).is_err());
    }
}
