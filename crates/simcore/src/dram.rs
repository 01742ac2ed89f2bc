//! Banked DRAM timing model with open-row tracking.
//!
//! This model is the workhorse behind every memory system in the study:
//! VIRAM's on-chip DRAM (2 wings × 4 banks behind a 256-bit crossbar),
//! Imagine's and Raw's off-chip SDRAM, and the G4's main memory.
//!
//! The model is a word-granularity timing simulation: a transfer walks its
//! address stream in per-cycle groups (group width = the words-per-cycle
//! throughput of the interface, further limited by the number of address
//! generators for strided streams). Each word maps to a `(bank, row)`; a
//! word that touches a bank whose open row differs must wait for a
//! precharge + activate, and the bank is busy until the activate completes.
//! The walk itself is block-at-a-time: consecutive words of a group that
//! share one interleave block share a `(bank, row)`, so the mapping is
//! computed once per such run and the run's words are accounted together,
//! with exactly the per-word result.
//! Open rows persist across transfers, so blocked access patterns that
//! revisit rows (the paper's corner-turn optimizations) pay the row costs
//! only once — exactly the effect the paper exploits.

use std::ops::Range;

use triarch_metrics::MetricsReport;
use triarch_trace::TraceSink;

use crate::cycles::Cycles;
use crate::error::SimError;

/// How a transfer walks the address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Consecutive word addresses (unit stride).
    Sequential,
    /// Fixed non-unit stride in words between consecutive elements.
    Strided {
        /// Distance in words between consecutive elements; must be non-zero.
        stride_words: usize,
    },
    /// Short sequential chunks separated by a fixed stride — the pattern
    /// of Imagine's corner-turn output stream ("the eight words in a block
    /// are written sequentially, but the blocks are written with a
    /// non-unit stride").
    Chunked {
        /// Words per sequential chunk; must be non-zero.
        chunk_words: usize,
        /// Distance in words between chunk starts; must be non-zero.
        stride_words: usize,
    },
}

impl AccessPattern {
    /// Rejects a zero stride or chunk length, which no address walk can
    /// follow.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a degenerate pattern.
    pub fn validate(self) -> Result<(), SimError> {
        match self {
            AccessPattern::Sequential => Ok(()),
            AccessPattern::Strided { stride_words } => {
                if stride_words == 0 {
                    return Err(SimError::invalid_config(
                        "strided transfer requires non-zero stride",
                    ));
                }
                Ok(())
            }
            AccessPattern::Chunked { chunk_words, stride_words } => {
                if chunk_words == 0 || stride_words == 0 {
                    return Err(SimError::invalid_config(
                        "chunked transfer requires non-zero chunk and stride",
                    ));
                }
                Ok(())
            }
        }
    }

    /// The address of word `idx` of a transfer that starts at `base`.
    ///
    /// The pattern must be valid (see [`validate`](Self::validate)).
    ///
    /// ```
    /// use triarch_simcore::AccessPattern;
    ///
    /// let p = AccessPattern::Chunked { chunk_words: 4, stride_words: 10 };
    /// assert_eq!(p.addr(100, 5), 111);
    /// ```
    #[inline]
    #[must_use]
    pub fn addr(self, base: usize, idx: usize) -> usize {
        match self {
            AccessPattern::Sequential => base + idx,
            AccessPattern::Strided { stride_words } => base + idx * stride_words,
            AccessPattern::Chunked { chunk_words, stride_words } => {
                base + (idx / chunk_words) * stride_words + idx % chunk_words
            }
        }
    }

    /// The words `words` of a transfer that starts at `base`, in order, as
    /// maximal `(addr, len)` runs of consecutive addresses.
    ///
    /// The pattern must be valid (see [`validate`](Self::validate)).
    ///
    /// ```
    /// use triarch_simcore::AccessPattern;
    ///
    /// let p = AccessPattern::Chunked { chunk_words: 4, stride_words: 10 };
    /// let runs: Vec<_> = p.runs(100, 2..9).collect();
    /// assert_eq!(runs, vec![(102, 2), (110, 4), (120, 1)]);
    /// ```
    #[must_use]
    pub fn runs(self, base: usize, words: Range<usize>) -> Runs {
        Runs { pattern: self, base, next: words.start, end: words.end }
    }
}

/// Iterator over the contiguous runs of a transfer; see
/// [`AccessPattern::runs`].
#[derive(Debug, Clone)]
pub struct Runs {
    pattern: AccessPattern,
    base: usize,
    next: usize,
    end: usize,
}

impl Iterator for Runs {
    type Item = (usize, usize);

    #[inline]
    fn next(&mut self) -> Option<(usize, usize)> {
        if self.next >= self.end {
            return None;
        }
        let left = self.end - self.next;
        let len = match self.pattern {
            AccessPattern::Sequential | AccessPattern::Strided { stride_words: 1 } => left,
            AccessPattern::Strided { .. } => 1,
            AccessPattern::Chunked { chunk_words, stride_words } if stride_words == chunk_words => {
                left
            }
            AccessPattern::Chunked { chunk_words, .. } => {
                (chunk_words - self.next % chunk_words).min(left)
            }
        };
        let addr = self.pattern.addr(self.base, self.next);
        self.next += len;
        Some((addr, len))
    }
}

/// Configuration of a banked DRAM interface.
///
/// # Example
///
/// ```
/// use triarch_simcore::DramConfig;
///
/// let cfg = DramConfig::viram_onchip();
/// assert_eq!(cfg.banks, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of independently-operating banks.
    pub banks: usize,
    /// Words in one DRAM row (page) of one bank.
    pub row_words: usize,
    /// Consecutive words mapped to one bank before rotating to the next.
    pub interleave_words: usize,
    /// Cycles to precharge a bank.
    pub t_precharge: u64,
    /// Cycles from activate to first column access.
    pub t_activate: u64,
    /// Pipeline-fill cycles charged once per transfer (CAS latency etc.).
    pub t_startup: u64,
    /// Peak words per cycle for unit-stride bursts.
    pub seq_words_per_cycle: u32,
    /// Peak words per cycle for strided streams (address-generator limit).
    pub strided_words_per_cycle: u32,
    /// Number of wings the banks are split across (VIRAM: 2). A wing owns
    /// a contiguous `wing_words` slice of the address space and its own
    /// subset of banks, so streams in different wings never conflict.
    pub wings: usize,
    /// Words per wing; ignored (may be 0) when `wings == 1`.
    pub wing_words: usize,
}

impl DramConfig {
    /// Returns a copy with the unit-stride burst rate replaced — sweep
    /// plumbing for design-space exploration over interface widths.
    #[must_use]
    pub fn with_seq_words_per_cycle(mut self, words: u32) -> Self {
        self.seq_words_per_cycle = words;
        self
    }

    /// Returns a copy with the strided (address-generator-limited) rate
    /// replaced — sweep plumbing for design-space exploration over the
    /// number of address generators.
    #[must_use]
    pub fn with_strided_words_per_cycle(mut self, words: u32) -> Self {
        self.strided_words_per_cycle = words;
        self
    }

    /// VIRAM's on-chip DRAM: 2 wings × 4 banks, 256-bit (8-word) path,
    /// 4 address generators ⇒ 4 strided words/cycle (paper Section 2.1).
    #[must_use]
    pub fn viram_onchip() -> Self {
        DramConfig {
            banks: 8,
            row_words: 2048,
            interleave_words: 8,
            t_precharge: 6,
            t_activate: 8,
            t_startup: 0,
            seq_words_per_cycle: 8,
            strided_words_per_cycle: 4,
            wings: 2,
            wing_words: 13 * 1024 * 1024 / 4 / 2,
        }
    }

    /// Imagine's off-chip SDRAM: two memory controllers / address
    /// generators providing 2 words per cycle aggregate (paper Table 1).
    /// The controllers reorder accesses, which we reflect with generous
    /// banking and a modest row cost.
    #[must_use]
    pub fn imagine_offchip() -> Self {
        DramConfig {
            banks: 4,
            row_words: 512,
            interleave_words: 8,
            t_precharge: 8,
            t_activate: 10,
            t_startup: 20,
            seq_words_per_cycle: 2,
            strided_words_per_cycle: 2,
            wings: 1,
            wing_words: 0,
        }
    }

    /// Raw's peripheral DRAM: 16 edge ports; the paper's Table 1 credits
    /// 28 words/cycle aggregate off-chip bandwidth.
    #[must_use]
    pub fn raw_offchip() -> Self {
        DramConfig {
            banks: 16,
            row_words: 2048,
            interleave_words: 8,
            t_precharge: 8,
            t_activate: 10,
            t_startup: 20,
            seq_words_per_cycle: 28,
            strided_words_per_cycle: 14,
            wings: 1,
            wing_words: 0,
        }
    }

    /// The G4 baseline's main memory: one channel, roughly 1 word per
    /// (CPU) cycle peak at 1 GHz with long latencies.
    #[must_use]
    pub fn ppc_offchip() -> Self {
        DramConfig {
            banks: 4,
            row_words: 512,
            interleave_words: 8,
            t_precharge: 20,
            t_activate: 25,
            t_startup: 60,
            seq_words_per_cycle: 1,
            strided_words_per_cycle: 1,
            wings: 1,
            wing_words: 0,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.banks == 0 {
            return Err(SimError::invalid_config("dram banks must be non-zero"));
        }
        if self.row_words == 0 {
            return Err(SimError::invalid_config("dram row_words must be non-zero"));
        }
        if self.interleave_words == 0 {
            return Err(SimError::invalid_config("dram interleave_words must be non-zero"));
        }
        if self.seq_words_per_cycle == 0 || self.strided_words_per_cycle == 0 {
            return Err(SimError::invalid_config("dram words-per-cycle must be non-zero"));
        }
        if self.wings == 0 {
            return Err(SimError::invalid_config("dram wings must be non-zero"));
        }
        if !self.banks.is_multiple_of(self.wings) {
            return Err(SimError::invalid_config("dram banks must divide evenly across wings"));
        }
        if self.wings > 1 && self.wing_words == 0 {
            return Err(SimError::invalid_config("multi-wing dram needs wing_words"));
        }
        Ok(())
    }

    /// Banks owned by each wing.
    #[must_use]
    pub fn banks_per_wing(&self) -> usize {
        self.banks / self.wings.max(1)
    }
}

/// Exact unsigned division by a divisor fixed when the model is built.
///
/// A power of two divides by a shift. Any other divisor `d` uses the
/// round-up multiply-high method of Granlund and Montgomery ("Division by
/// invariant integers using multiplication", PLDI 1994, figure 4.1): with
/// `l = ceil(log2 d)` and `m = floor(2^64 (2^l - d) / d) + 1`, the quotient
/// of every 64-bit `n` is `(t + ((n - t) >> 1)) >> (l - 1)` where
/// `t = (m n) >> 64`.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    /// Zero for a power of two, which divides by `shift` alone.
    magic: u64,
    shift: u32,
}

impl Divisor {
    fn new(d: usize) -> Self {
        let d = d as u64;
        assert!(d > 0, "divisor must be non-zero");
        if d.is_power_of_two() {
            return Divisor { d, magic: 0, shift: d.trailing_zeros() };
        }
        // d >= 3, so 2 <= l <= 64 and 2^l - d < d: m < 2^64.
        let l = u64::BITS - (d - 1).leading_zeros();
        let magic = (((1u128 << l) - u128::from(d)) << 64) / u128::from(d) + 1;
        Divisor { d, magic: magic as u64, shift: l - 1 }
    }

    #[inline]
    fn div(self, n: u64) -> u64 {
        if self.magic == 0 {
            n >> self.shift
        } else {
            let t = ((u128::from(self.magic) * u128::from(n)) >> 64) as u64;
            (t + ((n - t) >> 1)) >> self.shift
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: usize) -> (usize, usize) {
        let q = self.div(n as u64);
        (q as usize, (n as u64 - q * self.d) as usize)
    }
}

/// The word → `(bank, row)` address map of a [`DramConfig`], with every
/// divisor precomputed.
#[derive(Debug, Clone, Copy)]
struct BankMap {
    interleave: Divisor,
    /// Banks per wing (all banks when there is one wing).
    banks: Divisor,
    /// Words in one row across a wing's banks.
    stripe: Divisor,
    /// `(wing_words, wings)` when the banks are split across wings.
    wings: Option<(Divisor, Divisor)>,
    banks_per_wing: usize,
}

impl BankMap {
    fn new(cfg: &DramConfig) -> Self {
        let bpw = cfg.banks_per_wing();
        BankMap {
            interleave: Divisor::new(cfg.interleave_words),
            banks: Divisor::new(bpw),
            stripe: Divisor::new(cfg.row_words * bpw),
            wings: (cfg.wings > 1).then(|| (Divisor::new(cfg.wing_words), Divisor::new(cfg.wings))),
            banks_per_wing: bpw,
        }
    }

    /// The `(bank, row)` of `word`, and how many words from `word` on
    /// share both: the run ends at the next interleave-block, row-stripe
    /// or wing boundary.
    #[inline]
    fn locate(&self, word: usize) -> (usize, usize, usize) {
        let (first_bank, local, wing_left) = match self.wings {
            Some((wing_words, wings)) => {
                let (q, local) = wing_words.div_rem(word);
                let wing = wings.div_rem(q).1;
                (wing * self.banks_per_wing, local, wing_words.d as usize - local)
            }
            None => (0, word, usize::MAX),
        };
        let (block, in_block) = self.interleave.div_rem(local);
        let (row, in_row) = self.stripe.div_rem(local);
        let bank = first_bank + self.banks.div_rem(block).1;
        let span = (self.interleave.d as usize - in_block)
            .min(self.stripe.d as usize - in_row)
            .min(wing_left);
        (bank, row, span)
    }
}

/// The timing outcome of one DRAM transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DramCost {
    /// Total cycles the transfer occupied the interface.
    pub total: Cycles,
    /// Cycles spent moving data at the interface's peak rate.
    pub data: Cycles,
    /// Stall cycles caused by precharge/activate (row misses, bank busy).
    pub overhead: Cycles,
    /// Per-transfer pipeline-fill cycles.
    pub startup: Cycles,
    /// Number of row misses encountered.
    pub row_misses: u64,
}

impl DramCost {
    /// Sums two costs (e.g. a read phase followed by a write phase).
    #[must_use]
    pub fn combine(self, other: DramCost) -> DramCost {
        DramCost {
            total: self.total + other.total,
            data: self.data + other.data,
            overhead: self.overhead + other.overhead,
            startup: self.startup + other.startup,
            row_misses: self.row_misses + other.row_misses,
        }
    }
}

/// A banked DRAM with open-row state and per-bank busy times.
///
/// # Example
///
/// ```
/// use triarch_simcore::{AccessPattern, DramConfig, DramModel};
///
/// # fn main() -> Result<(), triarch_simcore::SimError> {
/// let mut dram = DramModel::new(DramConfig::viram_onchip())?;
/// let burst = dram.transfer(0, 4096, AccessPattern::Sequential)?;
/// // 4096 words at 8 words/cycle = 512 data cycles plus small overheads.
/// assert_eq!(burst.data.get(), 512);
/// assert!(burst.total.get() < 600);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    map: BankMap,
    open_rows: Vec<Option<usize>>,
    bank_ready: Vec<u64>,
    now: u64,
    total_row_misses: u64,
    total_bank_conflicts: u64,
    total_words: u64,
    total_busy: u64,
}

impl DramModel {
    /// Creates a DRAM model from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any parameter is zero where a
    /// non-zero value is required.
    pub fn new(cfg: DramConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(DramModel {
            map: BankMap::new(&cfg),
            open_rows: vec![None; cfg.banks],
            bank_ready: vec![0; cfg.banks],
            now: 0,
            cfg,
            total_row_misses: 0,
            total_bank_conflicts: 0,
            total_words: 0,
            total_busy: 0,
        })
    }

    /// The configuration this model was built from.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Total row misses since construction or the last [`reset`](Self::reset).
    #[must_use]
    pub fn row_misses(&self) -> u64 {
        self.total_row_misses
    }

    /// Total bank conflicts — accesses that found their bank still busy
    /// with a previous precharge/activate — since construction or the
    /// last [`reset`](Self::reset).
    #[must_use]
    pub fn bank_conflicts(&self) -> u64 {
        self.total_bank_conflicts
    }

    /// Total words moved across this interface since construction or the
    /// last [`reset`](Self::reset).
    #[must_use]
    pub fn words_transferred(&self) -> u64 {
        self.total_words
    }

    /// Total cycles this interface was busy with transfers (sum of every
    /// transfer's `total`) since construction or the last
    /// [`reset`](Self::reset).  With [`words_transferred`](Self::words_transferred)
    /// this is the achieved-bandwidth primitive behind the roofline
    /// utilization report.
    #[must_use]
    pub fn busy_cycles(&self) -> u64 {
        self.total_busy
    }

    /// Registers this interface's counters into `report` under `prefix`
    /// (e.g. `viram.dram`): row misses, bank conflicts, words moved,
    /// interface-busy cycles, and the achieved bandwidth over the busy
    /// window.  Every engine calls this once from `finish()`.
    pub fn export_metrics(&self, report: &mut MetricsReport, prefix: &str) {
        report.counter(&format!("{prefix}.row_misses"), self.total_row_misses);
        report.counter(&format!("{prefix}.bank_conflicts"), self.total_bank_conflicts);
        report.counter(&format!("{prefix}.words"), self.total_words);
        report.counter(&format!("{prefix}.busy_cycles"), self.total_busy);
        report.bandwidth(&format!("{prefix}.achieved_bw"), self.total_words, self.total_busy);
    }

    /// Closes all rows and rewinds the internal clock.
    pub fn reset(&mut self) {
        self.open_rows.iter_mut().for_each(|r| *r = None);
        self.bank_ready.iter_mut().for_each(|t| *t = 0);
        self.now = 0;
        self.total_row_misses = 0;
        self.total_bank_conflicts = 0;
        self.total_words = 0;
        self.total_busy = 0;
    }

    /// Advances the DRAM clock by `cycles` without issuing accesses.
    ///
    /// Use this when the memory interface sits idle (e.g. a compute phase),
    /// letting in-flight precharges complete for free.
    pub fn idle(&mut self, cycles: Cycles) {
        self.now += cycles.get();
    }

    /// Times a transfer of `n_words` starting at `start_word`.
    ///
    /// The transfer is assumed to occupy the interface exclusively; the
    /// model clock advances by the returned total.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero stride.
    pub fn transfer(
        &mut self,
        start_word: usize,
        n_words: usize,
        pattern: AccessPattern,
    ) -> Result<DramCost, SimError> {
        pattern.validate()?;
        let group = match pattern {
            AccessPattern::Strided { .. } => self.cfg.strided_words_per_cycle as usize,
            // Within-chunk accesses stream at the sequential rate; the
            // address generator absorbs the chunk jumps.
            AccessPattern::Sequential | AccessPattern::Chunked { .. } => {
                self.cfg.seq_words_per_cycle as usize
            }
        };
        if n_words == 0 {
            return Ok(DramCost::default());
        }

        let start_time = self.now;
        let mut t = self.now + self.cfg.t_startup;
        let mut row_misses = 0u64;

        let mut issued = 0usize;
        while issued < n_words {
            let end = (issued + group).min(n_words);
            // One cycle of data transfer for the group, delayed by any bank
            // that must first activate a new row.
            let mut group_ready = t;
            for (mut word, mut left) in pattern.runs(start_word, issued..end) {
                while left > 0 {
                    let (bank, row, span) = self.map.locate(word);
                    let words = span.min(left);
                    group_ready =
                        group_ready.max(self.access(bank, row, words, t, &mut row_misses));
                    word += words;
                    left -= words;
                }
            }
            t = group_ready + 1;
            issued = end;
        }

        self.now = t;
        self.total_row_misses += row_misses;

        let data_cycles = n_words.div_ceil(group) as u64;
        let total = t - start_time;
        self.total_words += n_words as u64;
        self.total_busy += total;
        let startup = self.cfg.t_startup;
        let overhead = total.saturating_sub(data_cycles + startup);
        Ok(DramCost {
            total: Cycles::new(total),
            data: Cycles::new(data_cycles),
            overhead: Cycles::new(overhead),
            startup: Cycles::new(startup),
            row_misses,
        })
    }

    /// Issues `words` consecutive accesses to one `(bank, row)` in the
    /// cycle group that starts at `t`, returning the cycle the bank is
    /// ready for them. Only the first access can miss the open row; the
    /// rest find it open, so each counts as a bank conflict exactly when
    /// the bank is still busy at `t`, as a word-by-word walk would count.
    #[inline]
    fn access(
        &mut self,
        bank: usize,
        row: usize,
        words: usize,
        t: u64,
        row_misses: &mut u64,
    ) -> u64 {
        let ready = self.bank_ready[bank];
        if self.open_rows[bank] == Some(row) {
            self.total_bank_conflicts += words as u64 * u64::from(ready > t);
            return ready;
        }
        *row_misses += 1;
        // Memory controllers issue precharge/activate ahead of the data
        // stream; an activation can begin as soon as the bank was last
        // free, up to one full row-cycle before the access needs it. A
        // bank that has been idle hides the row cost entirely (the paper:
        // "mostly hidden with sequential accesses"); a bank re-opened in
        // quick succession stalls the stream.
        let row_cycle = self.cfg.t_precharge + self.cfg.t_activate;
        let activate_end = ready.max(t.saturating_sub(row_cycle)) + row_cycle;
        // Branchless: conflicts are an observability counter on the
        // innermost loop, so keep them off the branch predictor's plate.
        self.total_bank_conflicts +=
            u64::from(ready > t) + (words as u64 - 1) * u64::from(activate_end > t);
        self.open_rows[bank] = Some(row);
        self.bank_ready[bank] = activate_end;
        activate_end
    }

    /// [`transfer`](Self::transfer), plus an *uncounted* trace decomposition
    /// of the transfer's cost on `track` starting at machine cycle `at`.
    ///
    /// The caller is expected to charge (and trace as *counted*) the
    /// returned [`DramCost`] through its own breakdown; the spans emitted
    /// here are visualization-only detail — pipeline startup, data
    /// movement at the peak rate, then row precharge/activate stalls —
    /// laid out back-to-back, plus a cumulative `dram-row-misses` counter
    /// sample. With a disabled sink this is exactly `transfer`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a zero stride.
    pub fn transfer_observed<S: TraceSink + ?Sized>(
        &mut self,
        start_word: usize,
        n_words: usize,
        pattern: AccessPattern,
        sink: &mut S,
        track: &'static str,
        at: u64,
    ) -> Result<DramCost, SimError> {
        let cost = self.transfer(start_word, n_words, pattern)?;
        if sink.is_enabled() && cost.total > Cycles::ZERO {
            let mut t = at;
            sink.span_uncounted(track, "startup", "dram-startup", t, cost.startup.get());
            t += cost.startup.get();
            sink.span_uncounted(track, "memory", "dram-data", t, cost.data.get());
            t += cost.data.get();
            sink.span_uncounted(track, "precharge", "dram-row-overhead", t, cost.overhead.get());
            sink.counter(
                track,
                "dram-row-misses",
                at + cost.total.get(),
                self.total_row_misses as f64,
            );
        }
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(cfg: DramConfig) -> DramModel {
        DramModel::new(cfg).expect("valid config")
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut cfg = DramConfig::viram_onchip();
        cfg.banks = 0;
        assert!(DramModel::new(cfg).is_err());
        let mut cfg = DramConfig::viram_onchip();
        cfg.row_words = 0;
        assert!(DramModel::new(cfg).is_err());
        let mut cfg = DramConfig::viram_onchip();
        cfg.seq_words_per_cycle = 0;
        assert!(DramModel::new(cfg).is_err());
        let mut cfg = DramConfig::viram_onchip();
        cfg.interleave_words = 0;
        assert!(DramModel::new(cfg).is_err());
    }

    #[test]
    fn zero_words_is_free() {
        let mut d = model(DramConfig::viram_onchip());
        let c = d.transfer(0, 0, AccessPattern::Sequential).unwrap();
        assert_eq!(c.total, Cycles::ZERO);
        assert_eq!(c.row_misses, 0);
    }

    #[test]
    fn zero_stride_is_rejected() {
        let mut d = model(DramConfig::viram_onchip());
        let err = d.transfer(0, 8, AccessPattern::Strided { stride_words: 0 });
        assert!(err.is_err());
    }

    #[test]
    fn sequential_burst_approaches_peak() {
        let mut d = model(DramConfig::viram_onchip());
        let c = d.transfer(0, 32_768, AccessPattern::Sequential).unwrap();
        // 32768 words / 8 per cycle = 4096 data cycles; overhead must be a
        // small fraction because row misses are amortized across banks.
        assert_eq!(c.data, Cycles::new(4_096));
        assert!(c.total.get() < 4_096 * 12 / 10, "total {} too slow", c.total);
    }

    #[test]
    fn strided_is_slower_than_sequential() {
        let mut d = model(DramConfig::viram_onchip());
        let seq = d.transfer(0, 4_096, AccessPattern::Sequential).unwrap();
        d.reset();
        let strided = d.transfer(0, 4_096, AccessPattern::Strided { stride_words: 1_032 }).unwrap();
        assert!(strided.total > seq.total);
    }

    #[test]
    fn open_rows_persist_across_transfers() {
        let mut d = model(DramConfig::viram_onchip());
        // Stride of one interleave unit walks the wing's four banks within
        // row 0: each bank gets opened once.
        let first = d.transfer(0, 8, AccessPattern::Strided { stride_words: 8 }).unwrap();
        // Revisiting the same rows (offset within the open row) is free.
        let second = d.transfer(1, 8, AccessPattern::Strided { stride_words: 8 }).unwrap();
        assert_eq!(first.row_misses, 4);
        assert_eq!(second.row_misses, 0);
        assert!(second.total <= first.total);
    }

    #[test]
    fn reset_closes_rows() {
        let mut d = model(DramConfig::viram_onchip());
        let first = d.transfer(0, 64, AccessPattern::Sequential).unwrap();
        d.reset();
        let again = d.transfer(0, 64, AccessPattern::Sequential).unwrap();
        assert_eq!(first.row_misses, again.row_misses);
        assert_eq!(d.row_misses(), again.row_misses);
    }

    #[test]
    fn idle_lets_precharge_complete() {
        let mut d = model(DramConfig::viram_onchip());
        let _ = d.transfer(0, 8, AccessPattern::Sequential).unwrap();
        // After a long idle period, bank-ready times are in the past, so a
        // row miss costs only the activate latency, not queueing.
        d.idle(Cycles::new(10_000));
        let c = d.transfer(1 << 20, 8, AccessPattern::Sequential).unwrap();
        assert!(
            c.total.get()
                <= 1 + d.config().t_startup + d.config().t_precharge + d.config().t_activate
        );
    }

    #[test]
    fn monotone_in_words() {
        // More words never cost fewer cycles (fresh model each time so
        // open-row state does not interfere).
        let mut prev = Cycles::ZERO;
        for n in [0usize, 1, 7, 8, 64, 512, 4096] {
            let mut d = model(DramConfig::imagine_offchip());
            let c = d.transfer(0, n, AccessPattern::Sequential).unwrap();
            assert!(c.total >= prev, "{n} words regressed");
            prev = c.total;
        }
    }

    #[test]
    fn cost_combine_sums_fields() {
        let a = DramCost {
            total: Cycles::new(10),
            data: Cycles::new(6),
            overhead: Cycles::new(2),
            startup: Cycles::new(2),
            row_misses: 1,
        };
        let b = a;
        let c = a.combine(b);
        assert_eq!(c.total, Cycles::new(20));
        assert_eq!(c.row_misses, 2);
    }

    #[test]
    fn export_metrics_mirrors_accessors() {
        let mut d = model(DramConfig::viram_onchip());
        // Stride of one full row group: every access lands in the *same*
        // bank but a *new* row, so back-to-back activates pile up on the
        // bank and register as conflicts.
        let c = d.transfer(0, 64, AccessPattern::Strided { stride_words: 8_192 }).unwrap();
        assert_eq!(d.row_misses(), c.row_misses);
        assert_eq!(d.words_transferred(), 64);
        assert_eq!(d.busy_cycles(), c.total.get());
        assert!(d.bank_conflicts() > 0);

        let mut report = MetricsReport::new();
        d.export_metrics(&mut report, "test.dram");
        assert_eq!(report.counter_value("test.dram.row_misses"), Some(d.row_misses()));
        assert_eq!(report.counter_value("test.dram.bank_conflicts"), Some(d.bank_conflicts()));
        assert_eq!(report.counter_value("test.dram.words"), Some(64));
        assert_eq!(report.counter_value("test.dram.busy_cycles"), Some(d.busy_cycles()));

        d.reset();
        assert_eq!(d.bank_conflicts(), 0);
        assert_eq!(d.words_transferred(), 0);
        assert_eq!(d.busy_cycles(), 0);
    }

    #[test]
    fn presets_are_valid() {
        for cfg in [
            DramConfig::viram_onchip(),
            DramConfig::imagine_offchip(),
            DramConfig::raw_offchip(),
            DramConfig::ppc_offchip(),
        ] {
            assert!(DramModel::new(cfg).is_ok());
        }
    }
}

#[cfg(test)]
mod chunked_tests {
    use super::*;

    #[test]
    fn chunked_walks_blocks_with_stride() {
        let mut d = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let c = d
            .transfer(0, 64, AccessPattern::Chunked { chunk_words: 8, stride_words: 1032 })
            .unwrap();
        // 8 chunks of 8 words; data rate is the sequential rate.
        assert_eq!(c.data.get(), 32);
        assert!(c.total >= c.data);
        // Degenerate chunk parameters are rejected.
        assert!(d
            .transfer(0, 8, AccessPattern::Chunked { chunk_words: 0, stride_words: 8 })
            .is_err());
        assert!(d
            .transfer(0, 8, AccessPattern::Chunked { chunk_words: 8, stride_words: 0 })
            .is_err());
    }

    #[test]
    fn chunked_with_unit_stride_equals_sequential_addresses() {
        let mut a = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let mut b = DramModel::new(DramConfig::imagine_offchip()).unwrap();
        let ca =
            a.transfer(0, 128, AccessPattern::Chunked { chunk_words: 8, stride_words: 8 }).unwrap();
        let cb = b.transfer(0, 128, AccessPattern::Sequential).unwrap();
        assert_eq!(ca.row_misses, cb.row_misses);
        assert_eq!(ca.total, cb.total);
    }
}

/// The block-at-a-time walk against the word-at-a-time model it replaced:
/// the oracle below keeps the original `/`/`%` address map and per-word
/// loop, and every transfer must agree on the returned cost and on all
/// counters.
#[cfg(test)]
mod oracle_tests {
    use proptest::prelude::*;

    use super::*;

    /// The original word-at-a-time model.
    struct Oracle {
        cfg: DramConfig,
        open_rows: Vec<Option<usize>>,
        bank_ready: Vec<u64>,
        now: u64,
        row_misses: u64,
        bank_conflicts: u64,
        words: u64,
        busy: u64,
    }

    impl Oracle {
        fn new(cfg: DramConfig) -> Self {
            Oracle {
                open_rows: vec![None; cfg.banks],
                bank_ready: vec![0; cfg.banks],
                cfg,
                now: 0,
                row_misses: 0,
                bank_conflicts: 0,
                words: 0,
                busy: 0,
            }
        }

        fn bank_of(&self, word: usize) -> usize {
            if self.cfg.wings > 1 {
                let wing = (word / self.cfg.wing_words) % self.cfg.wings;
                let local = word % self.cfg.wing_words;
                let bpw = self.cfg.banks_per_wing();
                wing * bpw + (local / self.cfg.interleave_words) % bpw
            } else {
                (word / self.cfg.interleave_words) % self.cfg.banks
            }
        }

        fn row_of(&self, word: usize) -> usize {
            if self.cfg.wings > 1 {
                let local = word % self.cfg.wing_words;
                local / (self.cfg.row_words * self.cfg.banks_per_wing())
            } else {
                word / (self.cfg.row_words * self.cfg.banks)
            }
        }

        fn transfer(&mut self, start: usize, n: usize, pattern: AccessPattern) -> DramCost {
            let group = match pattern {
                AccessPattern::Strided { .. } => self.cfg.strided_words_per_cycle as usize,
                _ => self.cfg.seq_words_per_cycle as usize,
            };
            if n == 0 {
                return DramCost::default();
            }
            let start_time = self.now;
            let mut t = self.now + self.cfg.t_startup;
            let mut row_misses = 0u64;
            let mut issued = 0usize;
            while issued < n {
                let in_group = group.min(n - issued);
                let mut group_ready = t;
                for k in 0..in_group {
                    let idx = issued + k;
                    let word = match pattern {
                        AccessPattern::Sequential => start + idx,
                        AccessPattern::Strided { stride_words } => start + idx * stride_words,
                        AccessPattern::Chunked { chunk_words, stride_words } => {
                            start + (idx / chunk_words) * stride_words + idx % chunk_words
                        }
                    };
                    let bank = self.bank_of(word);
                    let row = self.row_of(word);
                    let ready = self.bank_ready[bank];
                    self.bank_conflicts += u64::from(ready > t);
                    if self.open_rows[bank] != Some(row) {
                        row_misses += 1;
                        let lookahead = self.cfg.t_precharge + self.cfg.t_activate;
                        let activate_start = ready.max(t.saturating_sub(lookahead));
                        let activate_end = activate_start + lookahead;
                        self.open_rows[bank] = Some(row);
                        self.bank_ready[bank] = activate_end;
                        group_ready = group_ready.max(activate_end);
                    } else {
                        group_ready = group_ready.max(ready);
                    }
                }
                t = group_ready + 1;
                issued += in_group;
            }
            self.now = t;
            self.row_misses += row_misses;
            let data = n.div_ceil(group) as u64;
            let total = t - start_time;
            self.words += n as u64;
            self.busy += total;
            DramCost {
                total: Cycles::new(total),
                data: Cycles::new(data),
                overhead: Cycles::new(total.saturating_sub(data + self.cfg.t_startup)),
                startup: Cycles::new(self.cfg.t_startup),
                row_misses,
            }
        }
    }

    /// Every preset, each with the interface widths and address-generator
    /// counts the design-space sweep varies (a superset of its grid).
    fn swept_configs() -> Vec<DramConfig> {
        let mut out = Vec::new();
        for preset in [
            DramConfig::viram_onchip(),
            DramConfig::imagine_offchip(),
            DramConfig::raw_offchip(),
            DramConfig::ppc_offchip(),
        ] {
            out.push(preset);
            for ags in [2, 4, 8] {
                out.push(preset.with_strided_words_per_cycle(ags));
            }
            for wpc in [1, 2, 4] {
                out.push(preset.with_seq_words_per_cycle(wpc).with_strided_words_per_cycle(wpc));
            }
        }
        out
    }

    /// `(kind, start, words, stride, chunk)` → a transfer; `kind` 3 idles
    /// the interface for `stride` cycles instead.
    type Op = (usize, usize, usize, usize, usize);

    fn pattern(kind: usize, stride: usize, chunk: usize) -> AccessPattern {
        match kind {
            0 => AccessPattern::Sequential,
            1 => AccessPattern::Strided { stride_words: stride },
            _ => AccessPattern::Chunked { chunk_words: chunk, stride_words: stride },
        }
    }

    fn agree(cfg: DramConfig, ops: &[Op]) -> Result<(), TestCaseError> {
        let mut model = DramModel::new(cfg).expect("valid config");
        let mut oracle = Oracle::new(cfg);
        for &(kind, start, words, stride, chunk) in ops {
            if kind == 3 {
                model.idle(Cycles::new(stride as u64));
                oracle.now += stride as u64;
                continue;
            }
            let p = pattern(kind, stride, chunk);
            let got = model.transfer(start, words, p).expect("valid pattern");
            prop_assert_eq!(got, oracle.transfer(start, words, p), "{:?} {:?}", cfg, p);
            prop_assert_eq!(model.row_misses(), oracle.row_misses);
            prop_assert_eq!(model.bank_conflicts(), oracle.bank_conflicts);
            prop_assert_eq!(model.busy_cycles(), oracle.busy);
            prop_assert_eq!(model.words_transferred(), oracle.words);
        }
        Ok(())
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (0usize..4, 0usize..20_000, 0usize..300, 1usize..2_100, 1usize..24),
            1..40,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn swept_configs_match_oracle(which in 0usize..28, ops in ops()) {
            let configs = swept_configs();
            agree(configs[which % configs.len()], &ops)?;
        }

        #[test]
        fn random_configs_match_oracle(
            shape in (1usize..4, 1usize..7, 1usize..40, 1usize..13, 1usize..300),
            timing in (0u64..12, 0u64..12, 0u64..30, 1u32..10, 1u32..10),
            ops in ops(),
        ) {
            let (wings, bpw, row_words, interleave_words, wing_words) = shape;
            let (t_precharge, t_activate, t_startup, seq, strided) = timing;
            let cfg = DramConfig {
                banks: wings * bpw,
                row_words,
                interleave_words,
                t_precharge,
                t_activate,
                t_startup,
                seq_words_per_cycle: seq,
                strided_words_per_cycle: strided,
                wings,
                wing_words: if wings > 1 { wing_words } else { 0 },
            };
            agree(cfg, &ops)?;
        }
    }

    #[test]
    fn viram_wing_boundary_and_high_addresses_match_oracle() {
        // The non-power-of-two VIRAM wing size, walked across the wing
        // boundary and far past the address space (the map wraps).
        let cfg = DramConfig::viram_onchip();
        let edge = cfg.wing_words;
        let ops: Vec<Op> = vec![
            (0, edge - 37, 300, 1, 1),
            (1, edge - 5_000, 250, 1_032, 1),
            (2, edge - 100, 200, 1_040, 9),
            (0, 7 * edge + 3, 120, 1, 1),
            (1, usize::MAX / 4, 64, 8_193, 1),
        ];
        agree(cfg, &ops).expect("block walk agrees with the oracle");
    }

    #[test]
    fn divisor_is_exact() {
        let mut divisors: Vec<usize> = (1..=70).collect();
        divisors.extend([
            DramConfig::viram_onchip().wing_words,
            1_000_003,
            (1 << 32) - 1,
            (1 << 32) + 1,
            usize::MAX / 3,
            usize::MAX - 1,
            usize::MAX,
        ]);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for &d in &divisors {
            let div = Divisor::new(d);
            let check = |n: usize| assert_eq!(div.div_rem(n), (n / d, n % d), "{n} / {d}");
            for n in [
                0,
                1,
                d - 1,
                d,
                d.wrapping_add(1),
                d.wrapping_mul(2) - 1,
                usize::MAX,
                usize::MAX - d,
            ] {
                check(n);
            }
            for _ in 0..2_000 {
                // xorshift64*
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                let n = x.wrapping_mul(0x2545_f491_4f6c_dd1d) as usize;
                check(n);
                check(n >> (n % 64));
            }
        }
    }

    #[test]
    fn runs_cover_the_addresses_in_order() {
        for p in [
            AccessPattern::Sequential,
            AccessPattern::Strided { stride_words: 1 },
            AccessPattern::Strided { stride_words: 7 },
            AccessPattern::Chunked { chunk_words: 5, stride_words: 5 },
            AccessPattern::Chunked { chunk_words: 5, stride_words: 12 },
            AccessPattern::Chunked { chunk_words: 1, stride_words: 3 },
        ] {
            for (from, to) in [(0usize, 0usize), (0, 1), (0, 23), (3, 17), (5, 10)] {
                let walked: Vec<usize> =
                    p.runs(40, from..to).flat_map(|(a, len)| a..a + len).collect();
                let direct: Vec<usize> = (from..to).map(|i| p.addr(40, i)).collect();
                assert_eq!(walked, direct, "{p:?} {from}..{to}");
            }
        }
    }
}
