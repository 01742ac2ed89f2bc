//! A small FIFO TLB model.
//!
//! The paper attributes part of VIRAM's corner-turn overhead to TLB
//! misses ("about 21% of the total cycles are overhead due to DRAM
//! pre-charge cycles … and TLB misses"). Strided column walks touch many
//! pages per vector instruction, overwhelming a small TLB.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// A FIFO-replacement TLB over fixed-size pages.
///
/// The entries are a ring of slots filled in miss order; a miss in a full
/// TLB overwrites the oldest slot. A page set mirrors the slots, so a
/// lookup is one hash probe whatever the capacity.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: Vec<usize>,
    resident: HashSet<usize, BuildHasherDefault<PageHasher>>,
    capacity: usize,
    page_words: usize,
    next_victim: usize,
    misses: u64,
    hits: u64,
}

/// Fibonacci hashing for page numbers: the keys are simulated addresses
/// produced by the engine, not outside input, so a multiply mixes them
/// well enough.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    fn write_usize(&mut self, page: usize) {
        self.0 = (page as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Tlb {
    /// Creates a TLB with `capacity` entries over pages of `page_words`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `page_words` is zero (configurations are
    /// validated upstream by `ViramConfig::validate`).
    #[must_use]
    pub fn new(capacity: usize, page_words: usize) -> Self {
        assert!(capacity > 0 && page_words > 0, "TLB needs entries and pages");
        Tlb {
            entries: Vec::with_capacity(capacity),
            resident: HashSet::with_capacity_and_hasher(capacity, BuildHasherDefault::default()),
            capacity,
            page_words,
            next_victim: 0,
            misses: 0,
            hits: 0,
        }
    }

    /// Touches the page containing `word_addr`; returns `true` on a miss.
    pub fn access(&mut self, word_addr: usize) -> bool {
        let page = word_addr / self.page_words;
        if self.resident.contains(&page) {
            self.hits += 1;
            return false;
        }
        self.misses += 1;
        if self.entries.len() < self.capacity {
            self.entries.push(page);
        } else {
            let victim = std::mem::replace(&mut self.entries[self.next_victim], page);
            self.resident.remove(&victim);
            self.next_victim = (self.next_victim + 1) % self.capacity;
        }
        self.resident.insert(page);
        true
    }

    /// Total misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_page_hits() {
        let mut tlb = Tlb::new(4, 1024);
        assert!(tlb.access(0)); // miss
        assert!(!tlb.access(512)); // same page
        assert!(!tlb.access(1023));
        assert_eq!(tlb.misses(), 1);
        assert_eq!(tlb.hits(), 2);
    }

    #[test]
    fn fifo_eviction() {
        let mut tlb = Tlb::new(2, 10);
        assert!(tlb.access(0)); // page 0
        assert!(tlb.access(10)); // page 1
        assert!(tlb.access(20)); // page 2 evicts page 0
        assert!(tlb.access(0)); // page 0 missing again
        assert_eq!(tlb.misses(), 4);
    }

    #[test]
    fn strided_walk_thrashes_small_tlb() {
        let mut tlb = Tlb::new(4, 2048);
        // 16 pages touched round-robin: every access misses.
        for round in 0..3 {
            for p in 0..16 {
                let miss = tlb.access(p * 2048);
                if round > 0 {
                    assert!(miss, "page {p} should thrash");
                }
            }
        }
    }

    /// The linear-scan FIFO TLB the page set replaced.
    struct ScanTlb {
        entries: Vec<usize>,
        capacity: usize,
        page_words: usize,
        next_victim: usize,
    }

    impl ScanTlb {
        fn access(&mut self, word_addr: usize) -> bool {
            let page = word_addr / self.page_words;
            if self.entries.contains(&page) {
                return false;
            }
            if self.entries.len() < self.capacity {
                self.entries.push(page);
            } else {
                self.entries[self.next_victim] = page;
                self.next_victim = (self.next_victim + 1) % self.capacity;
            }
            true
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// Same hit/miss verdict on every access and the same slots in the
        /// same eviction order, on random page traces.
        #[test]
        fn page_set_matches_linear_scan(
            capacity in 1usize..70,
            page_words in 1usize..5000,
            trace in proptest::collection::vec((0usize..200, 0usize..6), 1..600),
        ) {
            let mut tlb = Tlb::new(capacity, page_words);
            let mut scan = ScanTlb { entries: Vec::new(), capacity, page_words, next_victim: 0 };
            let mut misses = 0u64;
            for (i, &(page, offset)) in trace.iter().enumerate() {
                let addr = page * page_words + offset % page_words;
                let want = scan.access(addr);
                misses += u64::from(want);
                proptest::prop_assert_eq!(tlb.access(addr), want, "access {}", i);
                proptest::prop_assert_eq!(&tlb.entries, &scan.entries);
                proptest::prop_assert_eq!(tlb.next_victim, scan.next_victim);
                proptest::prop_assert_eq!(tlb.resident.len(), tlb.entries.len());
            }
            proptest::prop_assert_eq!(tlb.misses(), misses);
            proptest::prop_assert_eq!(tlb.hits(), trace.len() as u64 - misses);
        }
    }

    #[test]
    #[should_panic(expected = "entries")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0, 10);
    }
}
