//! Set-associative cache simulator (LRU) for the G4 baseline.
//!
//! The corner turn's baseline behaviour — column-strided writes that
//! alias into a handful of sets and thrash both cache levels — emerges
//! directly from driving this model with the kernel's real address trace.
//!
//! [`Hierarchy::access_rw`] is the model: one word, one probe per level.
//! [`Hierarchy::access_run`] drives a whole loop body of strided streams
//! through the same model and leaves the same state, probing a set only
//! where the outcome is not already known (see that method).

use triarch_simcore::metrics::CacheCounters;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in 32-bit words.
    pub size_words: usize,
    /// Line size in words.
    pub line_words: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// PowerPC 7450 L1 data cache: 32 KB, 32-byte lines, 8-way.
    #[must_use]
    pub fn g4_l1() -> Self {
        CacheConfig { size_words: 32 * 1024 / 4, line_words: 8, ways: 8 }
    }

    /// PowerPC 7450 L2 cache: 256 KB, 64-byte lines, 8-way.
    #[must_use]
    pub fn g4_l2() -> Self {
        CacheConfig { size_words: 256 * 1024 / 4, line_words: 16, ways: 8 }
    }

    /// Validates the geometry without panicking — the checked companion
    /// to [`Self::sets`], used by [`crate::PpcConfig::validate`] so that
    /// design-space sweeps over cache sizes reject degenerate points
    /// with a typed error instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`triarch_simcore::SimError::InvalidConfig`] when any dimension is zero or
    /// the capacity is not a whole number of sets.
    pub fn validate(&self) -> Result<(), triarch_simcore::SimError> {
        if self.line_words == 0 || self.ways == 0 || self.size_words == 0 {
            return Err(triarch_simcore::SimError::invalid_config(
                "cache geometry dimensions must be positive",
            ));
        }
        if !self.size_words.is_multiple_of(self.line_words * self.ways) {
            return Err(triarch_simcore::SimError::invalid_config(
                "cache capacity must be a whole number of sets",
            ));
        }
        Ok(())
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (zero or non-dividing).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(
            self.line_words > 0
                && self.ways > 0
                && self.size_words.is_multiple_of(self.line_words * self.ways),
            "inconsistent cache geometry"
        );
        self.size_words / (self.line_words * self.ways)
    }
}

/// One cache level with LRU replacement and dirty-line tracking.
///
/// Hit/miss/eviction/writeback totals live in a shared [`CacheCounters`]
/// set (the same vocabulary every cache model in the workspace exports
/// through the metrics registry) instead of bespoke per-struct fields.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    // Per set: packed `(tag << 1) | dirty` entries in LRU order
    // (front = most recent). Packing the dirty bit into the tag word
    // keeps the hot-path layout identical to the pre-dirty-bit model.
    sets: Vec<Vec<usize>>,
    counters: CacheCounters,
    // Buffers of `Hierarchy::access_run`, kept between runs.
    run: RunBuffers,
}

impl Cache {
    /// Builds an empty cache.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets: vec![Vec::with_capacity(cfg.ways); sets],
            counters: CacheCounters::default(),
            run: RunBuffers::default(),
        }
    }

    /// Touches the line containing `word_addr` as a read; returns `true`
    /// on a miss.
    #[inline]
    pub fn access(&mut self, word_addr: usize) -> bool {
        self.access_rw(word_addr, false)
    }

    /// Touches the line containing `word_addr`; returns `true` on a miss.
    ///
    /// A write marks the line dirty; evicting a dirty line counts a
    /// writeback.  Writeback traffic is *observability only* — the G4's
    /// timing charges store misses through its buffered store-miss
    /// penalty, so cycle totals are unchanged by the dirty-bit model.
    #[inline]
    pub fn access_rw(&mut self, word_addr: usize, is_write: bool) -> bool {
        let line = word_addr / self.cfg.line_words;
        let set = line % self.sets.len();
        probe(&mut self.sets[set], self.cfg.ways, &mut self.counters, line, is_write)
    }

    /// Hits so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.counters.hits
    }

    /// Misses so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.counters.misses
    }

    /// Capacity/conflict evictions so far.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.counters.evictions
    }

    /// Dirty-line writebacks so far.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.counters.writebacks
    }

    /// The full shared counter set (for metrics export).
    #[must_use]
    pub fn counters(&self) -> &CacheCounters {
        &self.counters
    }

    /// The geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Runs the accesses of `input` (arithmetic runs, in any order)
    /// through this level, in program order within every set, and
    /// appends the accesses that missed to `misses`.
    fn run(&mut self, input: &[Ap], misses: &mut Vec<Ap>) {
        let nsets = self.sets.len();
        let bufs = &mut self.run;
        if bufs.head.len() != nsets {
            bufs.head = vec![NONE; nsets];
            bufs.ring = vec![0; self.cfg.ways];
        }
        bufs.classes.clear();
        for ap in input {
            ap.split_by_set(self.cfg.line_words, nsets, &mut bufs.classes);
        }
        // Bucket the classes by set; sets commute, so any set order will
        // do. `head` is all `NONE` again when the loop below is done.
        bufs.touched.clear();
        for (i, class) in bufs.classes.iter_mut().enumerate() {
            let head = &mut bufs.head[class.set];
            if *head == NONE {
                bufs.touched.push(class.set);
            }
            class.next = *head;
            *head = i;
        }
        for &set in &bufs.touched {
            let first = std::mem::replace(&mut bufs.head[set], NONE);
            let c = &bufs.classes[first];
            let entries = &mut self.sets[set];
            if c.next == NONE && c.units == 1 {
                // One run on one line: a probe, then hits.
                if probe(entries, self.cfg.ways, &mut self.counters, c.line, c.write) {
                    push_access(misses, c.key, c.addr, c.write);
                }
                self.counters.hits += c.len as u64 - 1;
            } else {
                let mut state = SetRun::new(entries, &mut bufs.ring, &mut self.counters);
                state.run_classes(&mut bufs.classes, first, misses);
                state.fold();
            }
        }
    }
}

/// The per-word model: looks `line` up in one set's MRU-first packed
/// entries, moves it to the front and counts the outcome; returns `true`
/// on a miss. Every access path of the hierarchy that probes ends here.
#[inline]
fn probe(
    entries: &mut Vec<usize>,
    ways: usize,
    counters: &mut CacheCounters,
    line: usize,
    is_write: bool,
) -> bool {
    if let Some(pos) = entries.iter().position(|&t| (t >> 1) == line) {
        // Move-to-front via a prefix rotate: one memmove over
        // `[0..=pos]` instead of remove+insert shuffling the whole set.
        let tag = entries[pos] | usize::from(is_write);
        entries[..=pos].rotate_right(1);
        entries[0] = tag;
        counters.hits += 1;
        false
    } else {
        counters.misses += 1;
        let packed = (line << 1) | usize::from(is_write);
        if entries.len() == ways {
            // Steady state: replace the LRU tail in place with one
            // full rotate (the pre-eviction pop+insert did two).
            if let Some(&evicted) = entries.last() {
                counters.evictions += 1;
                counters.writebacks += u64::from(evicted & 1 == 1);
            }
            entries.rotate_right(1);
            entries[0] = packed;
        } else {
            entries.insert(0, packed);
        }
        true
    }
}

/// Appends one access to `runs`, extending the last run when the access
/// continues its progression.
fn push_access(runs: &mut Vec<Ap>, key: u64, addr: usize, write: bool) {
    if let Some(last) = runs.last_mut() {
        if last.write == write && key > last.key && addr >= last.addr {
            if last.count == 1 {
                last.key_step = key - last.key;
                last.addr_step = addr - last.addr;
                last.count = 2;
                return;
            }
            let next_key = last.key + last.count as u64 * last.key_step;
            let next_addr =
                last.count.checked_mul(last.addr_step).and_then(|o| o.checked_add(last.addr));
            if key == next_key && Some(addr) == next_addr {
                last.count += 1;
                return;
            }
        }
    }
    runs.push(Ap { key, key_step: 0, addr, addr_step: 0, count: 1, write });
}

/// End of a bucket list.
const NONE: usize = usize::MAX;

/// Reusable buffers of [`Cache::run`].
#[derive(Debug, Clone, Default)]
struct RunBuffers {
    classes: Vec<Class>,
    /// Per set: first class of its bucket, or [`NONE`].
    head: Vec<usize>,
    /// Sets with a non-empty bucket.
    touched: Vec<usize>,
    /// One set's queued misses (see [`SetRun`]).
    ring: Vec<usize>,
}

/// An arithmetic run of accesses reaching one cache level: access `t`
/// (`t < count`) is at program position `key + t * key_step` and touches
/// word `addr + t * addr_step`. Program positions order the accesses of
/// the whole loop body.
#[derive(Debug, Clone, Copy)]
struct Ap {
    key: u64,
    key_step: u64,
    addr: usize,
    addr_step: usize,
    count: usize,
    write: bool,
}

/// The accesses of one [`Ap`] that map to one set: `units` runs of `len`
/// accesses, each run on one line. Unit `u` starts at program position
/// `key + u * unit_key` and word `addr + u * unit_addr`, on line
/// `line + u * unit_line`; a unit's accesses are `key_step` positions and
/// `addr_step` words apart. With more than one unit, `unit_line > 0`, so
/// the class's lines strictly increase.
#[derive(Debug, Clone, Copy)]
struct Class {
    set: usize,
    key: u64,
    key_step: u64,
    addr: usize,
    addr_step: usize,
    line: usize,
    len: usize,
    /// Accesses of the current unit already made.
    done: usize,
    /// Units left, the current one included.
    units: usize,
    unit_key: u64,
    unit_addr: usize,
    unit_line: usize,
    write: bool,
    /// Next class of the same set's bucket, or [`NONE`].
    next: usize,
}

impl Class {
    /// Program position of the class's next access.
    fn next_key(&self) -> u64 {
        self.key + self.done as u64 * self.key_step
    }

    /// Moves past `n` whole units.
    fn skip_units(&mut self, n: usize) {
        self.units -= n;
        self.done = 0;
        self.key = self.key.wrapping_add((n as u64).wrapping_mul(self.unit_key));
        self.addr = self.addr.wrapping_add(n.wrapping_mul(self.unit_addr));
        self.line = self.line.wrapping_add(n.wrapping_mul(self.unit_line));
    }

    /// Whole units, from the current one (not yet started), that end
    /// before program position `limit`.
    fn units_before(&self, limit: u64) -> usize {
        let last = self.key + (self.len as u64 - 1) * self.key_step;
        if last >= limit {
            0
        } else if self.units == 1 || limit == u64::MAX {
            self.units
        } else {
            self.units.min(((limit - 1 - last) / self.unit_key) as usize + 1)
        }
    }
}

impl Ap {
    /// Splits the run into per-set [`Class`]es for a level with
    /// `line_words`-word lines and `nsets` sets. A stride that is a
    /// multiple of the line, or divides it, gives one class per set the
    /// run visits; any other stride gives one class per line visited.
    fn split_by_set(&self, line_words: usize, nsets: usize, out: &mut Vec<Class>) {
        if self.count == 0 {
            return;
        }
        let (d, lw) = (self.addr_step, line_words);
        // Class of `units` units of `len` accesses from access `t` on,
        // its units `every` accesses apart.
        let mut class = |t: usize, len: usize, units: usize, every: usize, unit_line: usize| {
            let addr = self.addr + t * d;
            let line = addr / lw;
            out.push(Class {
                set: line % nsets,
                key: self.key + t as u64 * self.key_step,
                key_step: self.key_step,
                addr,
                addr_step: d,
                line,
                len,
                done: 0,
                units,
                unit_key: (every as u64).wrapping_mul(self.key_step),
                unit_addr: every.wrapping_mul(d),
                unit_line,
                write: self.write,
                next: NONE,
            });
        };
        if d == 0 {
            class(0, self.count, 1, 0, 0);
        } else if d.is_multiple_of(lw) {
            // One access per line; the set sequence repeats with period
            // `nsets / gcd(lines per access, nsets)`.
            let q = d / lw;
            let period = nsets / gcd(q % nsets, nsets);
            for c in 0..period.min(self.count) {
                class(c, 1, (self.count - c).div_ceil(period), period, period * q);
            }
        } else if d < lw && lw.is_multiple_of(d) {
            // `lw / d` accesses per line after a partial first line;
            // consecutive lines visit consecutive sets.
            let per_line = lw / d;
            let first = ((self.addr / lw + 1) * lw - self.addr).div_ceil(d).min(self.count);
            class(0, first, 1, 0, 0);
            let full = (self.count - first) / per_line;
            for c in 0..nsets.min(full) {
                let units = (full - c).div_ceil(nsets);
                class(first + c * per_line, per_line, units, nsets * per_line, nsets);
            }
            let tail = (self.count - first) % per_line;
            if tail > 0 {
                class(first + full * per_line, tail, 1, 0, 0);
            }
        } else {
            let mut t = 0;
            while t < self.count {
                let addr = self.addr + t * d;
                let len = ((addr / lw + 1) * lw - addr).div_ceil(d).min(self.count - t);
                class(t, len, 1, 0, 0);
                t += len;
            }
        }
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// One set's LRU state while a run resolves it.
///
/// `mru` and `chain` describe the set as the per-word model would hold
/// it at this point: the line at the MRU position, and how many leading
/// MRU-first entries have strictly decreasing lines. `chain` is a lower
/// bound (it may undercount, never overcount), which is all the fast
/// paths need. Misses proven by it are queued in `ring` instead of
/// rotating `entries`, and folded in before the next probe and at the
/// end.
struct SetRun<'a> {
    entries: &'a mut Vec<usize>,
    /// The newest `ways` queued misses, packed like `entries`.
    ring: &'a mut [usize],
    counters: &'a mut CacheCounters,
    ways: usize,
    mru: usize,
    chain: usize,
    /// Misses queued since `entries` was last written.
    queued: usize,
    /// Ring slot the next queued miss goes to.
    head: usize,
}

impl<'a> SetRun<'a> {
    fn new(
        entries: &'a mut Vec<usize>,
        ring: &'a mut [usize],
        counters: &'a mut CacheCounters,
    ) -> Self {
        let chain = match entries.first() {
            None => 0,
            Some(_) => 1 + entries.windows(2).take_while(|w| (w[0] >> 1) > (w[1] >> 1)).count(),
        };
        let mru = entries.first().map_or(0, |t| t >> 1);
        let ways = ring.len();
        SetRun { entries, ring, counters, ways, mru, chain, queued: 0, head: 0 }
    }

    /// Whether the set is full and holds only lines below `line`: then
    /// an access to `line` misses and evicts the LRU entry.
    fn misses_surely(&self, line: usize) -> bool {
        self.chain >= self.ways && line > self.mru
    }

    /// Resolves, in program order, every access of the classes in the
    /// bucket starting at `first`, appending the misses to `misses`.
    ///
    /// Each step takes the class with the earliest next access and runs
    /// it up to the next access of any other class of this set. Inside
    /// that stretch only this class touches the set: the rest of a unit
    /// are hits on the MRU line, and once [`Self::misses_surely`] holds
    /// for a unit it holds for every later unit of the class (their lines
    /// increase), so those units are queued as misses in one step.
    fn run_classes(&mut self, classes: &mut [Class], first: usize, misses: &mut Vec<Ap>) {
        loop {
            // The class with the earliest next access, and the next
            // access of any other.
            let (mut pick, mut limit) = (NONE, u64::MAX);
            let mut i = first;
            while i != NONE {
                let c = &classes[i];
                if c.units > 0 {
                    let key = c.next_key();
                    if pick == NONE {
                        pick = i;
                    } else if key < classes[pick].next_key() {
                        limit = classes[pick].next_key();
                        pick = i;
                    } else {
                        limit = limit.min(key);
                    }
                }
                i = c.next;
            }
            if pick == NONE {
                return;
            }
            let c = &mut classes[pick];
            while c.units > 0 && c.next_key() < limit {
                if c.done == 0 && self.misses_surely(c.line) {
                    let n = c.units_before(limit);
                    if n > 0 {
                        self.queue_misses(n, c.line, c.unit_line, c.write);
                        self.counters.hits += (n * (c.len - 1)) as u64;
                        misses.push(Ap {
                            key: c.key,
                            key_step: c.unit_key,
                            addr: c.addr,
                            addr_step: c.unit_addr,
                            count: n,
                            write: c.write,
                        });
                        c.skip_units(n);
                        continue;
                    }
                }
                let key = c.next_key();
                if self.access(c.line, c.write) {
                    push_access(misses, key, c.addr + c.done * c.addr_step, c.write);
                }
                c.done += 1;
                // The rest of the unit before `limit` hits the MRU line.
                let left = c.len - c.done;
                let hits = if limit == u64::MAX || c.key_step == 0 {
                    left
                } else {
                    left.min(((limit - 1 - key) / c.key_step) as usize)
                };
                self.counters.hits += hits as u64;
                c.done += hits;
                if c.done == c.len {
                    c.skip_units(1);
                }
            }
        }
    }

    /// One access; the same outcome and state as [`probe`].
    fn access(&mut self, line: usize, write: bool) -> bool {
        if self.chain > 0 && line == self.mru {
            self.counters.hits += 1;
            if write {
                if self.queued > 0 {
                    let last = if self.head == 0 { self.ways - 1 } else { self.head - 1 };
                    self.ring[last] |= 1;
                } else {
                    self.entries[0] |= 1;
                }
            }
            return false;
        }
        if self.misses_surely(line) {
            self.queue_misses(1, line, 0, write);
            return true;
        }
        // A line above the old MRU extends the decreasing prefix: it was
        // not among the prefix's lines, so they keep their positions.
        let above = self.chain > 0 && line > self.mru;
        self.fold();
        let miss = probe(self.entries, self.ways, self.counters, line, write);
        self.chain = if above { (self.chain + 1).min(self.entries.len()) } else { 1 };
        self.mru = line;
        miss
    }

    /// Queues `n` misses to lines `line + i * step` (`i < n`), each
    /// proven by [`Self::misses_surely`]: each evicts the LRU entry,
    /// which is the oldest queued miss once `ways` are queued.
    fn queue_misses(&mut self, n: usize, line: usize, step: usize, write: bool) {
        let ways = self.ways;
        self.counters.misses += n as u64;
        self.counters.evictions += n as u64;
        let pack = |i: usize| (line.wrapping_add(i.wrapping_mul(step)) << 1) | usize::from(write);
        if n >= ways {
            // Every queued miss in the ring, and all but the last `ways`
            // new ones, are pushed out.
            let live = &self.ring[..self.queued.min(ways)];
            let dirty = live.iter().filter(|&&t| t & 1 == 1).count();
            self.counters.writebacks += (dirty + if write { n - ways } else { 0 }) as u64;
            for (i, slot) in self.ring.iter_mut().enumerate() {
                *slot = pack(n - ways + i);
            }
            self.head = 0;
        } else {
            for i in 0..n {
                let slot = &mut self.ring[self.head];
                if self.queued + i >= ways {
                    self.counters.writebacks += u64::from(*slot & 1 == 1);
                }
                *slot = pack(i);
                self.head = if self.head + 1 == ways { 0 } else { self.head + 1 };
            }
        }
        self.queued += n;
        self.mru = line.wrapping_add((n - 1).wrapping_mul(step));
    }

    /// Writes the queued misses into `entries`: the newest `ways` of
    /// (old entries, LRU first) ++ (queued misses) survive, MRU first.
    /// Evictions were counted when the misses were queued, and so were
    /// the writebacks of queued misses pushed out of the ring; the old
    /// entries' writebacks are counted here.
    fn fold(&mut self) {
        let (queued, head, ways) = (self.queued, self.head, self.ways);
        self.queued = 0;
        self.head = 0;
        if queued == 0 {
            return;
        }
        let fresh = queued.min(ways);
        let keep = ways - fresh;
        let dirty = self.entries[keep..].iter().filter(|&&t| t & 1 == 1).count();
        self.counters.writebacks += dirty as u64;
        self.entries.copy_within(0..keep, fresh);
        for (i, entry) in self.entries[..fresh].iter_mut().enumerate() {
            *entry = self.ring[(head + 2 * ways - 1 - i) % ways];
        }
    }
}

/// One strided address stream of a loop body (see
/// [`Hierarchy::access_run`]): iteration `i` of the loop touches word
/// `base + i * stride` when `i` is a multiple of `group`. A vector load
/// along a row is one access per `group` iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stream {
    /// Word address at iteration 0.
    pub base: usize,
    /// Words between the addresses of consecutive iterations.
    pub stride: usize,
    /// The stream accesses memory every `group` iterations (at least 1).
    pub group: usize,
    /// Stores dirty their lines (write-allocate); loads do not.
    pub write: bool,
}

impl Stream {
    /// A load every iteration.
    #[must_use]
    pub fn read(base: usize, stride: usize) -> Self {
        Stream { base, stride, group: 1, write: false }
    }

    /// A store every iteration.
    #[must_use]
    pub fn write(base: usize, stride: usize) -> Self {
        Stream { base, stride, group: 1, write: true }
    }

    /// The same stream accessing memory once every `group` iterations.
    #[must_use]
    pub fn every(self, group: usize) -> Self {
        Stream { group, ..self }
    }

    /// Accesses this stream makes in `iters` iterations.
    #[must_use]
    pub fn accesses(&self, iters: usize) -> usize {
        iters.div_ceil(self.group)
    }
}

/// The misses of one [`Hierarchy::access_run`] that the G4's stall model
/// charges: load misses at each level, and stores that reach memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunMisses {
    /// Loads that missed L1.
    pub l1_read: u64,
    /// Loads that missed both levels.
    pub l2_read: u64,
    /// Stores that missed both levels.
    pub l2_write: u64,
}

/// A two-level hierarchy: every L1 miss probes L2.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Level-1 data cache.
    pub l1: Cache,
    /// Unified level-2 cache.
    pub l2: Cache,
    // Buffers of `access_run`, kept between runs: the streams, then the
    // misses of each level.
    runs: [Vec<Ap>; 3],
}

impl Hierarchy {
    /// G4 hierarchy (L1 32 KB / L2 256 KB).
    #[must_use]
    pub fn g4() -> Self {
        Self::from_config(CacheConfig::g4_l1(), CacheConfig::g4_l2())
    }

    /// Builds a hierarchy from explicit geometries (used when sweeping
    /// cache sizes in design-space exploration).
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry; validate with
    /// [`CacheConfig::validate`] first.
    #[must_use]
    pub fn from_config(l1: CacheConfig, l2: CacheConfig) -> Self {
        Hierarchy { l1: Cache::new(l1), l2: Cache::new(l2), runs: Default::default() }
    }

    /// Touches an address through both levels as a read; returns
    /// `(l1_miss, l2_miss)`.
    #[inline]
    pub fn access(&mut self, word_addr: usize) -> (bool, bool) {
        self.access_rw(word_addr, false)
    }

    /// Touches an address through both levels; returns
    /// `(l1_miss, l2_miss)`.  A write dirties the line in each level it
    /// touches (L1 always; L2 only when L1 missed — the write-allocate
    /// fill path).
    #[inline]
    pub fn access_rw(&mut self, word_addr: usize, is_write: bool) -> (bool, bool) {
        let l1_miss = self.l1.access_rw(word_addr, is_write);
        let l2_miss = if l1_miss { self.l2.access_rw(word_addr, is_write) } else { false };
        (l1_miss, l2_miss)
    }

    /// Runs `iters` iterations of a loop body whose memory accesses are
    /// `streams` — iteration by iteration, each stream in slice order —
    /// as one call. Returns the misses the stall model charges, and
    /// leaves both levels' LRU order, dirty bits and counters exactly as
    /// the same [`Self::access_rw`] calls one by one would.
    ///
    /// LRU state is per set, so accesses to different sets commute and
    /// each set's share of the program can be resolved on its own; L2
    /// then sees the L1 misses in program order. Within a set:
    ///
    /// - a run of accesses to one line costs one probe plus MRU hits;
    /// - a stream's later lines are higher, so once a set's `ways` most
    ///   recent lines increase and the next line is above them, it and
    ///   the stream's following lines in that set all miss: they are
    ///   counted and their evictions applied in `O(ways)`;
    /// - where two streams interleave in a set, each access is resolved
    ///   on its own.
    ///
    /// A column walk that thrashes a set therefore costs about `ways`
    /// probes per set per run instead of one per access.
    ///
    /// # Panics
    ///
    /// Panics if a stream's `group` is 0 or one of its addresses
    /// overflows `usize`.
    pub fn access_run(&mut self, streams: &[Stream], iters: usize) -> RunMisses {
        self.load_runs(streams, iters);
        let [input, l1_misses, l2_misses] = &mut self.runs;
        l1_misses.clear();
        l2_misses.clear();
        self.l1.run(input, l1_misses);
        self.l2.run(l1_misses, l2_misses);
        let count = |runs: &[Ap], write: bool| -> u64 {
            runs.iter().filter(|r| r.write == write).map(|r| r.count as u64).sum()
        };
        RunMisses {
            l1_read: count(l1_misses, false),
            l2_read: count(l2_misses, false),
            l2_write: count(l2_misses, true),
        }
    }

    /// Describes each stream as one arithmetic run of program positions
    /// and addresses: the input of the L1 [`Cache::run`].
    fn load_runs(&mut self, streams: &[Stream], iters: usize) {
        let input = &mut self.runs[0];
        input.clear();
        let n = streams.len() as u64;
        for (s, stream) in (0u64..).zip(streams) {
            assert!(stream.group > 0, "stream group must be at least 1");
            let count = stream.accesses(iters);
            let last = count
                .saturating_sub(1)
                .checked_mul(stream.group)
                .and_then(|i| i.checked_mul(stream.stride))
                .and_then(|offset| offset.checked_add(stream.base));
            assert!(last.is_some(), "stream address overflows usize");
            input.push(Ap {
                key: s,
                key_step: stream.group as u64 * n,
                addr: stream.base,
                addr_step: stream.stride.wrapping_mul(stream.group),
                count,
                write: stream.write,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PpcConfig;
    use proptest::prelude::*;

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::g4_l1().sets(), 128);
        assert_eq!(CacheConfig::g4_l2().sets(), 512);
    }

    #[test]
    fn validate_mirrors_sets_preconditions() {
        assert!(CacheConfig::g4_l1().validate().is_ok());
        assert!(CacheConfig::g4_l2().validate().is_ok());
        assert!(CacheConfig { size_words: 100, line_words: 8, ways: 3 }.validate().is_err());
        assert!(CacheConfig { size_words: 0, line_words: 8, ways: 8 }.validate().is_err());
        assert!(CacheConfig { size_words: 64, line_words: 0, ways: 8 }.validate().is_err());
        assert!(CacheConfig { size_words: 64, line_words: 8, ways: 0 }.validate().is_err());
    }

    #[test]
    fn sequential_reuse_hits() {
        let mut c = Cache::new(CacheConfig::g4_l1());
        assert!(c.access(0)); // compulsory miss
        assert!(!c.access(1)); // same line
        assert!(!c.access(7));
        assert!(c.access(8)); // next line
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 1 set visible: pick addresses all mapping to set 0.
        let cfg = CacheConfig { size_words: 16, line_words: 8, ways: 2 };
        let mut c = Cache::new(cfg);
        assert_eq!(cfg.sets(), 1);
        assert!(c.access(0)); // line A
        assert!(c.access(8)); // line B
        assert!(!c.access(0)); // A hits, becomes MRU
        assert!(c.access(16)); // line C evicts B
        assert!(!c.access(0)); // A still resident
        assert!(c.access(8)); // B was evicted
    }

    #[test]
    fn column_stride_thrashes_power_of_two_sets() {
        // Writes with a 1024-word stride alias to few sets: far more
        // misses than the same number of sequential accesses.
        let mut strided = Cache::new(CacheConfig::g4_l1());
        let mut seq = Cache::new(CacheConfig::g4_l1());
        let n = 4096;
        for r in 0..4 {
            for c in 0..n {
                strided.access(c * 1024 + r);
                seq.access(r * n + c);
            }
        }
        assert!(strided.misses() > 4 * seq.misses());
    }

    #[test]
    fn hierarchy_probes_l2_only_on_l1_miss() {
        let mut h = Hierarchy::g4();
        assert_eq!(h.access(0), (true, true));
        assert_eq!(h.access(1), (false, false));
        // Words `k * 1024` (k = 1..=8) are L1 lines `k * 128`, all in L1
        // set 0 with line 0: the eighth evicts line 0 from the 8-way set.
        // In L2 they are lines `k * 64`, in sets 64, 128, ..., 448 and 0,
        // so L2 set 0 holds two lines and keeps line 0.
        for k in 1..=8 {
            assert_eq!(h.access(k * 1024), (true, true));
        }
        assert_eq!((h.l1.evictions(), h.l2.evictions()), (1, 0));
        // The re-access misses L1 and hits L2.
        assert_eq!(h.access(2), (true, false));
        assert_eq!((h.l1.hits(), h.l1.misses(), h.l1.evictions()), (1, 10, 2));
        assert_eq!((h.l2.hits(), h.l2.misses(), h.l2.evictions()), (1, 9, 0));
        assert_eq!((h.l1.writebacks(), h.l2.writebacks()), (0, 0));
    }

    #[test]
    fn evictions_and_writebacks_are_counted() {
        // One 2-way set: every third distinct line evicts.
        let cfg = CacheConfig { size_words: 16, line_words: 8, ways: 2 };
        let mut c = Cache::new(cfg);
        assert!(c.access_rw(0, true)); // line A, dirty
        assert!(c.access_rw(8, false)); // line B, clean
        assert!(c.access_rw(16, false)); // evicts A (LRU, dirty) -> writeback
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.writebacks(), 1);
        assert!(c.access_rw(24, false)); // evicts B (clean) -> no writeback
        assert_eq!(c.evictions(), 2);
        assert_eq!(c.writebacks(), 1);
        // A read hit on a dirty line keeps it dirty: it still writes back
        // when later evicted.
        let mut d = Cache::new(cfg);
        assert!(d.access_rw(0, true)); // A dirty
        assert!(!d.access_rw(0, false)); // read hit: stays dirty, MRU
        assert!(d.access_rw(8, false)); // B clean; LRU order [B, A]
        assert!(d.access_rw(16, false)); // evicts A (dirty) -> writeback
        assert!(d.access_rw(24, false)); // evicts B (clean)
        assert_eq!(d.writebacks(), 1);
        assert_eq!(d.counters().accesses(), d.hits() + d.misses());
    }

    #[test]
    fn dirty_bit_does_not_change_hit_miss_behaviour() {
        // Same address stream, reads vs writes: identical hit/miss totals.
        let mut reads = Cache::new(CacheConfig::g4_l1());
        let mut writes = Cache::new(CacheConfig::g4_l1());
        for r in 0..4 {
            for c in 0..512 {
                reads.access_rw(c * 1024 + r, false);
                writes.access_rw(c * 1024 + r, true);
            }
        }
        assert_eq!(reads.hits(), writes.hits());
        assert_eq!(reads.misses(), writes.misses());
        assert_eq!(reads.evictions(), writes.evictions());
        assert_eq!(reads.writebacks(), 0);
        assert!(writes.writebacks() > 0);
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn bad_geometry_panics() {
        let _ = CacheConfig { size_words: 100, line_words: 8, ways: 3 }.sets();
    }

    /// Small deterministic generator, so one `u64` seed describes a case.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            // xorshift64*
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + self.below(hi - lo + 1)
        }
    }

    /// Either a random geometry (sets and line sizes need not be powers of
    /// two) or the paper L1 with one of the DSE sweep's L2 sizes.
    fn random_geometry(kind: usize, rng: &mut Rng) -> (CacheConfig, CacheConfig) {
        let random = |rng: &mut Rng, max_line: usize, max_sets: usize| {
            let (line_words, ways, sets) =
                (rng.range(1, max_line), rng.range(1, 8), rng.range(1, max_sets));
            CacheConfig { size_words: line_words * ways * sets, line_words, ways }
        };
        match kind {
            0 => (CacheConfig::g4_l1(), PpcConfig::with_l2_kib(128).l2),
            1 => (CacheConfig::g4_l1(), PpcConfig::with_l2_kib(256).l2),
            2 => (CacheConfig::g4_l1(), PpcConfig::with_l2_kib(512).l2),
            3 => (CacheConfig::g4_l1(), PpcConfig::with_l2_kib(1024).l2),
            _ => (random(rng, 12, 24), random(rng, 24, 48)),
        }
    }

    /// A stream whose stride is small (often dividing the line), a multiple
    /// of the L1 line, a multiple of the L1 span (so it aliases into one
    /// set, near-colliding with others), or arbitrary; based anywhere, or
    /// just past a line boundary.
    fn stream(rng: &mut Rng, l1: &CacheConfig, region: usize) -> Stream {
        let (line, span) = (l1.line_words, l1.line_words * l1.sets());
        let stride = match rng.below(6) {
            0..=2 => rng.below(5),
            3 => rng.below(5) * line,
            4 => rng.range(1, 4) * span + rng.below(2),
            _ => rng.below(region / 4 + 1),
        };
        let base = match rng.below(2) {
            0 => rng.below(region),
            _ => rng.below(region / line) * line + rng.below(3),
        };
        let stream = if rng.below(2) == 0 {
            Stream::read(base, stride)
        } else {
            Stream::write(base, stride)
        };
        stream.every(rng.range(1, 8))
    }

    /// The same loop, one `access_rw` per access.
    fn per_word(h: &mut Hierarchy, streams: &[Stream], iters: usize) -> RunMisses {
        let mut out = RunMisses::default();
        for i in 0..iters {
            for s in streams {
                if i % s.group == 0 {
                    let (l1, l2) = h.access_rw(s.base + i * s.stride, s.write);
                    if s.write {
                        out.l2_write += u64::from(l2);
                    } else {
                        out.l1_read += u64::from(l1);
                        out.l2_read += u64::from(l2);
                    }
                }
            }
        }
        out
    }

    fn counters(h: &Hierarchy) -> [u64; 8] {
        let (a, b) = (h.l1.counters(), h.l2.counters());
        [a.hits, a.misses, a.evictions, a.writebacks, b.hits, b.misses, b.evictions, b.writebacks]
    }

    /// Checks `access_run` against the per-word path on one case.
    fn check(kind: usize, seed: u64) -> Result<(), String> {
        let mut rng = Rng(seed | 1);
        let (l1, l2) = random_geometry(kind, &mut rng);
        let region = 4 * l2.size_words;
        let mut warm = Hierarchy::from_config(l1, l2);
        for _ in 0..rng.below(3 * l2.size_words / l2.line_words + 1) {
            warm.access_rw(rng.below(region), rng.below(2) == 0);
        }
        let streams: Vec<Stream> =
            (0..rng.range(1, 3)).map(|_| stream(&mut rng, &l1, region)).collect();
        let iters = rng.below(400);
        let (mut run, mut word) = (warm.clone(), warm);
        let got = run.access_run(&streams, iters);
        let want = per_word(&mut word, &streams, iters);
        let case = format!("kind {kind} seed {seed} {l1:?} {l2:?} {streams:?} iters {iters}");
        if got != want || counters(&run) != counters(&word) {
            return Err(format!(
                "{case}: run {got:?} {:?} != per-word {want:?} {:?}",
                counters(&run),
                counters(&word)
            ));
        }
        // Equal final state: every later access agrees, including a sweep of
        // fresh lines that evicts (and so writes back) everything resident.
        let fresh = 2 * region + l2.size_words;
        let follow: Vec<(usize, bool)> = (0..200)
            .map(|_| (rng.below(region), rng.below(2) == 0))
            .chain((0..l1.sets() * l1.ways).map(|k| (fresh + k * l1.line_words, false)))
            .chain((0..l2.sets() * l2.ways).map(|k| (fresh + k * l2.line_words, false)))
            .collect();
        for (i, &(addr, write)) in follow.iter().enumerate() {
            let (a, b) = (run.access_rw(addr, write), word.access_rw(addr, write));
            if a != b {
                return Err(format!("{case}: follow-up access {i} ({addr}) gave {a:?} vs {b:?}"));
            }
        }
        if counters(&run) != counters(&word) {
            return Err(format!(
                "{case}: after follow-up {:?} != {:?}",
                counters(&run),
                counters(&word)
            ));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Random geometries, warm states and interleaved strided streams.
        #[test]
        fn access_run_matches_per_word(kind in 0usize..12, seed in any::<u64>()) {
            let outcome = check(kind, seed);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }

    /// The G4 corner turn in the thrash regime: power-of-two rows alias every
    /// column store into one L1 set and a handful of L2 sets, and the row's
    /// loads collide with that set once per row.
    #[test]
    fn corner_turn_rows_match_per_word() {
        let n = 512;
        for lanes in [1, 4] {
            let (mut run, mut word) = (Hierarchy::g4(), Hierarchy::g4());
            for r in 0..n {
                let body = [Stream::read(r * n, 1).every(lanes), Stream::write(n * n + r, n)];
                assert_eq!(run.access_run(&body, n), per_word(&mut word, &body, n), "row {r}");
            }
            assert_eq!(counters(&run), counters(&word), "lanes {lanes}");
            assert!(run.l2.writebacks() > 0, "the thrash regime writes back");
        }
    }
}
