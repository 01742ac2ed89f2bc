//! Flat word-addressed backing store for data-accurate simulation.

use crate::error::SimError;

/// A flat memory of 32-bit words with `u32` and `f32` views.
///
/// Every simulator's DRAM, SRF, or local store is backed by a `WordMemory`,
/// so the kernels running on the simulators operate on real data and their
/// outputs can be checked against the reference implementations.
///
/// # Example
///
/// ```
/// use triarch_simcore::WordMemory;
///
/// # fn main() -> Result<(), triarch_simcore::SimError> {
/// let mut m = WordMemory::new(16);
/// m.write_f32(3, 1.5)?;
/// assert_eq!(m.read_f32(3)?, 1.5);
/// m.write_u32(4, 0xdead_beef)?;
/// assert_eq!(m.read_u32(4)?, 0xdead_beef);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordMemory {
    words: Vec<u32>,
}

impl WordMemory {
    /// Creates a zero-initialized memory of `size` 32-bit words.
    #[must_use]
    pub fn new(size: usize) -> Self {
        WordMemory { words: vec![0; size] }
    }

    /// Creates a memory initialized from `f32` data.
    #[must_use]
    pub fn from_f32(data: &[f32]) -> Self {
        WordMemory { words: data.iter().map(|v| v.to_bits()).collect() }
    }

    /// The memory size in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the memory has zero words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The memory size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }

    fn check(&self, addr: usize) -> Result<(), SimError> {
        if addr >= self.words.len() {
            Err(SimError::OutOfBounds { addr, size: self.words.len() })
        } else {
            Ok(())
        }
    }

    /// Reads a raw 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn read_u32(&self, addr: usize) -> Result<u32, SimError> {
        self.check(addr)?;
        Ok(self.words[addr])
    }

    /// Writes a raw 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn write_u32(&mut self, addr: usize, value: u32) -> Result<(), SimError> {
        self.check(addr)?;
        self.words[addr] = value;
        Ok(())
    }

    /// Reads a word as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn read_f32(&self, addr: usize) -> Result<f32, SimError> {
        Ok(f32::from_bits(self.read_u32(addr)?))
    }

    /// Writes a word as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if `addr` is past the end.
    pub fn write_f32(&mut self, addr: usize, value: f32) -> Result<(), SimError> {
        self.write_u32(addr, value.to_bits())
    }

    /// The index range of the `len`-word region at `addr`, checked once.
    fn region(&self, addr: usize, len: usize) -> Result<std::ops::Range<usize>, SimError> {
        let size = self.words.len();
        let end = addr.checked_add(len).ok_or(SimError::OutOfBounds { addr: usize::MAX, size })?;
        if end > size {
            return Err(SimError::OutOfBounds { addr: end, size });
        }
        Ok(addr..end)
    }

    /// Checks that all `n` words at `addr`, `addr + stride`, … exist;
    /// the error names the first one that does not, as a word-by-word
    /// walk would.
    fn check_strided(&self, addr: usize, stride: usize, n: usize) -> Result<(), SimError> {
        let size = self.words.len();
        let last =
            n.checked_sub(1).map(|k| k.checked_mul(stride).and_then(|o| o.checked_add(addr)));
        match last {
            None => Ok(()),
            Some(Some(last)) if last < size => Ok(()),
            // Past the end somewhere: at `addr` itself, or (stride > 0)
            // at the first multiple of the stride that reaches `size`.
            Some(_) if addr >= size => Err(SimError::OutOfBounds { addr, size }),
            Some(_) => {
                let first = (size - addr).div_ceil(stride).saturating_mul(stride);
                Err(SimError::OutOfBounds { addr: addr.saturating_add(first), size })
            }
        }
    }

    /// Borrows the `len`-word region at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn block(&self, addr: usize, len: usize) -> Result<&[u32], SimError> {
        let range = self.region(addr, len)?;
        Ok(&self.words[range])
    }

    /// Mutably borrows the `len`-word region at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn block_mut(&mut self, addr: usize, len: usize) -> Result<&mut [u32], SimError> {
        let range = self.region(addr, len)?;
        Ok(&mut self.words[range])
    }

    /// Gathers `out.len()` words from `addr`, `addr + stride`, … into
    /// `out`. Bounds are checked once; on error `out` is untouched.
    ///
    /// ```
    /// use triarch_simcore::WordMemory;
    ///
    /// # fn main() -> Result<(), triarch_simcore::SimError> {
    /// let mut m = WordMemory::new(16);
    /// m.write_block_u32(0, &(0..16).collect::<Vec<u32>>())?;
    /// let mut column = [0u32; 4];
    /// m.gather(1, 4, &mut column)?;
    /// assert_eq!(column, [1, 5, 9, 13]);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] naming the first missing word.
    pub fn gather(&self, addr: usize, stride: usize, out: &mut [u32]) -> Result<(), SimError> {
        self.check_strided(addr, stride, out.len())?;
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.words[addr + i * stride];
        }
        Ok(())
    }

    /// Scatters `data` to `addr`, `addr + stride`, …, the inverse of
    /// [`gather`](Self::gather). Bounds are checked once; on error the
    /// memory is untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] naming the first missing word.
    pub fn scatter(&mut self, addr: usize, stride: usize, data: &[u32]) -> Result<(), SimError> {
        self.check_strided(addr, stride, data.len())?;
        for (i, &v) in data.iter().enumerate() {
            self.words[addr + i * stride] = v;
        }
        Ok(())
    }

    /// Copies a region out of the memory as `u32` words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn read_block_u32(&self, addr: usize, len: usize) -> Result<Vec<u32>, SimError> {
        Ok(self.block(addr, len)?.to_vec())
    }

    /// Writes a slice of `u32` words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn write_block_u32(&mut self, addr: usize, data: &[u32]) -> Result<(), SimError> {
        self.block_mut(addr, data.len())?.copy_from_slice(data);
        Ok(())
    }

    /// Copies the `len`-word region at `src` to `dst` within this memory
    /// (the regions may overlap).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if either region does not fit.
    pub fn copy_within(&mut self, src: usize, len: usize, dst: usize) -> Result<(), SimError> {
        let from = self.region(src, len)?;
        self.region(dst, len)?;
        self.words.copy_within(from, dst);
        Ok(())
    }

    /// Copies a region out as `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn read_block_f32(&self, addr: usize, len: usize) -> Result<Vec<f32>, SimError> {
        Ok(self.read_block_u32(addr, len)?.into_iter().map(f32::from_bits).collect())
    }

    /// Writes a slice of `f32` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfBounds`] if the region does not fit.
    pub fn write_block_f32(&mut self, addr: usize, data: &[f32]) -> Result<(), SimError> {
        let words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        self.write_block_u32(addr, &words)
    }

    /// A borrowed view of the raw words.
    #[must_use]
    pub fn as_words(&self) -> &[u32] {
        &self.words
    }

    /// An order-independent FNV-1a digest of the full contents.
    ///
    /// Used to compare machine outputs that must be bit-identical
    /// (e.g. the corner-turn destination matrix).
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.words.iter().flat_map(|w| w.to_le_bytes()))
    }
}

/// FNV-1a over a byte stream; deterministic across platforms.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = WordMemory::new(8);
        m.write_f32(0, -2.75).unwrap();
        assert_eq!(m.read_f32(0).unwrap(), -2.75);
        m.write_u32(7, 42).unwrap();
        assert_eq!(m.read_u32(7).unwrap(), 42);
    }

    #[test]
    fn out_of_bounds_is_typed_error() {
        let mut m = WordMemory::new(4);
        assert_eq!(m.read_u32(4), Err(SimError::OutOfBounds { addr: 4, size: 4 }));
        assert!(m.write_u32(100, 0).is_err());
        assert!(m.read_block_u32(2, 3).is_err());
        assert!(m.write_block_u32(3, &[1, 2]).is_err());
    }

    #[test]
    fn block_roundtrip() {
        let mut m = WordMemory::new(10);
        m.write_block_f32(2, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.read_block_f32(2, 3).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_f32_preserves_bits() {
        let m = WordMemory::from_f32(&[0.5, -0.5]);
        assert_eq!(m.read_f32(0).unwrap(), 0.5);
        assert_eq!(m.read_f32(1).unwrap(), -0.5);
        assert_eq!(m.len(), 2);
        assert_eq!(m.size_bytes(), 8);
    }

    #[test]
    fn digest_distinguishes_contents() {
        let a = WordMemory::from_f32(&[1.0, 2.0]);
        let b = WordMemory::from_f32(&[2.0, 1.0]);
        assert_ne!(a.digest(), b.digest());
        let c = WordMemory::from_f32(&[1.0, 2.0]);
        assert_eq!(a.digest(), c.digest());
    }

    #[test]
    fn borrowed_blocks_are_bounds_checked_once() {
        let mut m = WordMemory::new(8);
        m.block_mut(2, 3).unwrap().copy_from_slice(&[7, 8, 9]);
        assert_eq!(m.block(2, 3).unwrap(), &[7, 8, 9]);
        assert_eq!(m.block(8, 0).unwrap(), &[] as &[u32]);
        assert_eq!(m.block(6, 3), Err(SimError::OutOfBounds { addr: 9, size: 8 }));
        assert!(m.block_mut(usize::MAX, 2).is_err());
    }

    #[test]
    fn strided_errors_name_the_first_missing_word() {
        // The word-by-word walks these replace failed at the first
        // address past the end; the single check reports the same one.
        let mut m = WordMemory::new(10);
        let mut out = [0u32; 4];
        assert_eq!(m.gather(0, 3, &mut out), Ok(()));
        assert_eq!(m.gather(1, 3, &mut out), Err(SimError::OutOfBounds { addr: 10, size: 10 }));
        assert_eq!(m.gather(2, 3, &mut out), Err(SimError::OutOfBounds { addr: 11, size: 10 }));
        assert_eq!(m.gather(12, 0, &mut out), Err(SimError::OutOfBounds { addr: 12, size: 10 }));
        assert_eq!(m.gather(9, 0, &mut out), Ok(()));
        assert_eq!(m.scatter(4, 6, &[1, 2]), Err(SimError::OutOfBounds { addr: 10, size: 10 }));
        assert!(m.scatter(3, usize::MAX / 2, &[1, 2, 3]).is_err());
        assert_eq!(m.as_words(), &[0; 10], "a failed scatter writes nothing");
        m.scatter(0, 4, &[1, 2, 3]).unwrap();
        assert_eq!(m.as_words(), &[1, 0, 0, 0, 2, 0, 0, 0, 3, 0]);
        assert_eq!(m.gather(0, 4, &mut []), Ok(()));
    }

    #[test]
    fn copy_within_moves_one_region() {
        let mut m = WordMemory::new(8);
        m.write_block_u32(0, &[1, 2, 3, 4]).unwrap();
        m.copy_within(1, 3, 4).unwrap();
        assert_eq!(m.as_words(), &[1, 2, 3, 4, 2, 3, 4, 0]);
        assert!(m.copy_within(6, 3, 0).is_err());
        assert!(m.copy_within(0, 3, 6).is_err());
        assert_eq!(m.as_words(), &[1, 2, 3, 4, 2, 3, 4, 0]);
    }

    #[test]
    fn overflow_addresses_do_not_panic() {
        let m = WordMemory::new(4);
        assert!(m.read_block_u32(usize::MAX, 2).is_err());
    }
}
