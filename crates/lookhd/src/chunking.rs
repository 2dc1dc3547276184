//! Feature-vector chunking and codebook addressing (§III-A, §III-C).
//!
//! LookHD splits the `n`-feature vector into `m = ⌈n/r⌉` sequential chunks
//! of (at most) `r` features. Within a chunk, each feature's quantized level
//! is a `⌈log2 q⌉`-bit *codebook*; the concatenation of the `r` codebooks is
//! a direct address into the pre-stored table of encoded chunk hypervectors.
//!
//! When `r` does not divide `n`, the final chunk simply holds the remaining
//! `n mod r` features and addresses a (smaller) table of its own size — the
//! encoding math is unchanged.

use hdc::{HdcError, Result};

/// The geometry of a chunked feature vector.
///
/// # Examples
///
/// ```
/// use lookhd::chunking::ChunkLayout;
///
/// let layout = ChunkLayout::new(617, 5, 4)?; // SPEECH: n=617, r=5, q=4
/// assert_eq!(layout.n_chunks(), 124);        // 123 full chunks + 2 leftovers
/// assert_eq!(layout.chunk_len(123), 2);
/// assert_eq!(layout.table_rows(0), 4usize.pow(5));
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkLayout {
    n_features: usize,
    r: usize,
    q: usize,
    m: usize,
}

impl ChunkLayout {
    /// Maximum `r·⌈log2 q⌉` address width we accept, well inside the
    /// `u64` chunk addresses the score-LUT and the counter files read.
    pub const MAX_ADDRESS_BITS: u32 = 48;

    /// Creates a layout for `n_features` features, chunk size `r`, and `q`
    /// quantization levels.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if any parameter is zero, if
    /// `r > n_features`, or if the address width `r·⌈log2 q⌉` exceeds
    /// [`ChunkLayout::MAX_ADDRESS_BITS`].
    pub fn new(n_features: usize, r: usize, q: usize) -> Result<Self> {
        if n_features == 0 {
            return Err(HdcError::invalid_config(
                "n_features",
                "need at least one feature",
            ));
        }
        if r == 0 {
            return Err(HdcError::invalid_config("r", "chunk size must be positive"));
        }
        if q < 2 {
            return Err(HdcError::invalid_config("q", "need at least 2 levels"));
        }
        if r > n_features {
            return Err(HdcError::invalid_config(
                "r",
                format!("chunk size {r} exceeds feature count {n_features}"),
            ));
        }
        let bits = r as u32 * Self::codebook_bits_for(q);
        if bits > Self::MAX_ADDRESS_BITS {
            return Err(HdcError::invalid_config(
                "r",
                format!(
                    "address width {bits} bits (r={r}, q={q}) exceeds the supported {} bits",
                    Self::MAX_ADDRESS_BITS
                ),
            ));
        }
        Ok(Self {
            n_features,
            r,
            q,
            m: n_features.div_ceil(r),
        })
    }

    fn codebook_bits_for(q: usize) -> u32 {
        (q as u64).next_power_of_two().trailing_zeros().max(1)
    }

    /// Number of input features `n`.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Nominal chunk size `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Quantization levels `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Number of chunks `m = ⌈n/r⌉`.
    pub fn n_chunks(&self) -> usize {
        self.m
    }

    /// Bits per codebook, `⌈log2 q⌉` (§III-C).
    pub fn codebook_bits(&self) -> u32 {
        Self::codebook_bits_for(self.q)
    }

    /// Actual length of chunk `c` (the last chunk may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.n_chunks()`.
    pub fn chunk_len(&self, c: usize) -> usize {
        assert!(c < self.m, "chunk {c} out of range for m={}", self.m);
        if c + 1 == self.m {
            self.n_features - c * self.r
        } else {
            self.r
        }
    }

    /// The feature-index range covered by chunk `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.n_chunks()`.
    pub fn feature_range(&self, c: usize) -> std::ops::Range<usize> {
        let start = c * self.r;
        start..start + self.chunk_len(c)
    }

    /// Number of table rows chunk `c` addresses: `q^len(c)`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.n_chunks()`.
    pub fn table_rows(&self, c: usize) -> usize {
        self.q.pow(self.chunk_len(c) as u32)
    }

    /// Packs per-feature levels of chunk `c` into a base-`q` address (the
    /// concatenated-codebook memory address of §III-C; feature `j` within
    /// the chunk occupies digit `j`, most-significant first).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != self.chunk_len(c)` or any level `≥ q`.
    pub fn address(&self, c: usize, levels: &[usize]) -> u64 {
        assert_eq!(
            levels.len(),
            self.chunk_len(c),
            "level count must match chunk length"
        );
        let mut addr: u64 = 0;
        for &lv in levels {
            assert!(lv < self.q, "level {lv} out of range for q={}", self.q);
            addr = addr * self.q as u64 + lv as u64;
        }
        addr
    }

    /// Inverse of [`ChunkLayout::address`]: unpacks an address into the
    /// per-feature levels of chunk `c`.
    ///
    /// # Panics
    ///
    /// Panics if `addr >= self.table_rows(c) as u64`.
    pub fn levels_of_address(&self, c: usize, addr: u64) -> Vec<usize> {
        let len = self.chunk_len(c);
        assert!(
            addr < self.table_rows(c) as u64,
            "address {addr} out of range for chunk {c}"
        );
        let mut digits = vec![0usize; len];
        let mut a = addr;
        for d in digits.iter_mut().rev() {
            *d = (a % self.q as u64) as usize;
            a /= self.q as u64;
        }
        digits
    }

    /// Total pre-stored rows across all chunks assuming full tables — the
    /// "Lookup Size (# rows)" feasibility number of Table I, after chunking.
    pub fn total_table_rows(&self) -> u128 {
        (0..self.m).map(|c| self.table_rows(c) as u128).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divides_evenly() {
        let l = ChunkLayout::new(20, 5, 4).unwrap();
        assert_eq!(l.n_chunks(), 4);
        for c in 0..4 {
            assert_eq!(l.chunk_len(c), 5);
            assert_eq!(l.table_rows(c), 1024);
            assert_eq!(l.feature_range(c), c * 5..c * 5 + 5);
        }
    }

    #[test]
    fn partial_final_chunk() {
        let l = ChunkLayout::new(23, 5, 2).unwrap();
        assert_eq!(l.n_chunks(), 5);
        assert_eq!(l.chunk_len(4), 3);
        assert_eq!(l.table_rows(4), 8);
        assert_eq!(l.feature_range(4), 20..23);
    }

    #[test]
    fn address_round_trips() {
        let l = ChunkLayout::new(10, 5, 4).unwrap();
        for addr in [0u64, 1, 17, 1023] {
            let levels = l.levels_of_address(0, addr);
            assert_eq!(l.address(0, &levels), addr);
        }
        // Concatenation order: first feature is the most significant digit.
        assert_eq!(l.address(0, &[1, 0, 0, 0, 0]), 256);
        assert_eq!(l.address(0, &[0, 0, 0, 0, 3]), 3);
    }

    #[test]
    fn codebook_bits_round_up() {
        assert_eq!(ChunkLayout::new(10, 2, 2).unwrap().codebook_bits(), 1);
        assert_eq!(ChunkLayout::new(10, 2, 4).unwrap().codebook_bits(), 2);
        assert_eq!(ChunkLayout::new(10, 2, 5).unwrap().codebook_bits(), 3);
        assert_eq!(ChunkLayout::new(10, 2, 16).unwrap().codebook_bits(), 4);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(ChunkLayout::new(0, 5, 4).is_err());
        assert!(ChunkLayout::new(10, 0, 4).is_err());
        assert!(ChunkLayout::new(10, 5, 1).is_err());
        assert!(ChunkLayout::new(4, 5, 4).is_err());
        // 16 levels × r=13 → 52 bits > 48
        assert!(ChunkLayout::new(100, 13, 16).is_err());
        assert!(ChunkLayout::new(100, 12, 16).is_ok());
    }

    #[test]
    fn total_rows_accounts_for_partial_chunk() {
        let l = ChunkLayout::new(7, 3, 2).unwrap(); // chunks: 3, 3, 1
        assert_eq!(l.total_table_rows(), 8 + 8 + 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_len_bounds_checked() {
        let l = ChunkLayout::new(10, 5, 4).unwrap();
        let _ = l.chunk_len(2);
    }

    #[test]
    #[should_panic(expected = "level count must match")]
    fn address_arity_checked() {
        let l = ChunkLayout::new(10, 5, 4).unwrap();
        let _ = l.address(0, &[0, 0]);
    }
}
