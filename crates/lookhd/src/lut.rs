//! Pre-stored encoded chunk hypervectors (§III-C, Fig. 5).
//!
//! For a chunk of `r` features with `q` levels there are `q^r` possible
//! encoded chunk hypervectors
//! `H(addr) = Σ_{j=0..r} ρ^j( L_{digit_j(addr)} )`. LookHD pre-computes all
//! of them so that encoding becomes one memory access per chunk on the
//! FPGA. On a CPU a fresh query's rows miss cache, so the encoder sums
//! the same terms from the packed level and key bits instead
//! ([`crate::encoder::LookupEncoder::encode`]); the table serves counter
//! finalize, which weighs each row by its count.
//!
//! Every entry is a sum of at most `r` bipolar values, and a layout's `r`
//! is at most [`ChunkLayout::MAX_ADDRESS_BITS`] = 48 (each feature spends
//! at least one address bit), so every entry fits an `i8`. A table is
//! stored at that width, one byte per entry, and counter finalize sums
//! rows into `i32` lanes through [`ChunkLut::accumulate_row`].
//!
//! Two storage modes with *identical* results:
//!
//! * [`TableMode::Materialized`] — the table is actually built, as in the
//!   FPGA BRAM implementation. Only feasible while `q^r · D` bytes fit
//!   memory.
//! * [`TableMode::OnTheFly`] — rows are synthesized from the level memory
//!   on each access. This lets accuracy sweeps explore `q`/`r` corners whose
//!   tables would not fit (the hardware-feasibility question is modelled
//!   separately in `lookhd-hwsim`).
//!
//! [`ChunkLut::auto`] picks `Materialized` when the full table fits in a
//! caller-supplied byte budget.

use hdc::hv::{bind_accumulate, BipolarHv, DenseHv};
use hdc::levels::LevelMemory;
use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;

// An entry sums at most `r ≤ MAX_ADDRESS_BITS` values of ±1 (`q ≥ 2`
// spends at least one address bit per feature), so it fits an `i8`.
const _: () = assert!(ChunkLayout::MAX_ADDRESS_BITS <= i8::MAX as u32);

/// Storage strategy for the chunk tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableMode {
    /// Pre-compute and store every row (the paper's BRAM tables).
    Materialized,
    /// Recompute rows on access (reference semantics for large sweeps).
    OnTheFly,
}

/// The pre-stored (or lazily synthesized) encoded chunk hypervectors for
/// every chunk of a [`ChunkLayout`], one `i8` per entry.
///
/// # Examples
///
/// ```
/// use hdc::levels::LevelMemory;
/// use lookhd::chunking::ChunkLayout;
/// use lookhd::lut::{ChunkLut, TableMode};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let levels = LevelMemory::generate(256, 4, &mut rng)?;
/// let layout = ChunkLayout::new(10, 5, 4)?;
/// let lut = ChunkLut::new(layout, &levels, TableMode::Materialized)?;
/// assert_eq!(lut.materialized_bytes(), 4usize.pow(5) * 256);
/// let row = lut.row(0, 7);
/// assert_eq!(row.dim(), 256);
/// assert!(row.max_abs() <= 5);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChunkLut {
    layout: ChunkLayout,
    levels: LevelMemory,
    mode: TableMode,
    /// One flat row-major `rows × D` table per distinct chunk *shape*:
    /// index 0 is the full-`r` table shared by all full chunks, index 1
    /// (if present) the partial-final-chunk table. Empty in `OnTheFly` mode.
    tables: Vec<Vec<i8>>,
}

impl ChunkLut {
    /// Builds the lookup structure in the requested mode.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if the level memory's `q` differs
    /// from the layout's, or if `Materialized` is requested for a table
    /// larger than [`ChunkLut::MATERIALIZE_HARD_LIMIT_BYTES`].
    pub fn new(layout: ChunkLayout, levels: &LevelMemory, mode: TableMode) -> Result<Self> {
        if levels.levels() != layout.q() {
            return Err(HdcError::invalid_config(
                "q",
                format!(
                    "level memory has {} levels but layout expects q={}",
                    levels.levels(),
                    layout.q()
                ),
            ));
        }
        let mut lut = Self {
            layout,
            levels: levels.clone(),
            mode,
            tables: Vec::new(),
        };
        if mode == TableMode::Materialized {
            let bytes = lut.materialized_bytes();
            if bytes > Self::MATERIALIZE_HARD_LIMIT_BYTES {
                return Err(HdcError::invalid_config(
                    "r",
                    format!(
                        "materialized table needs {bytes} bytes (> {} limit); use TableMode::OnTheFly",
                        Self::MATERIALIZE_HARD_LIMIT_BYTES
                    ),
                ));
            }
            lut.tables = lut
                .shape_lens()
                .into_iter()
                .map(|len| lut.build_table(len))
                .collect();
        }
        Ok(lut)
    }

    /// Hard cap on materialized table size (512 MiB of `i8` entries).
    pub const MATERIALIZE_HARD_LIMIT_BYTES: usize = 512 << 20;

    /// Builds the structure, materializing only when the table fits in
    /// `budget_bytes`.
    ///
    /// # Errors
    ///
    /// Propagates [`ChunkLut::new`] errors.
    pub fn auto(layout: ChunkLayout, levels: &LevelMemory, budget_bytes: usize) -> Result<Self> {
        let probe = Self {
            layout,
            levels: levels.clone(),
            mode: TableMode::OnTheFly,
            tables: Vec::new(),
        };
        let mode =
            if probe.materialized_bytes() <= budget_bytes.min(Self::MATERIALIZE_HARD_LIMIT_BYTES) {
                TableMode::Materialized
            } else {
                TableMode::OnTheFly
            };
        Self::new(layout, levels, mode)
    }

    /// Bytes a fully materialized table occupies (one `i8` per entry).
    pub fn materialized_bytes(&self) -> usize {
        let d = self.levels.dim();
        self.shape_lens()
            .into_iter()
            .map(|len| self.layout.q().pow(len as u32) * d)
            .sum()
    }

    /// Chunk length per distinct chunk shape: the full table, plus the
    /// partial-final table when `r ∤ n`.
    fn shape_lens(&self) -> Vec<usize> {
        let full = self.layout.chunk_len(0);
        let last = self.layout.chunk_len(self.layout.n_chunks() - 1);
        if last == full {
            vec![full]
        } else {
            vec![full, last]
        }
    }

    fn build_table(&self, chunk_len: usize) -> Vec<i8> {
        let d = self.levels.dim();
        let mut table = vec![0; self.layout.q().pow(chunk_len as u32) * d];
        for (addr, row) in table.chunks_exact_mut(d).enumerate() {
            self.synthesize(chunk_len, addr as u64, row);
        }
        table
    }

    /// Writes row `addr` for a chunk of `chunk_len` features, computed
    /// directly from the level memory (Eq. 2), into `row`.
    fn synthesize(&self, chunk_len: usize, addr: u64, row: &mut [i8]) {
        let q = self.layout.q() as u64;
        let mut acc = DenseHv::zeros(self.levels.dim());
        let mut a = addr;
        // Least significant digit first: the chunk's last feature, rotated
        // by `chunk_len − 1`.
        for rot in (0..chunk_len).rev() {
            acc.add_rotated_bipolar(self.levels.level((a % q) as usize), rot);
            a /= q;
        }
        for (entry, &v) in row.iter_mut().zip(acc.as_slice()) {
            *entry = v as i8; // |v| ≤ chunk_len ≤ r: exact
        }
    }

    fn table_index(&self, chunk: usize) -> usize {
        if self.layout.chunk_len(chunk) == self.layout.chunk_len(0) {
            0
        } else {
            1
        }
    }

    /// Calls `f` on row `addr` of chunk `chunk`: the stored row in
    /// `Materialized` mode, a freshly synthesized one `OnTheFly`.
    fn with_row<T>(&self, chunk: usize, addr: u64, f: impl FnOnce(&[i8]) -> T) -> T {
        assert!(
            addr < self.layout.table_rows(chunk) as u64,
            "address {addr} out of range for chunk {chunk}"
        );
        let d = self.levels.dim();
        match self.mode {
            TableMode::Materialized => {
                let start = addr as usize * d;
                f(&self.tables[self.table_index(chunk)][start..start + d])
            }
            TableMode::OnTheFly => {
                let mut row = vec![0; d];
                self.synthesize(self.layout.chunk_len(chunk), addr, &mut row);
                f(&row)
            }
        }
    }

    /// The encoded chunk hypervector for `addr` in chunk `chunk`, widened
    /// to `i32` (identical values in both modes).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `addr` is out of range.
    pub fn row(&self, chunk: usize, addr: u64) -> DenseHv {
        self.with_row(chunk, addr, |row| {
            row.iter().copied().map(i32::from).collect()
        })
    }

    /// Accumulates `w · key ⊙ row(chunk, addr)` into `lanes` without
    /// copying the row in `Materialized` mode — the counter-training
    /// finalize step, with `w` the row's count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk`/`addr` are out of range or dimensions disagree.
    pub fn accumulate_row(
        &self,
        chunk: usize,
        addr: u64,
        key: &BipolarHv,
        w: i32,
        lanes: &mut [i32],
    ) {
        self.with_row(chunk, addr, |row| bind_accumulate(lanes, key, row, w));
    }

    /// The chunk layout this table serves.
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// The level memory the rows are built from.
    pub fn levels(&self) -> &LevelMemory {
        &self.levels
    }

    /// The active storage mode.
    pub fn mode(&self) -> TableMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, r: usize, q: usize, dim: usize) -> (ChunkLayout, LevelMemory) {
        let mut rng = StdRng::seed_from_u64(11);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        (layout, levels)
    }

    #[test]
    fn materialized_and_on_the_fly_agree() {
        let (layout, levels) = setup(13, 5, 4, 128);
        let mat = ChunkLut::new(layout, &levels, TableMode::Materialized).unwrap();
        let fly = ChunkLut::new(layout, &levels, TableMode::OnTheFly).unwrap();
        for chunk in 0..layout.n_chunks() {
            for addr in [0u64, 1, layout.table_rows(chunk) as u64 - 1] {
                assert_eq!(
                    mat.row(chunk, addr),
                    fly.row(chunk, addr),
                    "chunk {chunk} addr {addr}"
                );
            }
        }
    }

    #[test]
    fn row_matches_equation_two() {
        let (layout, levels) = setup(10, 5, 4, 128);
        let lut = ChunkLut::new(layout, &levels, TableMode::Materialized).unwrap();
        // addr digits (most significant first): [0,1,2,3,0]
        let addr = layout.address(0, &[0, 1, 2, 3, 0]);
        let mut manual = DenseHv::zeros(128);
        for (j, lv) in [0usize, 1, 2, 3, 0].into_iter().enumerate() {
            manual.add_rotated_bipolar(levels.level(lv), j);
        }
        assert_eq!(lut.row(0, addr), manual);
    }

    #[test]
    fn partial_chunk_uses_smaller_table() {
        let (layout, levels) = setup(12, 5, 2, 64);
        let lut = ChunkLut::new(layout, &levels, TableMode::Materialized).unwrap();
        assert_eq!(layout.chunk_len(2), 2);
        let row = lut.row(2, 3); // digits [1, 1]
        let mut manual = DenseHv::zeros(64);
        manual.add_rotated_bipolar(levels.level(1), 0);
        manual.add_rotated_bipolar(levels.level(1), 1);
        assert_eq!(row, manual);
    }

    #[test]
    fn accumulate_row_matches_row_plus_bind() {
        let (layout, levels) = setup(10, 5, 2, 64);
        let mut rng = StdRng::seed_from_u64(5);
        let key = BipolarHv::random(64, &mut rng);
        for mode in [TableMode::Materialized, TableMode::OnTheFly] {
            let lut = ChunkLut::new(layout, &levels, mode).unwrap();
            let mut acc = DenseHv::zeros(64);
            lut.accumulate_row(1, 9, &key, 3, acc.as_mut_slice());
            let mut manual = DenseHv::zeros(64);
            manual.add_bound_scaled(&key, &lut.row(1, 9), 3);
            assert_eq!(acc, manual);
        }
    }

    #[test]
    fn auto_picks_mode_by_budget() {
        let (layout, levels) = setup(10, 5, 4, 128);
        let lut = ChunkLut::auto(layout, &levels, usize::MAX).unwrap();
        assert_eq!(lut.mode(), TableMode::Materialized);
        let lut = ChunkLut::auto(layout, &levels, 1024).unwrap();
        assert_eq!(lut.mode(), TableMode::OnTheFly);
    }

    #[test]
    fn rejects_oversized_materialization() {
        // q=16, r=8 → 16^8 = 4.3e9 rows; materializing must fail cleanly.
        let (layout, levels) = setup(16, 8, 16, 64);
        assert!(ChunkLut::new(layout, &levels, TableMode::Materialized).is_err());
        assert!(ChunkLut::new(layout, &levels, TableMode::OnTheFly).is_ok());
    }

    #[test]
    fn rejects_mismatched_level_memory() {
        let (_, levels) = setup(10, 5, 4, 64);
        let layout8 = ChunkLayout::new(10, 5, 8).unwrap();
        assert!(ChunkLut::new(layout8, &levels, TableMode::OnTheFly).is_err());
    }

    #[test]
    fn materialized_bytes_counts_both_shapes() {
        let (layout, levels) = setup(7, 3, 2, 16);
        let lut = ChunkLut::new(layout, &levels, TableMode::OnTheFly).unwrap();
        // shapes: 2^3 = 8 rows + 2^1 = 2 rows, 16 dims × 1 byte each
        assert_eq!(lut.materialized_bytes(), (8 + 2) * 16);
    }
}
