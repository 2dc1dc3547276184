//! Pre-stored encoded chunk hypervectors (§III-C, Fig. 5).
//!
//! For a chunk of `r` features with `q` levels there are `q^r` possible
//! encoded chunk hypervectors
//! `H(addr) = Σ_{j=0..r} ρ^j( L_{digit_j(addr)} )`. LookHD pre-computes all
//! of them so encoding becomes one memory access.
//!
//! Two storage modes with *identical* results:
//!
//! * [`TableMode::Materialized`] — the table is actually built, as in the
//!   FPGA BRAM implementation. Only feasible while `q^r · D` fits memory.
//! * [`TableMode::OnTheFly`] — rows are synthesized from the level memory
//!   on each access. This lets accuracy sweeps explore `q`/`r` corners whose
//!   tables would not fit (the hardware-feasibility question is modelled
//!   separately in `lookhd-hwsim`).
//!
//! [`ChunkLut::auto`] picks `Materialized` when the full table fits in a
//! caller-supplied byte budget.

use hdc::hv::DenseHv;
use hdc::levels::LevelMemory;
use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;

/// Storage strategy for the chunk tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TableMode {
    /// Pre-compute and store every row (the paper's BRAM tables).
    Materialized,
    /// Recompute rows on access (reference semantics for large sweeps).
    OnTheFly,
}

/// The pre-stored (or lazily synthesized) encoded chunk hypervectors for
/// every chunk of a [`ChunkLayout`].
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
/// let row = lut.row(0, 7);
/// assert_eq!(row.dim(), 256);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChunkLut {
    layout: ChunkLayout,
    levels: LevelMemory,
    mode: TableMode,
    /// `tables[t]` holds the rows for distinct chunk *shapes*: index 0 is
    /// the full-`r` table shared by all full chunks, index 1 (if present)
    /// the partial-final-chunk table.
    tables: Vec<Vec<DenseHv>>,
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
            lut.materialize();
        }
        Ok(lut)
    }

    /// Hard cap on materialized table size (512 MiB of `i32` elements).
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

    /// Bytes a fully materialized table would occupy (`i32` per element).
    pub fn materialized_bytes(&self) -> usize {
        let d = self.levels.dim();
        self.shape_rows()
            .iter()
            .map(|&rows| rows * d * std::mem::size_of::<i32>())
            .sum()
    }

    /// Row counts per distinct chunk shape (full table, plus partial-final
    /// table when `r ∤ n`).
    fn shape_rows(&self) -> Vec<usize> {
        let mut shapes = vec![self.layout.table_rows(0)];
        let last = self.layout.n_chunks() - 1;
        if self.layout.chunk_len(last) != self.layout.chunk_len(0) {
            shapes.push(self.layout.table_rows(last));
        }
        shapes
    }

    fn materialize(&mut self) {
        let mut tables = Vec::new();
        let full_len = self.layout.chunk_len(0);
        tables.push(self.build_table(full_len));
        let last = self.layout.n_chunks() - 1;
        let last_len = self.layout.chunk_len(last);
        if last_len != full_len {
            tables.push(self.build_table(last_len));
        }
        self.tables = tables;
    }

    fn build_table(&self, chunk_len: usize) -> Vec<DenseHv> {
        let rows = self.layout.q().pow(chunk_len as u32);
        (0..rows as u64)
            .map(|addr| self.synthesize(chunk_len, addr))
            .collect()
    }

    /// Computes row `addr` for a chunk of `chunk_len` features directly
    /// from the level memory (Eq. 2).
    fn synthesize(&self, chunk_len: usize, addr: u64) -> DenseHv {
        let q = self.layout.q() as u64;
        let mut digits = vec![0usize; chunk_len];
        let mut a = addr;
        for d in digits.iter_mut().rev() {
            *d = (a % q) as usize;
            a /= q;
        }
        let mut acc = DenseHv::zeros(self.levels.dim());
        for (j, &lv) in digits.iter().enumerate() {
            acc.add_rotated_bipolar(self.levels.level(lv), j);
        }
        acc
    }

    fn table_index(&self, chunk: usize) -> usize {
        if self.layout.chunk_len(chunk) == self.layout.chunk_len(0) {
            0
        } else {
            1
        }
    }

    /// The encoded chunk hypervector for `addr` in chunk `chunk`.
    ///
    /// In `Materialized` mode this is a cheap clone of the stored row; in
    /// `OnTheFly` mode the row is synthesized (identical values).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `addr` is out of range.
    pub fn row(&self, chunk: usize, addr: u64) -> DenseHv {
        assert!(
            addr < self.layout.table_rows(chunk) as u64,
            "address {addr} out of range for chunk {chunk}"
        );
        match self.mode {
            TableMode::Materialized => self.tables[self.table_index(chunk)][addr as usize].clone(),
            TableMode::OnTheFly => self.synthesize(self.layout.chunk_len(chunk), addr),
        }
    }

    /// Accumulates `w · row(chunk, addr) ⊙ key` into `acc` without cloning
    /// the row in `Materialized` mode — the hot path shared by the encoder
    /// and the counter-training finalize step.
    ///
    /// # Panics
    ///
    /// Panics if `chunk`/`addr` are out of range or dimensions disagree.
    pub fn accumulate_row(
        &self,
        chunk: usize,
        addr: u64,
        key: &hdc::hv::BipolarHv,
        w: i32,
        acc: &mut DenseHv,
    ) {
        match self.mode {
            TableMode::Materialized => {
                let row = &self.tables[self.table_index(chunk)][addr as usize];
                acc.add_bound_scaled(key, row, w);
            }
            TableMode::OnTheFly => {
                let row = self.row(chunk, addr);
                acc.add_bound_scaled(key, &row, w);
            }
        }
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
    use hdc::hv::BipolarHv;
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
            lut.accumulate_row(1, 9, &key, 3, &mut acc);
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
        // shapes: 2^3 = 8 rows + 2^1 = 2 rows, 16 dims × 4 bytes each
        assert_eq!(lut.materialized_bytes(), (8 + 2) * 16 * 4);
    }
}
