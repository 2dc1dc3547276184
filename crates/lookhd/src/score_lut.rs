//! Score-LUT inference kernel: fold class scoring into the lookup table.
//!
//! The dense compressed path (§IV, Eq. 5) materializes the query
//! hypervector `H = Σ_i P_i ⊙ LUT_i[addr_i]` (Eq. 3) and then scores each
//! class with a `D`-wide multiply-accumulate. But scoring is *linear* in
//! `H`, so the per-class score decomposes chunk by chunk:
//!
//! ```text
//! score_c(H) = Σ_d P'_c[d] · H[d] · C[d]
//!            = Σ_i (P'_c ⊙ C ⊙ P_i) · LUT_i[addr_i]
//!            = Σ_i S_i[c][addr_i]
//! ```
//!
//! where `C` is the combined vector holding class `c`. Every partial score
//! `S_i[c][addr]` depends only on the trained model, so it is precomputed
//! once at model-finalize time. Prediction is then address extraction
//! (quantize + concatenated-codebook addressing, shared with the encoder)
//! followed by `m` table-row gathers and `m·k` integer adds — no
//! hypervector is materialized on the query path. This applies the
//! paper's arithmetic-to-memory substitution (§III, §V) to the scoring
//! stage, and like the paper's hardware the query's cost is then memory
//! access: [`ScoreLut`] explains how the gather keeps a fresh query's row
//! loads overlapping.
//!
//! ## Exactness
//!
//! All quantities are integers and `i64` addition is associative, so the
//! gathered total equals the dense integer path *bit for bit* provided
//! nothing overflows. [`ScoreLut::build`] enforces
//! `D · max|C| · n ≤ 2^52`, which bounds every partial sum and keeps the
//! final scores exactly representable as `f64` — the dense path's return
//! type — so argmax and scores are identical, not merely close.
//!
//! ## Whitened models
//!
//! A decorrelated model scores `(score_c(H)·2^(2S) − p·G_c) / 2^(2S)`
//! with the integer projection `p = H·dir_fx` (see [`crate::compress`]).
//! `p` is linear in `H` too, so it splits per chunk exactly like the class
//! scores: each chunk table carries one more column,
//! `S_i[k][addr] = (dir_fx ⊙ P_i) · LUT_i[addr]`, built like a class
//! column with weight `dir_fx` under `P_i` alone. The gathered class
//! columns and projection go through `CompressedModel::finish_scores`, the
//! function the dense path finishes through. The projection column is
//! bounded like the class columns ([`check_projection_bound`]:
//! `D · n · 2^S ≤ 2^52`, since `|dir_fx[d]| ≤ 2^S`).
//!
//! ## Build cost
//!
//! The naive build (synthesize all `q^r` rows, bind, dot) costs
//! `O(m·k·q^r·D)`. Instead we use the row structure
//! `LUT(addr) = Σ_j ρ^j(L_{digit_j})`: with
//! `T_i[j][lv][c] = (P'_c ⊙ P_i ⊙ ρ^j(L_lv)) · C`, each table entry is
//! `S_i[c][addr] = Σ_j T_i[j][digit_j(addr)][c]` — only `w·n·q` masked
//! dot products of length `D` (at most [`MAX_BUILD_TERMS`] terms). The
//! rows are then filled a digit at a time: row `a·q + lv` of the first
//! `j + 1` digits is row `a` of the first `j` digits plus `T_i[j][lv]`,
//! about `q/(q−1)` row adds per row instead of `r`.
//!
//! ## Derived state
//!
//! The tables are a pure function of the encoder, which regenerates from
//! the seed, and the compressed model, so they are never persisted: an
//! `LKS1` artifact records only that the score-LUT serves, and loading
//! rebuilds the tables through the
//! [`build_kernel`](crate::score_kernel::build_kernel) call fit makes.
//! Every loaded score-LUT therefore scores exactly like its own dense
//! path.

use std::fmt;

use hdc::encoding::Encode;
use hdc::{HdcError, Result};

use crate::compress::{signed_sum, CompressedModel, WHITEN_BITS};
use crate::encoder::LookupEncoder;

/// Ceiling on the score-LUT's table bytes: 64 MiB holds the Table I
/// SPEECH shape (`124·26·4^5` entries, 26 MB) with room. A larger table
/// makes [`ScoreLut::build`] return [`BuildError::Budget`].
pub const MAX_TABLE_BYTES: usize = 64 << 20;

/// Ceiling on the terms a build sums: the digit tables `T` are `w·n·q`
/// signed sums of `D` terms. [`MAX_TABLE_BYTES`] bounds `w·n·q` below
/// `2^23` (`q^len ≥ len·q`) but not its product with `D`, which `LKS1`
/// allows up to `2^20`. `2^32` terms take about 0.85 s at the ~5·10^9
/// terms/s measured on SPEECH, which needs `2^27.0` at `D = 2000` and
/// `2^29.3` at `D = 10,000`. A larger build returns
/// [`BuildError::Budget`].
pub const MAX_BUILD_TERMS: u128 = 1 << 32;

/// Largest score magnitude the kernel accepts: `2^52`, chosen so every
/// partial sum fits `i64` with headroom *and* round-trips `i64 → f64`
/// exactly (f64 mantissa is 53 bits). The dense path returns scores as
/// `f64`, so this bound is what makes the two paths bit-identical rather
/// than approximately equal.
pub const MAX_EXACT_SCORE: i64 = 1 << 52;

/// Rejects a model whose worst-case score `D · max|C| · n` could exceed
/// [`MAX_EXACT_SCORE`]. Every per-chunk partial score is bounded by
/// `D · max|C| · r` and the full score by `D · max|C| · n`, so this single
/// product check covers both the `i64` accumulation and the exact-`f64`
/// representability of the result.
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] when the bound is exceeded (or the
/// bound computation itself overflows).
pub fn check_exact_score_bound(dim: usize, max_abs_combined: i64, n_features: usize) -> Result<()> {
    check_column_bound("D·max|C|·n", dim, max_abs_combined, n_features)
}

/// Rejects a whitened model whose projection column could exceed
/// [`MAX_EXACT_SCORE`]: its weights `dir_fx` are bounded by `2^S`
/// ([`WHITEN_BITS`]) for a unit direction, so the worst case is
/// `D · 2^S · n` — `D·n ≤ 2^28` at `S = 24` (SPEECH: `2000·617 ≈ 2^20.2`).
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] when the bound is exceeded.
pub fn check_projection_bound(dim: usize, n_features: usize) -> Result<()> {
    check_column_bound("projection D·2^S·n", dim, 1 << WHITEN_BITS, n_features)
}

fn check_column_bound(
    what: &str,
    dim: usize,
    max_abs_weight: i64,
    n_features: usize,
) -> Result<()> {
    let bound = (dim as i64)
        .checked_mul(max_abs_weight)
        .and_then(|v| v.checked_mul(n_features as i64));
    match bound {
        Some(b) if b <= MAX_EXACT_SCORE => Ok(()),
        _ => Err(HdcError::invalid_config(
            "score_lut",
            format!(
                "worst-case {what} = {dim}·{max_abs_weight}·{n_features} \
                 exceeds the exact-integer bound 2^52"
            ),
        )),
    }
}

/// Rejects a build whose digit tables need more than [`MAX_BUILD_TERMS`]
/// terms (`w·n·q` signed sums of `D` terms), as [`BuildError::Budget`].
fn check_build_terms(
    w: usize,
    n_features: usize,
    q: usize,
    dim: usize,
) -> std::result::Result<(), BuildError> {
    let terms = [w, n_features, q, dim]
        .iter()
        .fold(1u128, |acc, &x| acc.saturating_mul(x as u128));
    if terms > MAX_BUILD_TERMS {
        return Err(BuildError::Budget(HdcError::invalid_config(
            "score_lut",
            format!(
                "table build needs {w}·{n_features}·{q}·{dim} = {terms} terms, \
                 over the 2^32-term budget"
            ),
        )));
    }
    Ok(())
}

/// Why [`ScoreLut::build`] refused a model. `Budget` and `Bound` make
/// the model ineligible for the score-LUT:
/// [`build_kernel`](crate::score_kernel::build_kernel)'s Auto resolution
/// then serves it from the dense path, counted as
/// `kernel.fallback{reason=…}` under [`BuildError::fallback_reason`].
/// Each variant carries the error an explicit `lut` request surfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The tables exceed [`MAX_TABLE_BYTES`] or their build
    /// [`MAX_BUILD_TERMS`].
    Budget(HdcError),
    /// A worst-case class or projection column sum exceeds
    /// [`MAX_EXACT_SCORE`].
    Bound(HdcError),
    /// The encoder and compressed model disagree on `D`; no kernel can
    /// serve that pair, so Auto does not fall back either.
    Mismatch(HdcError),
}

impl BuildError {
    /// The `reason` label of Auto's dense fallback (`"budget"` or
    /// `"bound"`), `None` for [`BuildError::Mismatch`].
    pub fn fallback_reason(&self) -> Option<&'static str> {
        match self {
            BuildError::Budget(_) => Some("budget"),
            BuildError::Bound(_) => Some("bound"),
            BuildError::Mismatch(_) => None,
        }
    }
}

impl From<BuildError> for HdcError {
    fn from(err: BuildError) -> Self {
        match err {
            BuildError::Budget(e) | BuildError::Bound(e) | BuildError::Mismatch(e) => e,
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Budget(e) | BuildError::Bound(e) | BuildError::Mismatch(e) => e.fmt(f),
        }
    }
}

/// Widest accumulator group of [`ScoreLut::gather`]: 16 `i64` lanes fill
/// eight SSE2 registers, half of x86-64's sixteen, so a group's sums
/// never leave registers.
const LANES: usize = 16;

/// The precomputed per-chunk partial-score tables: one column per class,
/// `S_i[c][addr] = (P'_c ⊙ C ⊙ P_i) · LUT_i[addr]`, plus for a whitened
/// model one projection column `S_i[k][addr] = (dir_fx ⊙ P_i) · LUT_i[addr]`.
///
/// Storage is one flat `i64` vector, chunk-major then address-major then
/// column-minor: the entry for `(chunk i, addr, column c)` lives at
/// `offsets[i] + addr·w + c` for `w` columns, so one prediction reads one
/// contiguous `w`-entry row from each of the `m` chunk tables.
///
/// A fresh query's rows are not in cache, so its cost is memory latency
/// (SPEECH: 124 rows of 26 or 27 columns), and it is low only when the
/// row loads overlap. [`ScoreLut::gather`] therefore sums the columns in
/// groups of at most 16 lanes whose width is a const generic: SPEECH's
/// 26 columns go 16 + 10, the whitened model's 27 go 16 + 11. A group's
/// accumulators stay in registers across one pass over the `m` rows, so
/// no row's adds wait on the previous row's stores and the loads start
/// back to back; the second pass finds the rows already cached. Sums
/// kept in a run-time-length buffer would put every add through memory,
/// and 8-lane groups with a run-time tail, one 32-lane pass over a
/// zero-padded table end or rows padded to a multiple of 4 lanes all
/// measured slower with the caches cold. Narrower entries do not help
/// either: `i32` tables ran as fast as `i64`, since the limit is latency
/// per row, not bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreLut {
    /// Flat partial scores (see struct docs for the layout).
    entries: Vec<i64>,
    /// Entry offset of each chunk's table; length `m + 1`, so chunk `i`
    /// spans `offsets[i]..offsets[i+1]` and holds `rows_i · w` entries.
    offsets: Vec<usize>,
    /// Columns per row: `k` classes plus the model's directions.
    n_columns: usize,
}

impl ScoreLut {
    /// Precomputes the kernel from a fitted encoder and compressed model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Budget`] when the tables would exceed
    /// [`MAX_TABLE_BYTES`] or their build [`MAX_BUILD_TERMS`],
    /// [`BuildError::Bound`] when a worst-case column sum violates
    /// [`MAX_EXACT_SCORE`], and [`BuildError::Mismatch`] when the encoder
    /// and compressed model disagree on `D`.
    pub fn build(
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
    ) -> std::result::Result<Self, BuildError> {
        let _span = obs::span("score_lut_build");
        let dim = encoder.dim();
        if dim != compressed.dim() {
            return Err(BuildError::Mismatch(HdcError::DimensionMismatch {
                expected: compressed.dim(),
                actual: dim,
            }));
        }
        let layout = *encoder.layout();
        let k = compressed.n_classes();
        let direction = compressed.direction_fixed();
        let w = k + compressed.n_directions();
        let total_entries = (w as u128).saturating_mul(layout.total_table_rows());
        if total_entries.saturating_mul(8) > MAX_TABLE_BYTES as u128 {
            return Err(BuildError::Budget(HdcError::invalid_config(
                "score_lut",
                format!(
                    "table needs {total_entries} entries ({} bytes), over the \
                     {MAX_TABLE_BYTES}-byte budget",
                    total_entries.saturating_mul(8)
                ),
            )));
        }
        check_build_terms(w, layout.n_features(), layout.q(), dim)?;
        let max_abs = (0..compressed.n_vectors())
            .map(|g| compressed.combined(g).max_abs() as i64)
            .max()
            .unwrap_or(0);
        check_exact_score_bound(dim, max_abs, layout.n_features()).map_err(BuildError::Bound)?;
        if direction.is_some() {
            check_projection_bound(dim, layout.n_features()).map_err(BuildError::Bound)?;
        }

        let m = layout.n_chunks();
        let q = layout.q();
        let r_max = layout.chunk_len(0);
        let combined_i64: Vec<Vec<i64>> = (0..compressed.n_vectors())
            .map(|g| {
                compressed
                    .combined(g)
                    .as_slice()
                    .iter()
                    .map(|&v| v as i64)
                    .collect()
            })
            .collect();
        // Per-chunk entry bound for the debug overflow check below.
        let max_weight = if direction.is_some() {
            max_abs.max(1 << WHITEN_BITS)
        } else {
            max_abs
        };
        let chunk_bound = (dim as i64) * max_weight * (r_max as i64);

        let mut entries = Vec::with_capacity(total_entries as usize);
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        // T[j][lv] is a row of w columns, laid out flat at (j·q + lv)·w;
        // rebuilt per chunk (only the first chunk_len·q rows are used).
        let mut t = vec![0i64; r_max * q * w];
        let mut old_row = vec![0i64; w];
        for chunk in 0..m {
            let chunk_len = layout.chunk_len(chunk);
            let p_i = encoder.positions().key(chunk);
            for c in 0..w {
                // Class columns weigh `C` under `P'_c ⊙ P_i`; the
                // projection column weighs `dir_fx` under `P_i` alone.
                let (sign, weights) = match direction {
                    Some(dir) if c == k => (p_i.clone(), dir),
                    _ => (
                        compressed.key(c).bind(p_i),
                        combined_i64[compressed.group_of(c)].as_slice(),
                    ),
                };
                for j in 0..chunk_len {
                    // The encoder's rotated levels ρ^j(L_lv).
                    for (lv, rot) in encoder.rotated_levels(j).iter().enumerate() {
                        t[(j * q + lv) * w + c] = signed_sum(weights, &sign.bind(rot));
                    }
                }
            }
            // Fill the chunk's rows a digit at a time, most-significant
            // first like `ChunkLayout::address`: row `a·q + lv` of the
            // first `j + 1` digits is row `a` of the first `j` plus
            // `T[j][lv]`. Rows `a·q..a·q + q` all lie at or past row `a`,
            // so walking `a` from the back reads every row of the shorter
            // prefix before a longer one overwrites it. The one row of no
            // digits is all zeros.
            let start = entries.len();
            entries.resize(start + layout.table_rows(chunk) * w, 0);
            let table = &mut entries[start..];
            let mut rows = 1;
            for j in 0..chunk_len {
                for a in (0..rows).rev() {
                    old_row.copy_from_slice(&table[a * w..(a + 1) * w]);
                    for lv in 0..q {
                        let dst = (a * q + lv) * w;
                        let t_row = &t[(j * q + lv) * w..(j * q + lv + 1) * w];
                        for ((e, &o), &d) in table[dst..dst + w].iter_mut().zip(&old_row).zip(t_row)
                        {
                            *e = o + d;
                        }
                    }
                }
                rows *= q;
            }
            debug_assert!(
                table.iter().all(|s| s.abs() <= chunk_bound),
                "chunk {chunk} has a partial score over the bound {chunk_bound}"
            );
            offsets.push(entries.len());
        }
        Ok(Self {
            entries,
            offsets,
            n_columns: w,
        })
    }

    /// Per-column integer sums for pre-extracted chunk addresses: `m` row
    /// gathers and `m·w` adds. The first `k` columns are the base class
    /// scores, a last one the query's projection.
    ///
    /// Every address is range-checked first. The columns are then summed
    /// in groups of at most 16 lanes, one pass over the `m` addressed
    /// rows per group (see the struct docs for why).
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] when the address count differs
    /// from `m` or an address exceeds its chunk's table.
    pub fn gather(&self, addrs: &[u64]) -> Result<Vec<i64>> {
        let _span = obs::span("score_lut");
        obs::counter("kernel.lut.queries", 1);
        let m = self.n_chunks();
        if addrs.len() != m {
            return Err(HdcError::invalid_dataset(format!(
                "expected {m} chunk addresses, got {}",
                addrs.len()
            )));
        }
        let w = self.n_columns;
        for (i, (&addr, span)) in addrs.iter().zip(self.offsets.windows(2)).enumerate() {
            // Row `addr` ends at entry `(addr + 1)·w` of its chunk; checked,
            // so a hostile address errors instead of wrapping into range.
            let end = usize::try_from(addr)
                .ok()
                .and_then(|a| a.checked_add(1))
                .and_then(|a| a.checked_mul(w));
            if end.is_none_or(|end| end > span[1] - span[0]) {
                return Err(HdcError::invalid_dataset(format!(
                    "address {addr} out of range for chunk {i} ({} rows)",
                    self.rows(i)
                )));
            }
        }
        let mut sums = vec![0i64; w];
        let (full, tail) = sums.split_at_mut(w - w % LANES);
        for (group, out) in full.chunks_exact_mut(LANES).enumerate() {
            out.copy_from_slice(&self.gather_lanes::<LANES>(addrs, group * LANES));
        }
        let col = full.len();
        // The tail group's width is a const generic too, so its
        // accumulators stay in registers like a full group's.
        macro_rules! gather_tail {
            ($($lanes:literal)*) => {
                match tail.len() {
                    0 => {}
                    $($lanes => tail.copy_from_slice(&self.gather_lanes::<$lanes>(addrs, col)),)*
                    _ => unreachable!("the tail group is narrower than LANES"),
                }
            };
        }
        gather_tail!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
        obs::counter("kernel.lut.table_reads", m as u64);
        Ok(sums)
    }

    /// Sums columns `col..col + L` over the rows `addrs` select: one pass
    /// over the `m` rows into `L` accumulators the compiler keeps in
    /// registers. [`ScoreLut::gather`] has range-checked every address.
    fn gather_lanes<const L: usize>(&self, addrs: &[u64], col: usize) -> [i64; L] {
        let w = self.n_columns;
        let mut acc = [0i64; L];
        for (&start, &addr) in self.offsets.iter().zip(addrs) {
            let at = start + addr as usize * w + col;
            let row: &[i64; L] = self.entries[at..at + L]
                .try_into()
                .expect("a range of L entries");
            for (a, &v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        acc
    }

    /// Per-class scores, finished by `CompressedModel::finish_scores` from
    /// the gathered class columns and projection (the function the dense
    /// path finishes through) — exactly equal to the dense path's output.
    ///
    /// # Errors
    ///
    /// Same as [`ScoreLut::gather`], plus [`HdcError::InvalidDataset`]
    /// when the column count is not `compressed`'s `k + n_directions()`.
    pub fn scores(&self, compressed: &CompressedModel, addrs: &[u64]) -> Result<Vec<f64>> {
        let mut columns = self.gather(addrs)?;
        let k = compressed.n_classes();
        if columns.len() != k + compressed.n_directions() {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT has {} columns, the model needs {k} classes + {} direction(s)",
                columns.len(),
                compressed.n_directions()
            )));
        }
        let projection = columns.get(k).copied().unwrap_or(0);
        columns.truncate(k);
        Ok(compressed.finish_scores(columns, projection))
    }

    /// Number of chunk tables `m`.
    pub fn n_chunks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of columns per table row: `k` classes plus the model's
    /// directions (one projection column for a whitened model).
    pub fn n_columns(&self) -> usize {
        self.n_columns
    }

    /// Table rows of chunk `i` (`q^len(i)`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_chunks()`.
    pub fn rows(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) / self.n_columns
    }

    /// Bytes held by the precomputed tables.
    pub fn size_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<i64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::classify::argmax_margin;
    use hdc::encoding::Encode;
    use hdc::hv::DenseHv;
    use hdc::levels::LevelMemory;
    use hdc::model::ClassModel;
    use hdc::quantize::{Quantization, Quantizer};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use crate::chunking::ChunkLayout;
    use crate::compress::CompressionConfig;
    use crate::score_kernel::{build_kernel, KernelSpec, ScoreKernel};

    /// A fitted encoder + compressed model pair over random classes.
    fn setup(
        n: usize,
        r: usize,
        q: usize,
        dim: usize,
        k: usize,
        group: usize,
        seed: u64,
    ) -> (LookupEncoder, CompressedModel) {
        setup_with(n, r, q, dim, k, group, seed, false)
    }

    /// [`setup`] with decorrelation (and so query whitening) chosen.
    #[allow(clippy::too_many_arguments)]
    fn setup_with(
        n: usize,
        r: usize,
        q: usize,
        dim: usize,
        k: usize,
        group: usize,
        seed: u64,
        decorrelate: bool,
    ) -> (LookupEncoder, CompressedModel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..500).map(|i| i as f64 / 500.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        let encoder = LookupEncoder::new(layout, &levels, quantizer, seed).unwrap();
        let classes = (0..k)
            .map(|_| DenseHv::from_vec((0..dim).map(|_| rng.gen_range(-30..=30)).collect()))
            .collect();
        let model = ClassModel::from_classes(classes).unwrap();
        let config = CompressionConfig::new()
            .with_decorrelate(decorrelate)
            .with_max_classes_per_vector(group);
        let compressed = CompressedModel::compress(&model, &config).unwrap();
        (encoder, compressed)
    }

    fn random_features(n: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    /// The core exactness contract: for random models (remainder chunks,
    /// multi-group class packing and whitening included), the kernel's
    /// scores equal the dense path's f64 scores exactly and the argmax is
    /// identical. The class counts also pin every split of the `w = k` or
    /// `k + 1` columns into 16-lane gather groups: one partial group,
    /// exactly one full group, a full group plus a tail, and two full
    /// groups plus a tail.
    #[test]
    fn kernel_scores_match_dense_path_exactly() {
        for decorrelate in [false, true] {
            for (n, r, q, dim, k, group) in [
                (10, 5, 4, 128, 3, 12),
                (13, 5, 4, 200, 7, 3),  // remainder chunk + multiple groups
                (23, 4, 2, 64, 26, 12), // many classes, 3 groups
                (11, 4, 3, 64, 2, 12),  // w = 2 | 3: one partial group
                (11, 4, 3, 64, 15, 12), // w = 15 | 16: partial, one full group
                (11, 4, 3, 64, 16, 12), // w = 16 | 17: one full, full + tail
                (11, 4, 3, 64, 17, 12), // w = 17 | 18: a full group + a tail
                (11, 4, 3, 64, 33, 12), // w = 33 | 34: two full groups + a tail
            ] {
                let (encoder, compressed) =
                    setup_with(n, r, q, dim, k, group, 42 + n as u64, decorrelate);
                assert_eq!(compressed.n_directions(), usize::from(decorrelate));
                let lut = ScoreLut::build(&encoder, &compressed).unwrap();
                assert_eq!(lut.n_columns(), k + compressed.n_directions());
                let mut rng = StdRng::seed_from_u64(7);
                for _ in 0..25 {
                    let features = random_features(n, &mut rng);
                    let addrs = encoder.addresses(&features).unwrap();
                    let h = encoder.encode(&features).unwrap();
                    let dense = compressed.scores(&h).unwrap();
                    let fast = lut.scores(&compressed, &addrs).unwrap();
                    assert_eq!(fast, dense, "scores diverged (n={n}, k={k})");
                    assert_eq!(
                        argmax_margin(&fast).0,
                        compressed.predict(&h).unwrap(),
                        "argmax diverged (n={n}, k={k})"
                    );
                    if decorrelate {
                        // The projection column gathers `H·dir_fx`.
                        assert_eq!(lut.gather(&addrs).unwrap()[k], compressed.projection(&h));
                    }
                }
            }
        }
    }

    /// The dense integer scores are whole numbers; the kernel reproduces
    /// them in i64 without any f64 round-trip.
    #[test]
    fn kernel_scores_are_exact_integers() {
        let (encoder, compressed) = setup(13, 5, 4, 200, 5, 12, 5);
        let lut = ScoreLut::build(&encoder, &compressed).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let features = random_features(13, &mut rng);
        let addrs = encoder.addresses(&features).unwrap();
        let ints = lut.gather(&addrs).unwrap();
        let floats = lut.scores(&compressed, &addrs).unwrap();
        let dense = compressed
            .scores(&encoder.encode(&features).unwrap())
            .unwrap();
        for ((i, f), d) in ints.iter().zip(&floats).zip(&dense) {
            assert_eq!(*i as f64, *f);
            assert_eq!(*f, *d);
            assert_eq!(d.fract(), 0.0);
        }
    }

    #[test]
    fn projection_bound_is_pinned_at_its_edge() {
        // D·2^24·n ≤ 2^52 ⇔ D·n ≤ 2^28: exactly at the bound is accepted,
        // one feature or one dimension past is not.
        assert!(check_projection_bound(1 << 10, 1 << 18).is_ok());
        assert!(check_projection_bound(1 << 10, (1 << 18) + 1).is_err());
        assert!(check_projection_bound((1 << 18) + 1, 1 << 10).is_err());
        // SPEECH (D = 2000, n = 617) sits at 2^44.2.
        assert!(check_projection_bound(2000, 617).is_ok());
        let err = check_projection_bound(1 << 20, 1 << 20).unwrap_err();
        assert!(err.to_string().contains("projection"), "{err}");
    }

    #[test]
    fn rejects_budget_overflow() {
        // 3 chunks × 16^5 rows × 3 classes × 8 B = 72 MiB > 64 MiB.
        let (encoder, compressed) = setup(15, 5, 16, 64, 3, 12, 13);
        let err = ScoreLut::build(&encoder, &compressed).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        assert_eq!(err.fallback_reason(), Some("budget"));
        // An explicit `lut` request surfaces this error as is; only
        // `build_kernel`'s Auto arm falls back, so the text must not
        // claim a fallback.
        assert!(!err.to_string().contains("falling back"), "{err}");
        // One feature fewer drops a chunk to 16^4 rows: 48.2 MiB fits.
        let (encoder, compressed) = setup(14, 5, 16, 64, 3, 12, 13);
        assert!(ScoreLut::build(&encoder, &compressed).is_ok());
    }

    #[test]
    fn build_work_bound_is_pinned_at_its_edge() {
        // w·n·q·D ≤ 2^32: exactly at the bound is accepted, one dimension
        // or one feature past is not, and the refusal is a budget one.
        assert!(check_build_terms(1, 1 << 10, 4, 1 << 20).is_ok());
        for (w, n) in [(1, 1 << 10), (4, 1 << 8)] {
            let past = check_build_terms(w, n, 4, (1 << 20) + 1).unwrap_err();
            assert_eq!(past.fallback_reason(), Some("budget"));
            assert!(past.to_string().contains("terms"), "{past}");
        }
        assert!(check_build_terms(1, (1 << 10) + 1, 4, 1 << 20).is_err());
        // SPEECH (n = 617, q = 4, k = 26 plus a projection column) needs
        // 2^27.0 terms at D = 2000 and 2^29.3 at D = 10,000.
        assert!(check_build_terms(27, 617, 4, 2000).is_ok());
        assert!(check_build_terms(27, 617, 4, 10_000).is_ok());
        // Products past u128 saturate instead of wrapping into range.
        assert!(check_build_terms(usize::MAX, usize::MAX, usize::MAX, 2).is_err());
    }

    /// The digit-at-a-time fill against the definition, on every row of
    /// small layouts (remainder chunks and whitening included):
    /// `S_i[c][addr] = (P'_c ⊙ C ⊙ P_i) · Σ_j ρ^j(L_{digit_j(addr)})`,
    /// and `dir_fx` under `P_i` alone for the projection column.
    #[test]
    fn every_table_row_matches_its_definition() {
        for decorrelate in [false, true] {
            for (n, r, q, k) in [(7, 3, 3, 4), (5, 5, 2, 2), (9, 4, 4, 3)] {
                let (encoder, compressed) = setup_with(n, r, q, 96, k, 2, 61, decorrelate);
                let lut = ScoreLut::build(&encoder, &compressed).unwrap();
                let w = lut.n_columns();
                let layout = encoder.layout();
                let sign = |neg: bool| if neg { -1i64 } else { 1 };
                for chunk in 0..layout.n_chunks() {
                    let len = layout.chunk_len(chunk);
                    let p_i = encoder.positions().key(chunk);
                    for addr in 0..lut.rows(chunk) {
                        // Digits most-significant first, as addressed.
                        let digits: Vec<usize> = (0..len)
                            .map(|j| addr / q.pow((len - 1 - j) as u32) % q)
                            .collect();
                        let row: Vec<i64> = (0..96)
                            .map(|d| {
                                (0..len)
                                    .map(|j| {
                                        sign(encoder.rotated_levels(j)[digits[j]].is_negative(d))
                                    })
                                    .sum()
                            })
                            .collect();
                        let at = lut.offsets[chunk] + addr * w;
                        for (c, &got) in lut.entries[at..at + w].iter().enumerate() {
                            let want: i64 = (0..96)
                                .map(|d| {
                                    let weight = match compressed.direction_fixed() {
                                        Some(dir) if c == k => dir[d],
                                        _ => {
                                            let group = compressed.combined(compressed.group_of(c));
                                            sign(compressed.key(c).is_negative(d))
                                                * i64::from(group.as_slice()[d])
                                        }
                                    };
                                    sign(p_i.is_negative(d)) * weight * row[d]
                                })
                                .sum();
                            assert_eq!(got, want, "chunk {chunk} addr {addr} column {c}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn score_bound_check_rejects_oversized_products() {
        assert!(check_exact_score_bound(2000, 1000, 617).is_ok());
        assert!(check_exact_score_bound(1 << 20, 1 << 20, 1 << 20).is_err());
        // Exactly at the bound is accepted, one past is not.
        assert!(check_exact_score_bound(1 << 26, 1 << 26, 1).is_ok());
        assert!(check_exact_score_bound(1 << 26, (1 << 26) + 1, 1).is_err());
    }

    #[test]
    fn build_rejects_out_of_bound_scores() {
        let mut rng = StdRng::seed_from_u64(17);
        // Average-norm scaling leaves the one nonzero class at its own
        // norm, so |C| = 2^26 per dim and the worst-case score is
        // D·2^26·n. With D=1024 and n=2^17 that is 2^53 > 2^52.
        let dim = 1024;
        let n = 1 << 17;
        let levels = LevelMemory::generate(dim, 2, &mut rng).unwrap();
        let quantizer = Quantizer::fit(Quantization::Linear, &[0.0, 1.0], 2).unwrap();
        let layout = ChunkLayout::new(n, 8, 2).unwrap();
        let encoder = LookupEncoder::new(layout, &levels, quantizer, 17).unwrap();
        let classes = vec![DenseHv::from_vec(vec![1 << 26; dim]), DenseHv::zeros(dim)];
        let model = ClassModel::from_classes(classes).unwrap();
        let config = CompressionConfig::new().with_decorrelate(false);
        let compressed = CompressedModel::compress(&model, &config).unwrap();
        let err = ScoreLut::build(&encoder, &compressed).unwrap_err();
        assert!(err.to_string().contains("2^52"), "{err}");
        // Auto serves this model densely, counted under reason `bound`.
        assert_eq!(err.fallback_reason(), Some("bound"));
        let kernel = build_kernel(&encoder, &compressed, &KernelSpec::auto()).unwrap();
        assert_eq!(kernel, ScoreKernel::Dense);
    }

    #[test]
    fn address_validation_errors_cleanly() {
        let (encoder, compressed) = setup(10, 5, 4, 64, 3, 12, 19);
        let lut = ScoreLut::build(&encoder, &compressed).unwrap();
        assert!(lut.gather(&[0]).is_err()); // wrong count
        assert!(lut.gather(&[0, 1024]).is_err()); // addr ≥ rows
        assert!(lut.gather(&[0, 1023]).is_ok());
        // (addr + 1)·w overflows: an error, not a panic or a wrapped index.
        assert!(lut.gather(&[0, u64::MAX]).is_err());
        assert!(lut.gather(&[u64::MAX / 2, 0]).is_err());
        // The remainder chunk (3 features, 4^3 rows) ends at address 63.
        let (encoder, compressed) = setup(13, 5, 4, 64, 3, 12, 19);
        let lut = ScoreLut::build(&encoder, &compressed).unwrap();
        assert_eq!(lut.rows(2), 64);
        assert!(lut.gather(&[1023, 1023, 63]).is_ok());
        assert!(lut.gather(&[1023, 1023, 64]).is_err());
    }

    #[test]
    fn accessors_report_geometry() {
        let (encoder, compressed) = setup(13, 5, 2, 64, 4, 12, 23);
        let lut = ScoreLut::build(&encoder, &compressed).unwrap();
        assert_eq!(lut.n_chunks(), 3);
        assert_eq!(lut.n_columns(), 4);
        assert_eq!(lut.rows(0), 32);
        assert_eq!(lut.rows(2), 8); // remainder chunk: 3 features, 2^3
        assert_eq!(lut.size_bytes(), (32 + 32 + 8) * 4 * 8);
    }
}
