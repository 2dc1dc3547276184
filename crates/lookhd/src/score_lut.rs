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
//! `T_i[c][j][lv] = (P'_c ⊙ P_i ⊙ ρ^j(L_lv)) · C`, each table entry is
//! `S_i[c][addr] = Σ_j T_i[c][j][digit_j(addr)]` — only `m·k·r·q` masked
//! dot products of length `D`, then `r` adds per entry.

use std::fmt;

use hdc::encoding::Encode;
use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;
use crate::compress::{
    serial_u32, signed_sum, CompressedModel, MAX_SERIAL_CLASSES, MAX_SERIAL_FEATURES, WHITEN_BITS,
};
use crate::encoder::LookupEncoder;

/// Ceiling on serialized/loaded score-LUT entries (2^27 ≈ 134M entries,
/// 1 GiB of `i64`) — same role as [`crate::compress::MAX_REGEN_ELEMENTS`]:
/// a corrupt header must not request a multi-GB allocation.
pub const MAX_SERIAL_SCORE_ENTRIES: usize = 1 << 27;

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

/// Why [`ScoreLut::build`] refused a model. `Budget` and `Bound` make
/// the model ineligible for the score-LUT:
/// [`build_kernel`](crate::score_kernel::build_kernel)'s Auto resolution
/// then serves it from the dense path, counted as
/// `kernel.fallback{reason=…}` under [`BuildError::fallback_reason`].
/// Each variant carries the error an explicit `lut` request surfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The tables exceed the byte budget or [`MAX_SERIAL_SCORE_ENTRIES`].
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
    /// Returns [`BuildError::Budget`] when the table would exceed
    /// `budget_bytes` or [`MAX_SERIAL_SCORE_ENTRIES`],
    /// [`BuildError::Bound`] when a worst-case column sum violates
    /// [`MAX_EXACT_SCORE`], and [`BuildError::Mismatch`] when the encoder
    /// and compressed model disagree on `D`.
    pub fn build(
        encoder: &LookupEncoder,
        compressed: &CompressedModel,
        budget_bytes: usize,
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
        let cap = (budget_bytes / std::mem::size_of::<i64>()).min(MAX_SERIAL_SCORE_ENTRIES);
        if total_entries > cap as u128 {
            return Err(BuildError::Budget(HdcError::invalid_config(
                "score_lut",
                format!(
                    "table needs {total_entries} entries ({} bytes) > cap {cap} \
                     ({budget_bytes}-byte budget)",
                    total_entries.saturating_mul(8)
                ),
            )));
        }
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
        // T[c][j][lv] laid out flat at c·(r_max·q) + j·q + lv; rebuilt per
        // chunk (only the first chunk_len·q slots per column are used).
        let mut t = vec![0i64; w * r_max * q];
        for chunk in 0..m {
            let chunk_len = layout.chunk_len(chunk);
            let rows = layout.table_rows(chunk);
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
                let base = c * r_max * q;
                for j in 0..chunk_len {
                    // The encoder's rotated levels ρ^j(L_lv).
                    for (lv, rot) in encoder.rotated_levels(j).iter().enumerate() {
                        t[base + j * q + lv] = signed_sum(weights, &sign.bind(rot));
                    }
                }
            }
            // Walk addresses 0..rows with a base-q odometer over the digit
            // vector (most-significant digit first, matching
            // `ChunkLayout::address`): the next address increments the
            // least-significant (last) digit with carry.
            let mut digits = vec![0usize; chunk_len];
            for _addr in 0..rows {
                for c in 0..w {
                    let base = c * r_max * q;
                    let mut s = 0i64;
                    for (j, &dg) in digits.iter().enumerate() {
                        s += t[base + j * q + dg];
                    }
                    debug_assert!(
                        s.abs() <= chunk_bound,
                        "chunk {chunk} partial score {s} exceeds bound {chunk_bound}"
                    );
                    entries.push(s);
                }
                for d in digits.iter_mut().rev() {
                    *d += 1;
                    if *d < q {
                        break;
                    }
                    *d = 0;
                }
            }
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

    /// Checks this kernel is consistent with the layout and compressed
    /// model it will serve — chunk count, per-chunk row counts, and the
    /// column count `k + n_directions()`. Used after deserialization,
    /// where the three sections arrive independently.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on any disagreement.
    pub fn validate_against(
        &self,
        layout: &ChunkLayout,
        compressed: &CompressedModel,
    ) -> Result<()> {
        if self.n_chunks() != layout.n_chunks() {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT has {} chunk tables, layout expects {}",
                self.n_chunks(),
                layout.n_chunks()
            )));
        }
        let expected = compressed.n_classes() + compressed.n_directions();
        if self.n_columns != expected {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT has {} columns, compressed model needs {} classes + {} direction(s)",
                self.n_columns,
                compressed.n_classes(),
                compressed.n_directions()
            )));
        }
        for i in 0..self.n_chunks() {
            if self.rows(i) != layout.table_rows(i) {
                return Err(HdcError::invalid_dataset(format!(
                    "score-LUT chunk {i} has {} rows, layout expects {}",
                    self.rows(i),
                    layout.table_rows(i)
                )));
            }
        }
        Ok(())
    }

    /// Serializes the kernel (`SLT1` format): chunk count, column count,
    /// per-chunk row counts, then the flat `i64` entries.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when a count exceeds the format
    /// caps (cannot happen for a kernel built by [`ScoreLut::build`]).
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        out.extend_from_slice(b"SLT1");
        let w32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        w32(
            &mut out,
            serial_u32("score-lut chunks", self.n_chunks(), MAX_SERIAL_FEATURES)?,
        );
        w32(
            &mut out,
            serial_u32("score-lut columns", self.n_columns, MAX_SERIAL_CLASSES + 1)?,
        );
        for i in 0..self.n_chunks() {
            out.extend_from_slice(&(self.rows(i) as u64).to_le_bytes());
        }
        for &e in &self.entries {
            out.extend_from_slice(&e.to_le_bytes());
        }
        Ok(out)
    }

    /// Deserializes a kernel written by [`ScoreLut::to_bytes`].
    ///
    /// Headers are validated against the remaining stream length and the
    /// [`MAX_SERIAL_SCORE_ENTRIES`] / [`crate::compress::MAX_SERIAL_CLASSES`]
    /// / [`crate::compress::MAX_SERIAL_FEATURES`] caps *before* any
    /// allocation, so a corrupt artifact errors instead of requesting a
    /// multi-GB buffer; trailing bytes are rejected with the offset.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] for a malformed, truncated, or
    /// over-long stream.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            if *pos + n > bytes.len() {
                return Err(HdcError::invalid_dataset("truncated score-LUT stream"));
            }
            let out = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(out)
        };
        if take(&mut pos, 4)? != b"SLT1" {
            return Err(HdcError::invalid_dataset(
                "bad magic: not an SLT1 score-LUT",
            ));
        }
        let u32v = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(
                take(pos, 4)?.try_into().expect("len checked"),
            ))
        };
        let m = u32v(&mut pos)? as usize;
        let w = u32v(&mut pos)? as usize;
        if m == 0 || m > MAX_SERIAL_FEATURES {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT chunk count {m} outside 1..={MAX_SERIAL_FEATURES}"
            )));
        }
        if w == 0 || w > MAX_SERIAL_CLASSES + 1 {
            return Err(HdcError::invalid_dataset(format!(
                "score-LUT column count {w} outside 1..={}",
                MAX_SERIAL_CLASSES + 1
            )));
        }
        // Row counts: 8 bytes each, checked against the remaining stream
        // before the loop allocates anything.
        if m.saturating_mul(8) > bytes.len() - pos {
            return Err(HdcError::invalid_dataset(
                "score-LUT stream too short for chunk row counts",
            ));
        }
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for i in 0..m {
            let rows = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("len checked"));
            if rows == 0 {
                return Err(HdcError::invalid_dataset(format!(
                    "score-LUT chunk {i} claims zero rows"
                )));
            }
            let chunk_entries = usize::try_from(rows)
                .ok()
                .and_then(|r| r.checked_mul(w))
                .and_then(|e| e.checked_add(total))
                .filter(|&e| e <= MAX_SERIAL_SCORE_ENTRIES)
                .ok_or_else(|| {
                    HdcError::invalid_dataset(format!(
                        "score-LUT chunk {i} pushes the entry count past the \
                         {MAX_SERIAL_SCORE_ENTRIES}-entry limit"
                    ))
                })?;
            total = chunk_entries;
            offsets.push(total);
        }
        if total.saturating_mul(8) > bytes.len() - pos {
            return Err(HdcError::invalid_dataset(
                "score-LUT stream too short for its entries",
            ));
        }
        let mut entries = Vec::with_capacity(total);
        for _ in 0..total {
            entries.push(i64::from_le_bytes(
                take(&mut pos, 8)?.try_into().expect("len checked"),
            ));
        }
        if pos != bytes.len() {
            return Err(HdcError::invalid_dataset(format!(
                "{} trailing byte(s) after score-LUT (offset {pos})",
                bytes.len() - pos
            )));
        }
        Ok(Self {
            entries,
            offsets,
            n_columns: w,
        })
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
                let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
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
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
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
        let (encoder, compressed) = setup(10, 5, 4, 64, 3, 12, 13);
        // 2 chunks × 1024 rows × 3 classes × 8 B = 49 KiB > 1 KiB budget.
        let err = ScoreLut::build(&encoder, &compressed, 1024).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        assert_eq!(err.fallback_reason(), Some("budget"));
        // An explicit `lut` request surfaces this error as is; only
        // `build_kernel`'s Auto arm falls back, so the text must not
        // claim a fallback.
        assert!(!err.to_string().contains("falling back"), "{err}");
        assert!(ScoreLut::build(&encoder, &compressed, 64 << 10).is_ok());
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
        let err = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap_err();
        assert!(err.to_string().contains("2^52"), "{err}");
        // Auto serves this model densely, counted under reason `bound`.
        assert_eq!(err.fallback_reason(), Some("bound"));
        let kernel = build_kernel(&encoder, &compressed, &KernelSpec::auto()).unwrap();
        assert_eq!(kernel, ScoreKernel::Dense);
    }

    #[test]
    fn address_validation_errors_cleanly() {
        let (encoder, compressed) = setup(10, 5, 4, 64, 3, 12, 19);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        assert!(lut.gather(&[0]).is_err()); // wrong count
        assert!(lut.gather(&[0, 1024]).is_err()); // addr ≥ rows
        assert!(lut.gather(&[0, 1023]).is_ok());
        // (addr + 1)·w overflows: an error, not a panic or a wrapped index.
        assert!(lut.gather(&[0, u64::MAX]).is_err());
        assert!(lut.gather(&[u64::MAX / 2, 0]).is_err());
        // The remainder chunk (3 features, 4^3 rows) ends at address 63.
        let (encoder, compressed) = setup(13, 5, 4, 64, 3, 12, 19);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        assert_eq!(lut.rows(2), 64);
        assert!(lut.gather(&[1023, 1023, 63]).is_ok());
        assert!(lut.gather(&[1023, 1023, 64]).is_err());
    }

    #[test]
    fn accessors_report_geometry() {
        let (encoder, compressed) = setup(13, 5, 2, 64, 4, 12, 23);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        assert_eq!(lut.n_chunks(), 3);
        assert_eq!(lut.n_columns(), 4);
        assert_eq!(lut.rows(0), 32);
        assert_eq!(lut.rows(2), 8); // remainder chunk: 3 features, 2^3
        assert_eq!(lut.size_bytes(), (32 + 32 + 8) * 4 * 8);
        lut.validate_against(encoder.layout(), &compressed).unwrap();
    }

    #[test]
    fn round_trips_through_bytes() {
        let (encoder, compressed) = setup(13, 5, 4, 128, 5, 3, 29);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        let bytes = lut.to_bytes().unwrap();
        let back = ScoreLut::from_bytes(&bytes).unwrap();
        assert_eq!(back, lut);
        back.validate_against(encoder.layout(), &compressed)
            .unwrap();
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let (encoder, compressed) = setup(10, 5, 2, 64, 3, 12, 31);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        let bytes = lut.to_bytes().unwrap();
        // Every truncation errors; trailing bytes error.
        for cut in 0..bytes.len() {
            assert!(
                ScoreLut::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} parsed"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(ScoreLut::from_bytes(&longer).is_err());
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(ScoreLut::from_bytes(&bad).is_err());
        // A row-count header lying about a huge table must be rejected
        // before allocation (chunk count at offset 4, rows at offset 12).
        let mut lying = bytes.clone();
        lying[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ScoreLut::from_bytes(&lying).is_err());
        // Byte flips never panic; survivors must stay usable.
        let addrs = encoder.addresses(&[0.5; 10]).unwrap();
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0xFF;
            if let Ok(back) = ScoreLut::from_bytes(&flipped) {
                let _ = back.gather(&addrs);
            }
        }
        let _ = compressed; // geometry partner kept alive for clarity
    }

    #[test]
    fn validate_against_catches_mismatches() {
        let (encoder, compressed) = setup(10, 5, 4, 64, 3, 12, 37);
        let lut = ScoreLut::build(&encoder, &compressed, usize::MAX).unwrap();
        let other_layout = ChunkLayout::new(15, 5, 4).unwrap();
        assert!(lut.validate_against(&other_layout, &compressed).is_err());
        let (_, other_k) = setup(10, 5, 4, 64, 5, 12, 37);
        assert!(lut.validate_against(encoder.layout(), &other_k).is_err());
        let wrong_rows = ChunkLayout::new(10, 5, 2).unwrap();
        assert!(lut.validate_against(&wrong_rows, &compressed).is_err());
        // The column count must be k + directions, in both directions: a
        // plain model's tables do not serve its whitened twin, and the
        // reverse.
        let (encoder, whitened) = setup_with(10, 5, 4, 64, 3, 12, 37, true);
        let whitened_lut = ScoreLut::build(&encoder, &whitened, usize::MAX).unwrap();
        whitened_lut
            .validate_against(encoder.layout(), &whitened)
            .unwrap();
        assert!(lut.validate_against(encoder.layout(), &whitened).is_err());
        assert!(whitened_lut
            .validate_against(encoder.layout(), &compressed)
            .is_err());
    }
}
