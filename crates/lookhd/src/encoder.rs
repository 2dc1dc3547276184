//! The LookHD lookup-based encoder (§III, Fig. 5/6, Eq. 3).
//!
//! Encoding a feature vector proceeds in three steps:
//!
//! 1. quantize each feature to a `⌈log2 q⌉`-bit codebook;
//! 2. concatenate the codebooks of each chunk into a direct address of
//!    the pre-stored chunk hypervector `H_i = Σ_j ρ^j(L_{lv_j})` (Eq. 2);
//! 3. aggregate the chunks with random bipolar *position* hypervectors:
//!    `H = P_1 ⊙ H_1 + P_2 ⊙ H_2 + … + P_m ⊙ H_m`.
//!
//! On the FPGA step 2 is one BRAM access per chunk. On a CPU no chunk
//! table is stored: every row is `Σ_j ρ^j(L_lv)`, so
//! [`LookupEncoder::encode`] computes the same integers from the terms of
//! Eq. 3, each feature adding the bipolar pair `P_c ⊙ ρ^j(L_lv)`, and the
//! `r·q` rotated level vectors and the `m` position keys are small enough
//! to stay cached. Counter finalize sums the same pairs weighted by
//! per-feature level counts ([`crate::trainer`]). The chunk addresses
//! (step 2) are what the score-LUT kernel reads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hdc::encoding::Encode;
use hdc::hv::{sum_bound_pairs, BipolarHv, DenseHv};
use hdc::levels::LevelMemory;
use hdc::quantize::Quantizer;
use hdc::{HdcError, Result};

use crate::chunking::ChunkLayout;

/// The set of `m` random bipolar position hypervectors `P_1..P_m` that
/// preserve chunk order during aggregation (Eq. 3).
#[derive(Debug, Clone)]
pub struct PositionKeys {
    keys: Vec<BipolarHv>,
}

impl PositionKeys {
    /// Generates `m` independent random bipolar keys of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `dim == 0`.
    pub fn generate<R: Rng + ?Sized>(m: usize, dim: usize, rng: &mut R) -> Self {
        assert!(m > 0, "need at least one position key");
        Self {
            keys: (0..m).map(|_| BipolarHv::random(dim, rng)).collect(),
        }
    }

    /// The key `P_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn key(&self, i: usize) -> &BipolarHv {
        &self.keys[i]
    }

    /// Number of keys `m`.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when there are no keys (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Maximum absolute pairwise cosine among the keys — the orthogonality
    /// quality that bounds chunk-aggregation cross-talk (§III-A).
    pub fn max_cross_correlation(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for i in 0..self.keys.len() {
            for j in (i + 1)..self.keys.len() {
                worst = worst.max(self.keys[i].cosine(&self.keys[j]).abs());
            }
        }
        worst
    }
}

/// The LookHD encoder: quantize → address → keyed aggregation of the
/// chunk hypervectors (Eq. 3).
///
/// Implements the same [`Encode`] trait as the baseline
/// [`hdc::encoding::PermutationEncoder`], so trainers and classifiers can
/// use either interchangeably.
///
/// # Examples
///
/// ```
/// use hdc::encoding::Encode;
/// use hdc::levels::LevelMemory;
/// use hdc::quantize::{Quantization, Quantizer};
/// use lookhd::chunking::ChunkLayout;
/// use lookhd::encoder::LookupEncoder;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let levels = LevelMemory::generate(256, 4, &mut rng)?;
/// let samples: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
/// let quantizer = Quantizer::fit(Quantization::Equalized, &samples, 4)?;
/// let layout = ChunkLayout::new(10, 5, 4)?;
/// let enc = LookupEncoder::new(layout, &levels, quantizer, 7)?;
/// let h = enc.encode(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95])?;
/// assert_eq!(h.dim(), 256);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LookupEncoder {
    layout: ChunkLayout,
    quantizer: Quantizer,
    positions: PositionKeys,
    /// `ρ^j(L_lv)` at `j·q + lv`, for every position `j < r` in a chunk
    /// and level `lv < q`.
    rotated: Vec<BipolarHv>,
}

impl LookupEncoder {
    /// Builds the encoder. `seed` determines the position hypervectors
    /// (the level memory carries its own randomness). The rotated level
    /// vectors `ρ^j(L_lv)` are derived from `levels` here, once; the
    /// level memory itself is not kept.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] when the quantizer's or the
    /// level memory's `q` differs from the layout's.
    pub fn new(
        layout: ChunkLayout,
        levels: &LevelMemory,
        quantizer: Quantizer,
        seed: u64,
    ) -> Result<Self> {
        for (what, q) in [
            ("quantizer", quantizer.levels()),
            ("level memory", levels.levels()),
        ] {
            if q != layout.q() {
                return Err(HdcError::invalid_config(
                    "q",
                    format!("{what} has {q} levels but layout expects q={}", layout.q()),
                ));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = PositionKeys::generate(layout.n_chunks(), levels.dim(), &mut rng);
        let rotated = (0..layout.r())
            .flat_map(|j| levels.iter().map(move |level| level.rotated(j)))
            .collect();
        Ok(Self {
            layout,
            quantizer,
            positions,
            rotated,
        })
    }

    /// Quantizes a feature vector into per-chunk table addresses — the
    /// codebook-concatenation step (Fig. 6 steps A–C). This is all the
    /// per-sample work counter-based training performs.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidDataset`] on feature-arity mismatch or
    /// a non-finite feature (NaN or ±inf has no quantization level),
    /// naming the first offending feature index.
    pub fn addresses(&self, features: &[f64]) -> Result<Vec<u64>> {
        Ok(self.chunk_addresses(features)?.collect())
    }

    /// Validates `features`, then yields each chunk's address: its levels
    /// fold straight into the base-`q` address (the
    /// [`ChunkLayout::address`] digit order), with no per-chunk buffer.
    fn chunk_addresses<'a>(
        &'a self,
        features: &'a [f64],
    ) -> Result<impl Iterator<Item = u64> + 'a> {
        self.check(features)?;
        let q = self.layout.q() as u64;
        Ok(features.chunks(self.layout.r()).map(move |chunk| {
            chunk
                .iter()
                .fold(0, |addr, &x| addr * q + self.quantizer.level(x) as u64)
        }))
    }

    /// Validates `features`, then yields each feature's quantization
    /// level in feature order — what counter training counts.
    pub(crate) fn feature_levels<'a>(
        &'a self,
        features: &'a [f64],
    ) -> Result<impl Iterator<Item = usize> + 'a> {
        self.check(features)?;
        Ok(features.iter().map(|&x| self.quantizer.level(x)))
    }

    /// Refuses a feature vector of the wrong arity or with a non-finite
    /// feature, naming the first offending index.
    fn check(&self, features: &[f64]) -> Result<()> {
        if features.len() != self.layout.n_features() {
            return Err(HdcError::invalid_dataset(format!(
                "expected {} features, got {}",
                self.layout.n_features(),
                features.len()
            )));
        }
        match features.iter().position(|x| !x.is_finite()) {
            Some(i) => Err(HdcError::invalid_dataset(format!(
                "feature {i} is not finite ({})",
                features[i]
            ))),
            None => Ok(()),
        }
    }

    /// The chunk layout.
    pub fn layout(&self) -> &ChunkLayout {
        &self.layout
    }

    /// The fitted quantizer.
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// The position keys `P_1..P_m`.
    pub fn positions(&self) -> &PositionKeys {
        &self.positions
    }

    /// The level vectors rotated to position `j` of a chunk:
    /// `ρ^j(L_lv)` at index `lv`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= r`.
    pub fn rotated_levels(&self, j: usize) -> &[BipolarHv] {
        let q = self.layout.q();
        &self.rotated[j * q..(j + 1) * q]
    }

    /// The bipolar pairs `(P_c, ρ^j(L_lv))` of the `(feature, level)`
    /// cells whose count has bit `bit` set, in feature order. `counts`
    /// holds one class's counts: feature `i = c·r + j` at level `lv` in
    /// cell `i·q + lv`, so a chunk's `r·q` cells line up with the rotated
    /// levels. Counter finalize sums them once per bit of the counts.
    pub(crate) fn count_plane_pairs<'a>(
        &'a self,
        counts: &'a [u32],
        bit: u32,
    ) -> impl Iterator<Item = (&'a BipolarHv, &'a BipolarHv)> + 'a {
        counts
            .chunks(self.rotated.len())
            .zip(&self.positions.keys)
            .flat_map(move |(cells, key)| {
                cells
                    .iter()
                    .zip(&self.rotated)
                    .filter(move |&(&count, _)| (count >> bit) & 1 == 1)
                    .map(move |(_, level)| (key, level))
            })
    }
}

impl Encode for LookupEncoder {
    fn dim(&self) -> usize {
        self.positions.key(0).dim()
    }

    fn n_features(&self) -> usize {
        self.layout.n_features()
    }

    /// Eq. 3 from bits: feature `i`, at position `j` of chunk `c`, adds
    /// the bipolar pair `P_c ⊙ ρ^j(L_lv)`, and [`sum_bound_pairs`] sums
    /// the `n` pairs by counting their `−1` bits. That is the row sum
    /// `Σ_c P_c ⊙ LUT_c[addr_c]` bit for bit, since every row is
    /// `Σ_j ρ^j(L_lv)`, but it reads only the `r·q` rotated levels and
    /// the `m` keys (SPEECH: 5 KB and 31 KB), which stay cached between
    /// queries. The levels are quantized once into a buffer of `n`
    /// indices, since the count walks them once per 256 dimensions.
    fn encode(&self, features: &[f64]) -> Result<DenseHv> {
        let _span = obs::span("encode");
        obs::counter("encode.samples", 1);
        self.check(features)?;
        // A level is below `q`, and a level memory holds `q` vectors of
        // `D ≥ q` bits, so `q` is far below `2^32`.
        let levels: Vec<u32> = features
            .iter()
            .map(|&x| self.quantizer.level(x) as u32)
            .collect();
        let pairs = FeaturePairs {
            levels: levels.iter(),
            keys: self.positions.keys[1..].iter(),
            key: self.positions.key(0),
            rotated: &self.rotated,
            q: self.layout.q(),
            at: 0,
        };
        let mut acc = DenseHv::zeros(self.dim());
        sum_bound_pairs(acc.as_mut_slice(), pairs);
        Ok(acc)
    }
}

/// The bipolar pairs `(P_c, ρ^j(L_lv))` of a quantized feature vector in
/// feature order: feature `c·r + j` at level `lv` binds
/// `rotated[j·q + lv]` under key `P_c`.
#[derive(Clone)]
struct FeaturePairs<'a> {
    levels: std::slice::Iter<'a, u32>,
    /// The keys of the chunks after the current one.
    keys: std::slice::Iter<'a, BipolarHv>,
    key: &'a BipolarHv,
    rotated: &'a [BipolarHv],
    q: usize,
    /// `j·q` for the position `j` of the next feature in its chunk.
    at: usize,
}

impl<'a> Iterator for FeaturePairs<'a> {
    type Item = (&'a BipolarHv, &'a BipolarHv);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &lv = self.levels.next()?;
        if self.at == self.rotated.len() {
            self.key = self.keys.next()?;
            self.at = 0;
        }
        let pair = (self.key, &self.rotated[self.at + lv as usize]);
        self.at += self.q;
        Some(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::quantize::Quantization;

    fn encoder(n: usize, r: usize, q: usize, dim: usize, seed: u64) -> LookupEncoder {
        encoder_with_levels(n, r, q, dim, seed).0
    }

    /// The encoder and the level memory it was built from.
    fn encoder_with_levels(
        n: usize,
        r: usize,
        q: usize,
        dim: usize,
        seed: u64,
    ) -> (LookupEncoder, LevelMemory) {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(dim, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        let enc = LookupEncoder::new(layout, &levels, quantizer, seed).unwrap();
        (enc, levels)
    }

    /// Eq. 3 written out from the level vectors, on shapes that cross the
    /// count's boundaries: n = 15/16/17 (one carry-save group of 16),
    /// 255/256/257 and 1023/1024/1025 (count-plane widths); D = 2 (one
    /// partial word), 63/64/65, 129, 320 (a partial second block) and
    /// 2000; and the widest layout `ChunkLayout` admits (`r = 48`,
    /// `q = 2`), whose 683 chunks hold 32,784 features (16 count planes)
    /// and whose 2,000 chunks hold 96,000, with counts past `2^15` at
    /// D = 2 (the count's `i32` planes).
    #[test]
    fn encode_matches_manual_equation_three() {
        for (n, r, q, dim) in [
            (10, 5, 4, 128),
            (32_784, 48, 2, 16),
            (96_000, 48, 2, 2),
            (15, 5, 2, 2),
            (16, 5, 4, 63),
            (17, 5, 4, 64),
            (255, 5, 4, 65),
            (256, 4, 4, 320),
            (257, 5, 4, 2000),
            (1023, 5, 4, 129),
            (1024, 5, 4, 320),
            (1025, 5, 4, 65),
        ] {
            let (enc, levels) = encoder_with_levels(n, r, q, dim, 1);
            let features: Vec<f64> = (0..n).map(|i| (i * 7 % n) as f64 / n as f64).collect();
            let h = enc.encode(&features).unwrap();
            // Manual: per chunk, Eq. 2 then bind with P_c and sum.
            let mut manual = DenseHv::zeros(dim);
            for (c, chunk) in features.chunks(r).enumerate() {
                let mut chunk_hv = DenseHv::zeros(dim);
                for (j, &f) in chunk.iter().enumerate() {
                    let lv = enc.quantizer().level(f);
                    chunk_hv.add_rotated_bipolar(levels.level(lv), j);
                }
                let bound = chunk_hv.bound(enc.positions().key(c));
                manual.add_assign_hv(&bound);
            }
            assert_eq!(h, manual, "n={n} r={r} q={q} D={dim}");
        }
    }

    #[test]
    fn addresses_reflect_quantized_levels() {
        let enc = encoder(10, 5, 4, 64, 3);
        let f = vec![0.0; 10]; // all in level 0 → address 0 for both chunks
        assert_eq!(enc.addresses(&f).unwrap(), vec![0, 0]);
        let f = vec![0.999; 10]; // all max level → address q^r - 1
        assert_eq!(enc.addresses(&f).unwrap(), vec![1023, 1023]);
    }

    #[test]
    fn similar_inputs_encode_similarly_distinct_inputs_do_not() {
        let enc = encoder(20, 5, 4, 2048, 4);
        let a: Vec<f64> = (0..20).map(|i| i as f64 / 20.0).collect();
        let mut b = a.clone();
        b[3] += 0.001; // same level
        let c: Vec<f64> = (0..20).map(|i| ((i * 7) % 20) as f64 / 20.0).collect();
        let (ha, hb, hc) = (
            enc.encode(&a).unwrap(),
            enc.encode(&b).unwrap(),
            enc.encode(&c).unwrap(),
        );
        assert!(ha.cosine(&hb) > 0.999);
        assert!(ha.cosine(&hc) < 0.8);
    }

    #[test]
    fn position_keys_nearly_orthogonal() {
        let mut rng = StdRng::seed_from_u64(5);
        let keys = PositionKeys::generate(20, 4000, &mut rng);
        assert_eq!(keys.len(), 20);
        assert!(!keys.is_empty());
        assert!(keys.max_cross_correlation() < 0.1);
    }

    #[test]
    fn wrong_arity_rejected() {
        let enc = encoder(10, 5, 4, 64, 6);
        assert!(enc.encode(&[0.0; 4]).is_err());
        assert!(enc.addresses(&[0.0; 11]).is_err());
    }

    #[test]
    fn non_finite_features_rejected_by_index() {
        let enc = encoder(10, 5, 4, 64, 6);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut f = vec![0.5; 10];
            f[7] = bad;
            let err = enc.addresses(&f).unwrap_err();
            assert!(matches!(err, HdcError::InvalidDataset { .. }), "{err:?}");
            assert!(err.to_string().contains("feature 7"), "{err}");
            assert!(enc.encode(&f).is_err());
        }
    }

    /// The quantizer and the level memory must both hold the layout's `q`
    /// levels.
    #[test]
    fn quantizer_level_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let levels = LevelMemory::generate(64, 4, &mut rng).unwrap();
        let q4 = Quantizer::fit(Quantization::Linear, &[0.0, 1.0], 4).unwrap();
        let q8 = Quantizer::fit(Quantization::Linear, &[0.0, 1.0], 8).unwrap();
        let layout = ChunkLayout::new(10, 5, 4).unwrap();
        let err = LookupEncoder::new(layout, &levels, q8.clone(), 0).unwrap_err();
        assert!(err.to_string().contains("quantizer"), "{err}");
        let layout8 = ChunkLayout::new(10, 5, 8).unwrap();
        let err = LookupEncoder::new(layout8, &levels, q8, 0).unwrap_err();
        assert!(err.to_string().contains("level memory"), "{err}");
        assert!(LookupEncoder::new(layout, &levels, q4, 0).is_ok());
    }

    #[test]
    fn partial_chunk_vectors_encode() {
        let enc = encoder(12, 5, 2, 64, 8);
        let f: Vec<f64> = (0..12).map(|i| i as f64 / 12.0).collect();
        let h = enc.encode(&f).unwrap();
        assert_eq!(h.dim(), 64);
        // Element magnitude cannot exceed the total feature count.
        assert!(h.max_abs() <= 12);
    }
}
