//! Dense integer hypervectors.
//!
//! Encodings and class models in (non-binary) HDC are integer-valued
//! accumulations of bipolar hypervectors (Eq. 1 of the paper). [`DenseHv`]
//! is a `D`-dimensional vector of `i32` counters with the fused operations
//! the encoders and trainers need: add a (rotated / bound) bipolar or
//! integer hypervector without materializing intermediates. Two kernels
//! sum bound terms into `i32` lanes: [`DenseHv::add_bound`] /
//! [`DenseHv::sub_bound`] add or subtract `P ⊙ H` for an integer `H`,
//! and [`sum_bound_pairs`] is the one sum of bound *bipolar* pairs, which
//! counts bits instead of adding lanes.

use std::fmt;

use super::BipolarHv;

/// A dense integer hypervector in `ℤ^D`.
///
/// # Examples
///
/// ```
/// use hdc::hv::{BipolarHv, DenseHv};
///
/// let l = BipolarHv::from_values(&[1, -1, 1, 1]);
/// let mut acc = DenseHv::zeros(4);
/// acc.add_bipolar(&l);
/// acc.add_rotated_bipolar(&l, 1); // adds [1, 1, -1, 1]
/// assert_eq!(acc.as_slice(), &[2, 0, 0, 2]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DenseHv {
    values: Vec<i32>,
}

impl DenseHv {
    /// Creates the zero hypervector of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn zeros(dim: usize) -> Self {
        assert!(dim > 0, "hypervector dimension must be positive");
        Self {
            values: vec![0; dim],
        }
    }

    /// Wraps an explicit value vector.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn from_vec(values: Vec<i32>) -> Self {
        assert!(!values.is_empty(), "hypervector dimension must be positive");
        Self { values }
    }

    /// The dimensionality `D`.
    pub fn dim(&self) -> usize {
        self.values.len()
    }

    /// The raw values.
    pub fn as_slice(&self) -> &[i32] {
        &self.values
    }

    /// Mutable access to the raw values (for noise injection and tests).
    pub fn as_mut_slice(&mut self) -> &mut [i32] {
        &mut self.values
    }

    /// Value at dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.dim()`.
    #[inline]
    pub fn get(&self, i: usize) -> i32 {
        self.values[i]
    }

    /// `self += other` element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_assign_hv(&mut self, other: &Self) {
        assert_eq!(self.dim(), other.dim(), "add requires equal dimensions");
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a += b;
        }
    }

    /// `self -= other` element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_assign_hv(&mut self, other: &Self) {
        assert_eq!(self.dim(), other.dim(), "sub requires equal dimensions");
        for (a, b) in self.values.iter_mut().zip(&other.values) {
            *a -= b;
        }
    }

    /// `self += hv` where `hv` is bipolar.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_bipolar(&mut self, hv: &BipolarHv) {
        assert_eq!(self.dim(), hv.dim(), "add requires equal dimensions");
        for (i, a) in self.values.iter_mut().enumerate() {
            *a += hv.value(i);
        }
    }

    /// `self -= hv` where `hv` is bipolar.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_bipolar(&mut self, hv: &BipolarHv) {
        assert_eq!(self.dim(), hv.dim(), "sub requires equal dimensions");
        for (i, a) in self.values.iter_mut().enumerate() {
            *a -= hv.value(i);
        }
    }

    /// `self += ρ^rot(hv)` — the fused hot-path of the baseline permutation
    /// encoder (Eq. 1): adds the bipolar hypervector rotated by `rot`
    /// without allocating the rotated copy.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_rotated_bipolar(&mut self, hv: &BipolarHv, rot: usize) {
        let d = self.dim();
        assert_eq!(d, hv.dim(), "add requires equal dimensions");
        let rot = rot % d;
        // out[i] = hv[(i + d - rot) % d]; iterate source index to stay linear.
        for (i, a) in self.values.iter_mut().enumerate() {
            let src = if i >= rot { i - rot } else { i + d - rot };
            *a += hv.value(src);
        }
    }

    /// `self += key ⊙ other`, multiply-free like the paper's negation
    /// blocks: model compression and the correct class of a retraining
    /// update.
    ///
    /// # Examples
    ///
    /// ```
    /// use hdc::hv::{BipolarHv, DenseHv};
    ///
    /// let key = BipolarHv::from_values(&[1, -1, 1, -1]);
    /// let mut acc = DenseHv::from_vec(vec![10; 4]);
    /// acc.add_bound(&key, &DenseHv::from_vec(vec![3, 3, -48, 48]));
    /// assert_eq!(acc.as_slice(), &[13, 7, -38, -38]);
    /// acc.sub_bound(&key, &DenseHv::from_vec(vec![3, 3, -48, 48]));
    /// assert_eq!(acc.as_slice(), &[10; 4]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_bound(&mut self, key: &BipolarHv, other: &Self) {
        bind_lanes(&mut self.values, key, &other.values, |v| v);
    }

    /// `self -= key ⊙ other`, multiply-free: the wrong class of a
    /// retraining update.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn sub_bound(&mut self, key: &BipolarHv, other: &Self) {
        bind_lanes(&mut self.values, key, &other.values, |v| -v);
    }

    /// Returns `key ⊙ self` (element-wise sign flips; no multiplier needed
    /// in hardware — §V-A "negation block").
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn bound(&self, key: &BipolarHv) -> Self {
        assert_eq!(self.dim(), key.dim(), "bind requires equal dimensions");
        let values = self
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| if key.is_negative(i) { -v } else { v })
            .collect();
        Self { values }
    }

    /// Dot product with another dense hypervector.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot(&self, other: &Self) -> i64 {
        assert_eq!(self.dim(), other.dim(), "dot requires equal dimensions");
        self.values
            .iter()
            .zip(&other.values)
            .map(|(&a, &b)| a as i64 * b as i64)
            .sum()
    }

    /// Dot product with a bipolar hypervector (sign-flipped accumulation).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn dot_bipolar(&self, hv: &BipolarHv) -> i64 {
        assert_eq!(self.dim(), hv.dim(), "dot requires equal dimensions");
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if hv.is_negative(i) {
                    -(v as i64)
                } else {
                    v as i64
                }
            })
            .sum()
    }

    /// Euclidean norm `‖self‖`.
    ///
    /// Accumulates in `f64` so extreme component magnitudes cannot
    /// overflow the integer dot product.
    pub fn norm(&self) -> f64 {
        self.values
            .iter()
            .map(|&v| {
                let f = v as f64;
                f * f
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Cosine similarity `self·other / (‖self‖‖other‖)`.
    ///
    /// Returns `0.0` when either vector is all-zero.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn cosine(&self, other: &Self) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        self.dot(other) as f64 / denom
    }

    /// Element-wise sign, breaking ties (zero) toward `+1`. This is the
    /// majority-threshold binarization used by binary HDC models.
    pub fn sign(&self) -> BipolarHv {
        let mut out = BipolarHv::ones(self.dim());
        for (i, &v) in self.values.iter().enumerate() {
            if v < 0 {
                out.set(i, -1);
            }
        }
        out
    }

    /// Largest absolute element value; the hardware model uses this to size
    /// datapath bit-widths.
    pub fn max_abs(&self) -> i32 {
        self.values.iter().map(|v| v.abs()).max().unwrap_or(0)
    }
}

/// The lane masks of eight packed key dimensions as a table expression:
/// entry `[b][j]` is `−1` when bit `j` of byte `b` is set (the dimension
/// holds `−1`) and `0` otherwise.
macro_rules! lane_masks {
    ($t:ty) => {{
        let mut table = [[0; 8]; 256];
        let mut byte = 0;
        while byte < 256 {
            let mut lane = 0;
            while lane < 8 {
                table[byte][lane] = -((byte >> lane) as $t & 1);
                lane += 1;
            }
            byte += 1;
        }
        table
    }};
}

/// The lane masks of [`bind_lanes`].
const SIGN_MASKS: [[i32; 8]; 256] = lane_masks!(i32);

/// The lane masks of [`sum_bound_pairs`]'s count planes, in `i16` lanes:
/// eight dimensions' bits of one plane byte.
///
/// A `const`, not a `static`: [`sum_bound_pairs`] is generic over its
/// pair iterator, so it is compiled in the crate that instantiates it,
/// where a `static` of this crate is an opaque external symbol; a
/// generic lane loop over such a `static` was measured to stay scalar
/// (~6× slower at D = 2000). A `const` becomes a local read-only table
/// there.
const BIT_MASKS: [[i16; 8]; 256] = lane_masks!(i16);

/// `acc[d] += sign(key[d] · src[d])` for every dimension `d`, with `sign`
/// the identity or negation: the bind-accumulate behind every `P ⊙ H`
/// term with an integer `H` (model compression and compressed
/// retraining), one monomorphized loop per sign.
///
/// Multiply-free, like the paper's negation blocks: one key word per 64
/// dimensions, one key byte per 8, and each byte indexes a table of eight
/// lane masks `m ∈ {0, −1}`. `(v ^ m) − m` is `v` for `m = 0` and `−v`
/// for `m = −1` in two's complement, so the result equals the multiply
/// form `key[d]·v` bit for bit, wrapping included.
///
/// Kept out of line: as parameters, `acc` and `src` are known not to
/// alias, which the vectorizer needs and cannot see through the `Vec`s
/// of an inlined caller.
///
/// # Panics
///
/// Panics if `acc`, `key` and `src` differ in dimension.
#[inline(never)]
fn bind_lanes(acc: &mut [i32], key: &BipolarHv, src: &[i32], sign: impl Fn(i32) -> i32) {
    assert_eq!(acc.len(), key.dim(), "bind requires equal dimensions");
    assert_eq!(src.len(), key.dim(), "bind requires equal dimensions");
    let words = key.words();
    let table = &SIGN_MASKS;
    let lanes = |acc: &mut [i32], src: &[i32], byte: u8| {
        for ((a, &v), &m) in acc.iter_mut().zip(src).zip(&table[usize::from(byte)]) {
            *a += sign((v ^ m).wrapping_sub(m));
        }
    };
    let mut acc64 = acc.chunks_exact_mut(64);
    let mut src64 = src.chunks_exact(64);
    for ((a, v), &word) in (&mut acc64).zip(&mut src64).zip(words) {
        let bodies = a.chunks_exact_mut(8).zip(v.chunks_exact(8));
        for ((a, v), byte) in bodies.zip(word.to_le_bytes()) {
            lanes(a, v, byte);
        }
    }
    // The last `D mod 64` dimensions: the final key word, whose last
    // byte may cover fewer than 8 dimensions.
    if let Some(&word) = words.get(src.len() / 64) {
        let bodies = acc64
            .into_remainder()
            .chunks_mut(8)
            .zip(src64.remainder().chunks(8));
        for ((a, v), byte) in bodies.zip(word.to_le_bytes()) {
            lanes(a, v, byte);
        }
    }
}

/// Key words per block of [`sum_bound_pairs`]: 256 dimensions, so that
/// a block's four carry-save registers of `[u64; 4]` fit the vector
/// registers of the default x86-64 target.
const BLOCK_WORDS: usize = 4;

/// Count planes of [`sum_bound_pairs`]: bit `p` of every count, for
/// counts below `2^30`, so that `2·N` and `n − 2·N` fit `i32`.
const COUNT_PLANES: usize = 30;

/// `acc[d] += Σ_i (a_i ⊙ b_i)[d]` over bipolar pairs `(a_i, b_i)`: the
/// one sum of bound bipolar pairs, behind the lookup encode (Eq. 3 as
/// `Σ_i P_{c(i)} ⊙ ρ^{j(i)}(L_{lv(i)})`, one pair per feature) and counter
/// finalize (the same pairs per bit of the per-feature level counts).
///
/// A product is `±1`, and with `bit 1 ⇔ −1` its bits are `a ⊕ b`, so
/// the sum over `n` pairs is `n − 2·N[d]`, where `N[d]` counts the
/// products holding `−1` at `d`. The count is bit-sliced over the packed
/// words (Harley–Seal carry-save adders): per block of four words, the
/// products pass through a carry-save tree 16 at a time, its ones, twos,
/// fours and eights held in registers and each group's sixteens rippled
/// into the higher count planes; the last `n mod 16` ripple in one at a
/// time. The planes widen into the lanes eight dimensions at a time
/// through a byte → lane-mask table, the count's low 15 bits in `i16`
/// lanes and any higher ones in `i32`. It reads only the pairs' packed
/// words, one bit per dimension and pair, and does no multiply or
/// `D`-wide add per pair. `pairs` is walked once per block, so it must
/// be cheap to clone.
///
/// # Examples
///
/// ```
/// use hdc::hv::{sum_bound_pairs, BipolarHv};
///
/// let p = BipolarHv::from_values(&[1, -1, 1, -1]);
/// let l = BipolarHv::from_values(&[1, 1, -1, -1]);
/// let mut acc = [10; 4];
/// sum_bound_pairs(&mut acc, [(&p, &l), (&p, &p)].into_iter());
/// assert_eq!(acc, [12, 10, 10, 12]);
/// ```
///
/// # Panics
///
/// Panics if `acc` is empty, if a pair's dimension differs from `acc`'s,
/// or if there are `2^30` pairs or more.
pub fn sum_bound_pairs<'a, I>(acc: &mut [i32], pairs: I)
where
    I: Iterator<Item = (&'a BipolarHv, &'a BipolarHv)> + Clone,
{
    assert!(!acc.is_empty(), "hypervector dimension must be positive");
    let n_words = acc.len().div_ceil(64);
    let full = n_words - n_words % BLOCK_WORDS;
    for w0 in (0..full).step_by(BLOCK_WORDS) {
        count_block::<BLOCK_WORDS, _>(acc, w0, pairs.clone());
    }
    // A partial last block, at its own width: no padded copy of a key.
    match n_words - full {
        0 => {}
        1 => count_block::<1, _>(acc, full, pairs),
        2 => count_block::<2, _>(acc, full, pairs),
        3 => count_block::<3, _>(acc, full, pairs),
        _ => unreachable!("a block holds {BLOCK_WORDS} words"),
    }
}

/// [`sum_bound_pairs`] over the `W` words from word `w0`, i.e. the
/// dimensions `64·w0 .. min(64·(w0 + W), D)`.
#[inline(never)]
fn count_block<'a, const W: usize, I>(acc: &mut [i32], w0: usize, mut pairs: I)
where
    I: Iterator<Item = (&'a BipolarHv, &'a BipolarHv)>,
{
    let dim = acc.len();
    // `planes[p][k]` holds bit `p` of the counts of word `w0 + k`'s 64
    // dimensions. While full groups come in, planes 0..4 live in `ones`,
    // `twos`, `fours` and `eights`.
    let mut planes = [[0u64; W]; COUNT_PLANES];
    let [mut ones, mut twos, mut fours, mut eights] = [[0u64; W]; 4];
    let mut group = [[0u64; W]; 16];
    let mut n = 0;
    loop {
        let mut len = 0;
        for (x, (a, b)) in group.iter_mut().zip(&mut pairs) {
            // Every block walks the same pairs: checking the first is enough.
            if w0 == 0 {
                assert!(
                    a.dim() == dim && b.dim() == dim,
                    "bind requires equal dimensions"
                );
            }
            let (a, b) = (&a.words()[w0..w0 + W], &b.words()[w0..w0 + W]);
            for k in 0..W {
                x[k] = a[k] ^ b[k];
            }
            len += 1;
        }
        n += len;
        if len < 16 {
            planes[..4].copy_from_slice(&[ones, twos, fours, eights]);
            for &x in &group[..len] {
                ripple(&mut planes, x);
            }
            break;
        }
        let mut eights_in = [[0; W]; 2];
        for (e, g) in eights_in.iter_mut().zip(group.chunks_exact(8)) {
            let mut fours_in = [[0; W]; 2];
            for (f, g) in fours_in.iter_mut().zip(g.chunks_exact(4)) {
                let (twos_a, s) = csa(ones, g[0], g[1]);
                let (twos_b, s) = csa(s, g[2], g[3]);
                ones = s;
                (*f, twos) = csa(twos, twos_a, twos_b);
            }
            (*e, fours) = csa(fours, fours_in[0], fours_in[1]);
        }
        let sixteens;
        (sixteens, eights) = csa(eights, eights_in[0], eights_in[1]);
        ripple(&mut planes[4..], sixteens);
    }
    assert!(n < 1 << COUNT_PLANES, "{n} bound pairs overflow the count");
    let n = n as i32;
    let n_planes = (i32::BITS - n.leading_zeros()) as usize;
    let masks = &BIT_MASKS;
    for (k, dims) in acc[64 * w0..].chunks_mut(64).take(W).enumerate() {
        for (b, lanes) in dims.chunks_mut(8).enumerate() {
            let mask = |plane: &[u64; W]| &masks[usize::from((plane[k] >> (8 * b)) as u8)];
            // The count's low 15 bits fit `i16`, twice the lanes per
            // vector; planes 15 and up exist only for n ≥ 2^15.
            let mut low = [0i16; 8];
            for (p, plane) in planes[..n_planes.min(15)].iter().enumerate() {
                for (c, &m) in low.iter_mut().zip(mask(plane)) {
                    *c |= m & (1 << p);
                }
            }
            let mut count = low.map(i32::from);
            for (p, plane) in planes[..n_planes].iter().enumerate().skip(15) {
                for (c, &m) in count.iter_mut().zip(mask(plane)) {
                    *c |= i32::from(m) & (1 << p);
                }
            }
            for (a, c) in lanes.iter_mut().zip(count) {
                *a += n - 2 * c;
            }
        }
    }
}

/// Carry-save adder over bit-sliced words: `a + b + c = sum + 2·carry`
/// in every bit. Returns `(carry, sum)`.
#[inline(always)]
fn csa<const W: usize>(a: [u64; W], b: [u64; W], c: [u64; W]) -> ([u64; W], [u64; W]) {
    let (mut carry, mut sum) = ([0; W], [0; W]);
    for k in 0..W {
        let u = a[k] ^ b[k];
        carry[k] = (a[k] & b[k]) | (u & c[k]);
        sum[k] = u ^ c[k];
    }
    (carry, sum)
}

/// Adds the bit-sliced `carry` to the count whose bit `p` is `planes[p]`.
#[inline(always)]
fn ripple<const W: usize>(planes: &mut [[u64; W]], mut carry: [u64; W]) {
    for plane in planes {
        if carry == [0; W] {
            return;
        }
        for k in 0..W {
            let c = plane[k] & carry[k];
            plane[k] ^= carry[k];
            carry[k] = c;
        }
    }
}

impl From<&BipolarHv> for DenseHv {
    fn from(hv: &BipolarHv) -> Self {
        Self {
            values: hv.to_values(),
        }
    }
}

impl FromIterator<i32> for DenseHv {
    fn from_iter<T: IntoIterator<Item = i32>>(iter: T) -> Self {
        Self::from_vec(iter.into_iter().collect())
    }
}

impl fmt::Debug for DenseHv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DenseHv(D={}, {:?}",
            self.dim(),
            &self.values[..self.dim().min(8)]
        )?;
        if self.dim() > 8 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_from_vec() {
        let z = DenseHv::zeros(5);
        assert_eq!(z.as_slice(), &[0, 0, 0, 0, 0]);
        let v = DenseHv::from_vec(vec![1, -2, 3]);
        assert_eq!(v.dim(), 3);
        assert_eq!(v.get(1), -2);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn empty_from_vec_panics() {
        let _ = DenseHv::from_vec(vec![]);
    }

    #[test]
    fn add_sub_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let hv = BipolarHv::random(64, &mut rng);
        let mut acc = DenseHv::zeros(64);
        acc.add_bipolar(&hv);
        acc.sub_bipolar(&hv);
        assert_eq!(acc, DenseHv::zeros(64));
    }

    #[test]
    fn add_rotated_matches_materialized_rotation() {
        let mut rng = StdRng::seed_from_u64(2);
        let hv = BipolarHv::random(101, &mut rng);
        for rot in [0usize, 1, 50, 100, 101, 150] {
            let mut fused = DenseHv::zeros(101);
            fused.add_rotated_bipolar(&hv, rot);
            let mut explicit = DenseHv::zeros(101);
            explicit.add_bipolar(&hv.rotated(rot));
            assert_eq!(fused, explicit, "rot={rot}");
        }
    }

    #[test]
    fn bound_matches_elementwise_product() {
        let mut rng = StdRng::seed_from_u64(3);
        let key = BipolarHv::random(40, &mut rng);
        let v = DenseHv::from_vec((0..40).map(|i| i - 20).collect());
        let b = v.bound(&key);
        for i in 0..40 {
            assert_eq!(b.get(i), key.value(i) * v.get(i));
        }
        // binding twice with the same key is the identity (P ⊙ P = 1)
        assert_eq!(b.bound(&key), v);
    }

    #[test]
    fn add_and_sub_bound_match_manual() {
        let mut rng = StdRng::seed_from_u64(4);
        let key = BipolarHv::random(30, &mut rng);
        let v = DenseHv::from_vec((0..30).collect());
        let mut acc = DenseHv::from_vec(vec![7; 30]);
        acc.add_bound(&key, &v);
        for i in 0..30 {
            assert_eq!(acc.get(i), 7 + key.value(i) * v.get(i));
        }
        acc.sub_bound(&key, &v);
        acc.sub_bound(&key, &v);
        for i in 0..30 {
            assert_eq!(acc.get(i), 7 - key.value(i) * v.get(i));
        }
    }

    #[test]
    fn dot_and_dot_bipolar_agree() {
        let mut rng = StdRng::seed_from_u64(5);
        let key = BipolarHv::random(64, &mut rng);
        let v = DenseHv::from_vec((0..64).map(|i| (i % 9) - 4).collect());
        assert_eq!(v.dot_bipolar(&key), v.dot(&DenseHv::from(&key)));
    }

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let v = DenseHv::from_vec(vec![1, 2, 3, 4]);
        let mut w = v.clone();
        w.add_assign_hv(&v); // w = 2v
        assert!((v.cosine(&w) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_of_zero_vector_is_zero() {
        let v = DenseHv::from_vec(vec![1, 2, 3]);
        let z = DenseHv::zeros(3);
        assert_eq!(v.cosine(&z), 0.0);
    }

    #[test]
    fn sign_thresholds_at_zero() {
        let v = DenseHv::from_vec(vec![5, -3, 0, -1]);
        assert_eq!(v.sign().to_values(), vec![1, -1, 1, -1]);
    }

    #[test]
    fn max_abs_reports_extreme() {
        let v = DenseHv::from_vec(vec![3, -17, 5]);
        assert_eq!(v.max_abs(), 17);
    }

    #[test]
    fn norm_matches_hand_computation() {
        let v = DenseHv::from_vec(vec![3, 4]);
        assert!((v.norm() - 5.0).abs() < 1e-12);
    }
}
