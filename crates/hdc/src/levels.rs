//! Level hypervector ("alphabet") generation (§II-A of the paper).
//!
//! Each quantized feature level `0..q` is represented by a bipolar level
//! hypervector `L_i`. Neighbouring levels must stay similar while the
//! extreme levels `L_0` and `L_{q-1}` must be (near-)orthogonal, so that
//! hyperspace distances mirror original-space distances.
//!
//! Each next level flips `D/q` uniformly chosen dimensions of the previous
//! level (flips may overlap across steps). After `q - 1` steps the fraction
//! of net-flipped dimensions approaches `(1 - e^{-2(q-1)/q})/2 ≈ 0.43`, i.e.
//! `δ(L_0, L_{q-1}) ≈ 0.13` — "nearly orthogonal", matching the paper's
//! claim verbatim.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::{HdcError, Result};
use crate::hv::BipolarHv;

/// An item memory of `q` correlated level hypervectors.
///
/// # Examples
///
/// ```
/// use hdc::levels::LevelMemory;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let mem = LevelMemory::generate(1000, 4, &mut rng)?;
/// // Neighbouring levels are similar, far levels are not.
/// let near = mem.level(0).cosine(mem.level(1));
/// let far = mem.level(0).cosine(mem.level(3));
/// assert!(near > far);
/// # Ok::<(), hdc::HdcError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LevelMemory {
    levels: Vec<BipolarHv>,
}

impl LevelMemory {
    /// Generates `q` level hypervectors of dimension `dim`, each flipping
    /// `D/q` random dimensions of the previous one.
    ///
    /// # Errors
    ///
    /// Returns [`HdcError::InvalidConfig`] if `dim == 0`, `q == 0`, or
    /// `q > dim` (there would be no dimensions left to flip per step).
    pub fn generate<R: Rng + ?Sized>(dim: usize, q: usize, rng: &mut R) -> Result<Self> {
        if dim == 0 {
            return Err(HdcError::invalid_config(
                "dim",
                "dimension must be positive",
            ));
        }
        if q == 0 {
            return Err(HdcError::invalid_config("q", "need at least one level"));
        }
        if q > dim {
            return Err(HdcError::invalid_config(
                "q",
                format!("q={q} exceeds dimension {dim}; levels would be degenerate"),
            ));
        }
        let mut levels = Vec::with_capacity(q);
        levels.push(BipolarHv::random(dim, rng));
        let flips_per_step = (dim / q).max(1);
        let mut indices: Vec<usize> = (0..dim).collect();
        for _ in 1..q {
            let mut next = levels.last().expect("non-empty").clone();
            indices.shuffle(rng);
            next.flip(&indices[..flips_per_step]);
            levels.push(next);
        }
        Ok(Self { levels })
    }

    /// The level hypervector `L_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.levels()`.
    pub fn level(&self, i: usize) -> &BipolarHv {
        &self.levels[i]
    }

    /// Number of levels `q`.
    pub fn levels(&self) -> usize {
        self.levels.len()
    }

    /// Dimensionality `D` of the level hypervectors.
    pub fn dim(&self) -> usize {
        self.levels[0].dim()
    }

    /// Iterates over the levels in order `L_0 .. L_{q-1}`.
    pub fn iter(&self) -> std::slice::Iter<'_, BipolarHv> {
        self.levels.iter()
    }

    /// Cosine similarity profile `δ(L_0, L_i)` for all `i` — handy for tests
    /// and for the quantization experiments.
    pub fn similarity_profile(&self) -> Vec<f64> {
        let base = &self.levels[0];
        self.levels.iter().map(|l| base.cosine(l)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mem(dim: usize, q: usize, seed: u64) -> LevelMemory {
        let mut rng = StdRng::seed_from_u64(seed);
        LevelMemory::generate(dim, q, &mut rng).unwrap()
    }

    #[test]
    fn generates_requested_count_and_dim() {
        let m = mem(2000, 8, 1);
        assert_eq!(m.levels(), 8);
        assert_eq!(m.dim(), 2000);
        assert_eq!(m.iter().count(), 8);
    }

    #[test]
    fn random_flips_far_level_nearly_orthogonal() {
        let m = mem(10_000, 16, 3);
        let prof = m.similarity_profile();
        // Neighbour similarity stays high.
        assert!(prof[1] > 0.8, "neighbour level too dissimilar: {}", prof[1]);
        // The theoretical asymptote for the far level is 1 - 2·(1-e^{-2·15/16})/2 ≈ 0.156.
        let far = *prof.last().unwrap();
        assert!(
            far.abs() < 0.25,
            "far level similarity {far} not near-orthogonal"
        );
    }

    #[test]
    fn neighbouring_levels_closer_than_distant_levels() {
        let m = mem(4000, 8, 4);
        for i in 0..7 {
            let near = m.level(i).cosine(m.level(i + 1));
            let far = m.level(0).cosine(m.level(7));
            assert!(near > far, "level {i} near={near} far={far}");
        }
    }

    #[test]
    fn q_equal_one_is_single_random_level() {
        let m = mem(512, 1, 5);
        assert_eq!(m.levels(), 1);
    }

    #[test]
    fn rejects_invalid_configs() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(LevelMemory::generate(0, 4, &mut rng).is_err());
        assert!(LevelMemory::generate(100, 0, &mut rng).is_err());
        assert!(LevelMemory::generate(4, 16, &mut rng).is_err());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = mem(1000, 4, 42);
        let b = mem(1000, 4, 42);
        for i in 0..4 {
            assert_eq!(a.level(i), b.level(i));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = mem(1000, 4, 42);
        let b = mem(1000, 4, 43);
        assert_ne!(a.level(0), b.level(0));
    }
}
