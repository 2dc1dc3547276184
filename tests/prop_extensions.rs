//! Property-based tests for the extension modules: online training,
//! clustering, and sequence encoding.

use lookhd_paper::hdc::cluster::kmeans;
use lookhd_paper::hdc::hv::{BipolarHv, DenseHv};
use lookhd_paper::hdc::sequence::NgramEncoder;
use lookhd_paper::lookhd::online::OnlineTrainer;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Online training is permutation-sensitive in magnitudes but its
    /// class count, dimension, and determinism invariants always hold.
    #[test]
    fn online_trainer_invariants(
        k in 2usize..6,
        dim in 32usize..128,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<(DenseHv, usize)> = (0..20)
            .map(|i| (DenseHv::from(&BipolarHv::random(dim, &mut rng)), i % k))
            .collect();
        let run = || -> lookhd_paper::hdc::model::ClassModel {
            let mut t = OnlineTrainer::new(k, dim).unwrap();
            for (h, y) in &samples {
                t.observe(h, *y).unwrap();
            }
            t.finalize().unwrap()
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.n_classes(), k);
        prop_assert_eq!(a.dim(), dim);
        for c in 0..k {
            prop_assert_eq!(a.class(c), b.class(c), "training must be deterministic");
        }
    }

    /// K-means always returns k centroids, a full assignment, and every
    /// assignment index in range.
    #[test]
    fn kmeans_structural_invariants(
        k in 1usize..5,
        n in 5usize..30,
        dim in 16usize..64,
        seed in any::<u64>(),
    ) {
        prop_assume!(n >= k);
        let mut rng = StdRng::seed_from_u64(seed);
        let xs: Vec<DenseHv> = (0..n)
            .map(|_| DenseHv::from(&BipolarHv::random(dim, &mut rng)))
            .collect();
        let clustering = kmeans(&xs, k, 10, &mut rng).unwrap();
        prop_assert_eq!(clustering.k(), k);
        prop_assert_eq!(clustering.assignments.len(), n);
        prop_assert!(clustering.assignments.iter().all(|&a| a < k));
        prop_assert_eq!(clustering.sizes().iter().sum::<usize>(), n);
        // Every sample's assigned centroid is its argmax-cosine centroid.
        for (h, &a) in xs.iter().zip(&clustering.assignments) {
            prop_assert_eq!(clustering.assign(h).unwrap(), a);
        }
    }

    /// Sequence encoding: deterministic, dimension-stable, and bundles of
    /// the same grams in any order produce the same hypervector (bundling
    /// commutes) while different n-gram sizes generally differ.
    #[test]
    fn sequence_encoding_invariants(
        text in "[a-d]{4,24}",
        seed in any::<u64>(),
    ) {
        let dim = 512;
        let mut enc = NgramEncoder::<char>::new(dim, 3, seed).unwrap();
        let symbols: Vec<char> = text.chars().collect();
        let a = enc.encode(&symbols).unwrap();
        let b = enc.encode(&symbols).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.dim(), dim);
        // Magnitudes are bounded by the n-gram count.
        let grams = symbols.len().saturating_sub(2).max(1) as i32;
        prop_assert!(a.max_abs() <= grams);
    }
}
