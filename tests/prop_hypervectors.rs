//! Property-based tests of the hypervector algebra (proptest).

use lookhd_paper::hdc::hv::{BipolarHv, DenseHv};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bipolar(dim: usize, seed: u64) -> BipolarHv {
    let mut rng = StdRng::seed_from_u64(seed);
    BipolarHv::random(dim, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binding is commutative, associative, self-inverse, and preserves
    /// the dot product (it is an isometry of the hypercube).
    #[test]
    fn bind_algebra(dim in 1usize..300, s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>()) {
        let a = bipolar(dim, s1);
        let b = bipolar(dim, s2);
        let c = bipolar(dim, s3);
        prop_assert_eq!(a.bind(&b), b.bind(&a));
        prop_assert_eq!(a.bind(&b).bind(&c), a.bind(&b.bind(&c)));
        prop_assert_eq!(a.bind(&b).bind(&b), a.clone());
        prop_assert_eq!(a.bind(&c).dot(&b.bind(&c)), a.dot(&b));
    }

    /// Rotation is a group action: ρ^i ∘ ρ^j = ρ^{i+j}, ρ^D = id, and it
    /// preserves dot products.
    #[test]
    fn rotation_group(dim in 1usize..300, i in 0usize..500, j in 0usize..500, s in any::<u64>()) {
        let a = bipolar(dim, s);
        prop_assert_eq!(a.rotated(i).rotated(j), a.rotated(i + j));
        prop_assert_eq!(a.rotated(dim), a.clone());
        let b = bipolar(dim, s ^ 0xdead);
        prop_assert_eq!(a.rotated(i).dot(&b.rotated(i)), a.dot(&b));
    }

    /// Dot products satisfy |a·b| ≤ D with equality iff a = ±b, and
    /// hamming/dot stay consistent.
    #[test]
    fn dot_bounds(dim in 1usize..300, s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = bipolar(dim, s1);
        let b = bipolar(dim, s2);
        let d = a.dot(&b);
        prop_assert!(d.abs() <= dim as i64);
        prop_assert_eq!(d, dim as i64 - 2 * a.hamming(&b) as i64);
        prop_assert_eq!(a.dot(&a), dim as i64);
        prop_assert_eq!(a.dot(&a.negated()), -(dim as i64));
    }

    /// Bundling then subtracting the same hypervectors returns to zero,
    /// and the fused rotated-add matches the explicit rotation.
    #[test]
    fn dense_accumulation(dim in 1usize..300, rot in 0usize..600, s in any::<u64>()) {
        let hv = bipolar(dim, s);
        let mut acc = DenseHv::zeros(dim);
        acc.add_rotated_bipolar(&hv, rot);
        let mut explicit = DenseHv::zeros(dim);
        explicit.add_bipolar(&hv.rotated(rot));
        prop_assert_eq!(&acc, &explicit);
        acc.sub_bipolar(&hv.rotated(rot));
        prop_assert_eq!(acc, DenseHv::zeros(dim));
    }

    /// Binding a dense vector twice with the same key is the identity, and
    /// `dot_bipolar` agrees with densifying the key.
    #[test]
    fn dense_bind_involution(dim in 1usize..200, s in any::<u64>(), vals in proptest::collection::vec(-50i32..50, 1..200)) {
        let dim = dim.min(vals.len()).max(1);
        let v = DenseHv::from_vec(vals[..dim].to_vec());
        let key = bipolar(dim, s);
        prop_assert_eq!(v.bound(&key).bound(&key), v.clone());
        prop_assert_eq!(v.dot_bipolar(&key), v.dot(&DenseHv::from(&key)));
    }

    /// The multiply-free bind-accumulate equals its per-element definition
    /// `acc[d] ± key[d]·v[d]`, both signs (`add_bound` for compression and
    /// a retraining update's correct class, `sub_bound` for its wrong
    /// class): every D in 1..300 (tails short of a multiple of 8 or 64)
    /// plus D = 2000.
    #[test]
    fn bind_accumulate_matches_definition(
        dim in 1usize..300,
        s in any::<u64>(),
        vals_seed in any::<u64>(),
    ) {
        for dim in [dim, 2000] {
            let key = bipolar(dim, s);
            let mut rng = StdRng::seed_from_u64(vals_seed);
            let mut random_hv = || {
                DenseHv::from_vec((0..dim).map(|_| rng.gen_range(-500..500)).collect())
            };
            let (start, v) = (random_hv(), random_hv());
            for w in [1, -1] {
                let mut acc = start.clone();
                if w == 1 {
                    acc.add_bound(&key, &v);
                } else {
                    acc.sub_bound(&key, &v);
                }
                let expected: Vec<i32> = (0..dim)
                    .map(|d| start.get(d) + w * key.value(d) * v.get(d))
                    .collect();
                prop_assert_eq!(acc.as_slice(), &expected[..], "dim={} w={}", dim, w);
            }
        }
    }

    /// The sign of a bundle of one bipolar hypervector is that hypervector.
    #[test]
    fn sign_of_single_bundle(dim in 1usize..300, s in any::<u64>()) {
        let hv = bipolar(dim, s);
        let mut acc = DenseHv::zeros(dim);
        acc.add_bipolar(&hv);
        prop_assert_eq!(acc.sign(), hv);
    }
}
