//! Property tests of the lookup encoder. Chunk addresses pack each
//! chunk's quantized levels base `q` (first feature most significant) and
//! stay inside the chunk's `q^len` address space for every layout,
//! `n % r != 0` remainder chunks included — the score-LUT kernel and the
//! `lookhd-rtl` counter files read them. And `encode` equals Eq. 3
//! written out element by element on every application profile's shape,
//! with each chunk row written from Eq. 2 out of the level memory.

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::encoding::Encode;
use lookhd_paper::hdc::hv::DenseHv;
use lookhd_paper::hdc::levels::LevelMemory;
use lookhd_paper::hdc::quantize::{Quantization, Quantizer};
use lookhd_paper::lookhd::chunking::ChunkLayout;
use lookhd_paper::lookhd::encoder::LookupEncoder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every chunk address is the chunk's quantized levels packed by
    /// `ChunkLayout::address`, inside the chunk's table, across random
    /// layouts (remainder chunks included) and queries.
    #[test]
    fn addresses_pack_quantized_levels_in_range(
        n in 1usize..1100,
        r in 1usize..8,
        q in 2usize..5,
        dim in 4usize..320,
        seed in 0u64..1_000,
        quant_linear in proptest::any::<bool>(),
        queries in proptest::collection::vec(
            proptest::collection::vec(-2.0f64..2.0, 1100), 1..8),
    ) {
        let r = r.min(n);
        let layout = ChunkLayout::new(n, r, q).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let levels =
            LevelMemory::generate(dim, q, &mut rng).unwrap();
        let kind = if quant_linear {
            Quantization::Linear
        } else {
            Quantization::Equalized
        };
        let samples: Vec<f64> = (0..200).map(|i| (i as f64 / 50.0) - 2.0).collect();
        let quantizer = Quantizer::fit(kind, &samples, q).unwrap();
        let enc = LookupEncoder::new(layout, &levels, quantizer.clone(), seed).unwrap();
        for query in &queries {
            let features = &query[..n];
            let addrs = enc.addresses(features).unwrap();
            prop_assert_eq!(addrs.len(), layout.n_chunks());
            for (chunk, &addr) in addrs.iter().enumerate() {
                let lv = quantizer.levels_of(&features[layout.feature_range(chunk)]);
                prop_assert_eq!(
                    addr, layout.address(chunk, &lv),
                    "chunk {} (n={}, r={}, q={})", chunk, n, r, q
                );
                prop_assert!((addr as usize) < layout.table_rows(chunk));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `encode` equals Eq. 3 term by term, `Σ_c LUT_c[addr_c] ⊙ P_c`, with
    /// each row `LUT_c[addr_c] = Σ_j ρ^j(L_{lv_j})` written from Eq. 2 out
    /// of the level memory, on every application profile's `(n, q)` at
    /// the paper's `r = 5` and a small `D`.
    #[test]
    fn encode_matches_equation_three_on_app_profiles(
        dim in 4usize..600,
        seed in 0u64..1_000,
    ) {
        for app in App::ALL {
            let profile = app.profile();
            let (n, q) = (profile.n_features, profile.paper_q_lookhd);
            let layout = ChunkLayout::new(n, 5, q).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let levels =
                LevelMemory::generate(dim, q, &mut rng).unwrap();
            let samples: Vec<f64> = (0..200).map(|i| (i as f64 / 50.0) - 2.0).collect();
            let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
            let features: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.5..2.5)).collect();
            let enc = LookupEncoder::new(layout, &levels, quantizer.clone(), seed).unwrap();
            let mut expected = DenseHv::zeros(dim);
            for c in 0..layout.n_chunks() {
                let mut row = DenseHv::zeros(dim);
                for (j, lv) in quantizer
                    .levels_of(&features[layout.feature_range(c)])
                    .into_iter()
                    .enumerate()
                {
                    row.add_rotated_bipolar(levels.level(lv), j);
                }
                expected.add_assign_hv(&row.bound(enc.positions().key(c)));
            }
            prop_assert_eq!(
                enc.encode(&features).unwrap(), expected,
                "{} (n={}, q={}, dim={})", profile.name, n, q, dim
            );
        }
    }
}
