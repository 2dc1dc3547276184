//! Differential property tests of the lookup encoder. The two
//! lookup-table storage modes are interchangeable:
//! `TableMode::Materialized` (BRAM-style pre-stored rows) and
//! `TableMode::OnTheFly` (rows synthesized per lookup) must produce
//! bit-identical hypervectors and identical chunk addresses for every
//! layout — including `n % r != 0` remainder chunks — so address
//! extraction (which the score-LUT kernel reuses) can safely run against
//! either mode. And in both modes `encode` equals Eq. 3 written out
//! element by element on every application profile's shape.

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::encoding::Encode;
use lookhd_paper::hdc::hv::DenseHv;
use lookhd_paper::hdc::levels::LevelMemory;
use lookhd_paper::hdc::quantize::{Quantization, Quantizer};
use lookhd_paper::lookhd::chunking::ChunkLayout;
use lookhd_paper::lookhd::encoder::LookupEncoder;
use lookhd_paper::lookhd::lut::TableMode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both table modes agree on every address and every encoded
    /// hypervector, bit for bit, across random layouts and queries.
    #[test]
    fn table_modes_encode_identically(
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
        let materialized = LookupEncoder::new(
            layout, &levels, quantizer.clone(), TableMode::Materialized, seed,
        ).unwrap();
        let on_the_fly = LookupEncoder::new(
            layout, &levels, quantizer, TableMode::OnTheFly, seed,
        ).unwrap();
        prop_assert_eq!(materialized.lut().mode(), TableMode::Materialized);
        prop_assert_eq!(on_the_fly.lut().mode(), TableMode::OnTheFly);
        for query in &queries {
            let features = &query[..n];
            let a = materialized.addresses(features).unwrap();
            let b = on_the_fly.addresses(features).unwrap();
            prop_assert_eq!(&a, &b, "addresses diverged (n={}, r={}, q={})", n, r, q);
            // Addresses stay inside each chunk's table.
            for (chunk, &addr) in a.iter().enumerate() {
                prop_assert!((addr as usize) < layout.table_rows(chunk));
            }
            let ha = materialized.encode(features).unwrap();
            let hb = on_the_fly.encode(features).unwrap();
            prop_assert_eq!(
                ha.as_slice(), hb.as_slice(),
                "hypervectors diverged (n={}, r={}, q={}, dim={})", n, r, q, dim
            );
        }
    }

    /// Remainder chunks specifically: layouts where the final chunk is
    /// shorter than `r` get a smaller table, and both modes must agree on
    /// its rows too (synthesize vs pre-store take different code paths
    /// for the short shape).
    #[test]
    fn remainder_chunk_rows_agree(
        full_chunks in 1usize..4,
        r in 2usize..6,
        tail in 1usize..5,
        q in 2usize..4,
        seed in 0u64..1_000,
    ) {
        let tail = tail.min(r - 1); // force n % r != 0
        let n = full_chunks * r + tail;
        let layout = ChunkLayout::new(n, r, q).unwrap();
        prop_assert_eq!(layout.chunk_len(layout.n_chunks() - 1), tail);
        let mut rng = StdRng::seed_from_u64(seed);
        let levels =
            LevelMemory::generate(128, q, &mut rng).unwrap();
        let samples: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &samples, q).unwrap();
        let materialized = LookupEncoder::new(
            layout, &levels, quantizer.clone(), TableMode::Materialized, seed,
        ).unwrap();
        let on_the_fly = LookupEncoder::new(
            layout, &levels, quantizer, TableMode::OnTheFly, seed,
        ).unwrap();
        // Walk every address of the remainder chunk through both LUTs.
        let last = layout.n_chunks() - 1;
        for addr in 0..layout.table_rows(last) as u64 {
            let row_a = materialized.lut().row(last, addr);
            let row_b = on_the_fly.lut().row(last, addr);
            prop_assert_eq!(row_a.as_slice(), row_b.as_slice(), "row {} diverged", addr);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `encode` equals Eq. 3 term by term, `Σ_c LUT_c[addr_c] ⊙ P_c`,
    /// with each address packed from the quantized levels by
    /// `ChunkLayout::address`: on every application profile's `(n, q)` at
    /// the paper's `r = 5` and a small `D`, in both table modes.
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
            for mode in [TableMode::Materialized, TableMode::OnTheFly] {
                let enc =
                    LookupEncoder::new(layout, &levels, quantizer.clone(), mode, seed).unwrap();
                let mut expected = DenseHv::zeros(dim);
                for c in 0..layout.n_chunks() {
                    let lv = quantizer.levels_of(&features[layout.feature_range(c)]);
                    let row = enc.lut().row(c, layout.address(c, &lv));
                    expected.add_assign_hv(&row.bound(enc.positions().key(c)));
                }
                prop_assert_eq!(
                    enc.encode(&features).unwrap(), expected,
                    "{} (n={}, q={}, dim={}, {:?})", profile.name, n, q, dim, mode
                );
            }
        }
    }
}
