//! Property-based tests of the quantizers and the chunk addressing.

use lookhd_paper::hdc::quantize::{Quantization, Quantizer};
use lookhd_paper::lookhd::chunking::ChunkLayout;
use proptest::prelude::*;

/// Values a level must place exactly: both zeros, subnormals and the f64
/// extremes.
const SPECIAL: [f64; 8] = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantization is monotone: x ≤ y ⇒ level(x) ≤ level(y), for both
    /// rules, and levels stay in range.
    #[test]
    fn quantization_is_monotone(
        mut values in proptest::collection::vec(-1e3f64..1e3, 2..200),
        q in 2usize..17,
        probes in proptest::collection::vec(-2e3f64..2e3, 2..50),
    ) {
        for kind in [Quantization::Linear, Quantization::Equalized] {
            let quantizer = Quantizer::fit(kind, &values, q).unwrap();
            let mut sorted = probes.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let levels: Vec<usize> = sorted.iter().map(|&x| quantizer.level(x)).collect();
            for w in levels.windows(2) {
                prop_assert!(w[0] <= w[1], "{kind:?} not monotone: {levels:?}");
            }
            prop_assert!(levels.iter().all(|&l| l < q));
        }
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
    }

    /// The branchless `level` (a count of boundaries `b ≤ x`) equals the
    /// binary search it replaced, kept here as the oracle, for q in
    /// 2..=16. Half the fitted values are special, so equalized fits
    /// collapse boundaries onto repeats; the explicit boundary sets repeat
    /// values too. Probes hit every boundary exactly, both zeros,
    /// subnormals and ±1e308.
    #[test]
    fn level_equals_partition_point(
        picks in proptest::collection::vec(0usize..16, 1..200),
        spread in proptest::collection::vec(-1e3f64..1e3, 1..50),
        q in 2usize..17,
    ) {
        let values: Vec<f64> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| SPECIAL.get(p).copied().unwrap_or(spread[i % spread.len()]))
            .collect();
        let mut explicit: Vec<f64> = values.iter().copied().take(q - 1).collect();
        explicit.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let quantizers = [
            Quantizer::fit(Quantization::Linear, &values, q).unwrap(),
            Quantizer::fit(Quantization::Equalized, &values, q).unwrap(),
            Quantizer::from_boundaries(Quantization::Equalized, explicit).unwrap(),
        ];
        for quantizer in &quantizers {
            let q = quantizer.levels();
            let boundaries = quantizer.boundaries();
            let probes = boundaries.iter().chain(&SPECIAL).chain(&spread).chain(&values);
            for &x in probes {
                let oracle = boundaries.partition_point(|&b| b <= x).min(q - 1);
                prop_assert_eq!(quantizer.level(x), oracle, "x = {:e}, boundaries {:?}", x, boundaries);
            }
        }
    }

    /// Equalized occupancy is balanced: no level gets more than ~2x its
    /// fair share on continuous (deduplicated) data.
    #[test]
    fn equalized_occupancy_is_balanced(
        seeds in proptest::collection::vec(0u64..1_000_000, 100..400),
        q in 2usize..9,
    ) {
        // Derive distinct, continuous-ish values from the seeds.
        let values: Vec<f64> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (s as f64).sqrt() + i as f64 * 1e-7)
            .collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &values, q).unwrap();
        let occ = quantizer.occupancy(&values);
        let fair = values.len() as f64 / q as f64;
        for (level, &count) in occ.iter().enumerate() {
            prop_assert!(
                (count as f64) < 2.0 * fair + 2.0,
                "level {level} holds {count} of {} values (fair {fair})",
                values.len()
            );
        }
    }

    /// Chunk addresses are a bijection: every (chunk, levels) pair maps to
    /// a unique address that round-trips.
    #[test]
    fn chunk_addressing_round_trips(
        n in 2usize..64,
        r in 1usize..8,
        q in 2usize..9,
        addr_seed in any::<u64>(),
    ) {
        let r = r.min(n);
        prop_assume!((r as u32) * (q as u64).next_power_of_two().trailing_zeros().max(1) <= 48);
        let layout = ChunkLayout::new(n, r, q).unwrap();
        for chunk in 0..layout.n_chunks() {
            let rows = layout.table_rows(chunk) as u64;
            let addr = addr_seed % rows;
            let levels = layout.levels_of_address(chunk, addr);
            prop_assert_eq!(levels.len(), layout.chunk_len(chunk));
            prop_assert_eq!(layout.address(chunk, &levels), addr);
        }
    }

    /// The chunk layout partitions the features exactly: ranges are
    /// contiguous, disjoint, and cover 0..n.
    #[test]
    fn chunks_partition_features(n in 1usize..300, r in 1usize..12) {
        let r = r.min(n);
        let layout = ChunkLayout::new(n, r, 2).unwrap();
        let mut covered = 0usize;
        for c in 0..layout.n_chunks() {
            let range = layout.feature_range(c);
            prop_assert_eq!(range.start, covered);
            covered = range.end;
        }
        prop_assert_eq!(covered, n);
    }
}
