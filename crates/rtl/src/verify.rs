//! Bit-exact verification of the emulated datapaths against the software
//! reference implementations.
//!
//! The contract of the §V hardware is that, at the planned widths, it
//! computes *exactly* what the algorithm specifies. These routines run the
//! fixed-point units over real encoders/models and diff every output
//! element against the `lookhd` reference, reporting both mismatches and
//! overflow events (a zero-overflow, zero-mismatch run is a width-
//! sufficiency proof for that workload).

use hdc::hv::DenseHv;
use hdc::{HdcError, Result};
use lookhd::encoder::LookupEncoder;
use lookhd::trainer::CounterTrainer;
use lookhd::CompressedModel;

use crate::datapath::{CounterFile, SearchUnit, WeightedAccumulator, WidthPlan};

/// Outcome of a datapath verification run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationReport {
    /// Output elements compared.
    pub checked: usize,
    /// Elements where hardware and software disagreed.
    pub mismatches: usize,
    /// Overflow events across all emulated units.
    pub overflows: u64,
}

impl VerificationReport {
    /// True when the datapath reproduced the reference bit-exactly with no
    /// overflow.
    pub fn is_bit_exact(&self) -> bool {
        self.mismatches == 0 && self.overflows == 0
    }
}

/// Upper bound on emulated counter rows per chunk (keeps verification
/// runs to small, hardware-plausible configurations).
pub const MAX_EMULATED_ROWS: usize = 1 << 20;

/// Emulates the Fig. 10 training datapath (counter files + weighted
/// accumulation + position-key negation) and compares the resulting class
/// hypervectors against [`CounterTrainer::fit`].
///
/// This is the per-address oracle of the software's counter training,
/// which counts per-feature levels instead: the emulation keeps the
/// paper's one counter per chunk-table row and builds each row it reads
/// from the rotated level vectors (Eq. 2).
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] when a chunk table exceeds
/// [`MAX_EMULATED_ROWS`], plus any reference-pipeline error.
pub fn verify_training_datapath(
    encoder: &LookupEncoder,
    features: &[Vec<f64>],
    labels: &[usize],
    n_classes: usize,
    plan: &WidthPlan,
) -> Result<VerificationReport> {
    let reference = CounterTrainer::fit(encoder, features, labels, n_classes)?;
    let layout = *encoder.layout();
    let d = reference.dim();
    for chunk in 0..layout.n_chunks() {
        if layout.table_rows(chunk) > MAX_EMULATED_ROWS {
            return Err(HdcError::invalid_config(
                "r",
                format!(
                    "chunk {chunk} has {} rows; emulation is capped at {MAX_EMULATED_ROWS}",
                    layout.table_rows(chunk)
                ),
            ));
        }
    }
    let mut report = VerificationReport {
        checked: 0,
        mismatches: 0,
        overflows: 0,
    };
    for class in 0..n_classes {
        // Fig. 10-D: one counter file per chunk.
        let mut files: Vec<CounterFile> = (0..layout.n_chunks())
            .map(|c| CounterFile::new(layout.table_rows(c), plan.counter))
            .collect();
        for (x, &y) in features.iter().zip(labels) {
            if y != class {
                continue;
            }
            let addrs = encoder.addresses(x)?;
            for (chunk, &addr) in addrs.iter().enumerate() {
                files[chunk].increment(addr as usize);
            }
        }
        // Fig. 10 E–F: weighted accumulation with key negation.
        let mut acc = WeightedAccumulator::new(d, plan.class_accumulator, plan.table_element);
        for (chunk, file) in files.iter().enumerate() {
            let key = encoder.positions().key(chunk);
            for addr in 0..layout.table_rows(chunk) {
                let count = file.read(addr);
                if count == 0 {
                    continue;
                }
                let row = chunk_row(encoder, chunk, addr as u64);
                for dim in 0..d {
                    acc.accumulate(dim, count, row.get(dim) as i64, key.is_negative(dim));
                }
            }
        }
        for file in &files {
            report.overflows += file.overflows();
        }
        report.overflows += acc.overflows();
        // Diff against the reference class hypervector.
        let expected = reference.class(class);
        for (dim, (&hw, &sw)) in acc.values().iter().zip(expected.as_slice()).enumerate() {
            report.checked += 1;
            if hw != sw as i64 {
                report.mismatches += 1;
                let _ = dim;
            }
        }
    }
    Ok(report)
}

/// Row `addr` of chunk `chunk`'s table, `Σ_j ρ^j(L_{lv_j})` (Eq. 2),
/// from the encoder's rotated level vectors: the BRAM row the Fig. 10
/// datapath reads. The address packs the chunk's levels base `q`, its
/// first feature most significant (`ChunkLayout::address`).
fn chunk_row(encoder: &LookupEncoder, chunk: usize, addr: u64) -> DenseHv {
    let levels = encoder.layout().levels_of_address(chunk, addr);
    let mut row = DenseHv::zeros(encoder.positions().key(chunk).dim());
    for (j, lv) in levels.into_iter().enumerate() {
        row.add_bipolar(&encoder.rotated_levels(j)[lv]);
    }
    row
}

/// Result of a search-datapath verification.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchVerification {
    /// Per-element report over the score vector.
    pub report: VerificationReport,
    /// Whether the hardware argmax matched the reference prediction.
    pub prediction_matches: bool,
}

/// Emulates the Fig. 11 compressed associative search (shared products +
/// key-controlled accumulation) and compares scores and the winning class
/// against [`CompressedModel::scores`].
///
/// Only valid for models compressed without decorrelation: the whitening
/// correction (`p·G_c`, see [`lookhd::compress`]) is a second integer
/// stage the modelled search unit does not implement (the paper's
/// hardware likewise stores plain integer models).
///
/// # Errors
///
/// Returns [`HdcError::InvalidConfig`] for a decorrelated model and
/// propagates reference-model errors.
pub fn verify_search_datapath(
    model: &CompressedModel,
    query: &DenseHv,
    plan: &WidthPlan,
) -> Result<SearchVerification> {
    if model.compression_config().decorrelate {
        return Err(HdcError::invalid_config(
            "decorrelate",
            "the integer search datapath verifies non-decorrelated models only",
        ));
    }
    let reference_scores = model.scores(query)?;
    let reference_prediction = model.predict(query)?;
    let k = model.n_classes();
    let d = model.dim();
    // Emulate per group: the shared product vector only multiplies once
    // per combined vector, exactly as in Fig. 11.
    let mut hw_scores = vec![0i64; k];
    let mut overflows = 0u64;
    let group_of = |label: usize| label / model.compression_config().max_classes_per_vector;
    for g in 0..model.n_vectors() {
        let members: Vec<usize> = (0..k).filter(|&label| group_of(label) == g).collect();
        let mut unit = SearchUnit::new(members.len(), plan.search_accumulator);
        let combined = model.combined(g);
        for dim in 0..d {
            let keys: Vec<bool> = members
                .iter()
                .map(|&label| model.key(label).is_negative(dim))
                .collect();
            unit.consume(query.get(dim) as i64, combined.get(dim) as i64, &keys);
        }
        overflows += unit.overflows();
        for (slot, &label) in unit.scores().iter().zip(&members) {
            hw_scores[label] = *slot;
        }
    }
    let mut report = VerificationReport {
        checked: 0,
        mismatches: 0,
        overflows,
    };
    for (&hw, &sw) in hw_scores.iter().zip(&reference_scores) {
        report.checked += 1;
        if (hw as f64 - sw).abs() > 0.5 {
            report.mismatches += 1;
        }
    }
    let hw_prediction = hw_scores
        .iter()
        .enumerate()
        .max_by_key(|&(_, &s)| s)
        .map(|(i, _)| i)
        .unwrap_or(0);
    Ok(SearchVerification {
        report,
        prediction_matches: hw_prediction == reference_prediction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Width;
    use hdc::levels::LevelMemory;
    use hdc::quantize::{Quantization, Quantizer};
    use lookhd::chunking::ChunkLayout;
    use lookhd::CompressionConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(
        n: usize,
        q: usize,
        r: usize,
        d: usize,
        samples: usize,
        k: usize,
        seed: u64,
    ) -> (LookupEncoder, Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let levels = LevelMemory::generate(d, q, &mut rng).unwrap();
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &values, q).unwrap();
        let layout = ChunkLayout::new(n, r, q).unwrap();
        let encoder = LookupEncoder::new(layout, &levels, quantizer, seed).unwrap();
        let xs: Vec<Vec<f64>> = (0..samples)
            .map(|_| (0..n).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys: Vec<usize> = (0..samples).map(|i| i % k).collect();
        (encoder, xs, ys)
    }

    /// Bit-exact at the planned widths, also with a partial final chunk
    /// at q = 4 (n = 13, r = 5: chunks of 5, 5 and 3 features).
    #[test]
    fn training_datapath_is_bit_exact_at_planned_widths() {
        for (n, q, r, seed) in [(12, 2, 3, 1), (13, 4, 5, 7)] {
            let (encoder, xs, ys) = setup(n, q, r, 128, 30, 3, seed);
            let plan = WidthPlan::derive(r, n, 128, 10, 1 << 10);
            let report = verify_training_datapath(&encoder, &xs, &ys, 3, &plan).unwrap();
            assert!(report.is_bit_exact(), "n={n} q={q} r={r}: {report:?}");
            assert_eq!(report.checked, 3 * 128);
        }
    }

    #[test]
    fn starved_counter_width_is_detected() {
        let (encoder, xs, ys) = setup(12, 2, 3, 64, 40, 1, 2);
        // All 40 samples hit one class; a 3-bit counter saturates at 3.
        let mut plan = WidthPlan::derive(3, 12, 64, 40, 1 << 10);
        plan.counter = Width::new(3);
        let report = verify_training_datapath(&encoder, &xs, &ys, 1, &plan).unwrap();
        assert!(report.overflows > 0, "saturation must be visible");
        assert!(
            report.mismatches > 0,
            "saturated counters must change outputs"
        );
    }

    #[test]
    fn search_datapath_is_bit_exact_and_predicts_identically() {
        let mut rng = StdRng::seed_from_u64(3);
        let classes: Vec<DenseHv> = (0..5)
            .map(|_| DenseHv::from_vec((0..256).map(|_| rng.gen_range(-20..=20)).collect()))
            .collect();
        let model = hdc::model::ClassModel::from_classes(classes).unwrap();
        let compressed =
            CompressedModel::compress(&model, &CompressionConfig::new().with_decorrelate(false))
                .unwrap();
        let plan = WidthPlan::derive(5, 256, 256, 10, 25_000);
        for label in 0..5 {
            let query = model.class(label).clone();
            let v = verify_search_datapath(&compressed, &query, &plan).unwrap();
            assert!(v.report.is_bit_exact(), "class {label}: {:?}", v.report);
            assert!(v.prediction_matches, "class {label}");
        }
    }

    #[test]
    fn decorrelated_models_are_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let classes: Vec<DenseHv> = (0..3)
            .map(|_| DenseHv::from_vec((0..64).map(|_| rng.gen_range(-5..=5)).collect()))
            .collect();
        let model = hdc::model::ClassModel::from_classes(classes).unwrap();
        let compressed = CompressedModel::compress(&model, &CompressionConfig::new()).unwrap();
        let plan = WidthPlan::derive(5, 64, 64, 10, 100);
        let query = DenseHv::zeros(64);
        assert!(verify_search_datapath(&compressed, &query, &plan).is_err());
    }

    #[test]
    fn narrow_search_width_loses_bit_exactness() {
        let mut rng = StdRng::seed_from_u64(5);
        let classes: Vec<DenseHv> = (0..2)
            .map(|_| DenseHv::from_vec((0..256).map(|_| rng.gen_range(-30..=30)).collect()))
            .collect();
        let model = hdc::model::ClassModel::from_classes(classes).unwrap();
        let compressed =
            CompressedModel::compress(&model, &CompressionConfig::new().with_decorrelate(false))
                .unwrap();
        let mut plan = WidthPlan::derive(5, 256, 256, 10, 30_000);
        plan.search_accumulator = Width::new(10);
        let query = model.class(0).clone();
        let v = verify_search_datapath(&compressed, &query, &plan).unwrap();
        assert!(v.report.overflows > 0);
    }

    #[test]
    fn oversized_tables_are_rejected() {
        // 8^8 = 16.7M rows per chunk: over the emulation cap (the software
        // trainer counts per-feature levels, so it has no such cap).
        let mut rng = StdRng::seed_from_u64(6);
        let levels = LevelMemory::generate(32, 8, &mut rng).unwrap();
        let values: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let quantizer = Quantizer::fit(Quantization::Equalized, &values, 8).unwrap();
        let layout = ChunkLayout::new(24, 8, 8).unwrap();
        let encoder = LookupEncoder::new(layout, &levels, quantizer, 6).unwrap();
        let xs: Vec<Vec<f64>> = (0..4)
            .map(|_| (0..24).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys = vec![0usize, 1, 0, 1];
        let plan = WidthPlan::derive(8, 24, 32, 2, 100);
        assert!(verify_training_datapath(&encoder, &xs, &ys, 2, &plan).is_err());
    }
}
