//! Cross-crate equivalence tests: LookHD's factorizations must be exact.

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::encoding::Encode;
use lookhd_paper::hdc::levels::LevelMemory;
use lookhd_paper::hdc::quantize::{Quantization, Quantizer};
use lookhd_paper::hdc::train::initial_fit;
use lookhd_paper::lookhd::chunking::ChunkLayout;
use lookhd_paper::lookhd::encoder::LookupEncoder;
use lookhd_paper::lookhd::trainer::CounterTrainer;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counter-based training equals encode-and-bundle, bit for bit, on a
/// realistic application profile (PHYSICAL: n = 52, k = 12).
#[test]
fn counter_training_equals_bundling_on_app_data() {
    let profile = App::Physical.profile();
    let data = profile.generate_small(21);
    let mut rng = StdRng::seed_from_u64(7);
    let levels = LevelMemory::generate(512, 2, &mut rng).expect("level generation failed");
    let quantizer = Quantizer::fit(Quantization::Equalized, &data.train_values(), 2)
        .expect("quantizer fit failed");
    let layout = ChunkLayout::new(profile.n_features, 5, 2).expect("layout failed");
    let encoder = LookupEncoder::new(layout, &levels, quantizer, 7).expect("encoder build failed");

    let counter_model = CounterTrainer::fit(
        &encoder,
        &data.train.features,
        &data.train.labels,
        profile.n_classes,
    )
    .expect("counter training failed");

    let encoded = encoder
        .encode_batch(&data.train.features)
        .expect("encoding failed");
    let bundled =
        initial_fit(&encoded, &data.train.labels, profile.n_classes).expect("bundling failed");

    for c in 0..profile.n_classes {
        assert_eq!(
            counter_model.class(c),
            bundled.class(c),
            "class {c} differs"
        );
    }
}

/// The lookup encoder with the maximum supported chunk size (bounded by
/// the 48-bit address width) degenerates toward one chunk; with r = 1
/// every feature is its own chunk. Both must remain valid encoders
/// producing D-dimensional integer vectors with bounded entries.
#[test]
fn chunk_size_extremes_are_valid() {
    let profile = App::Physical.profile();
    let data = profile.generate_small(23);
    // q = 2 ⇒ 1 bit per codebook ⇒ r ≤ 48.
    for r in [1usize, profile.n_features.min(48)] {
        let mut rng = StdRng::seed_from_u64(10);
        let levels = LevelMemory::generate(128, 2, &mut rng).expect("level generation failed");
        let quantizer = Quantizer::fit(Quantization::Equalized, &data.train_values(), 2)
            .expect("quantizer fit failed");
        let layout = ChunkLayout::new(profile.n_features, r, 2).expect("layout failed");
        let enc = LookupEncoder::new(layout, &levels, quantizer, 11).expect("encoder build failed");
        let h = enc.encode(&data.train.features[0]).expect("encode failed");
        assert_eq!(h.dim(), 128);
        assert!(h.max_abs() as usize <= profile.n_features);
    }
}
