//! Online-vs-batch training differential: streaming examples one at a
//! time into a [`StreamingTrainer`] (in any order, sharded across any
//! worker count) must materialize a model **bit-identical** to a single
//! batch `fit` on the same data.
//!
//! The property holds by construction — counter training is additive,
//! so counter accumulation is associative and commutative, and
//! `materialize` runs the exact pipeline tail batch `fit` runs once its
//! sample-dependent stages are disabled (`retrain_epochs = 0`,
//! `validation_fraction = 0`):
//! finalize → refresh norms → compress → kernel build, all
//! deterministic given the encoder and seed. These tests pin that
//! argument at three layers: the raw chunk counters (`PartialEq`), the
//! persisted `LKS1` artifact bytes (encoder + model + compressed
//! weights + kernel tag; the score-LUT tables are rebuilt from those at
//! load, and the retraining report is not persisted), and wire-level
//! predictions.

use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::{KernelSpec, LookHdClassifier, LookHdConfig, StreamingTrainer};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Well-separated 3-class training set (5 features) plus off-grid
/// queries — the serve-soak dataset shape.
fn dataset() -> (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..45 {
        let class = i % 3;
        let base = [0.2, 0.5, 0.8][class];
        let jitter = (i / 3) as f64 * 0.006;
        xs.push(vec![base + jitter, base - jitter, base, 1.0 - base, base]);
        ys.push(class);
    }
    let queries = (0..37)
        .map(|i| {
            let t = i as f64 / 36.0;
            vec![t, 1.0 - t, 0.3 + t / 3.0, t * t, 0.9 - t / 2.0]
        })
        .collect();
    (xs, ys, queries)
}

/// The streaming-compatible batch configuration: every stage that
/// depends on *how many* samples arrived together is off, leaving the
/// counter pipeline that incremental observation reproduces exactly.
fn normalized_config(kernel: KernelSpec) -> LookHdConfig {
    LookHdConfig::new()
        .with_dim(256)
        .with_retrain_epochs(0)
        .with_validation_fraction(0.0)
        .with_kernel(kernel)
}

fn artifact(clf: &LookHdClassifier) -> Vec<u8> {
    clf.to_bytes().expect("serialization failed")
}

#[test]
fn streaming_one_at_a_time_matches_batch_fit_for_every_kernel() {
    let (xs, ys, queries) = dataset();
    for kernel in [KernelSpec::dense(), KernelSpec::lut()] {
        let config = normalized_config(kernel);
        let reference = LookHdClassifier::fit(&config, &xs, &ys).expect("batch fit failed");

        let mut trainer =
            StreamingTrainer::from_classifier(&reference).expect("trainer derivation failed");
        assert_eq!(trainer.observed(), 0, "fresh trainer must start at zero");
        for (x, &y) in xs.iter().zip(&ys) {
            trainer.observe(x, y).expect("observe failed");
        }
        assert_eq!(trainer.observed(), xs.len() as u64);

        let streamed = trainer.materialize().expect("materialize failed");
        assert_eq!(
            artifact(&streamed),
            artifact(&reference),
            "streamed artifact diverged from batch fit (kernel {})",
            streamed.kernel().name(),
        );
        for q in &queries {
            assert_eq!(
                streamed.predict(q).unwrap(),
                reference.predict(q).unwrap(),
                "prediction diverged on {q:?}",
            );
        }
    }
}

#[test]
fn shuffled_order_and_sharded_merge_are_bit_identical_across_worker_counts() {
    let (xs, ys, _) = dataset();
    let config = normalized_config(KernelSpec::lut());
    let reference = LookHdClassifier::fit(&config, &xs, &ys).expect("batch fit failed");
    let reference_bytes = artifact(&reference);

    let mut serial = StreamingTrainer::from_classifier(&reference).expect("trainer failed");
    for (x, &y) in xs.iter().zip(&ys) {
        serial.observe(x, y).expect("observe failed");
    }

    let mut rng = StdRng::seed_from_u64(0xd1ff);
    for workers in [1usize, 2, 3, 7] {
        // Shuffle the example order, then shard round-robin across
        // `workers` independent trainers.
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.shuffle(&mut rng);
        let mut shards: Vec<StreamingTrainer> = (0..workers)
            .map(|_| StreamingTrainer::from_classifier(&reference).expect("trainer failed"))
            .collect();
        for (slot, &i) in order.iter().enumerate() {
            shards[slot % workers]
                .observe(&xs[i], ys[i])
                .expect("observe failed");
        }
        // Merge the shards back in a shuffled order too: counter
        // addition must not care.
        let mut merged = shards.pop().expect("at least one shard");
        shards.shuffle(&mut rng);
        for shard in &shards {
            merged.merge(shard).expect("merge failed");
        }

        assert_eq!(
            merged.counters(),
            serial.counters(),
            "{workers}-way sharded counters diverged from serial streaming",
        );
        let materialized = merged.materialize().expect("materialize failed");
        assert_eq!(
            artifact(&materialized),
            reference_bytes,
            "{workers}-way sharded artifact diverged from batch fit",
        );
    }
}

#[test]
fn observed_counters_track_the_fed_label_histogram() {
    let (xs, ys, _) = dataset();
    let config = normalized_config(KernelSpec::dense());
    let reference = LookHdClassifier::fit(&config, &xs, &ys).expect("batch fit failed");
    let mut trainer = StreamingTrainer::from_classifier(&reference).expect("trainer failed");

    let mut expected = [0u64; 3];
    for (x, &y) in xs.iter().zip(&ys).take(31) {
        trainer.observe(x, y).expect("observe failed");
        expected[y] += 1;
    }
    assert_eq!(trainer.observed(), 31);
    for (class, &want) in expected.iter().enumerate() {
        assert_eq!(
            trainer.observed_for(class),
            want,
            "class {class} observation count drifted",
        );
    }
    assert_eq!(
        trainer.observed_for(99),
        0,
        "out-of-range class must read 0"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any dataset, any stream permutation: the streamed counters and
    /// the materialized artifact equal the batch fit's, exactly.
    #[test]
    fn any_permutation_streams_to_the_batch_model(
        xs in proptest::collection::vec(
            proptest::collection::vec(0.05f64..0.95, 4),
            16..40,
        ),
        label_seed in any::<u64>(),
        perm_seed in any::<u64>(),
    ) {
        // Labels derive deterministically from the seed; the first
        // three are forced distinct so fit and streaming agree on the
        // class count.
        let mut ys: Vec<usize> = xs
            .iter()
            .enumerate()
            .map(|(i, _)| (label_seed.rotate_left((i % 64) as u32) ^ i as u64) as usize % 3)
            .collect();
        for (class, y) in ys.iter_mut().enumerate().take(3) {
            *y = class;
        }

        let config = normalized_config(KernelSpec::dense()).with_dim(128);
        let reference = LookHdClassifier::fit(&config, &xs, &ys).expect("batch fit failed");

        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.shuffle(&mut StdRng::seed_from_u64(perm_seed));
        let mut trainer = StreamingTrainer::from_classifier(&reference).expect("trainer failed");
        for &i in &order {
            trainer.observe(&xs[i], ys[i]).expect("observe failed");
        }

        let streamed = trainer.materialize().expect("materialize failed");
        prop_assert_eq!(artifact(&streamed), artifact(&reference));
    }
}
