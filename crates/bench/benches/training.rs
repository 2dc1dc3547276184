//! Criterion microbench: encode-and-bundle training vs LookHD counter
//! training (Fig. 13's wall-clock backing).
//!
//! Both trainers produce bit-identical class models; the counter trainer
//! defers all hypervector arithmetic to a single finalize step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hdc::encoding::Encode;
use hdc::levels::LevelMemory;
use hdc::quantize::{Quantization, Quantizer};
use lookhd::chunking::ChunkLayout;
use lookhd::encoder::LookupEncoder;
use lookhd::trainer::CounterTrainer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 225; // EXTRA geometry keeps the bench quick
const D: usize = 2000;
const Q: usize = 4;
const R: usize = 5;
const K: usize = 4;
const SAMPLES: usize = 200;

fn setup() -> (LookupEncoder, Vec<Vec<f64>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(9);
    let levels = LevelMemory::generate(D, Q, &mut rng).unwrap();
    let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
    let quantizer = Quantizer::fit(Quantization::Equalized, &samples, Q).unwrap();
    let layout = ChunkLayout::new(N, R, Q).unwrap();
    let encoder = LookupEncoder::new(layout, &levels, quantizer, 9).unwrap();
    let xs: Vec<Vec<f64>> = (0..SAMPLES)
        .map(|_| (0..N).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<usize> = (0..SAMPLES).map(|i| i % K).collect();
    (encoder, xs, ys)
}

fn bench_training(c: &mut Criterion) {
    let (encoder, xs, ys) = setup();
    let mut group = c.benchmark_group("training_extra_n225_d2000_200samples");
    group.sample_size(10);
    group.bench_function("encode_and_bundle", |b| {
        b.iter(|| {
            let encoded = encoder.encode_batch(black_box(&xs)).unwrap();
            hdc::train::initial_fit(&encoded, &ys, K).unwrap()
        })
    });
    group.bench_function("counter_training", |b| {
        b.iter(|| CounterTrainer::fit(&encoder, black_box(&xs), &ys, K).unwrap())
    });
    // The streaming part alone (what scales with the dataset).
    group.bench_function("counter_observe_only", |b| {
        b.iter(|| {
            let mut trainer = CounterTrainer::new(&encoder, K).unwrap();
            for (x, &y) in xs.iter().zip(&ys) {
                trainer.observe(&encoder, black_box(x), y).unwrap();
            }
            trainer
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
