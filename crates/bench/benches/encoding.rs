//! Criterion microbench: baseline permutation encoding vs LookHD lookup
//! encoding (the wall-clock evidence behind the Fig. 13/14 encoding story).
//!
//! SPEECH geometry: n = 617 features, D = 2000, q = 4, r = 5 → m = 124
//! chunks. The lookup encoder replaces 617 rotated D-wide adds with a bit
//! count: each feature contributes the packed pair `P_c ⊕ ρ^j(L_lv)`, and
//! bit-sliced carry-save counters sum the 617 pairs over the 20 rotated
//! level vectors and 124 position keys.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hdc::encoding::{Encode, PermutationEncoder};
use hdc::levels::LevelMemory;
use hdc::quantize::{Quantization, Quantizer};
use lookhd::chunking::ChunkLayout;
use lookhd::encoder::LookupEncoder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 617;
const D: usize = 2000;
const Q: usize = 4;
const R: usize = 5;

fn setup() -> (PermutationEncoder, LookupEncoder, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(7);
    let levels = LevelMemory::generate(D, Q, &mut rng).unwrap();
    let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
    let quantizer = Quantizer::fit(Quantization::Equalized, &samples, Q).unwrap();
    let baseline = PermutationEncoder::new(levels.clone(), quantizer.clone(), N).unwrap();
    let layout = ChunkLayout::new(N, R, Q).unwrap();
    let lookup = LookupEncoder::new(layout, &levels, quantizer, 7).unwrap();
    let features: Vec<f64> = (0..N).map(|_| rng.gen_range(0.0..1.0)).collect();
    (baseline, lookup, features)
}

fn bench_encoding(c: &mut Criterion) {
    let (baseline, lookup, features) = setup();
    let mut group = c.benchmark_group("encoding_speech_n617_d2000");
    group.sample_size(20);
    group.bench_function("baseline_permutation", |b| {
        b.iter(|| baseline.encode(black_box(&features)).unwrap())
    });
    group.bench_function("lookhd_lookup", |b| {
        b.iter(|| lookup.encode(black_box(&features)).unwrap())
    });
    // The per-sample training path: quantize + counter addresses only.
    group.bench_function("lookhd_addresses_only", |b| {
        b.iter(|| lookup.addresses(black_box(&features)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
