//! Hypervector types: bit-packed bipolar vectors and dense integer vectors.

mod bipolar;
mod dense;

pub use bipolar::BipolarHv;
pub use dense::{sum_bound_pairs, DenseHv};
