//! # lookhd — lookup-based hyperdimensional learning (HPCA 2021)
//!
//! This crate implements the LookHD system from *Revisiting
//! HyperDimensional Learning for FPGA and Low-Power Architectures*:
//!
//! * [`chunking`] — feature splitting and concatenated-codebook addressing
//!   (§III-A, §III-C);
//! * [`encoder`] — the lookup encoder with random position-key aggregation
//!   (Eq. 3), computed from the rotated level vectors instead of a stored
//!   chunk table (§III-C);
//! * [`trainer`] — counter-based training that is bit-exact with
//!   encode-and-bundle but does no per-sample hypervector arithmetic: it
//!   counts per-feature quantization levels, the marginals of the paper's
//!   per-address counters (§III-D);
//! * [`compress`] — model compression into a single hypervector via random
//!   `P'` keys, with decorrelation and Eq. 5 signal/noise analysis (§IV);
//! * [`online`] — OnlineHD-style single-pass novelty-scaled training
//!   (the paper's ref \[13\]; an extension beyond the core LookHD pipeline);
//! * [`retrain`] — staged retraining on the compressed model with the
//!   exact update rule `fit` uses, plus the paper-hardware shift rule for
//!   ablations (§IV-D, §V-C);
//! * [`score_lut`] — the score-LUT inference kernel: per-chunk, per-class
//!   partial-score tables folding Eq. 5 scoring into the lookup table, so
//!   predict is `m` table reads and `m·k` adds (§III, §V applied to the
//!   scoring stage);
//! * [`score_kernel`] — the [`score_kernel::ScoreKernel`] the classifier
//!   scores through: the exact dense and score-LUT arithmetics, selected
//!   by [`score_kernel::KernelSpec`];
//! * [`classifier`] — the end-to-end [`classifier::LookHdClassifier`];
//! * [`sweep`] — structured hyperparameter grid sweeps (the Fig. 12 /
//!   Table II experiment pattern, reusable on any dataset);
//! * [`analysis`] — margin / noise-to-signal diagnostics predicting when
//!   compression is lossless (the Fig. 15 crossover, without the sweep).
//!
//! The baseline HDC substrate (hypervectors, quantizers, permutation
//! encoder, class models) lives in the companion [`hdc`] crate; LookHD's
//! encoders and models plug into the same [`hdc::encoding::Encode`] and
//! [`hdc::model::ClassModel`] abstractions.
//!
//! ## Example
//!
//! ```
//! use hdc::{Classifier, FitClassifier};
//! use lookhd::classifier::{LookHdClassifier, LookHdConfig};
//!
//! let xs: Vec<Vec<f64>> = (0..30)
//!     .map(|i| vec![if i % 2 == 0 { 0.2 } else { 0.8 }; 10])
//!     .collect();
//! let ys: Vec<usize> = (0..30).map(|i| i % 2).collect();
//!
//! let config = LookHdConfig::new().with_dim(512).with_q(2);
//! let clf = LookHdClassifier::fit(&config, &xs, &ys)?;
//! assert_eq!(clf.predict(&[0.2; 10])?, 0);
//! # Ok::<(), hdc::HdcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod chunking;
pub mod classifier;
pub mod compress;
pub mod encoder;
pub mod online;
pub mod retrain;
pub mod score_kernel;
pub mod score_lut;
pub mod sweep;
pub mod trainer;

pub use classifier::{LookHdClassifier, LookHdConfig};
pub use compress::{CompressedModel, CompressionConfig};
pub use online::StreamingTrainer;
pub use score_kernel::{build_kernel, KernelSpec, ScoreKernel};
pub use score_lut::ScoreLut;
