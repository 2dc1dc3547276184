//! # lookhd-paper — a Rust reproduction of LookHD (HPCA 2021)
//!
//! This facade crate re-exports the whole reproduction of *Revisiting
//! HyperDimensional Learning for FPGA and Low-Power Architectures*:
//!
//! * [`hdc`] — the baseline HDC substrate (hypervectors, quantizers,
//!   permutation encoding, class models, training, metrics);
//! * [`lookhd`] — the paper's contribution (lookup encoding, counter
//!   training, model compression, compressed retraining);
//! * [`datasets`] — synthetic stand-ins for the five evaluation
//!   applications;
//! * [`hwsim`] — analytic FPGA / ARM / GPU cost models;
//! * [`mlp`] — the Table IV MLP comparator;
//! * [`rtl`] — fixed-point datapath emulation and width verification;
//! * [`obs`] — std-only timing spans / counters behind the CLI's
//!   `--metrics` flag;
//! * [`serve`] — the TCP inference service behind `lookhd serve`
//!   (hardened wire protocol, epoll reactors that score each request on
//!   the thread that reads it, online training with model hot-swap,
//!   graceful shutdown).
//!
//! See `examples/quickstart.rs` for a five-minute tour, DESIGN.md for the
//! system inventory and per-experiment index, and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use lookhd_paper::prelude::*;
//!
//! let xs: Vec<Vec<f64>> = (0..30)
//!     .map(|i| vec![if i % 2 == 0 { 0.2 } else { 0.8 }; 10])
//!     .collect();
//! let ys: Vec<usize> = (0..30).map(|i| i % 2).collect();
//! let clf = LookHdClassifier::fit(
//!     &LookHdConfig::new().with_dim(512).with_q(2),
//!     &xs,
//!     &ys,
//! )?;
//! assert_eq!(clf.predict(&[0.2; 10])?, 0);
//! # Ok::<(), lookhd_paper::hdc::HdcError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hdc;
pub use lookhd;

/// The std-only observability layer behind `--metrics` (timing spans,
/// counters, latency histograms).
pub use obs;

/// One-stop imports: the classifier traits and the three model families
/// with their configs.
///
/// ```
/// use lookhd_paper::prelude::*;
///
/// let xs = vec![vec![0.1; 4], vec![0.9; 4]];
/// let ys = vec![0, 1];
/// let config = HdcConfig::new().with_dim(256);
/// let clf = HdcClassifier::fit(&config, &xs, &ys)?;
/// assert_eq!(clf.num_classes(), 2);
/// # Ok::<(), HdcError>(())
/// ```
pub mod prelude {
    pub use hdc::classifier::{HdcClassifier, HdcConfig};
    pub use hdc::{Classifier, FitClassifier, HdcError, Result};
    pub use lookhd::{LookHdClassifier, LookHdConfig};
    pub use lookhd_mlp::{Mlp, MlpConfig};
}

/// The TCP inference service (`lookhd serve` + `loadgen`).
pub use lookhd_serve as serve;

/// Synthetic stand-ins for the paper's five evaluation datasets.
pub use lookhd_datasets as datasets;
/// Analytic FPGA / CPU / GPU hardware cost models.
pub use lookhd_hwsim as hwsim;
/// The Table IV MLP comparator.
pub use lookhd_mlp as mlp;
/// Fixed-point datapath emulation and bit-width verification.
pub use lookhd_rtl as rtl;
