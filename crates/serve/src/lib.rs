//! # lookhd-serve — a run-to-completion TCP inference service for trained models
//!
//! The paper's deployment story is real-time classification on low-power
//! nodes; this crate is the serving half of that story: a std-only,
//! threaded TCP server that serves a trained `LKS1` classifier behind
//! the object-safe [`hdc::Classifier`] trait and answers length-prefixed
//! binary predict requests, scoring each one on the reactor thread that
//! reads it.
//!
//! * [`wire`] — the hardened frame/message codec (magic + version +
//!   request id + payload; every length capped before allocation), with
//!   an optional v2 layout carrying a client trace id and the `LHF1`
//!   feedback family (feedback / refresh / version-stamped predict);
//! * [`server`] — edge-triggered epoll reactors (one `SO_REUSEPORT`
//!   listener each; Linux only) that decode, score and answer each
//!   frame in one turn under per-round read and frame budgets,
//!   graceful shutdown, per-request tracing + model-quality telemetry
//!   when observability is on, and (via [`server::start_online`]) the
//!   online-training trainer thread with atomic model hot-swap, whose
//!   acks the reactor that owns each connection writes;
//! * [`client`] — a small blocking client (used by the CLI tests and the
//!   `loadgen` benchmark driver);
//! * [`model`] — the shareable classifier, its versions and the
//!   hot-swappable model slot;
//! * [`admin`] — the std-only HTTP admin listener serving live snapshot
//!   JSON, Prometheus text (with dimensional labels and OpenMetrics
//!   tail exemplars), Chrome trace-event exports, and the SLO-aware
//!   `/healthz` + `/slo.json` routes;
//! * [`slo`] — multi-window SLO burn rates and the shared
//!   [`slo::HealthState`] behind the health routes;
//! * [`metrics`] — the periodic snapshot flusher for crash-safe
//!   `--metrics` files.
//!
//! The correctness contract, pinned by `tests/serve_differential.rs`:
//! responses are **bit-identical** to direct single-threaded
//! [`Classifier::predict`] calls on the same model, whatever the reactor
//! count or request interleaving.
//!
//! ```no_run
//! use std::sync::Arc;
//! use lookhd_serve::{client::Client, server, ServeConfig};
//! use hdc::{FitClassifier, Classifier};
//! use lookhd::{LookHdClassifier, LookHdConfig};
//!
//! let xs = vec![vec![0.1; 4], vec![0.9; 4]];
//! let ys = vec![0, 1];
//! let clf = LookHdClassifier::fit(&LookHdConfig::new().with_dim(128), &xs, &ys)?;
//! let handle = server::start("127.0.0.1:0", Arc::new(clf), ServeConfig::new())?;
//! let mut client = Client::connect(handle.addr())?;
//! let response = client.predict(1, &[0.9; 4]);
//! handle.shutdown();
//! handle.join();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod client;
pub(crate) mod conn;
pub mod metrics;
pub mod model;
pub(crate) mod reactor;
pub mod server;
pub mod slo;
pub mod wire;

pub use admin::{
    http_get, http_get_status, start_admin, start_admin_with, AdminHandle, AdminOptions,
};
pub use client::Client;
pub use metrics::MetricsFlusher;
pub use model::{ModelSlot, SharedClassifier, VersionedModel};
pub use server::{start, start_online, OnlineConfig, ServeConfig, ServerHandle};
pub use slo::{Health, HealthState, SloAxis, SloConfig};
pub use wire::{ErrorCode, Request, Response, WireError};

/// Serializes every in-crate test that mutates the global obs/trace
/// state (admin routes, the flusher) so they cannot race each other.
#[cfg(test)]
pub(crate) static OBS_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
pub(crate) fn obs_test_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_TEST_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
