//! Loading served models from the workspace's persisted formats.
//!
//! The server speaks to models exclusively through the object-safe
//! [`Classifier`] trait, so any of the three on-disk formats can sit
//! behind one endpoint:
//!
//! * **`LKS1`** — a full [`LookHdClassifier`] (quantizer, lookup encoder,
//!   and compressed model). Requests carry *raw feature vectors*; the
//!   server encodes and classifies exactly like `lookhd predict`. When the
//!   artifact carries an SLT1 score-LUT section (`--kernel` at train
//!   time), the server picks it up transparently and reports the active
//!   kernel in the admin snapshot (`kernel.active.<name>`). The score-LUT
//!   is bit-identical to the dense path, so responses do not change, only
//!   their latency.
//! * **`HDC1`** — a bare [`ClassModel`] with no encoder. Requests carry a
//!   *pre-encoded hypervector* (one `f64` per dimension, rounded to the
//!   nearest `i32`); the edge device runs the cheap lookup encoding and
//!   ships the hypervector, the server runs the similarity search.
//! * **`LKC1`** — a bare [`CompressedModel`]; same pre-encoded contract
//!   as `HDC1` against the compressed search path.
//!
//! The format is sniffed from the artifact's magic bytes, mirroring how
//! the persistence layer brands its streams.

use std::path::Path;
use std::sync::{Arc, Mutex};

use hdc::hv::DenseHv;
use hdc::model::ClassModel;
use hdc::{Classifier, HdcError, Result};
use lookhd::{CompressedModel, LookHdClassifier};

/// A classifier that can be shared across server reactor threads.
pub type SharedClassifier = Arc<dyn Classifier + Send + Sync>;

/// One immutable model version: the classifier plus the monotonically
/// increasing version number it was installed under. A reactor loads
/// one `Arc<VersionedModel>` per predict frame, so every request is
/// answered — and stamped — by the version that was live when its frame
/// was scored, even if a hot-swap lands mid-score.
///
/// Construction pre-interns the version's dimensional metric handles
/// (`serve.predictions{kernel=,model_version=}` and the per-class
/// `serve.predicted{class=}` family), so the serving hot path records
/// through integer ids — no allocation, no string hashing — and the
/// `model_version` label flips **atomically** with the slot swap: a
/// frame that loaded version N keeps stamping N even while version N+1
/// is already live for newer frames.
#[derive(Clone)]
pub struct VersionedModel {
    version: u64,
    classifier: SharedClassifier,
    /// `serve.predictions{kernel=,model_version=}` — one bump per ok
    /// response, carrying this version's labels.
    predictions_id: obs::MetricId,
    /// `serve.predicted{class=<i>}` by class index. Classes beyond the
    /// registry's per-name label-set cap intern as
    /// [`obs::MetricId::INVALID`] and tally into `obs.dropped_names`
    /// instead of silently exhausting the name table.
    predicted_ids: Vec<obs::MetricId>,
}

impl VersionedModel {
    /// Wraps a classifier as version `version`.
    pub fn new(version: u64, classifier: SharedClassifier) -> Self {
        let kernel = classifier.kernel_name().unwrap_or("none");
        let version_label = version.to_string();
        let predictions_id = obs::intern_counter(
            "serve.predictions",
            &[("kernel", kernel), ("model_version", &version_label)],
        );
        // Classes past the registry's per-name label-set cap would
        // intern as INVALID anyway; capping the handle vector here keeps
        // a pathological `num_classes()` from allocating one slot per
        // class. `predicted_id` answers INVALID beyond the vector, so
        // overflow classes still tally into `obs.dropped_names`.
        let predicted_ids = (0..classifier.num_classes().min(obs::MAX_LABEL_SETS_PER_NAME))
            .map(|class| obs::intern_counter("serve.predicted", &[("class", &class.to_string())]))
            .collect();
        Self {
            version,
            classifier,
            predictions_id,
            predicted_ids,
        }
    }

    /// The installation number of this version (starts at 1).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The classifier answering requests for this version.
    pub fn classifier(&self) -> &SharedClassifier {
        &self.classifier
    }

    /// The pre-interned `serve.predictions{kernel=,model_version=}`
    /// counter handle.
    pub fn predictions_id(&self) -> obs::MetricId {
        self.predictions_id
    }

    /// The pre-interned `serve.predicted{class=}` handle for `class`
    /// ([`obs::MetricId::INVALID`] for an out-of-range class, which a
    /// record then tallies as dropped rather than panicking).
    pub fn predicted_id(&self, class: usize) -> obs::MetricId {
        self.predicted_ids
            .get(class)
            .copied()
            .unwrap_or(obs::MetricId::INVALID)
    }
}

/// The server's atomically swappable model slot.
///
/// [`ModelSlot::load`] hands out an `Arc` snapshot; [`ModelSlot::swap`]
/// installs a fresh classifier under the next version number. In-flight
/// work keeps predicting on the snapshot it loaded while new loads see
/// the new version immediately — the hot-swap contract pinned by
/// `tests/serve_hotswap.rs`. The slot is a mutex around an `Arc`
/// (swaps are rare and loads are one uncontended lock + clone; std has
/// no atomic `Arc` cell).
pub struct ModelSlot {
    current: Mutex<Arc<VersionedModel>>,
}

impl ModelSlot {
    /// Creates a slot holding `classifier` as version 1.
    pub fn new(classifier: SharedClassifier) -> Self {
        Self {
            current: Mutex::new(Arc::new(VersionedModel::new(1, classifier))),
        }
    }

    /// Snapshots the live version.
    pub fn load(&self) -> Arc<VersionedModel> {
        Arc::clone(&self.current.lock().expect("model slot poisoned"))
    }

    /// Atomically installs `classifier` as the next version and returns
    /// its version number.
    pub fn swap(&self, classifier: SharedClassifier) -> u64 {
        let mut slot = self.current.lock().expect("model slot poisoned");
        let version = slot.version() + 1;
        *slot = Arc::new(VersionedModel::new(version, classifier));
        version
    }

    /// The live version number.
    pub fn version(&self) -> u64 {
        self.current.lock().expect("model slot poisoned").version()
    }
}

/// Converts a wire feature vector into a hypervector query for the
/// encoder-less formats: arity must match the model dimension exactly and
/// every value is rounded to the nearest `i32`.
fn query_from_features(features: &[f64], dim: usize) -> Result<DenseHv> {
    if features.len() != dim {
        return Err(HdcError::DimensionMismatch {
            expected: dim,
            actual: features.len(),
        });
    }
    Ok(DenseHv::from_vec(
        features.iter().map(|&v| v.round() as i32).collect(),
    ))
}

/// [`Classifier`] adapter over a bare `HDC1` class model: features are a
/// pre-encoded hypervector.
#[derive(Debug, Clone)]
pub struct RawModelClassifier {
    model: ClassModel,
}

impl RawModelClassifier {
    /// Wraps a deserialized class model.
    pub fn new(model: ClassModel) -> Self {
        Self { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &ClassModel {
        &self.model
    }
}

impl Classifier for RawModelClassifier {
    fn num_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn predict(&self, features: &[f64]) -> Result<usize> {
        self.model
            .predict(&query_from_features(features, self.model.dim())?)
    }

    fn class_scores(&self, features: &[f64]) -> Result<Option<Vec<f64>>> {
        self.model
            .scores(&query_from_features(features, self.model.dim())?)
            .map(Some)
    }
}

/// [`Classifier`] adapter over a bare `LKC1` compressed model: features
/// are a pre-encoded hypervector.
#[derive(Debug, Clone)]
pub struct CompressedModelClassifier {
    model: CompressedModel,
}

impl CompressedModelClassifier {
    /// Wraps a deserialized compressed model.
    pub fn new(model: CompressedModel) -> Self {
        Self { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &CompressedModel {
        &self.model
    }
}

impl Classifier for CompressedModelClassifier {
    fn num_classes(&self) -> usize {
        self.model.n_classes()
    }

    fn predict(&self, features: &[f64]) -> Result<usize> {
        self.model
            .predict(&query_from_features(features, self.model.dim())?)
    }

    fn class_scores(&self, features: &[f64]) -> Result<Option<Vec<f64>>> {
        self.model
            .scores(&query_from_features(features, self.model.dim())?)
            .map(Some)
    }
}

/// Deserializes a servable classifier from any persisted format,
/// dispatching on the artifact's magic bytes (`LKS1`, `HDC1`, `LKC1`).
///
/// # Errors
///
/// Returns [`HdcError::InvalidDataset`] for an unrecognized magic and
/// propagates the format's own errors for malformed artifacts.
pub fn classifier_from_bytes(bytes: &[u8]) -> Result<SharedClassifier> {
    match bytes.get(..4) {
        Some(b"LKS1") => Ok(Arc::new(LookHdClassifier::from_bytes(bytes)?)),
        Some(b"HDC1") => {
            let model = hdc::persist::model_from_bytes(bytes)
                .map_err(|e| HdcError::invalid_dataset(format!("HDC1 model: {e}")))?;
            Ok(Arc::new(RawModelClassifier::new(model)))
        }
        Some(b"LKC1") => Ok(Arc::new(CompressedModelClassifier::new(
            CompressedModel::from_bytes(bytes)?,
        ))),
        _ => Err(HdcError::invalid_dataset(
            "unrecognized model magic: expected LKS1, HDC1, or LKC1",
        )),
    }
}

/// Reads a servable classifier from a file (see [`classifier_from_bytes`]).
///
/// # Errors
///
/// Returns [`HdcError::InvalidDataset`] for I/O failures or malformed
/// artifacts.
pub fn load_classifier(path: &Path) -> Result<SharedClassifier> {
    let bytes = std::fs::read(path)
        .map_err(|e| HdcError::invalid_dataset(format!("reading {}: {e}", path.display())))?;
    classifier_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::FitClassifier;
    use lookhd::LookHdConfig;

    fn tiny_lookhd() -> (LookHdClassifier, Vec<Vec<f64>>) {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..24 {
            let class = i % 2;
            let base = if class == 0 { 0.25 } else { 0.75 };
            let jitter = (i / 2) as f64 * 0.01;
            features.push(vec![base + jitter, base - jitter, base, 1.0 - base]);
            labels.push(class);
        }
        let config = LookHdConfig::new().with_dim(64).with_retrain_epochs(1);
        let clf = LookHdClassifier::fit(&config, &features, &labels).unwrap();
        (clf, features)
    }

    #[test]
    fn all_three_formats_load_and_predict() {
        let (clf, features) = tiny_lookhd();

        let lks = classifier_from_bytes(&clf.to_bytes().unwrap()).unwrap();
        for x in &features {
            assert_eq!(lks.predict(x).unwrap(), clf.predict(x).unwrap());
        }

        let hdc_bytes = hdc::persist::model_to_bytes(clf.model()).unwrap();
        let raw = classifier_from_bytes(&hdc_bytes).unwrap();
        assert_eq!(raw.num_classes(), clf.model().n_classes());
        let lkc = classifier_from_bytes(&clf.compressed().to_bytes().unwrap()).unwrap();
        assert_eq!(lkc.num_classes(), clf.compressed().n_classes());
        for x in &features {
            let h = clf.encode(x).unwrap();
            let as_f64: Vec<f64> = h.as_slice().iter().map(|&v| v as f64).collect();
            assert_eq!(
                raw.predict(&as_f64).unwrap(),
                clf.model().predict(&h).unwrap()
            );
            assert_eq!(
                lkc.predict(&as_f64).unwrap(),
                clf.compressed().predict(&h).unwrap()
            );
        }
    }

    #[test]
    fn score_lut_artifact_loads_and_matches_dense_sibling() {
        let (dense_clf, features) = tiny_lookhd();
        // Same data and seed, kernel enabled (which needs decorrelation
        // off — also turn it off for the dense sibling so the two models
        // are trained identically).
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..24 {
            let class = i % 2;
            let base = if class == 0 { 0.25 } else { 0.75 };
            let jitter = (i / 2) as f64 * 0.01;
            xs.push(vec![base + jitter, base - jitter, base, 1.0 - base]);
            ys.push(class);
        }
        let base_cfg = LookHdConfig::new()
            .with_dim(64)
            .with_retrain_epochs(1)
            .with_compression(lookhd::CompressionConfig::new().with_decorrelate(false));
        let dense = LookHdClassifier::fit(&base_cfg, &xs, &ys).unwrap();
        let fast = LookHdClassifier::fit(
            &base_cfg.clone().with_kernel(lookhd::KernelSpec::auto()),
            &xs,
            &ys,
        )
        .unwrap();
        assert!(fast.score_lut().is_some());
        let served = classifier_from_bytes(&fast.to_bytes().unwrap()).unwrap();
        assert_eq!(served.kernel_name(), Some("lut"));
        for x in &features {
            assert_eq!(served.predict(x).unwrap(), dense.predict(x).unwrap());
        }
        let _ = dense_clf;
    }

    #[test]
    fn dense_kernel_artifact_loads_and_reports_its_kernel() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..24 {
            let class = i % 2;
            let base = if class == 0 { 0.25 } else { 0.75 };
            let jitter = (i / 2) as f64 * 0.01;
            xs.push(vec![base + jitter, base - jitter, base, 1.0 - base]);
            ys.push(class);
        }
        let cfg = LookHdConfig::new().with_dim(64).with_retrain_epochs(1);
        let clf = LookHdClassifier::fit(&cfg, &xs, &ys).unwrap();
        let served = classifier_from_bytes(&clf.to_bytes().unwrap()).unwrap();
        assert_eq!(served.kernel_name(), Some("dense"));
        for x in &xs {
            assert_eq!(served.predict(x).unwrap(), clf.predict(x).unwrap());
        }
        // Encoder-less formats report no kernel.
        let raw =
            classifier_from_bytes(&hdc::persist::model_to_bytes(clf.model()).unwrap()).unwrap();
        assert_eq!(raw.kernel_name(), None);
    }

    #[test]
    fn wrong_arity_and_bad_magic_error() {
        let (clf, _) = tiny_lookhd();
        let raw =
            classifier_from_bytes(&hdc::persist::model_to_bytes(clf.model()).unwrap()).unwrap();
        assert!(raw.predict(&[1.0, 2.0]).is_err());
        assert!(classifier_from_bytes(b"NOPE-not-a-model").is_err());
        assert!(classifier_from_bytes(&[]).is_err());
        assert!(load_classifier(Path::new("/nonexistent/model.lks")).is_err());
    }
}
