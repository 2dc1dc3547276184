//! The served model: a shareable classifier, the versions it is
//! installed under, and the slot that hot-swaps them.
//!
//! The server loads `LKS1` artifacts ([`lookhd::LookHdClassifier`]:
//! quantizer, lookup encoder and compressed model). Requests carry raw
//! feature vectors, and the server encodes and classifies them exactly
//! like `lookhd predict`. When the artifact names the score-LUT kernel,
//! loading rebuilds its tables from the model and the classifier scores
//! through them, and the server reports the active kernel in the admin
//! snapshot (`kernel.active.<name>`); the score-LUT is bit-identical to
//! the dense path, so only latency changes. The server speaks to the model through the object-safe
//! [`Classifier`] trait, which also lets tests substitute a fake.

use std::sync::{Arc, Mutex};

use hdc::Classifier;

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
