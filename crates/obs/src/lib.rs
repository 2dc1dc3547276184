//! Std-only observability layer: hierarchical spans, counters, and
//! duration histograms behind a sharded, windowed, dimensional
//! process-global registry.
//!
//! The ROADMAP's serving ambitions need stage-level cost accounting — the
//! paper's Fig. 2 breakdown (encode vs train-add vs associative search) as
//! a *measured* artifact of every run, not a one-off experiment — without
//! the telemetry layer itself becoming the cross-thread serialization
//! point. This crate provides that accounting with zero external
//! dependencies:
//!
//! * **Spans** — scope-guard timers ([`span`]) that nest hierarchically
//!   per thread: a span opened while another is active on the same thread
//!   records under `parent/child`. Each distinct path aggregates a count,
//!   total/min/max, a fixed power-of-two-nanosecond histogram, a rolling
//!   window ring, and tail exemplars.
//! * **Counters** — monotonic `u64` counters ([`counter`]).
//! * **Raw durations** — [`record`] files a duration under an explicit
//!   path, ignoring the thread's span stack, for callers that time work
//!   themselves (the serve reactors' stage timings). [`record_traced`]
//!   additionally tags the observation with a trace id so tail-bucket
//!   hits surface as exemplars.
//! * **Dimensions** — [`intern_counter`]/[`intern_span`] accept a small
//!   sorted label set (`reactor="0"`, `model_version="2"`, …) and return
//!   a copyable id; [`counter_id`]/[`record_id`] then record with **no
//!   allocation, no hashing, and no shared lock**. Cardinality is
//!   bounded per name ([`MAX_LABEL_SETS_PER_NAME`]) and globally
//!   ([`MAX_SPAN_PATHS`], [`MAX_COUNTER_NAMES`]); overflow is dropped
//!   and tallied in [`DROPPED_NAMES_COUNTER`].
//!
//! ## Cost model
//!
//! The registry is **disabled by default**. Every instrumentation entry
//! point first checks one relaxed atomic load and returns immediately when
//! disabled, so instrumented hot paths (per-sample encode, per-query
//! predict) cost one predictable branch. When enabled, a record takes the
//! calling thread's **own lock stripe** (threads are assigned one of
//! [`N_SHARDS`] stripes round-robin, see [`shard`](self)); with up to
//! `N_SHARDS` recording threads the mutex is uncontended and a record is
//! an integer-indexed cell update — no map lookup, no allocation. The
//! string-keyed entry points ([`counter`], [`record`], [`span`]) resolve
//! names through a thread-local cache, so they too are allocation-free
//! in steady state; pre-interned ids skip even that.
//!
//! A span's path depends on what encloses it: `encode` records as
//! `fit/encode_batch/encode` inside a fit and as `encode` on its own.
//! Consumers match stage names by path *segment*, not by exact path (see
//! [`Snapshot::total_for`]).
//!
//! ## Windows
//!
//! Every cell carries a rolling ring of [`WINDOW_SLOTS`] ×
//! [`WINDOW_SLOT_SECS`]-second slots (see [`window`]). Snapshots fold the
//! ring into last-[`WINDOW_SHORT_SECS`]-s and last-[`WINDOW_LONG_SECS`]-s
//! aggregates: windowed rates for counters, windowed rate + p50/p95/p99
//! for spans — the inputs for burn-rate SLO evaluation, alongside the
//! exact cumulative stats.
//!
//! ## Emitters
//!
//! [`Snapshot::to_json`] renders the deterministic JSON document written
//! by the CLI's `--metrics` flag (schema documented on the method);
//! [`Snapshot::to_prometheus`] renders Prometheus text exposition with
//! real labels and OpenMetrics exemplars for live scraping (the serve
//! admin endpoint).
//!
//! ## Tracing
//!
//! The [`trace`] module is the per-request complement to this aggregate
//! registry: a bounded, lock-striped ring of begin/end events carrying
//! propagated trace ids, exportable as Chrome trace-event JSON. Span
//! exemplars captured here resolve against that export.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod trace;

mod shard;
mod window;

pub use shard::{Exemplar, N_EXEMPLARS, N_SHARDS};
pub use window::{
    set_window_epoch_for_test, WindowAgg, WINDOW_LONG_SECS, WINDOW_SHORT_SECS, WINDOW_SLOTS,
    WINDOW_SLOT_SECS,
};

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use shard::{SeqExemplar, Shard};
use window::SpanWinFold;

/// Number of histogram buckets. Bucket `i` holds durations whose
/// nanosecond count has bit-length `i` (i.e. `2^(i-1) ≤ ns < 2^i`;
/// bucket 0 holds exact zeros). 40 buckets span 1 ns to ~9 minutes;
/// longer durations clamp into the last bucket.
pub const N_BUCKETS: usize = 40;

/// Separator between nested span names in a recorded path.
pub const PATH_SEPARATOR: char = '/';

/// Most distinct span keys (path + label set) a registry will hold.
/// Callers that interpolate unbounded values into span names (request
/// ids, user input) can no longer grow the map without limit:
/// observations for keys beyond the cap are dropped and tallied in the
/// [`DROPPED_NAMES_COUNTER`] counter instead of allocating.
pub const MAX_SPAN_PATHS: usize = 1024;

/// Most distinct counter keys (name + label set) a registry will hold
/// (see [`MAX_SPAN_PATHS`]).
pub const MAX_COUNTER_NAMES: usize = 1024;

/// Most distinct *label sets* one metric name will hold. A labeled
/// dimension with unbounded values (e.g. a per-class counter on a
/// model with thousands of classes) exhausts only its own name's label
/// space — later, unrelated metrics still intern fine.
pub const MAX_LABEL_SETS_PER_NAME: usize = 256;

/// Counter name under which dropped-by-cardinality-cap observations are
/// reported in snapshots.
pub const DROPPED_NAMES_COUNTER: &str = "obs.dropped_names";

thread_local! {
    /// The calling thread's active span path ("a/b/c" while spans a, b, c
    /// are open). Guards push on creation and truncate back on drop.
    static SPAN_PATH: RefCell<String> = const { RefCell::new(String::new()) };

    /// Per-thread name → id cache for the string-keyed global entry
    /// points, invalidated wholesale when the global registry resets.
    static NAME_CACHE: RefCell<NameCache> = RefCell::new(NameCache::default());
}

/// Bumped by [`Registry::reset`] so thread-local name caches drop ids
/// interned before the reset.
static GENERATION: AtomicU64 = AtomicU64::new(1);

#[derive(Default)]
struct NameCache {
    generation: u64,
    counters: HashMap<String, u32>,
    spans: HashMap<String, u32>,
}

/// Raw id value marking a key dropped by a cardinality cap.
const INVALID_ID: u32 = u32::MAX;

/// Pre-interned handle to one counter (name + label set). Obtained from
/// [`intern_counter`]; recording through it ([`counter_id`]) allocates
/// nothing and takes only the calling thread's own lock stripe.
///
/// Ids are registry-specific and are invalidated by [`Registry::reset`];
/// re-intern after a reset (resets are a test/CLI-boundary affair, not
/// something a live server does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(u32);

impl MetricId {
    /// Handle for a key dropped by a cardinality cap: recording through
    /// it only tallies [`DROPPED_NAMES_COUNTER`].
    pub const INVALID: Self = Self(INVALID_ID);
}

/// Pre-interned handle to one span key (path + label set); the span
/// counterpart of [`MetricId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// See [`MetricId::INVALID`].
    pub const INVALID: Self = Self(INVALID_ID);
}

/// One interned metric identity: name plus sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        Self {
            name: name.to_owned(),
            labels,
        }
    }
}

/// Key → id table for one metric kind. Interning is the only place the
/// registry ever allocates or takes a shared lock; it happens once per
/// distinct key (at startup / model swap / first use of a name), never
/// per record.
#[derive(Debug)]
struct Interner {
    keys: Vec<MetricKey>,
    ids: BTreeMap<MetricKey, u32>,
    /// Label sets interned per name (unlabeled keys don't count).
    label_sets: BTreeMap<String, u32>,
    cap: usize,
}

impl Interner {
    const fn new(cap: usize) -> Self {
        Self {
            keys: Vec::new(),
            ids: BTreeMap::new(),
            label_sets: BTreeMap::new(),
            cap,
        }
    }

    fn intern(&mut self, name: &str, labels: &[(&str, &str)]) -> u32 {
        let key = MetricKey::new(name, labels);
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        if self.keys.len() >= self.cap {
            return INVALID_ID;
        }
        if !key.labels.is_empty() {
            let per_name = self.label_sets.entry(key.name.clone()).or_insert(0);
            if *per_name as usize >= MAX_LABEL_SETS_PER_NAME {
                return INVALID_ID;
            }
            *per_name += 1;
        }
        let id = self.keys.len() as u32;
        self.keys.push(key.clone());
        self.ids.insert(key, id);
        id
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.ids.clear();
        self.label_sets.clear();
    }
}

/// A metrics registry: named span statistics plus named counters, held
/// in [`N_SHARDS`] lock stripes behind pre-interned integer ids.
///
/// All methods are thread-safe. The process-global instance behind
/// [`global`] is what the free-function API ([`span`], [`counter`],
/// [`record`], [`snapshot`]) operates on.
#[derive(Debug)]
pub struct Registry {
    enabled: AtomicBool,
    /// Observations dropped because a cardinality cap was hit.
    dropped: AtomicU64,
    counter_intern: Mutex<Interner>,
    span_intern: Mutex<Interner>,
    shards: [Mutex<Shard>; N_SHARDS],
}

impl Registry {
    /// Creates a disabled, empty registry.
    pub const fn new() -> Self {
        Self {
            enabled: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
            counter_intern: Mutex::new(Interner::new(MAX_COUNTER_NAMES)),
            span_intern: Mutex::new(Interner::new(MAX_SPAN_PATHS)),
            shards: [const { Mutex::new(Shard::new()) }; N_SHARDS],
        }
    }

    /// Whether instrumentation records into this registry.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. Existing data is kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Clears all recorded data *and* the intern tables (the enabled
    /// flag is kept). Previously obtained [`MetricId`]/[`SpanId`]
    /// handles are invalidated — re-intern after a reset.
    pub fn reset(&self) {
        // Take the intern locks first so concurrent string-keyed
        // records can't intern into a table we're about to clear.
        let mut counters = lock(&self.counter_intern);
        let mut spans = lock(&self.span_intern);
        counters.clear();
        spans.clear();
        for shard in &self.shards {
            lock(shard).clear();
        }
        self.dropped.store(0, Ordering::Relaxed);
        GENERATION.fetch_add(1, Ordering::Relaxed);
    }

    /// Interns a counter key, returning a copyable allocation-free
    /// recording handle. Idempotent; caps return [`MetricId::INVALID`].
    pub fn intern_counter(&self, name: &str, labels: &[(&str, &str)]) -> MetricId {
        MetricId(lock(&self.counter_intern).intern(name, labels))
    }

    /// Interns a span key (see [`Registry::intern_counter`]).
    pub fn intern_span(&self, path: &str, labels: &[(&str, &str)]) -> SpanId {
        SpanId(lock(&self.span_intern).intern(path, labels))
    }

    /// Adds `delta` to the counter behind a pre-interned id. No-op while
    /// disabled; an [`MetricId::INVALID`] id tallies one drop.
    pub fn add_id(&self, id: MetricId, delta: u64) {
        if !self.enabled() {
            return;
        }
        if id.0 == INVALID_ID {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let epoch = window::now_epoch();
        lock(&self.shards[shard::shard_index()])
            .counter_cell(id.0 as usize)
            .add(delta, epoch);
    }

    /// Records one duration under a pre-interned span id. No-op while
    /// disabled; an [`SpanId::INVALID`] id tallies one drop.
    pub fn record_id(&self, id: SpanId, d: Duration) {
        self.record_id_traced(id, d, 0);
    }

    /// Like [`Registry::record_id`], additionally tagging the
    /// observation with a trace id (0 = untraced) so tail-bucket hits
    /// are kept as exemplars.
    pub fn record_id_traced(&self, id: SpanId, d: Duration, trace_id: u64) {
        if !self.enabled() {
            return;
        }
        if id.0 == INVALID_ID {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let epoch = window::now_epoch();
        lock(&self.shards[shard::shard_index()])
            .span_cell(id.0 as usize)
            .observe(d, trace_id, epoch);
    }

    /// Adds `delta` to the monotonic counter `name` (string-keyed form:
    /// interns on first use). No-op while disabled.
    pub fn add(&self, name: &str, delta: u64) {
        if !self.enabled() {
            return;
        }
        let id = self.intern_counter(name, &[]);
        self.add_id(id, delta);
    }

    /// Records one duration observation under `path`, bypassing the
    /// calling thread's span stack (string-keyed form). No-op while
    /// disabled.
    pub fn record_span(&self, path: &str, d: Duration) {
        if !self.enabled() {
            return;
        }
        let id = self.intern_span(path, &[]);
        self.record_id_traced(id, d, 0);
    }

    /// A point-in-time copy of every span and counter, sorted by
    /// (name, labels). Observations dropped by the cardinality caps
    /// surface as the [`DROPPED_NAMES_COUNTER`] counter.
    ///
    /// Shards are locked one at a time, so writers are never blocked
    /// for the whole fold; each *cell* is read atomically (its shard
    /// lock is held while copying), so windowed aggregates are never
    /// torn, but two different metrics may reflect instants a few
    /// microseconds apart.
    pub fn snapshot(&self) -> Snapshot {
        let now = window::now_epoch();
        let counter_keys: Vec<MetricKey> = lock(&self.counter_intern).keys.clone();
        let span_keys: Vec<MetricKey> = lock(&self.span_intern).keys.clone();

        let mut counter_merge: Vec<Option<CounterMerge>> = Vec::new();
        counter_merge.resize_with(counter_keys.len(), || None);
        let mut span_merge: Vec<Option<Box<SpanMerge>>> = Vec::new();
        span_merge.resize_with(span_keys.len(), || None);

        for shard in &self.shards {
            let shard = lock(shard);
            for (id, cell) in shard.counters.iter().enumerate() {
                let Some(cell) = cell else { continue };
                if id >= counter_merge.len() {
                    continue; // racing intern after the key copy
                }
                let (w10, w60) = cell.win.fold(now);
                let m = counter_merge[id].get_or_insert_with(CounterMerge::default);
                m.value += cell.value;
                m.w10 += w10;
                m.w60 += w60;
            }
            for (id, cell) in shard.spans.iter().enumerate() {
                let Some(cell) = cell else { continue };
                if id >= span_merge.len() {
                    continue;
                }
                let m = span_merge[id].get_or_insert_with(|| Box::new(SpanMerge::new()));
                m.count += cell.count;
                m.total += cell.total;
                m.min = m.min.min(cell.min);
                m.max = m.max.max(cell.max);
                for (a, &b) in m.buckets.iter_mut().zip(&cell.buckets) {
                    *a += b;
                }
                let (w10, w60) = cell.win.fold(now);
                m.w10.merge(&w10);
                m.w60.merge(&w60);
                m.exemplars.extend(cell.exemplars().copied());
            }
        }

        // Deterministic order: sort ids by their (name, labels) key.
        let mut span_order: Vec<usize> = (0..span_keys.len()).collect();
        span_order.sort_by(|&a, &b| span_keys[a].cmp(&span_keys[b]));
        let mut counter_order: Vec<usize> = (0..counter_keys.len()).collect();
        counter_order.sort_by(|&a, &b| counter_keys[a].cmp(&counter_keys[b]));

        let spans: Vec<SpanStats> = span_order
            .into_iter()
            .filter_map(|id| {
                let m = span_merge[id].take()?;
                let key = &span_keys[id];
                let min_ns = duration_ns(m.min);
                let max_ns = duration_ns(m.max);
                let mut exemplars = m.exemplars;
                exemplars.sort_by_key(|e| std::cmp::Reverse(e.seq));
                exemplars.truncate(N_EXEMPLARS);
                Some(SpanStats {
                    path: key.name.clone(),
                    labels: key.labels.clone(),
                    count: m.count,
                    total: m.total,
                    min: if m.count == 0 { Duration::ZERO } else { m.min },
                    max: m.max,
                    buckets: m.buckets,
                    w10: window_agg(&m.w10, WINDOW_SHORT_SECS, min_ns, max_ns),
                    w60: window_agg(&m.w60, WINDOW_LONG_SECS, min_ns, max_ns),
                    exemplars: exemplars.into_iter().map(|e| e.exemplar).collect(),
                })
            })
            .collect();

        let mut counters: Vec<CounterStats> = counter_order
            .into_iter()
            .filter_map(|id| {
                let m = counter_merge[id].take()?;
                let key = &counter_keys[id];
                Some(CounterStats {
                    name: key.name.clone(),
                    labels: key.labels.clone(),
                    value: m.value,
                    w10: m.w10,
                    w60: m.w60,
                })
            })
            .collect();

        let dropped = self.dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            match counters
                .iter_mut()
                .find(|c| c.name == DROPPED_NAMES_COUNTER && c.labels.is_empty())
            {
                Some(c) => c.value += dropped,
                None => {
                    counters.push(CounterStats {
                        name: DROPPED_NAMES_COUNTER.to_owned(),
                        labels: Vec::new(),
                        value: dropped,
                        w10: 0,
                        w60: 0,
                    });
                    counters.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
                }
            }
        }

        Snapshot { spans, counters }
    }
}

/// Cross-shard merge accumulator for one counter id.
#[derive(Debug, Default)]
struct CounterMerge {
    value: u64,
    w10: u64,
    w60: u64,
}

/// Cross-shard merge accumulator for one span id.
#[derive(Debug)]
struct SpanMerge {
    count: u64,
    total: Duration,
    min: Duration,
    max: Duration,
    buckets: [u64; N_BUCKETS],
    w10: SpanWinFold,
    w60: SpanWinFold,
    exemplars: Vec<SeqExemplar>,
}

impl SpanMerge {
    fn new() -> Self {
        Self {
            count: 0,
            total: Duration::ZERO,
            min: Duration::MAX,
            max: Duration::ZERO,
            buckets: [0; N_BUCKETS],
            w10: SpanWinFold::default(),
            w60: SpanWinFold::default(),
            exemplars: Vec::new(),
        }
    }
}

/// Builds the public windowed aggregate from a folded window.
fn window_agg(fold: &SpanWinFold, secs: u64, min_ns: u64, max_ns: u64) -> WindowAgg {
    WindowAgg {
        count: fold.count,
        total_ns: fold.total_ns,
        p50_ns: quantile_from_buckets(&fold.buckets, fold.count, 0.50, min_ns, max_ns),
        p95_ns: quantile_from_buckets(&fold.buckets, fold.count, 0.95, min_ns, max_ns),
        p99_ns: quantile_from_buckets(&fold.buckets, fold.count, 0.99, min_ns, max_ns),
        secs,
    }
}

/// Ceil-rank quantile over a power-of-two histogram, clamped into
/// `[min_ns, max_ns]` (see [`SpanStats::quantile_ns`] for the
/// convention). Returns 0 when `count` is 0.
fn quantile_from_buckets(
    buckets: &[u64; N_BUCKETS],
    count: u64,
    p: f64,
    min_ns: u64,
    max_ns: u64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((p.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_upper_ns(i).clamp(min_ns, max_ns);
        }
    }
    max_ns
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The histogram bucket a duration falls into (bit length of its
/// nanosecond count, clamped to the last bucket).
pub fn bucket_index(d: Duration) -> usize {
    let ns = d.as_nanos().min(u128::from(u64::MAX)) as u64;
    let bits = (u64::BITS - ns.leading_zeros()) as usize;
    bits.min(N_BUCKETS - 1)
}

/// Inclusive nanosecond upper bound of histogram bucket `i`.
pub fn bucket_upper_ns(i: usize) -> u64 {
    if i >= N_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-global registry used by the free-function API.
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Whether the global registry is recording.
pub fn enabled() -> bool {
    GLOBAL.enabled()
}

/// Enables or disables recording into the global registry.
pub fn set_enabled(on: bool) {
    GLOBAL.set_enabled(on);
}

/// Clears the global registry's recorded data and intern tables
/// (invalidating previously interned ids — see [`Registry::reset`]).
pub fn reset() {
    GLOBAL.reset();
}

/// Interns a counter key in the global registry (see
/// [`Registry::intern_counter`]).
pub fn intern_counter(name: &str, labels: &[(&str, &str)]) -> MetricId {
    GLOBAL.intern_counter(name, labels)
}

/// Interns a span key in the global registry (see
/// [`Registry::intern_span`]).
pub fn intern_span(path: &str, labels: &[(&str, &str)]) -> SpanId {
    GLOBAL.intern_span(path, labels)
}

/// Adds `delta` to a pre-interned global counter: the zero-allocation,
/// stripe-local hot path.
pub fn counter_id(id: MetricId, delta: u64) {
    GLOBAL.add_id(id, delta);
}

/// Records a duration under a pre-interned global span id.
pub fn record_id(id: SpanId, d: Duration) {
    GLOBAL.record_id(id, d);
}

/// Records a duration under a pre-interned global span id, tagged with
/// a trace id (0 = untraced) for tail-exemplar capture.
pub fn record_id_traced(id: SpanId, d: Duration, trace_id: u64) {
    GLOBAL.record_id_traced(id, d, trace_id);
}

/// Resolves `name` to a counter id through the calling thread's cache
/// (allocation-free on hit; interns on miss).
fn cached_counter_id(name: &str) -> MetricId {
    NAME_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let generation = GENERATION.load(Ordering::Relaxed);
        if cache.generation != generation {
            cache.generation = generation;
            cache.counters.clear();
            cache.spans.clear();
        }
        if let Some(&id) = cache.counters.get(name) {
            return MetricId(id);
        }
        let id = GLOBAL.intern_counter(name, &[]);
        cache.counters.insert(name.to_owned(), id.0);
        id
    })
}

/// Span-path counterpart of [`cached_counter_id`].
fn cached_span_id(path: &str) -> SpanId {
    NAME_CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        let generation = GENERATION.load(Ordering::Relaxed);
        if cache.generation != generation {
            cache.generation = generation;
            cache.counters.clear();
            cache.spans.clear();
        }
        if let Some(&id) = cache.spans.get(path) {
            return SpanId(id);
        }
        let id = GLOBAL.intern_span(path, &[]);
        cache.spans.insert(path.to_owned(), id.0);
        id
    })
}

/// Adds `delta` to global counter `name` (one atomic load when
/// disabled; thread-cached name resolution when enabled).
pub fn counter(name: &str, delta: u64) {
    if !GLOBAL.enabled() {
        return;
    }
    GLOBAL.add_id(cached_counter_id(name), delta);
}

/// Records a duration under an explicit `path` in the global registry,
/// independent of the calling thread's span stack.
pub fn record(path: &str, d: Duration) {
    record_traced(path, d, 0);
}

/// Like [`record`], additionally tagging the observation with a trace
/// id (0 = untraced) so tail-bucket hits surface as OpenMetrics
/// exemplars resolvable against the trace ring.
pub fn record_traced(path: &str, d: Duration, trace_id: u64) {
    if !GLOBAL.enabled() {
        return;
    }
    GLOBAL.record_id_traced(cached_span_id(path), d, trace_id);
}

/// A point-in-time copy of the global registry.
pub fn snapshot() -> Snapshot {
    GLOBAL.snapshot()
}

/// Opens a scope-guard span named `name` on the calling thread.
///
/// While the guard lives, further spans on the same thread nest under it
/// (`parent/child` paths). Dropping the guard records the elapsed time.
/// When the registry is disabled at open time the guard is inert — one
/// relaxed atomic load is the entire cost.
#[must_use = "a span records its duration when dropped"]
pub fn span(name: &str) -> SpanGuard {
    if !GLOBAL.enabled() {
        return SpanGuard {
            active: None,
            _not_send: PhantomData,
        };
    }
    let prev_len = SPAN_PATH.with(|p| {
        let mut p = p.borrow_mut();
        let prev = p.len();
        if !p.is_empty() {
            p.push(PATH_SEPARATOR);
        }
        p.push_str(name);
        prev
    });
    SpanGuard {
        active: Some(ActiveSpan {
            started: Instant::now(),
            prev_len,
        }),
        _not_send: PhantomData,
    }
}

#[derive(Debug)]
struct ActiveSpan {
    started: Instant,
    prev_len: usize,
}

/// Scope guard returned by [`span`]; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
    /// Guards edit a thread-local path stack, so they must be dropped on
    /// the thread that created them.
    _not_send: PhantomData<*mut ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        let elapsed = active.started.elapsed();
        SPAN_PATH.with(|p| {
            let mut p = p.borrow_mut();
            if GLOBAL.enabled() {
                GLOBAL.record_id_traced(cached_span_id(&p), elapsed, 0);
            }
            p.truncate(active.prev_len);
        });
    }
}

/// A duration's nanosecond count, saturated to `u64`.
pub(crate) fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Aggregated statistics of one span key in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Hierarchical path, e.g. `fit/counter_train`.
    pub path: String,
    /// Sorted label set (empty for undimensioned spans).
    pub labels: Vec<(String, String)>,
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observed durations.
    pub total: Duration,
    /// Smallest observation ([`Duration::ZERO`] when `count == 0`).
    pub min: Duration,
    /// Largest observation.
    pub max: Duration,
    /// Power-of-two-nanosecond histogram (see [`bucket_index`]).
    pub buckets: [u64; N_BUCKETS],
    /// Last-10-s windowed aggregate.
    pub w10: WindowAgg,
    /// Last-60-s windowed aggregate.
    pub w60: WindowAgg,
    /// Most recent tail exemplars, newest first (see [`Exemplar`]).
    pub exemplars: Vec<Exemplar>,
}

impl SpanStats {
    /// Mean observation duration (zero when nothing was recorded).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }

    /// The final path segment (the span's own name).
    pub fn name(&self) -> &str {
        self.path
            .rsplit(PATH_SEPARATOR)
            .next()
            .unwrap_or(&self.path)
    }

    /// Exact-rank quantile extracted from the power-of-two histogram, in
    /// nanoseconds.
    ///
    /// The rank is `max(1, ceil(p · count))` (the same ceil-rank
    /// convention as `loadgen`: p99 of 100 observations is the 99th in
    /// ascending order, never an earlier one). The returned value is the
    /// inclusive upper bound of the bucket holding that observation,
    /// clamped to the observed `[min, max]` — an upper bound on the true
    /// quantile that is tight to within the bucket's power-of-two width
    /// (< 2× relative error) and exact when the bucket holds the
    /// extremes. Returns 0 when nothing was recorded.
    pub fn quantile_ns(&self, p: f64) -> u64 {
        quantile_from_buckets(
            &self.buckets,
            self.count,
            p,
            duration_ns(self.min),
            duration_ns(self.max),
        )
    }
}

/// One counter entry in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStats {
    /// Counter name.
    pub name: String,
    /// Sorted label set (empty for undimensioned counters).
    pub labels: Vec<(String, String)>,
    /// Cumulative value since boot (or the last reset).
    pub value: u64,
    /// Amount added during the last [`WINDOW_SHORT_SECS`] seconds.
    pub w10: u64,
    /// Amount added during the last [`WINDOW_LONG_SECS`] seconds.
    pub w60: u64,
}

/// A point-in-time copy of a registry: spans and counters, sorted by
/// (name, labels).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Span statistics, sorted by (path, labels).
    pub spans: Vec<SpanStats>,
    /// Counter entries, sorted by (name, labels).
    pub counters: Vec<CounterStats>,
}

impl Snapshot {
    /// Sum of total durations over every span *named* `name` — i.e. whose
    /// final path segment equals it exactly, so `encode` matches
    /// `fit/encode_batch/encode` but neither `fit/encode_batch` nor a
    /// nested child of an `encode` span. This is the stage-attribution
    /// query: it folds the same logical stage recorded at different
    /// nesting depths into one number without double-counting parents.
    pub fn total_for(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name() == name)
            .map(|s| s.total)
            .sum()
    }

    /// Value of counter `name` summed across all of its label sets, 0
    /// when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// Value of the counter with exactly this name and label set, 0 when
    /// absent. `labels` need not be pre-sorted.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let mut want: Vec<(&str, &str)> = labels.to_vec();
        want.sort();
        self.counters
            .iter()
            .find(|c| {
                c.name == name
                    && c.labels.len() == want.len()
                    && c.labels
                        .iter()
                        .zip(&want)
                        .all(|((k, v), (wk, wv))| k == wk && v == wv)
            })
            .map_or(0, |c| c.value)
    }

    /// Renders the snapshot as one deterministic JSON document.
    ///
    /// Schema (`version` 3 — version 2 plus `labels`, the `w10`/`w60`
    /// window objects, and `exemplars`):
    ///
    /// ```json
    /// {
    ///   "version": 3,
    ///   "window": {"slot_secs": 2, "short_secs": 10, "long_secs": 60},
    ///   "spans": [
    ///     {
    ///       "path": "serve/request",
    ///       "labels": {},
    ///       "count": 1,
    ///       "total_ns": 1234567,
    ///       "min_ns": 1234567,
    ///       "max_ns": 1234567,
    ///       "mean_ns": 1234567,
    ///       "p50_ns": 1234567,
    ///       "p95_ns": 1234567,
    ///       "p99_ns": 1234567,
    ///       "w10": {"count": 1, "total_ns": 1234567, "p50_ns": 1234567,
    ///               "p95_ns": 1234567, "p99_ns": 1234567,
    ///               "rate_per_sec": 0.100},
    ///       "w60": {"count": 1, "total_ns": 1234567, "p50_ns": 1234567,
    ///               "p95_ns": 1234567, "p99_ns": 1234567,
    ///               "rate_per_sec": 0.017},
    ///       "exemplars": [{"trace_id": "0x2a", "value_ns": 1234567}],
    ///       "buckets": [ { "le_ns": 2097151, "count": 1 } ]
    ///     }
    ///   ],
    ///   "counters": [
    ///     { "name": "encode.samples", "labels": {}, "value": 60,
    ///       "w10": 60, "w60": 60 }
    ///   ]
    /// }
    /// ```
    ///
    /// The cumulative quantile fields keep their v2 positions (before
    /// the window objects), so consumers scanning for the first
    /// `p50_ns` after a path anchor keep reading cumulative values.
    /// Only non-empty histogram buckets are emitted; `le_ns` is the
    /// bucket's inclusive nanosecond upper bound. Span entries are
    /// sorted by (path, labels), counters by (name, labels).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 320 * self.spans.len());
        let _ = write!(
            out,
            "{{\n  \"version\": 3,\n  \"window\": {{\"slot_secs\": {WINDOW_SLOT_SECS}, \"short_secs\": {WINDOW_SHORT_SECS}, \"long_secs\": {WINDOW_LONG_SECS}}},\n  \"spans\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"path\": {}, \"labels\": {}, \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, ",
                json_string(&s.path),
                json_labels(&s.labels),
                s.count,
                s.total.as_nanos(),
                s.min.as_nanos(),
                s.max.as_nanos(),
                s.mean().as_nanos(),
                s.quantile_ns(0.50),
                s.quantile_ns(0.95),
                s.quantile_ns(0.99),
            );
            for (tag, w) in [("w10", &s.w10), ("w60", &s.w60)] {
                let _ = write!(
                    out,
                    "\"{tag}\": {{\"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"rate_per_sec\": {:.3}}}, ",
                    w.count, w.total_ns, w.p50_ns, w.p95_ns, w.p99_ns, w.rate_per_sec(),
                );
            }
            out.push_str("\"exemplars\": [");
            for (j, e) in s.exemplars.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"trace_id\": \"0x{:x}\", \"value_ns\": {}}}",
                    e.trace_id, e.value_ns
                );
            }
            out.push_str("], \"buckets\": [");
            let mut first = true;
            for (b, &count) in s.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"le_ns\": {}, \"count\": {count}}}",
                    bucket_upper_ns(b)
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ],\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"name\": {}, \"labels\": {}, \"value\": {}, \"w10\": {}, \"w60\": {}}}",
                json_string(&c.name),
                json_labels(&c.labels),
                c.value,
                c.w10,
                c.w60,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format
    /// (format version 0.0.4) with OpenMetrics-style exemplars, for
    /// live scraping.
    ///
    /// Name mapping (documented in DESIGN.md §11): every character
    /// outside `[a-zA-Z0-9_]` in a span path or counter name becomes
    /// `_`, counters are prefixed `lookhd_` and spans `lookhd_span_`
    /// with an `_ns` unit suffix, so `serve/request` exports as the
    /// histogram `lookhd_span_serve_request_ns`. Interned label sets
    /// are emitted as real Prometheus labels (`reactor="0"`,
    /// `model_version="2"`, …), sorted by key, with `le` last on bucket
    /// lines. Buckets are **cumulative** with integer-nanosecond `le`
    /// bounds (the power-of-two `2^i - 1` uppers; a deliberate deviation
    /// from the seconds-base-unit convention to keep every exported
    /// number an exact integer); only buckets holding observations are
    /// listed plus the mandatory `+Inf`. A bucket line containing a tail
    /// exemplar's value carries it OpenMetrics-style:
    /// `... # {trace_id="0x2a"} 1234567` — the trace id resolves in the
    /// `/trace.json` export. Output is deterministic: spans sorted by
    /// (path, labels), counters by (name, labels), fixed field order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(256 + 256 * self.spans.len());
        let mut last_type = String::new();
        for s in &self.spans {
            let name = format!("lookhd_span_{}_ns", prometheus_sanitize(&s.path));
            if name != last_type {
                let _ = writeln!(out, "# TYPE {name} histogram");
                last_type.clone_from(&name);
            }
            let labels = prometheus_labels(&s.labels);
            // Newest exemplar per bucket (exemplars are newest-first).
            let mut by_bucket: BTreeMap<usize, &Exemplar> = BTreeMap::new();
            for e in &s.exemplars {
                by_bucket
                    .entry(bucket_index(Duration::from_nanos(e.value_ns)))
                    .or_insert(e);
            }
            let exemplar_str = |b: usize| -> String {
                by_bucket.get(&b).map_or_else(String::new, |e| {
                    format!(" # {{trace_id=\"0x{:x}\"}} {}", e.trace_id, e.value_ns)
                })
            };
            let mut cumulative = 0u64;
            for (b, &count) in s.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                let upper = bucket_upper_ns(b);
                if upper == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(
                    out,
                    "{name}_bucket{{{labels}le=\"{upper}\"}} {cumulative}{}",
                    exemplar_str(b)
                );
            }
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}le=\"+Inf\"}} {}{}",
                s.count,
                exemplar_str(N_BUCKETS - 1)
            );
            let suffix = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", labels.trim_end_matches(','))
            };
            let _ = writeln!(out, "{name}_sum{suffix} {}", s.total.as_nanos());
            let _ = writeln!(out, "{name}_count{suffix} {}", s.count);
        }
        for c in &self.counters {
            let metric = format!("lookhd_{}", prometheus_sanitize(&c.name));
            if metric != last_type {
                let _ = writeln!(out, "# TYPE {metric} counter");
                last_type.clone_from(&metric);
            }
            let labels = prometheus_labels(&c.labels);
            let suffix = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", labels.trim_end_matches(','))
            };
            let _ = writeln!(out, "{metric}{suffix} {}", c.value);
        }
        out
    }
}

/// Renders a label set as a JSON object with sorted keys.
fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::with_capacity(2 + 16 * labels.len());
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_string(k), json_string(v));
    }
    out.push('}');
    out
}

/// Renders a label set as `k="v",k2="v2",` (trailing comma so `le` can
/// append; callers trim it when `le` is absent). Values are escaped per
/// the Prometheus text format.
fn prometheus_labels(labels: &[(String, String)]) -> String {
    let mut out = String::with_capacity(16 * labels.len());
    for (k, v) in labels {
        let _ = write!(out, "{}=\"{}\",", prometheus_sanitize(k), {
            let mut escaped = String::with_capacity(v.len());
            for c in v.chars() {
                match c {
                    '\\' => escaped.push_str("\\\\"),
                    '"' => escaped.push_str("\\\""),
                    '\n' => escaped.push_str("\\n"),
                    c => escaped.push(c),
                }
            }
            escaped
        });
    }
    out
}

/// Maps an arbitrary span/counter name onto the Prometheus metric-name
/// alphabet: every character outside `[a-zA-Z0-9_]` becomes `_`.
fn prometheus_sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escapes and quotes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The global registry is process-wide state shared by every `#[test]`
    /// thread, so tests that enable it must hold this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn with_enabled_global<T>(f: impl FnOnce() -> T) -> T {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let out = f();
        set_enabled(false);
        reset();
        out
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        r.record_span("x", Duration::from_millis(1));
        r.add("c", 5);
        let snap = r.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
    }

    #[test]
    fn registry_accumulates_spans_and_counters() {
        let r = Registry::new();
        r.set_enabled(true);
        r.record_span("a", Duration::from_micros(10));
        r.record_span("a", Duration::from_micros(30));
        r.record_span("b", Duration::from_micros(5));
        r.add("hits", 2);
        r.add("hits", 3);
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let a = &snap.spans[0];
        assert_eq!(a.path, "a");
        assert_eq!(a.count, 2);
        assert_eq!(a.total, Duration::from_micros(40));
        assert_eq!(a.min, Duration::from_micros(10));
        assert_eq!(a.max, Duration::from_micros(30));
        assert_eq!(a.mean(), Duration::from_micros(20));
        assert_eq!(snap.counter("hits"), 5);
        assert_eq!(snap.counter("misses"), 0);
        r.reset();
        assert!(r.snapshot().spans.is_empty());
    }

    #[test]
    fn interned_ids_record_without_the_string_path() {
        let r = Registry::new();
        r.set_enabled(true);
        let hits = r.intern_counter("hits", &[]);
        let stage = r.intern_span("stage", &[]);
        assert_eq!(hits, r.intern_counter("hits", &[]), "interning idempotent");
        r.add_id(hits, 3);
        r.record_id(stage, Duration::from_micros(4));
        let snap = r.snapshot();
        assert_eq!(snap.counter("hits"), 3);
        assert_eq!(snap.spans[0].path, "stage");
        assert_eq!(snap.spans[0].count, 1);
    }

    #[test]
    fn labeled_metrics_fold_and_sum_across_label_sets() {
        let r = Registry::new();
        r.set_enabled(true);
        let c0 = r.intern_counter("serve.predicted", &[("class", "0")]);
        let c1 = r.intern_counter("serve.predicted", &[("class", "1")]);
        r.add_id(c0, 7);
        r.add_id(c1, 5);
        let s0 = r.intern_span("serve/request", &[("reactor", "0")]);
        r.record_id(s0, Duration::from_micros(9));
        let snap = r.snapshot();
        assert_eq!(snap.counter("serve.predicted"), 12, "sums label sets");
        assert_eq!(
            snap.counter_labeled("serve.predicted", &[("class", "1")]),
            5
        );
        assert_eq!(
            snap.counter_labeled("serve.predicted", &[("class", "9")]),
            0
        );
        let labeled: Vec<_> = snap
            .counters
            .iter()
            .filter(|c| c.name == "serve.predicted")
            .collect();
        assert_eq!(labeled.len(), 2);
        assert_eq!(labeled[0].labels, vec![("class".into(), "0".into())]);
        assert_eq!(snap.spans[0].labels, vec![("reactor".into(), "0".into())]);
        // Label order at intern time is irrelevant: keys sort.
        let ab = r.intern_counter("x", &[("b", "2"), ("a", "1")]);
        assert_eq!(ab, r.intern_counter("x", &[("a", "1"), ("b", "2")]));
    }

    #[test]
    fn per_name_label_cap_leaves_other_names_alone() {
        let r = Registry::new();
        r.set_enabled(true);
        for i in 0..MAX_LABEL_SETS_PER_NAME + 10 {
            let id = r.intern_counter("big", &[("class", &i.to_string())]);
            r.add_id(id, 1);
        }
        // A *different* name still interns fine after "big" is full.
        let ok = r.intern_counter("later", &[]);
        assert_ne!(ok, MetricId::INVALID);
        r.add_id(ok, 1);
        let snap = r.snapshot();
        assert_eq!(snap.counter("big"), MAX_LABEL_SETS_PER_NAME as u64);
        assert_eq!(snap.counter("later"), 1);
        assert_eq!(snap.counter(DROPPED_NAMES_COUNTER), 10);
    }

    #[test]
    fn windows_fold_with_pinned_epoch() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let r = Registry::new();
        r.set_enabled(true);
        set_window_epoch_for_test(1000);
        let c = r.intern_counter("reqs", &[]);
        let s = r.intern_span("stage", &[]);
        r.add_id(c, 4);
        r.record_id(s, Duration::from_nanos(100));
        r.record_id(s, Duration::from_nanos(1000));
        // 3 slots (6 s) later: still inside both windows.
        set_window_epoch_for_test(1003);
        r.add_id(c, 2);
        r.record_id(s, Duration::from_nanos(10));
        let snap = r.snapshot();
        let c = &snap.counters[0];
        assert_eq!((c.value, c.w10, c.w60), (6, 6, 6));
        let sp = &snap.spans[0];
        assert_eq!(sp.w10.count, 3);
        assert_eq!(sp.w10.total_ns, 1110);
        assert_eq!(sp.w10.secs, WINDOW_SHORT_SECS);
        assert_eq!(sp.w60.count, 3);
        // 7 slots (14 s) after the first burst: it ages out of w10.
        set_window_epoch_for_test(1007);
        let snap = r.snapshot();
        let c = &snap.counters[0];
        assert_eq!((c.value, c.w10, c.w60), (6, 2, 6));
        let sp = &snap.spans[0];
        assert_eq!(sp.w10.count, 1);
        // Windowed p99 over the remaining 10 ns observation clamps into
        // the cumulative [min, max].
        assert_eq!(sp.w10.p99_ns, 15);
        assert_eq!(sp.w60.count, 3);
        assert_eq!(sp.w60.p99_ns, 1000, "clamped to cumulative max");
        // 31 slots (62 s) later everything left the long window too.
        set_window_epoch_for_test(1034);
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].w60, 0);
        assert_eq!(snap.spans[0].w60.count, 0);
        assert_eq!(snap.spans[0].count, 3, "cumulative stats never age");
        set_window_epoch_for_test(0);
    }

    #[test]
    fn exemplars_keep_newest_top_bucket_trace_ids() {
        let r = Registry::new();
        r.set_enabled(true);
        let s = r.intern_span("serve/request", &[]);
        // Tail values with trace ids; the 10 ns floor stays exemplar-free
        // once larger buckets exist.
        for i in 1..=6u64 {
            r.record_id_traced(s, Duration::from_micros(100 + i), 0x100 + i);
        }
        r.record_id_traced(s, Duration::from_nanos(10), 0xf00d);
        r.record_id(s, Duration::from_micros(200)); // untraced: not sampled
        let snap = r.snapshot();
        let ex = &snap.spans[0].exemplars;
        assert!(ex.len() <= N_EXEMPLARS);
        assert_eq!(ex.len(), N_EXEMPLARS);
        assert_eq!(ex[0].trace_id, 0x106, "newest first");
        assert!(ex.iter().all(|e| e.trace_id >= 0x103), "oldest evicted");
        assert!(ex.iter().all(|e| e.value_ns > 100_000), "tail buckets only");
        let prom = snap.to_prometheus();
        assert!(prom.contains("# {trace_id=\"0x106\"}"), "{prom}");
    }

    #[test]
    fn spans_nest_hierarchically_per_thread() {
        with_enabled_global(|| {
            {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                }
                {
                    let _inner = span("inner");
                }
            }
            let _root = span("root");
            drop(_root);
            let snap = snapshot();
            let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
            assert_eq!(paths, vec!["outer", "outer/inner", "root"]);
            assert_eq!(snap.spans[1].count, 2);
            assert_eq!(snap.spans[1].name(), "inner");
        });
    }

    #[test]
    fn span_is_inert_when_disabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        assert!(!enabled());
        {
            let _s = span("never");
        }
        assert!(snapshot().spans.is_empty());
    }

    #[test]
    fn worker_threads_record_independent_roots() {
        with_enabled_global(|| {
            let _outer = span("outer");
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _inner = span("inner");
                });
            });
            drop(_outer);
            let snap = snapshot();
            let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
            // The worker's TLS stack is empty, so its span is a root.
            assert_eq!(paths, vec!["inner", "outer"]);
        });
    }

    #[test]
    fn total_for_matches_segments_not_substrings() {
        let r = Registry::new();
        r.set_enabled(true);
        r.record_span("fit/encode_batch", Duration::from_micros(7));
        r.record_span("fit/encode_batch/encode", Duration::from_micros(3));
        r.record_span("encode", Duration::from_micros(2));
        let snap = r.snapshot();
        assert_eq!(snap.total_for("encode"), Duration::from_micros(5));
        assert_eq!(snap.total_for("encode_batch"), Duration::from_micros(7));
        assert_eq!(snap.total_for("absent"), Duration::ZERO);
    }

    #[test]
    fn bucket_indexing_is_power_of_two() {
        assert_eq!(bucket_index(Duration::ZERO), 0);
        assert_eq!(bucket_index(Duration::from_nanos(1)), 1);
        assert_eq!(bucket_index(Duration::from_nanos(2)), 2);
        assert_eq!(bucket_index(Duration::from_nanos(3)), 2);
        assert_eq!(bucket_index(Duration::from_nanos(1024)), 11);
        assert_eq!(bucket_index(Duration::from_secs(3600)), N_BUCKETS - 1);
        assert_eq!(bucket_upper_ns(2), 3);
        assert_eq!(bucket_upper_ns(N_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn json_output_is_well_formed_and_complete() {
        let r = Registry::new();
        r.set_enabled(true);
        r.record_span("fit/encode", Duration::from_micros(12));
        r.record_span("fit/encode", Duration::from_millis(1));
        r.add("samples", 60);
        let id = r.intern_counter("served", &[("model_version", "2")]);
        r.add_id(id, 1);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"version\": 3"));
        assert!(json.contains("\"window\": {\"slot_secs\": 2"));
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"w10\": {\"count\": 2"));
        assert!(json.contains("\"rate_per_sec\""));
        assert!(json.contains("\"exemplars\": []"));
        assert!(json.contains("\"path\": \"fit/encode\", \"labels\": {}"));
        assert!(json.contains("\"count\": 2"));
        assert!(json.contains("\"name\": \"samples\""));
        assert!(json.contains("\"value\": 60"));
        assert!(json.contains("\"labels\": {\"model_version\": \"2\"}"));
        assert!(json.contains("\"le_ns\""));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The first p50_ns after a span's path anchor is the cumulative
        // one — loadgen's field scanner depends on this ordering.
        let anchor = json.find("\"path\": \"fit/encode\"").unwrap();
        let p50 = json[anchor..].find("\"p50_ns\"").unwrap();
        let w10 = json[anchor..].find("\"w10\"").unwrap();
        assert!(p50 < w10);
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_snapshot_renders() {
        let snap = Registry::new().snapshot();
        assert!(snap.to_json().contains("\"version\": 3"));
        assert!(snap.to_prometheus().is_empty());
    }

    #[test]
    fn quantiles_walk_cumulative_buckets_with_ceil_rank() {
        let r = Registry::new();
        r.set_enabled(true);
        for _ in 0..50 {
            r.record_span("q", Duration::from_nanos(10));
        }
        for _ in 0..45 {
            r.record_span("q", Duration::from_nanos(100));
        }
        for _ in 0..5 {
            r.record_span("q", Duration::from_nanos(1000));
        }
        let snap = r.snapshot();
        let s = &snap.spans[0];
        // rank 50 lands in the 10 ns bucket (upper 2^4-1 = 15).
        assert_eq!(s.quantile_ns(0.50), 15);
        // rank 95 lands in the 100 ns bucket (upper 2^7-1 = 127).
        assert_eq!(s.quantile_ns(0.95), 127);
        // rank 99 lands in the 1000 ns bucket (upper 1023, clamped to
        // the observed max of 1000).
        assert_eq!(s.quantile_ns(0.99), 1000);
        assert_eq!(s.quantile_ns(1.0), 1000);
        // A single observation clamps exactly to itself.
        r.record_span("one", Duration::from_nanos(777));
        let snap = r.snapshot();
        let one = snap.spans.iter().find(|s| s.path == "one").unwrap();
        assert_eq!(one.quantile_ns(0.50), 777);
        assert_eq!(one.quantile_ns(0.99), 777);
        // Empty stats report zero.
        let empty = SpanStats {
            path: "e".into(),
            labels: Vec::new(),
            count: 0,
            total: Duration::ZERO,
            min: Duration::ZERO,
            max: Duration::ZERO,
            buckets: [0; N_BUCKETS],
            w10: WindowAgg::default(),
            w60: WindowAgg::default(),
            exemplars: Vec::new(),
        };
        assert_eq!(empty.quantile_ns(0.99), 0);
    }

    #[test]
    fn cardinality_caps_drop_overflow_names() {
        let r = Registry::new();
        r.set_enabled(true);
        for i in 0..MAX_COUNTER_NAMES + 10 {
            r.add(&format!("c{i:05}"), 1);
        }
        for i in 0..MAX_SPAN_PATHS + 7 {
            r.record_span(&format!("s{i:05}"), Duration::from_nanos(1));
        }
        let snap = r.snapshot();
        assert_eq!(snap.spans.len(), MAX_SPAN_PATHS);
        // The cap plus the synthetic dropped-names counter itself.
        assert_eq!(snap.counters.len(), MAX_COUNTER_NAMES + 1);
        assert_eq!(snap.counter(DROPPED_NAMES_COUNTER), 17);
        // Existing names keep recording after the cap is reached.
        r.add("c00000", 4);
        r.record_span("s00000", Duration::from_nanos(9));
        let snap = r.snapshot();
        assert_eq!(snap.counter("c00000"), 5);
        assert_eq!(snap.spans[0].count, 2);
        // Counters stay sorted even with the synthetic entry inserted.
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        // Reset clears the drop tally with everything else.
        r.reset();
        assert_eq!(r.snapshot().counter(DROPPED_NAMES_COUNTER), 0);
    }

    #[test]
    fn concurrent_recording_keeps_exact_totals() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 1000;
        let r = Registry::new();
        r.set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                scope.spawn(|| {
                    for _ in 0..PER_THREAD {
                        r.record_span("stress", Duration::from_nanos(3));
                        r.add("stress.count", 2);
                    }
                });
            }
        });
        let snap = r.snapshot();
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(snap.spans[0].count, total);
        assert_eq!(snap.spans[0].total, Duration::from_nanos(3 * total));
        assert_eq!(
            snap.spans[0].buckets[bucket_index(Duration::from_nanos(3))],
            total
        );
        assert_eq!(snap.counter("stress.count"), 2 * total);
        assert_eq!(snap.counter(DROPPED_NAMES_COUNTER), 0);
    }

    #[test]
    fn concurrent_span_guards_keep_exact_totals_in_the_global() {
        with_enabled_global(|| {
            const THREADS: usize = 4;
            const PER_THREAD: usize = 250;
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| {
                        for _ in 0..PER_THREAD {
                            let _g = span("worker_stage");
                        }
                    });
                }
            });
            let snap = snapshot();
            assert_eq!(snap.total_for("worker_stage"), snap.spans[0].total);
            assert_eq!(snap.spans[0].count, (THREADS * PER_THREAD) as u64);
        });
    }

    #[test]
    fn reset_invalidates_interned_ids_and_name_caches() {
        with_enabled_global(|| {
            counter("survivor", 1);
            let old = intern_counter("survivor", &[]);
            reset();
            set_enabled(true);
            // The thread cache re-interns after the generation bump
            // instead of recording through the stale id.
            counter("fresh", 2);
            counter("survivor", 3);
            let snap = snapshot();
            assert_eq!(snap.counter("fresh"), 2);
            assert_eq!(snap.counter("survivor"), 3);
            // The pre-reset id may now alias a different key; it is the
            // caller's contract not to reuse it. It must at least not
            // panic.
            counter_id(old, 1);
        });
    }

    #[test]
    fn prometheus_exposition_is_cumulative_and_sanitized() {
        let r = Registry::new();
        r.set_enabled(true);
        r.record_span("serve/queue_wait", Duration::from_nanos(10));
        r.record_span("serve/queue_wait", Duration::from_nanos(100));
        r.record_span("serve/queue_wait", Duration::from_secs(4000)); // top bucket
        r.add("serve.requests", 7);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE lookhd_span_serve_queue_wait_ns histogram"));
        assert!(text.contains("lookhd_span_serve_queue_wait_ns_bucket{le=\"15\"} 1"));
        assert!(text.contains("lookhd_span_serve_queue_wait_ns_bucket{le=\"127\"} 2"));
        // The clamp bucket has no finite upper; it only appears as +Inf.
        assert!(text.contains("lookhd_span_serve_queue_wait_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lookhd_span_serve_queue_wait_ns_count 3"));
        assert!(text.contains("# TYPE lookhd_serve_requests counter"));
        assert!(text.contains("lookhd_serve_requests 7"));
        assert!(!text.contains("le=\"18446744073709551615\""));
    }

    #[test]
    fn prometheus_emits_real_labels() {
        let r = Registry::new();
        r.set_enabled(true);
        let c = r.intern_counter("serve.predicted", &[("class", "3")]);
        r.add_id(c, 11);
        let s = r.intern_span("serve/request", &[("reactor", "1"), ("model_version", "2")]);
        r.record_id(s, Duration::from_nanos(100));
        let text = r.snapshot().to_prometheus();
        assert!(
            text.contains("lookhd_serve_predicted{class=\"3\"} 11"),
            "{text}"
        );
        // Label keys sorted, le last on bucket lines.
        assert!(
            text.contains(
                "lookhd_span_serve_request_ns_bucket{model_version=\"2\",reactor=\"1\",le=\"127\"} 1"
            ),
            "{text}"
        );
        assert!(text
            .contains("lookhd_span_serve_request_ns_count{model_version=\"2\",reactor=\"1\"} 1"));
        // One TYPE line per metric name even with several label sets.
        let c2 = r.intern_counter("serve.predicted", &[("class", "4")]);
        r.add_id(c2, 1);
        let text = r.snapshot().to_prometheus();
        assert_eq!(
            text.matches("# TYPE lookhd_serve_predicted counter")
                .count(),
            1
        );
    }
}
