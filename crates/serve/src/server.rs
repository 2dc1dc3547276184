//! The readiness-driven, run-to-completion TCP inference server.
//!
//! ## Architecture
//!
//! ```text
//!  reactor threads (edge-triggered epoll loop, one Poller each)
//!    each owns an SO_REUSEPORT listener + tiered admission control
//!        │  nonblocking reads → FrameDecoder reassembly
//!        │  every frame handled where it lands: pings answered,
//!        │  predicts scored (one model call each), responses encoded
//!        │  into the connection's outbox
//!        ▼
//!  one outbox flush per read chunk; bytes the kernel refuses stay in
//!  the outbox and the reactor flushes them on EPOLLOUT
//! ```
//!
//! There is no queue between decoding and scoring, as in the paper's
//! FPGA pipeline (§V): a predict costs no thread hop, no futex wake,
//! and shares its `send` with every other response of its read chunk.
//! A connection costs one epoll registration plus its reassembly
//! buffer — no thread — so the server holds tens of thousands of
//! concurrent connections (bounded by [`ServeConfig::max_conns`]). See
//! DESIGN.md §13 for the reactor architecture, the admission-control
//! tiers, the per-round read and frame budgets, and the drain protocol.
//!
//! ## Correctness contract
//!
//! Responses are **bit-identical** to direct single-threaded
//! [`Classifier::predict`] calls on the same model, regardless of
//! reactor count or request interleaving, and each connection's predict
//! responses leave in request order: the server never reorders a
//! request's features or mutates the model
//! (`tests/serve_differential.rs` pins this across the wire).
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or a [`Request::Shutdown`] frame) sets
//! the shutdown flag and wakes every reactor and the trainer thread —
//! purely event-driven, so it works on any bind address (`0.0.0.0`
//! included). Reactors close their listeners and park all reads; every
//! predict already read has been answered into an outbox by then. Once
//! nothing but the reactors can produce another response (at once
//! without online training, or when the trainer has drained its queue)
//! the server is *drained*: the reactors deliver the trainer's last
//! replies, flush the remaining outboxes (bounded by a grace period)
//! and exit, and [`ServerHandle::join`] returns. The trainer still
//! folds every queued feedback frame, but answers a refresh it pops more
//! than the grace period after the trigger with `ShuttingDown` instead of
//! materializing it, so the drain is bounded too.
//!
//! ## Tracing and telemetry
//!
//! When metrics are enabled the server records stage histograms
//! (`serve/decode`, `serve/batch` — the model call — `serve/encode`,
//! and `serve/request`, decode begin to response appended) and, when
//! the trace ring is also enabled (`obs::trace::set_enabled`), emits
//! begin/end trace events for every request that carried a non-zero
//! client trace id — one `decode → predict → encode` chain per request,
//! keyed by that id, exportable as Chrome trace-event JSON.
//! Model-quality drift signals ride the same switch: a top1−top2 score
//! margin histogram (`serve/margin`, micro-units), per-class prediction
//! counters (`serve.predicted.<class>`), and the kernel fallback
//! counters ticked inside the model's score path. All of it is
//! observation only — the margin rides the one scoring pass, and the
//! bit-identity contract is untouched.
//!
//! ## Online training and model hot-swap
//!
//! [`start_online`] additionally spawns one **trainer thread** owning a
//! [`lookhd::StreamingTrainer`]. `LHF1` feedback frames are folded into
//! its live counters off the hot path; a `refresh` frame (or the
//! drift-gated automatic trigger, see [`OnlineConfig`]) materializes a
//! full model version — compress, kernel rebuild — and swaps it into
//! the shared [`ModelSlot`] atomically. The trainer never touches a
//! connection: it hands each ack to the reactor that owns the
//! connection, which writes it like any other response. Reactors load
//! the slot **once per predict frame**, so a swap takes effect from the
//! next frame on; stamped predict frames echo the version that scored
//! them so clients (and the soak tests) can pin each answer to the
//! exact model that produced it. See DESIGN.md §14 for the fold ≡ batch argument and the
//! swap protocol.

use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lookhd::{LookHdClassifier, StreamingTrainer};
use netpoll::Poller;
use obs::trace::{self, Phase};

use crate::conn::Conn;
use crate::model::{ModelSlot, SharedClassifier, VersionedModel};
use crate::reactor::{Reactor, ReactorQueue, DRAIN_GRACE};
use crate::slo::{HealthState, SloConfig};
use crate::wire::{ErrorCode, Response};

/// Tuning knobs of a server instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Reactor (I/O event loop) thread count: each reactor decodes,
    /// scores and answers the frames of its own connections, so this is
    /// also the server's inference parallelism. One reactor drives
    /// thousands of connections. Each reactor owns an `SO_REUSEPORT`
    /// listener on the same address, and the kernel assigns every new
    /// connection to one of them by flow hash.
    pub reactors: usize,
    /// Most connections held open at once; the accept path answers the
    /// excess with one [`ErrorCode::Overloaded`] frame and closes
    /// (admission tier 1).
    pub max_conns: usize,
    /// Service-level objectives judged by the server's
    /// [`HealthState`] (exposed through [`ServerHandle::health`] and,
    /// via the CLI, the admin `/healthz` + `/slo.json` routes). The
    /// default declares none.
    pub slo: SloConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            reactors: 1,
            max_conns: 8192,
            slo: SloConfig::new(),
        }
    }
}

impl ServeConfig {
    /// The default configuration (1 reactor, 8192 connections, no
    /// SLOs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the reactor thread count (clamped up to 1).
    pub fn with_reactors(mut self, reactors: usize) -> Self {
        self.reactors = reactors.max(1);
        self
    }

    /// Sets the connection cap (clamped up to 1).
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Declares the service-level objectives the server's health state
    /// judges against.
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }
}

/// Tuning knobs of the online-training path (see [`start_online`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Bound on the trainer's command queue; a full queue answers
    /// feedback and refresh frames with [`ErrorCode::Overloaded`]
    /// instead of growing without limit. It is the server's only queue:
    /// the reactor that decodes a predict scores it.
    pub queue_cap: usize,
    /// Automatic refresh gate: once at least this many feedback frames
    /// have been folded since the last swap **and** the drift score
    /// crosses [`OnlineConfig::drift_threshold`], the trainer thread
    /// materializes and swaps a new model version on its own. `0`
    /// disables automatic refresh — swaps happen only on explicit
    /// `refresh` frames (the mode the deterministic tests use).
    pub auto_refresh_min_folds: usize,
    /// Minimum drift score in `[0, 1]` required for an automatic
    /// refresh: half the L1 distance between the per-class distribution
    /// of *predictions* served since the last swap and the per-class
    /// distribution of feedback *labels* folded since then (the PR 5
    /// model-quality signals, read as a scalar). `0.0` makes the fold
    /// count alone trigger the swap.
    pub drift_threshold: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            queue_cap: 1024,
            auto_refresh_min_folds: 0,
            drift_threshold: 0.25,
        }
    }
}

impl OnlineConfig {
    /// Manual-refresh-only defaults (`queue_cap = 1024`,
    /// `auto_refresh_min_folds = 0`, `drift_threshold = 0.25`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the trainer queue bound (clamped up to 1).
    pub fn with_queue_cap(mut self, queue_cap: usize) -> Self {
        self.queue_cap = queue_cap.max(1);
        self
    }

    /// Sets the automatic-refresh fold gate (`0` = manual only).
    pub fn with_auto_refresh_min_folds(mut self, folds: usize) -> Self {
        self.auto_refresh_min_folds = folds;
        self
    }

    /// Sets the drift-score gate (clamped into `[0, 1]`).
    pub fn with_drift_threshold(mut self, threshold: f64) -> Self {
        self.drift_threshold = threshold.clamp(0.0, 1.0);
        self
    }
}

/// What a decoded predict frame's response echoes, plus when its
/// decode began.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PredictFrame {
    pub(crate) id: u64,
    /// Client-supplied trace id (`0` = untraced): echoed in the response
    /// and stamped on every trace event this request emits.
    pub(crate) trace_id: u64,
    /// Whether the client asked for a version-stamped answer
    /// (`LHF1` kind 3): the response carries the serving model version.
    pub(crate) stamped: bool,
    /// Trace-clock timestamp of the decode begin (`0` with metrics
    /// off): where the `serve/request` span starts.
    pub(crate) decode_begin_ns: u64,
}

/// Emits one begin/end trace pair stamped with `trace_id`, when both
/// the ring and the id are live.
pub(crate) fn trace_pair(trace_id: u64, name: &'static str, begin_ns: u64, end_ns: u64) {
    if trace_id != 0 && trace::enabled() {
        trace::emit_at(name, trace_id, Phase::Begin, begin_ns);
        trace::emit_at(name, trace_id, Phase::End, end_ns);
    }
}

/// Where a trainer command's answer goes: the reactor that owns the
/// connection, and the connection's token there.
pub(crate) struct ReplyTo {
    pub(crate) queue: Arc<ReactorQueue>,
    pub(crate) token: u64,
}

impl ReplyTo {
    /// Hands `response` to the owning reactor, which writes it.
    fn send(self, response: Response) {
        self.queue.reply(self.token, response);
    }
}

/// One command routed off the reactor threads to the trainer thread.
pub(crate) enum TrainCmd {
    /// Fold one labelled example into the live counters and ack.
    Feedback {
        /// Where the [`Response::FeedbackAck`] goes.
        reply: ReplyTo,
        /// Client request id, echoed in the ack.
        id: u64,
        /// Client trace id, echoed in the ack.
        trace_id: u64,
        /// Ground-truth class label.
        label: u32,
        /// Feature vector, same shape as a predict request.
        features: Vec<f64>,
    },
    /// Materialize the counters into a full model and swap it live.
    Refresh {
        /// Where the [`Response::RefreshAck`] goes.
        reply: ReplyTo,
        /// Client request id, echoed in the ack.
        id: u64,
        /// Client trace id, echoed in the ack.
        trace_id: u64,
    },
}

impl TrainCmd {
    fn ids(&self) -> (u64, u64) {
        match self {
            TrainCmd::Feedback { id, trace_id, .. } | TrainCmd::Refresh { id, trace_id, .. } => {
                (*id, *trace_id)
            }
        }
    }
}

/// Shared state of the online-training path: the trainer thread's
/// command queue plus the per-window drift signals feeding the
/// automatic-refresh gate.
pub(crate) struct OnlineState {
    config: OnlineConfig,
    queue: Mutex<VecDeque<TrainCmd>>,
    ready: Condvar,
    /// Per-class counts of predictions served since the last swap
    /// (ticked by the reactors; one half of the drift score).
    predicted: Vec<AtomicU64>,
    /// Per-class counts of feedback labels folded since the last swap
    /// (ticked by the trainer thread; the other half).
    observed: Vec<AtomicU64>,
    /// Feedback frames folded since the last swap (the fold gate).
    folds_since_swap: AtomicU64,
}

impl OnlineState {
    fn new(config: OnlineConfig, n_classes: usize) -> Self {
        Self {
            config,
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            predicted: (0..n_classes).map(|_| AtomicU64::new(0)).collect(),
            observed: (0..n_classes).map(|_| AtomicU64::new(0)).collect(),
            folds_since_swap: AtomicU64::new(0),
        }
    }

    /// Ticks the served-prediction half of the drift window (classes
    /// beyond the model's range — impossible for a real model — are
    /// ignored rather than indexed).
    fn note_predicted(&self, class: usize) {
        if let Some(slot) = self.predicted.get(class) {
            slot.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Half the L1 distance between the normalized served-prediction
    /// and feedback-label class distributions for the current window:
    /// `0.0` when they agree exactly, `1.0` when they are disjoint.
    /// Either side empty means no signal (`0.0`).
    fn drift_score(&self) -> f64 {
        let predicted: Vec<u64> = self
            .predicted
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let observed: Vec<u64> = self
            .observed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let (p_total, o_total): (u64, u64) = (predicted.iter().sum(), observed.iter().sum());
        if p_total == 0 || o_total == 0 {
            return 0.0;
        }
        predicted
            .iter()
            .zip(&observed)
            .map(|(&p, &o)| (p as f64 / p_total as f64 - o as f64 / o_total as f64).abs())
            .sum::<f64>()
            / 2.0
    }

    /// Resets the drift window after a swap.
    fn reset_window(&self) {
        for slot in self.predicted.iter().chain(&self.observed) {
            slot.store(0, Ordering::Relaxed);
        }
        self.folds_since_swap.store(0, Ordering::Relaxed);
    }
}

/// State shared by the reactors and the trainer thread.
pub(crate) struct Inner {
    pub(crate) model: ModelSlot,
    /// Present iff this server was started with [`start_online`].
    pub(crate) online: Option<OnlineState>,
    pub(crate) config: ServeConfig,
    pub(crate) local_addr: SocketAddr,
    pub(crate) shutdown: AtomicBool,
    /// When the shutdown was triggered: a refresh the trainer pops more
    /// than [`DRAIN_GRACE`] later is answered `ShuttingDown` instead of
    /// materialized, so a full queue cannot hold the drain open.
    pub(crate) shutdown_at: OnceLock<Instant>,
    /// Set once no thread but the reactors can produce another
    /// response — at shutdown without online training, or when the
    /// trainer has drained its queue: the reactors flush what remains
    /// and stop. A reply the trainer handed over may still wait in a
    /// reactor's list when this is seen (the drain rule in
    /// `crate::reactor`).
    pub(crate) drained: AtomicBool,
    /// Live connections across all reactors (admission tier 1).
    pub(crate) conn_count: AtomicUsize,
    /// Monotonic connection-token source (tokens never recycle, so a
    /// stale trainer reply can never reach the wrong connection).
    pub(crate) next_token: AtomicU64,
    /// Every reactor's reply queue + waker, for shutdown broadcast.
    pub(crate) reactor_queues: Vec<Arc<ReactorQueue>>,
    /// SLO-aware health shared with the admin listener; the draining
    /// bit flips with [`Inner::trigger_shutdown`].
    pub(crate) health: Arc<HealthState>,
}

impl Inner {
    /// Idempotent, event-driven shutdown trigger: sets the flag and
    /// wakes every reactor (they close their listeners and park reads)
    /// and the trainer thread (it drains its queue and exits). No
    /// self-connect — this works on any bind address, `0.0.0.0`
    /// included.
    pub(crate) fn trigger_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = self.shutdown_at.set(Instant::now());
        // Health degrades before any reactor learns of the shutdown: a
        // load balancer probing /healthz sees `draining` while the last
        // responses are still being flushed.
        self.health.set_draining();
        match &self.online {
            Some(online) => online.ready.notify_all(),
            // Reactors answer every predict inline as they dispatch it:
            // nothing else can still produce a response.
            None => self.drained.store(true, Ordering::SeqCst),
        }
        for queue in &self.reactor_queues {
            queue.wake();
        }
    }

    /// True once the shutdown began more than [`DRAIN_GRACE`] ago: the
    /// trainer stops materializing (refresh frames and automatic
    /// refreshes) and only folds.
    fn past_drain_grace(&self) -> bool {
        self.shutdown_at
            .get()
            .is_some_and(|at| at.elapsed() > DRAIN_GRACE)
    }

    /// Marks the server drained (the trainer has answered its last
    /// command) and wakes the reactors to flush and exit.
    fn finish_drain(&self) {
        self.drained.store(true, Ordering::SeqCst);
        for queue in &self.reactor_queues {
            queue.wake();
        }
    }

    /// Scores one decoded predict frame on the calling reactor thread
    /// and appends its response to the connection's outbox; the reactor
    /// writes it with the rest of the read chunk's responses.
    ///
    /// The model slot is loaded once per frame, so a hot-swap takes
    /// effect from the next frame on and a stamped answer echoes the
    /// version that scored it. Exactly one scoring pass runs: `predict`
    /// with metrics off, the margin-carrying `predict_with_margin` with
    /// metrics on.
    pub(crate) fn predict(&self, conn: &mut Conn, frame: PredictFrame, features: Vec<f64>) {
        obs::counter("serve.requests", 1);
        let model = self.model.load();
        let predicted = if obs::enabled() {
            let started = Instant::now();
            let predict_begin_ns = trace::now_ns();
            model
                .classifier()
                .predict_with_margin(&features)
                .map(|(class, margin)| {
                    obs::record("serve/batch", started.elapsed());
                    trace_pair(frame.trace_id, "predict", predict_begin_ns, trace::now_ns());
                    record_quality_signals(&model, class, margin);
                    class
                })
        } else {
            model.classifier().predict(&features)
        };
        match predicted {
            Ok(class) => {
                if let Some(online) = &self.online {
                    online.note_predicted(class);
                }
                respond_ok(conn, frame, class, &model);
            }
            Err(e) => {
                obs::counter("serve.responses.error", 1);
                conn.append(&Response::Error {
                    id: frame.id,
                    trace_id: frame.trace_id,
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                });
            }
        }
    }

    /// Routes one feedback/refresh command from `conn` to the trainer
    /// thread, or answers immediately when online training is disabled,
    /// the server is shutting down, or the trainer queue is full
    /// ([`ErrorCode::Overloaded`] past [`OnlineConfig::queue_cap`]).
    /// Runs on the reactor thread, so rejections go to the outbox like
    /// every other reactor-side response; an accepted command counts in
    /// `conn.inflight` until its reply arrives.
    pub(crate) fn enqueue_train(&self, conn: &mut Conn, cmd: TrainCmd) {
        let (id, trace_id) = cmd.ids();
        let Some(online) = &self.online else {
            obs::counter("serve.responses.error", 1);
            conn.append(&Response::Error {
                id,
                trace_id,
                code: ErrorCode::BadRequest,
                message: "online training is not enabled on this server".into(),
            });
            return;
        };
        {
            let mut queue = online.queue.lock().expect("trainer queue lock poisoned");
            if self.shutdown.load(Ordering::SeqCst) {
                drop(queue);
                obs::counter("serve.responses.error", 1);
                conn.append(&Response::Error {
                    id,
                    trace_id,
                    code: ErrorCode::ShuttingDown,
                    message: "server is shutting down".into(),
                });
                return;
            }
            let cap = online.config.queue_cap;
            if queue.len() >= cap {
                drop(queue);
                obs::counter("serve.overload_rejections", 1);
                obs::counter("serve.responses.error", 1);
                conn.append(&Response::Error {
                    id,
                    trace_id,
                    code: ErrorCode::Overloaded,
                    message: format!("trainer queue full ({cap} pending)"),
                });
                return;
            }
            conn.inflight += 1;
            queue.push_back(cmd);
        }
        obs::counter("serve.requests", 1);
        online.ready.notify_one();
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] and [`ServerHandle::join`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    reactors: Vec<JoinHandle<()>>,
    /// The trainer thread, when started with [`start_online`].
    trainer: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0` requests).
    pub fn addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// Triggers a graceful shutdown: no new connections or requests are
    /// accepted, requests already read are still answered. Idempotent;
    /// does not block — call [`ServerHandle::join`] to wait.
    pub fn shutdown(&self) {
        self.inner.trigger_shutdown();
    }

    /// The version currently being served (`1` until the first swap).
    pub fn model_version(&self) -> u64 {
        self.inner.model.version()
    }

    /// The server's SLO-aware health state, for wiring into
    /// [`crate::admin::start_admin_with`]: it reflects the configured
    /// objectives ([`ServeConfig::slo`]) and flips to draining the
    /// moment a shutdown is triggered.
    pub fn health(&self) -> Arc<HealthState> {
        Arc::clone(&self.inner.health)
    }

    /// Blocks until the server has shut down (via [`ServerHandle::shutdown`]
    /// or a remote shutdown frame) and every thread has exited: the
    /// trainer thread (when online training is on) once it has drained
    /// its queue — refreshes popped past the drain grace are refused, so
    /// this is bounded by the grace plus one materialize — and the
    /// reactors once they have flushed every connection's remaining
    /// response bytes (bounded by the same grace) and closed.
    pub fn join(mut self) {
        if let Some(trainer) = self.trainer.take() {
            let _ = trainer.join();
        }
        for reactor in self.reactors.drain(..) {
            let _ = reactor.join();
        }
    }
}

/// Binds `addr` and starts serving `model`. Returns once every reactor's
/// listener is bound; use the handle to discover the bound port (`addr`
/// may be `127.0.0.1:0`), trigger shutdown, and join.
///
/// # Errors
///
/// Returns bind and event-loop setup errors (`AddrInUse` when another
/// socket holds the port without `SO_REUSEPORT`, `InvalidInput` when
/// `addr` resolves to nothing); everything after startup is reported
/// per-connection over the wire.
pub fn start<A: ToSocketAddrs>(
    addr: A,
    model: SharedClassifier,
    config: ServeConfig,
) -> io::Result<ServerHandle> {
    start_impl(addr, model, config, None)
}

/// Binds `addr` and starts serving `classifier` **with online training
/// enabled**: `LHF1` feedback frames fold into a live
/// [`lookhd::StreamingTrainer`] seeded from the classifier's encoder and
/// configuration, and `refresh` frames (or the drift-gated automatic
/// trigger) materialize and hot-swap new model versions without
/// interrupting traffic.
///
/// # Errors
///
/// Returns bind/event-loop setup errors, and an
/// [`io::ErrorKind::InvalidInput`] error when a streaming trainer cannot
/// be derived from the classifier.
pub fn start_online<A: ToSocketAddrs>(
    addr: A,
    classifier: LookHdClassifier,
    config: ServeConfig,
    online: OnlineConfig,
) -> io::Result<ServerHandle> {
    let trainer = StreamingTrainer::from_classifier(&classifier)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    start_impl(addr, Arc::new(classifier), config, Some((trainer, online)))
}

/// Binds `n` `SO_REUSEPORT` listeners sharing one address, one per
/// reactor, so the kernel shards incoming connections across the reactor
/// threads by flow hash.
///
/// The first listener takes the first of `addrs` that binds (possibly an
/// ephemeral port); the remaining `n - 1` bind to its concrete address.
///
/// # Errors
///
/// The last bind error, or `InvalidInput` when `addrs` is empty.
fn reuseport_listeners(
    addrs: &[SocketAddr],
    n: usize,
) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
    let mut last_err = io::Error::new(
        io::ErrorKind::InvalidInput,
        "could not resolve to any addresses",
    );
    for &addr in addrs {
        match netpoll::reuseport_listener(addr) {
            Ok(first) => {
                let local_addr = first.local_addr()?;
                let mut listeners = Vec::with_capacity(n);
                listeners.push(first);
                for _ in 1..n {
                    listeners.push(netpoll::reuseport_listener(local_addr)?);
                }
                return Ok((listeners, local_addr));
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

fn start_impl<A: ToSocketAddrs>(
    addr: A,
    model: SharedClassifier,
    config: ServeConfig,
    online: Option<(StreamingTrainer, OnlineConfig)>,
) -> io::Result<ServerHandle> {
    let addr_list: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
    let n_reactors = config.reactors.max(1);
    // Accept sharding: every reactor owns its own SO_REUSEPORT listener,
    // so accepts spread across threads without a shared accept lock.
    let (listeners, local_addr) = reuseport_listeners(&addr_list, n_reactors)?;
    obs::counter("serve.accept_shards", n_reactors as u64);
    // Surface which scoring kernel actually serves (automatic selection
    // may have silently fallen back) in the admin counter snapshot.
    if let Some(name) = model.kernel_name() {
        obs::counter(&format!("kernel.active.{name}"), 1);
    }

    let mut pollers = Vec::with_capacity(n_reactors);
    let mut queues = Vec::with_capacity(n_reactors);
    for _ in 0..n_reactors {
        let poller = Poller::new()?;
        queues.push(Arc::new(ReactorQueue::new(poller.waker())));
        pollers.push(poller);
    }

    let (trainer, online_state) = match online {
        Some((trainer, online_config)) => {
            // Start the monotonic `model.version` counter at the live
            // version (1) so the admin snapshot always equals the
            // version stamped on responses.
            obs::counter("model.version", 1);
            let n_classes = trainer.n_classes();
            (
                Some(trainer),
                Some(OnlineState::new(online_config, n_classes)),
            )
        }
        None => (None, None),
    };

    let inner = Arc::new(Inner {
        model: ModelSlot::new(model),
        online: online_state,
        config,
        local_addr,
        shutdown: AtomicBool::new(false),
        shutdown_at: OnceLock::new(),
        drained: AtomicBool::new(false),
        conn_count: AtomicUsize::new(0),
        next_token: AtomicU64::new(0),
        reactor_queues: queues,
        health: Arc::new(HealthState::new(config.slo)),
    });

    let trainer = trainer.map(|trainer| {
        let inner = Arc::clone(&inner);
        std::thread::spawn(move || trainer_loop(&inner, trainer))
    });

    let reactors = pollers
        .into_iter()
        .zip(listeners)
        .enumerate()
        .map(|(i, (poller, listener))| {
            let reactor = Reactor::new(
                i,
                Arc::clone(&inner),
                poller,
                Arc::clone(&inner.reactor_queues[i]),
                listener,
            );
            std::thread::spawn(move || reactor.run())
        })
        .collect();

    Ok(ServerHandle {
        inner,
        reactors,
        trainer,
    })
}

/// The trainer thread: folds feedback into the live counters, hands each
/// ack to the reactor that owns the connection, and performs manual +
/// drift-gated automatic hot-swaps. Exits only once shutdown is
/// triggered *and* its command queue is drained, so every accepted
/// feedback/refresh frame has its answer handed over; then it marks the
/// server drained. Past [`DRAIN_GRACE`] into a shutdown a queued refresh
/// is answered `ShuttingDown` instead of materialized (a fold costs
/// microseconds, a materialize a full compress and kernel build), so the
/// drain takes at most the grace plus the materialize in progress.
fn trainer_loop(inner: &Arc<Inner>, mut trainer: StreamingTrainer) {
    let online = inner
        .online
        .as_ref()
        .expect("trainer thread without online state");
    loop {
        let cmd = {
            let mut queue = online.queue.lock().expect("trainer queue lock poisoned");
            loop {
                if let Some(cmd) = queue.pop_front() {
                    break cmd;
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    drop(queue);
                    inner.finish_drain();
                    return;
                }
                queue = online
                    .ready
                    .wait(queue)
                    .expect("trainer queue lock poisoned");
            }
        };
        match cmd {
            TrainCmd::Feedback {
                reply,
                id,
                trace_id,
                label,
                features,
            } => {
                let _span = obs::span("serve_feedback");
                match trainer.observe(&features, label as usize) {
                    Ok(()) => {
                        obs::counter("train.feedback", 1);
                        obs::counter(&format!("train.observed.{label}"), 1);
                        if let Some(slot) = online.observed.get(label as usize) {
                            slot.fetch_add(1, Ordering::Relaxed);
                        }
                        let folds = online.folds_since_swap.fetch_add(1, Ordering::Relaxed) + 1;
                        obs::counter("serve.responses.ok", 1);
                        reply.send(Response::FeedbackAck {
                            id,
                            trace_id,
                            version: inner.model.version(),
                            observed: trainer.observed(),
                        });
                        maybe_auto_refresh(inner, online, &trainer, folds);
                    }
                    Err(e) => {
                        obs::counter("serve.responses.error", 1);
                        reply.send(Response::Error {
                            id,
                            trace_id,
                            code: ErrorCode::BadRequest,
                            message: e.to_string(),
                        });
                    }
                }
            }
            TrainCmd::Refresh {
                reply,
                id,
                trace_id,
            } if inner.past_drain_grace() => {
                obs::counter("serve.responses.error", 1);
                reply.send(Response::Error {
                    id,
                    trace_id,
                    code: ErrorCode::ShuttingDown,
                    message: "server is shutting down".into(),
                });
            }
            TrainCmd::Refresh {
                reply,
                id,
                trace_id,
            } => match swap_model(inner, online, &trainer) {
                Ok(version) => {
                    obs::counter("serve.responses.ok", 1);
                    reply.send(Response::RefreshAck {
                        id,
                        trace_id,
                        version,
                    });
                }
                Err(message) => {
                    obs::counter("serve.responses.error", 1);
                    reply.send(Response::Error {
                        id,
                        trace_id,
                        code: ErrorCode::Internal,
                        message,
                    });
                }
            },
        }
    }
}

/// Materializes the trainer's counters into a full model (compress +
/// kernel rebuild) and swaps it into the slot. A frame being scored
/// keeps the version it loaded; the next frame serves the new one.
fn swap_model(
    inner: &Arc<Inner>,
    online: &OnlineState,
    trainer: &StreamingTrainer,
) -> Result<u64, String> {
    let _span = obs::span("serve_model_swap");
    let classifier = trainer.materialize().map_err(|e| e.to_string())?;
    let version = inner.model.swap(Arc::new(classifier));
    obs::counter("serve.model_swaps", 1);
    obs::counter("model.version", 1);
    online.reset_window();
    Ok(version)
}

/// Drift-gated automatic refresh: fires when enough feedback has been
/// folded since the last swap and the served-vs-observed class
/// distributions have diverged past the configured threshold.
fn maybe_auto_refresh(
    inner: &Arc<Inner>,
    online: &OnlineState,
    trainer: &StreamingTrainer,
    folds_since_swap: u64,
) {
    let gate = online.config.auto_refresh_min_folds;
    if gate == 0 || (folds_since_swap as usize) < gate || inner.past_drain_grace() {
        return;
    }
    if online.drift_score() < online.config.drift_threshold {
        return;
    }
    if swap_model(inner, online, trainer).is_ok() {
        obs::counter("serve.model_swaps.auto", 1);
    }
}

/// Scale for the `serve/margin` histogram: a top1−top2 score margin of
/// `m` is recorded as `m × 1e6` dimensionless "nanoseconds", giving six
/// decimal digits of margin resolution inside integer buckets.
pub const MARGIN_SCALE: f64 = 1e6;

/// Records the model-quality drift signals for one successfully
/// scored predict: its per-class prediction counter and its top1−top2
/// score margin sample, both read off the request's one scoring pass
/// ([`hdc::Classifier::predict_with_margin`]). Runs only when metrics
/// are enabled.
///
/// Per-class counts go to the dimensional `serve.predicted{class=}`
/// family through the version's pre-interned handles: no `format!`
/// allocation per prediction, and a model with more classes than the
/// registry's per-name label-set cap tallies the overflow visibly in
/// `obs.dropped_names` instead of silently exhausting the name table.
fn record_quality_signals(model: &VersionedModel, class: usize, margin: Option<f64>) {
    obs::counter_id(model.predicted_id(class), 1);
    match margin {
        Some(margin) if margin.is_finite() => obs::record(
            "serve/margin",
            Duration::from_nanos((margin * MARGIN_SCALE) as u64),
        ),
        Some(_) => {}
        // Score-less models (or a scoring error) contribute no margin
        // samples; the counter keeps the gap visible.
        None => obs::counter("serve.margin_unavailable", 1),
    }
}

/// Appends the answer to a successfully scored predict frame.
fn respond_ok(conn: &mut Conn, frame: PredictFrame, class: usize, model: &VersionedModel) {
    // A class label the wire cannot carry is a server-side fault, not a
    // plausible-looking answer: report it as Internal instead of
    // clamping to u32::MAX.
    let Ok(class) = u32::try_from(class) else {
        obs::counter("serve.class_overflows", 1);
        obs::counter("serve.responses.error", 1);
        conn.append(&Response::Error {
            id: frame.id,
            trace_id: frame.trace_id,
            code: ErrorCode::Internal,
            message: format!("predicted class {class} exceeds the wire's u32 range"),
        });
        return;
    };
    obs::counter("serve.responses.ok", 1);
    let response = if frame.stamped {
        Response::PredictStamped {
            id: frame.id,
            trace_id: frame.trace_id,
            class,
            version: model.version(),
        }
    } else {
        Response::Predict {
            id: frame.id,
            trace_id: frame.trace_id,
            class,
        }
    };
    if !obs::enabled() {
        conn.append(&response);
        return;
    }
    // The dimensional response counter: kernel + model_version labels
    // ride the version's pre-interned handle, so the labels flip
    // atomically with the hot-swap.
    obs::counter_id(model.predictions_id(), 1);
    let encode_begin_ns = trace::now_ns();
    let started = Instant::now();
    conn.append(&response);
    obs::record("serve/encode", started.elapsed());
    let appended_ns = trace::now_ns();
    trace_pair(frame.trace_id, "encode", encode_begin_ns, appended_ns);
    // Traced end-to-end latency, decode begin to response appended: a
    // tail-bucket hit captures the request's trace id as an OpenMetrics
    // exemplar.
    // (A frame decoded just before metrics were switched on has no
    // begin stamp and records no sample.)
    if frame.decode_begin_ns != 0 {
        obs::record_traced(
            "serve/request",
            Duration::from_nanos(appended_ns.saturating_sub(frame.decode_begin_ns)),
            frame.trace_id,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::wire::Request;
    use hdc::{HdcError, Result};

    /// Classifies by sign of the first feature; errors on empty input.
    struct SignStub;

    impl hdc::Classifier for SignStub {
        fn num_classes(&self) -> usize {
            2
        }

        fn predict(&self, features: &[f64]) -> Result<usize> {
            match features.first() {
                Some(&v) => Ok(usize::from(v >= 0.0)),
                None => Err(HdcError::invalid_dataset("empty feature vector")),
            }
        }
    }

    /// Always predicts a class that cannot fit in the wire's u32 field.
    struct OverflowStub;

    impl hdc::Classifier for OverflowStub {
        fn num_classes(&self) -> usize {
            usize::MAX
        }

        fn predict(&self, _features: &[f64]) -> Result<usize> {
            Ok(u32::MAX as usize + 1)
        }
    }

    fn start_stub(config: ServeConfig) -> ServerHandle {
        start("127.0.0.1:0", Arc::new(SignStub), config).expect("bind failed")
    }

    #[test]
    fn serves_predictions_and_pings() {
        let handle = start_stub(ServeConfig::new());
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(
            client.predict(1, &[2.5]).unwrap(),
            Response::Predict {
                id: 1,
                trace_id: 0,
                class: 1
            }
        );
        assert_eq!(
            client.predict(2, &[-2.5]).unwrap(),
            Response::Predict {
                id: 2,
                trace_id: 0,
                class: 0
            }
        );
        assert_eq!(client.ping(3).unwrap(), Response::Pong { id: 3 });
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn serves_across_multiple_reactors() {
        let handle = start_stub(ServeConfig::new().with_reactors(3));
        let mut clients: Vec<Client> = (0..8)
            .map(|_| Client::connect(handle.addr()).unwrap())
            .collect();
        for (i, client) in clients.iter_mut().enumerate() {
            let id = i as u64 + 1;
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            assert_eq!(
                client.predict(id, &[sign]).unwrap(),
                Response::Predict {
                    id,
                    trace_id: 0,
                    class: u32::from(i % 2 == 0),
                }
            );
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn bind_errors_reach_the_caller_for_every_reactor_count() {
        // A plain listener (no SO_REUSEPORT) holds the port, so no
        // REUSEPORT listener can share it and there is no other bind to
        // fall back to.
        let held = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = held.local_addr().unwrap();
        for reactors in [1, 3] {
            let config = ServeConfig::new().with_reactors(reactors);
            match start(addr, Arc::new(SignStub), config) {
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::AddrInUse, "{reactors}: {e}"),
                Ok(_) => panic!("{reactors} reactors bound a port held by another socket"),
            }
        }
    }

    #[test]
    fn an_empty_address_list_is_an_error_not_a_panic() {
        let addrs: &[SocketAddr] = &[];
        match start(addrs, Arc::new(SignStub), ServeConfig::new()) {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}"),
            Ok(_) => panic!("serving on no address succeeded"),
        }
    }

    #[test]
    fn traced_requests_echo_the_trace_id() {
        // Tracing on the server side is *not* enabled here: the echo is a
        // pure wire-level contract and must hold regardless.
        let handle = start_stub(ServeConfig::new());
        let mut client = Client::connect(handle.addr()).unwrap();
        assert_eq!(
            client.predict_traced(1, 0xfeed, &[2.5]).unwrap(),
            Response::Predict {
                id: 1,
                trace_id: 0xfeed,
                class: 1
            }
        );
        // Bad requests echo it too.
        match client.predict_traced(2, 0xbeef, &[]).unwrap() {
            Response::Error {
                id, trace_id, code, ..
            } => {
                assert_eq!((id, trace_id, code), (2, 0xbeef, ErrorCode::BadRequest));
            }
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn bad_feature_vectors_fail_alone_among_pipelined_requests() {
        let handle = start_stub(ServeConfig::new());
        let mut client = Client::connect(handle.addr()).unwrap();
        // Pipeline a good, an empty (model-rejected), and another good
        // request so they share one read chunk.
        client
            .send(&Request::Predict {
                id: 1,
                trace_id: 0,
                features: vec![1.0],
            })
            .unwrap();
        client
            .send(&Request::Predict {
                id: 2,
                trace_id: 0,
                features: vec![],
            })
            .unwrap();
        client
            .send(&Request::Predict {
                id: 3,
                trace_id: 0,
                features: vec![-1.0],
            })
            .unwrap();
        let mut ok = 0;
        let mut errors = 0;
        for _ in 0..3 {
            match client.recv().unwrap() {
                Response::Predict { id, class, .. } => {
                    ok += 1;
                    assert_eq!(class, usize::from(id == 1) as u32);
                }
                Response::Error { id, code, .. } => {
                    errors += 1;
                    assert_eq!(id, 2);
                    assert_eq!(code, ErrorCode::BadRequest);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!((ok, errors), (2, 1));
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn out_of_range_classes_are_internal_errors_not_clamped() {
        let handle =
            start("127.0.0.1:0", Arc::new(OverflowStub), ServeConfig::new()).expect("bind failed");
        let mut client = Client::connect(handle.addr()).unwrap();
        match client.predict(1, &[1.0]).unwrap() {
            Response::Error {
                id, code, message, ..
            } => {
                assert_eq!((id, code), (1, ErrorCode::Internal));
                assert!(message.contains("u32"), "unexpected message {message:?}");
            }
            other => panic!("expected an Internal error, got {other:?}"),
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn remote_shutdown_frame_stops_the_server() {
        let handle = start_stub(ServeConfig::new());
        let addr = handle.addr();
        let mut client = Client::connect(addr).unwrap();
        assert_eq!(client.shutdown_server(9).unwrap(), Response::Pong { id: 9 });
        handle.join();
        // The listener is gone: new connections are refused (allow a
        // moment for the OS to tear the socket down).
        std::thread::sleep(Duration::from_millis(20));
        assert!(Client::connect(addr).is_err());
    }

    /// A small trained LookHD model for the online-path tests.
    fn trained_classifier() -> LookHdClassifier {
        use hdc::FitClassifier;
        let xs: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![if i % 2 == 0 { 0.2 } else { 0.8 }; 6])
            .collect();
        let ys: Vec<usize> = (0..30).map(|i| i % 2).collect();
        let config = lookhd::LookHdConfig::new()
            .with_dim(256)
            .with_retrain_epochs(0)
            .with_validation_fraction(0.0);
        LookHdClassifier::fit(&config, &xs, &ys).expect("fit failed")
    }

    #[test]
    fn online_feedback_refresh_and_stamped_predicts() {
        let handle = start_online(
            "127.0.0.1:0",
            trained_classifier(),
            ServeConfig::new(),
            OnlineConfig::new(),
        )
        .expect("bind failed");
        let mut client = Client::connect(handle.addr()).unwrap();

        // Version 1 serves until the first swap.
        assert_eq!(
            client.predict_stamped(1, &[0.8; 6]).unwrap(),
            Response::PredictStamped {
                id: 1,
                trace_id: 0,
                class: 1,
                version: 1
            }
        );

        // Feedback folds ack with the live version and a running count.
        for (i, label) in [0u32, 1, 0].into_iter().enumerate() {
            let v = if label == 0 { 0.2 } else { 0.8 };
            assert_eq!(
                client.feedback(10 + i as u64, label, &[v; 6]).unwrap(),
                Response::FeedbackAck {
                    id: 10 + i as u64,
                    trace_id: 0,
                    version: 1,
                    observed: i as u64 + 1
                }
            );
        }

        // A manual refresh materializes version 2 ...
        assert_eq!(
            client.refresh(20).unwrap(),
            Response::RefreshAck {
                id: 20,
                trace_id: 0,
                version: 2
            }
        );
        assert_eq!(handle.model_version(), 2);

        // ... and new stamped predicts answer on it.
        match client.predict_stamped(21, &[0.2; 6]).unwrap() {
            Response::PredictStamped { id, version, .. } => {
                assert_eq!((id, version), (21, 2));
            }
            other => panic!("unexpected response {other:?}"),
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn feedback_without_online_training_is_rejected_politely() {
        let handle = start_stub(ServeConfig::new());
        let mut client = Client::connect(handle.addr()).unwrap();
        match client.feedback(1, 0, &[1.0]).unwrap() {
            Response::Error {
                id, code, message, ..
            } => {
                assert_eq!((id, code), (1, ErrorCode::BadRequest));
                assert!(message.contains("online"), "unexpected message {message:?}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        // The connection survives and keeps serving predictions.
        assert_eq!(
            client.predict(2, &[1.0]).unwrap(),
            Response::Predict {
                id: 2,
                trace_id: 0,
                class: 1
            }
        );
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn out_of_range_feedback_labels_are_bad_requests() {
        let handle = start_online(
            "127.0.0.1:0",
            trained_classifier(),
            ServeConfig::new(),
            OnlineConfig::new(),
        )
        .expect("bind failed");
        let mut client = Client::connect(handle.addr()).unwrap();
        match client.feedback(1, 99, &[0.5; 6]).unwrap() {
            Response::Error { id, code, .. } => {
                assert_eq!((id, code), (1, ErrorCode::BadRequest));
            }
            other => panic!("expected an error, got {other:?}"),
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn config_builder_clamps_and_chains() {
        let c = ServeConfig::new().with_reactors(0).with_max_conns(0);
        assert_eq!(c.reactors, 1);
        assert_eq!(c.max_conns, 1);
        assert_eq!(OnlineConfig::new().with_queue_cap(0).queue_cap, 1);
    }
}
