//! The readiness-driven I/O reactor: each frame runs to completion on
//! the reactor that reads it.
//!
//! Each reactor thread owns an **edge-triggered** [`netpoll::Poller`]
//! plus the connection state machines assigned to it: the
//! per-connection [`wire::FrameDecoder`] read buffer (frames are
//! borrowed `&[u8]` slices out of it — zero copies, zero per-frame
//! allocations), the epoll interest set, and the write-backpressure
//! outbox ([`Conn`]). No other thread touches a connection.
//!
//! A decoded frame is handled where it lands: pings are answered,
//! predicts are scored on this thread (one model call each, see
//! [`Inner::predict`]) and feedback is queued for the trainer. Every
//! response is encoded onto the connection's outbox, and after the
//! frames of a read chunk are dispatched the reactor writes them with
//! **one** flush. The invariant: whenever the reactor sleeps in `wait`,
//! a non-empty outbox has `EPOLLOUT` armed.
//!
//! The trainer thread answers through the reactor's [`ReactorQueue`] —
//! a list of `(token, response)` replies plus a [`netpoll::Waker`].
//! At the top of every loop iteration the reactor appends each reply to
//! its connection's outbox, counts the command answered, and flushes
//! like a read chunk. A reply for a connection that is gone is dropped;
//! tokens never recycle, so it cannot reach another connection.
//!
//! **The drain rule.** Replies and the server's `drained` flag travel
//! separately, so a reactor can see `drained` while a reply still sits
//! in its list; that connection still counts the command in flight.
//! Every teardown after drain therefore goes through
//! [`Conn::is_reapable`] (read side shut, no trainer command in flight,
//! outbox empty or condemned), never through "no backlog".
//!
//! ## Accept sharding
//!
//! **Every** reactor owns its own `SO_REUSEPORT` listener bound to the
//! same address and adopts its accepts directly — the kernel shards
//! incoming connections across listeners by flow hash, so there is no
//! shared accept path at all (one reactor is just the N = 1 case).
//!
//! ## Edge-triggered readiness + the round budgets
//!
//! Under `EPOLLET` the poller reports a socket once per readiness
//! *transition*: an undrained socket is never re-reported, so the
//! reactor keeps its own ready queue. A readable event enqueues the
//! connection; each loop iteration runs one **round** over the queue.
//! Every ready connection gets two budgets per round:
//!
//! * bytes — an equal slice of `ROUND_READ_BYTES / ready-connections`,
//!   clamped to [[`MIN_READ_BUDGET`], [`MAX_READ_BUDGET`]];
//! * frames — [`ROUND_FRAMES`]. Scoring runs on the reactor, so bytes
//!   alone do not bound time: 256 KiB of small frames against a slow
//!   model would hold the thread for thousands of model calls.
//!
//! Complete frames a connection already has buffered are dispatched
//! before the reactor reads more from it. A connection drained to
//! `WouldBlock` (or EOF) leaves the queue; one that uses up either
//! budget with work possibly left counts one `serve.fairness_deferrals`
//! and rejoins the next round behind the connections that became ready
//! meanwhile — a firehose client pipelining thousands of requests gets
//! throughput, not a monopoly, and a newcomer waits at most one budget
//! of model calls per connection ahead of it.
//!
//! ## Admission control tiers
//!
//! 1. **connection cap** — at accept, a server already holding
//!    [`ServeConfig::max_conns`] connections answers with one
//!    [`ErrorCode::Overloaded`] frame and closes
//!    (`serve.conn_rejections`);
//! 2. **slow-client drop** — a connection whose outbox exceeds
//!    [`crate::conn::OUTBOX_CAP`] is condemned
//!    (`serve.slow_client_drops`);
//! 3. **trainer-queue overload** — a feedback or refresh frame finding
//!    the trainer queue at [`OnlineConfig::queue_cap`] is answered with
//!    [`ErrorCode::Overloaded`] (`serve.overload_rejections`).
//!
//! Predicts are never refused for load: one that is not yet read waits
//! in the socket buffer, and the round budgets keep every connection
//! moving.
//!
//! ## Drain protocol
//!
//! Shutdown is event-driven (no self-connect): the trigger sets the
//! flag and wakes every reactor and the trainer. Each reactor then
//! drops its listener, parks all read interest, and keeps flushing
//! outboxes; every predict it read is already answered. Once the server
//! is *drained* — at once without online training, or when the trainer
//! has answered its queue — the reactors close every connection as it
//! becomes reapable (see the drain rule above) and exit, with a
//! [`DRAIN_GRACE`] bound so a client that never reads its last bytes
//! cannot wedge the join. The trainer's own drain is bounded by the same
//! grace: a refresh it pops more than [`DRAIN_GRACE`] after the trigger is
//! answered `ShuttingDown` instead of materialized.
//!
//! [`ServeConfig::max_conns`]: crate::ServeConfig::max_conns
//! [`OnlineConfig::queue_cap`]: crate::OnlineConfig::queue_cap

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use netpoll::{Event, Interest, Poller, WAKER_TOKEN};
use obs::trace;

use crate::conn::{Conn, Flush};
use crate::server::{trace_pair, Inner, PredictFrame, ReplyTo, TrainCmd};
use crate::wire::{self, ErrorCode, FrameDecoder, Request, Response, WireError};

/// Records the `serve/decode` histogram sample and, for traced
/// requests, the decode begin/end trace pair. Shared by every request
/// kind that carries a trace id.
fn record_decode(trace_id: u64, decode_begin_ns: u64) {
    if obs::enabled() {
        let decode_end_ns = trace::now_ns();
        obs::record(
            "serve/decode",
            Duration::from_nanos(decode_end_ns.saturating_sub(decode_begin_ns)),
        );
        trace_pair(trace_id, "decode", decode_begin_ns, decode_end_ns);
    }
}

/// Token reserved for the reactor's listener. [`WAKER_TOKEN`] is
/// `u64::MAX`; connection tokens count up from zero and can never
/// collide with either.
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Total read budget one ready-round distributes across the
/// connections in the ready queue (the adaptive read-budget rule).
const ROUND_READ_BYTES: usize = 256 * 1024;

/// Floor of the per-connection slice: even with hundreds of ready
/// connections each gets enough to make progress on a max-size frame.
const MIN_READ_BUDGET: usize = 16 * 1024;

/// Ceiling of the per-connection slice: a lone ready connection still
/// yields to commands and accepts after this many bytes.
const MAX_READ_BUDGET: usize = 256 * 1024;

/// Frames one connection may dispatch per ready round. Predicts are
/// scored inline, so this bounds how long one connection holds the
/// reactor against a slow model: the others wait at most this many
/// model calls per round.
const ROUND_FRAMES: usize = 16;

/// Read-syscall chunk size (the granularity of decoder buffer growth).
const READ_CHUNK: usize = 16 * 1024;

/// Accepts taken in one burst before the reactor yields to its ready
/// round (the listener goes back on the pending list, not dropped).
const ACCEPT_ROUND_MAX: usize = 256;

/// How long after the server drains a reactor keeps flushing outboxes
/// before force-closing what remains.
pub(crate) const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// What a budgeted read drain decided once the decoder is restored.
enum ReadOutcome {
    /// Keep going (frames dispatched, or a chunk read, without
    /// incident).
    Continue,
    /// The socket reported `WouldBlock`: fully drained.
    Drained,
    /// Clean EOF.
    Eof,
    /// Transport error.
    Error,
    /// Dispatch condemned the stream (framing damage, answered, or
    /// shutdown).
    Condemn,
    /// A round budget ran out with work possibly left.
    Defer,
}

/// The handle other threads use to talk to a reactor: the trainer's
/// replies, taken at the top of each loop iteration, plus the waker
/// that interrupts its `wait`.
pub(crate) struct ReactorQueue {
    waker: netpoll::Waker,
    replies: Mutex<Vec<(u64, Response)>>,
}

impl ReactorQueue {
    pub(crate) fn new(waker: netpoll::Waker) -> Self {
        Self {
            waker,
            replies: Mutex::new(Vec::new()),
        }
    }

    /// Wakes the reactor with no reply (shutdown/drain flag polls).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Hands the reactor the answer to a trainer command from its
    /// connection `token`, then wakes it.
    pub(crate) fn reply(&self, token: u64, response: Response) {
        self.replies
            .lock()
            .expect("reactor reply lock poisoned")
            .push((token, response));
        self.waker.wake();
    }

    fn take_replies(&self) -> Vec<(u64, Response)> {
        std::mem::take(&mut *self.replies.lock().expect("reactor reply lock poisoned"))
    }
}

/// One connection as its reactor holds it: the [`Conn`] plus the read
/// and readiness state of the event loop.
struct ConnState {
    conn: Conn,
    decoder: FrameDecoder,
    interest: Interest,
    /// Queued in the reactor's ready round: readable bytes may remain
    /// undrained (edge-triggered events will not re-report them).
    read_pending: bool,
}

/// One reactor thread's whole state. Constructed on the spawning
/// thread, moved into the reactor thread, and run to completion.
pub(crate) struct Reactor {
    inner: Arc<Inner>,
    poller: Poller,
    queue: Arc<ReactorQueue>,
    /// This reactor's `SO_REUSEPORT` listener; dropped at shutdown.
    listener: Option<TcpListener>,
    /// Pre-interned `serve.reactor.frames{reactor=}` handle: one bump
    /// per dispatched frame attributes wire traffic to this reactor
    /// without allocating on the event loop.
    frames_id: obs::MetricId,
    conns: HashMap<u64, ConnState>,
    /// Connections with potentially undrained readable bytes, served
    /// one budgeted round per loop iteration.
    ready: VecDeque<u64>,
    /// Connections that used up a round budget with work possibly
    /// left. They rejoin the next round behind the connections that
    /// became ready since, so a newcomer waits at most one budget of
    /// each.
    deferred: Vec<u64>,
    /// The accept burst cap was hit (or accepts hit a transient error
    /// streak): resume accepting next iteration without blocking.
    accept_pending: bool,
    events: Vec<Event>,
    shutdown_seen: bool,
    drain_deadline: Option<Instant>,
}

impl Reactor {
    pub(crate) fn new(
        index: usize,
        inner: Arc<Inner>,
        poller: Poller,
        queue: Arc<ReactorQueue>,
        listener: TcpListener,
    ) -> Self {
        let frames_id =
            obs::intern_counter("serve.reactor.frames", &[("reactor", &index.to_string())]);
        Self {
            inner,
            poller,
            queue,
            listener: Some(listener),
            frames_id,
            conns: HashMap::new(),
            ready: VecDeque::new(),
            deferred: Vec::new(),
            accept_pending: false,
            events: Vec::new(),
            shutdown_seen: false,
            drain_deadline: None,
        }
    }

    /// The event loop. Returns when the server has fully drained.
    pub(crate) fn run(mut self) {
        if let Some(listener) = &self.listener {
            if listener.set_nonblocking(true).is_err()
                || self
                    .poller
                    .register(listener.as_raw_fd(), LISTEN_TOKEN, Interest::READABLE)
                    .is_err()
            {
                // A reactor that cannot watch its listener cannot serve;
                // surface the failure as an immediate shutdown.
                self.inner.trigger_shutdown();
            }
        }
        loop {
            // Edge-triggered: undrained work is ours to remember. With a
            // ready round (or deferred accepts) pending, poll without
            // blocking so new events interleave with the backlog.
            let backlog = !self.ready.is_empty() || !self.deferred.is_empty();
            let timeout = if backlog || self.accept_pending {
                Some(Duration::ZERO)
            } else {
                self.drain_deadline
                    .map(|d| d.saturating_duration_since(Instant::now()))
            };
            let mut events = std::mem::take(&mut self.events);
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.take_replies();
            let resume_accepts = self.accept_pending;
            for event in &events {
                match event.token {
                    WAKER_TOKEN => {}
                    LISTEN_TOKEN => self.accept_ready(),
                    token => self.conn_event(token, event),
                }
            }
            if resume_accepts {
                self.accept_ready();
            }
            self.events = events;
            self.run_ready_round();
            self.poll_shutdown();
            if self.finished() {
                break;
            }
        }
        for (_, state) in self.conns.drain() {
            let _ = self.poller.deregister(state.conn.fd());
            state.conn.close();
            self.inner.conn_count.fetch_sub(1, Ordering::SeqCst);
        }
    }

    // -- trainer replies ----------------------------------------------------

    /// Appends each trainer reply to its connection's outbox and counts
    /// the command answered, then flushes every connection that got
    /// one, reaping it if that was all it waited for. A reply for a
    /// connection that is gone is dropped.
    fn take_replies(&mut self) {
        let mut touched = Vec::new();
        for (token, response) in self.queue.take_replies() {
            if let Some(state) = self.conns.get_mut(&token) {
                state.conn.inflight -= 1;
                state.conn.append(&response);
                touched.push(token);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.flush(token);
        }
    }

    // -- accept + admission -------------------------------------------------

    /// Drains the accept queue to `WouldBlock` — mandatory under
    /// edge-triggered polling, where an undrained listener is never
    /// re-reported. Bursts are capped (and error streaks bounded, so an
    /// fd-exhausted accept cannot spin): both cases park the listener
    /// on `accept_pending` and resume next iteration.
    fn accept_ready(&mut self) {
        self.accept_pending = false;
        let mut accepted = 0usize;
        let mut errors = 0usize;
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    errors = 0;
                    self.admit(stream);
                    accepted += 1;
                    if accepted >= ACCEPT_ROUND_MAX {
                        self.accept_pending = true;
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection failures (ECONNABORTED & co)
                // consume the queue slot: keep draining. A persistent
                // streak (EMFILE never consumes its slot) defers instead
                // of spinning.
                Err(_) => {
                    errors += 1;
                    if errors >= 16 {
                        self.accept_pending = true;
                        return;
                    }
                }
            }
        }
    }

    /// Admission tier 1, the connection cap, then adopt the connection.
    /// The kernel already picked this reactor, so there is no
    /// cross-thread hand-off. Shutdown drops the listener before it
    /// parks reads, so nothing is admitted after that point.
    fn admit(&mut self, stream: TcpStream) {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let config = &self.inner.config;
        if self.inner.conn_count.load(Ordering::SeqCst) >= config.max_conns {
            obs::counter("serve.conn_rejections", 1);
            reject(
                stream,
                format!("connection limit reached ({} open)", config.max_conns),
            );
            return;
        }
        obs::counter("serve.connections", 1);
        self.inner.conn_count.fetch_add(1, Ordering::SeqCst);
        let token = self.inner.next_token.fetch_add(1, Ordering::SeqCst);
        let conn = match Conn::new(stream) {
            Ok(conn) => conn,
            Err(_) => {
                self.inner.conn_count.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        };
        let interest = Interest::READABLE;
        if self.poller.register(conn.fd(), token, interest).is_err() {
            conn.close();
            self.inner.conn_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        self.conns.insert(
            token,
            ConnState {
                conn,
                decoder: FrameDecoder::new(),
                interest,
                read_pending: false,
            },
        );
    }

    // -- per-connection events ----------------------------------------------

    fn conn_event(&mut self, token: u64, event: &Event) {
        let Some(state) = self.conns.get(&token) else {
            return;
        };
        if event.hangup {
            // Hard errors (EPOLLERR/EPOLLHUP): the socket is gone in
            // both directions, and edge-triggered delivery will not
            // repeat the event — drain any final readable bytes now
            // (budget-free; the connection is dying anyway), then tear
            // down whatever remains.
            if event.readable && !state.conn.read_shut {
                self.read_ready(token, usize::MAX, usize::MAX);
            }
            self.teardown(token);
            return;
        }
        if event.writable && !self.flush(token) {
            return;
        }
        if event.readable {
            // Edge-triggered: remember the readiness; the budgeted
            // ready round does the actual reads.
            self.mark_read_pending(token);
        }
    }

    /// Queues a connection for the ready round (idempotent).
    fn mark_read_pending(&mut self, token: u64) {
        if let Some(state) = self.conns.get_mut(&token) {
            if !state.read_pending && !state.conn.read_shut {
                state.read_pending = true;
                self.ready.push_back(token);
            }
        }
    }

    /// One fairness round: every queued connection gets an equal slice
    /// of [`ROUND_READ_BYTES`] (clamped) and [`ROUND_FRAMES`] frames; a
    /// connection that exhausts either with work possibly left is
    /// deferred to the next round and counted in
    /// `serve.fairness_deferrals`.
    fn run_ready_round(&mut self) {
        self.ready.extend(self.deferred.drain(..));
        let in_round = self.ready.len();
        if in_round == 0 {
            return;
        }
        let budget = (ROUND_READ_BYTES / in_round).clamp(MIN_READ_BUDGET, MAX_READ_BUDGET);
        for _ in 0..in_round {
            let Some(token) = self.ready.pop_front() else {
                break;
            };
            let Some(state) = self.conns.get_mut(&token) else {
                continue;
            };
            state.read_pending = false;
            if state.conn.read_shut {
                continue;
            }
            self.read_ready(token, budget, ROUND_FRAMES);
        }
    }

    /// Writes the outbox — after a read chunk or a batch of trainer
    /// replies, one write for all of their responses — and keeps the
    /// sleep invariant: bytes the kernel refuses arm `EPOLLOUT`. Returns
    /// `false` when the connection is gone.
    fn flush(&mut self, token: u64) -> bool {
        let Some(state) = self.conns.get_mut(&token) else {
            return false;
        };
        match state.conn.flush_outbox() {
            Flush::Empty => self.after_flush_empty(token),
            Flush::Pending => self.want(token, Interest::WRITABLE, true),
            Flush::Dead => self.teardown(token),
        }
        self.conns.contains_key(&token)
    }

    /// After the outbox drains: reap a finished connection, otherwise
    /// drop `EPOLLOUT` from its interest set.
    fn after_flush_empty(&mut self, token: u64) {
        let Some(state) = self.conns.get(&token) else {
            return;
        };
        if state.conn.is_reapable() {
            self.teardown(token);
            return;
        }
        let read = !state.conn.read_shut;
        self.want(
            token,
            if read {
                Interest::READABLE
            } else {
                Interest::NONE
            },
            false,
        );
    }

    /// Serves one connection's share of a ready round: dispatches the
    /// complete frames already buffered in its [`FrameDecoder`], then
    /// reads toward `WouldBlock` within `bytes` bytes, dispatching each
    /// completed frame as a slice **borrowed** from the decoder — the
    /// hot path allocates nothing per frame. Each read chunk's
    /// responses leave with one outbox flush. At most `frames` frames
    /// are dispatched; a connection that uses up either budget is
    /// deferred to the next round. The decoder is temporarily taken out
    /// of the connection state so borrowed frame bodies and `&mut self`
    /// dispatch can coexist; it is restored before any exit (unless the
    /// connection is gone).
    fn read_ready(&mut self, token: u64, bytes: usize, frames: usize) {
        let mut bytes_left = bytes;
        let mut frames_left = frames;
        loop {
            let Some(state) = self.conns.get_mut(&token) else {
                return;
            };
            let mut decoder = std::mem::take(&mut state.decoder);
            let before = frames_left;
            let keep_reading = self.dispatch_frames(token, &mut decoder, &mut frames_left);
            // One write for everything the dispatched frames produced,
            // before the next read.
            if (frames_left != before || !keep_reading) && !self.flush(token) {
                return;
            }
            let mut outcome = ReadOutcome::Continue;
            if !keep_reading {
                outcome = ReadOutcome::Condemn;
            } else if frames_left == 0 || bytes_left == 0 {
                outcome = ReadOutcome::Defer;
            } else {
                let Some(state) = self.conns.get(&token) else {
                    return;
                };
                let want = READ_CHUNK.min(bytes_left);
                match state.conn.read_into(&mut decoder.space(want)[..want]) {
                    Ok(0) => outcome = ReadOutcome::Eof,
                    Ok(n) => {
                        decoder.commit(n);
                        bytes_left = bytes_left.saturating_sub(n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        outcome = ReadOutcome::Drained;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // Transport error: the client is gone; close silently.
                    Err(_) => outcome = ReadOutcome::Error,
                }
            }
            if let Some(state) = self.conns.get_mut(&token) {
                state.decoder = decoder;
            } else {
                return;
            }
            match outcome {
                ReadOutcome::Continue => {}
                ReadOutcome::Drained => return,
                ReadOutcome::Eof => {
                    self.read_finished(token, true);
                    return;
                }
                ReadOutcome::Error => {
                    self.read_finished(token, false);
                    return;
                }
                ReadOutcome::Condemn => {
                    self.condemn_read(token);
                    return;
                }
                ReadOutcome::Defer => {
                    // Edge-triggered epoll will not remind us of bytes
                    // still in the socket, and nothing reminds us of
                    // frames still buffered: requeue the connection.
                    obs::counter("serve.fairness_deferrals", 1);
                    if let Some(state) = self.conns.get_mut(&token) {
                        state.read_pending = true;
                        self.deferred.push(token);
                    }
                    return;
                }
            }
        }
    }

    /// Dispatches the complete frames buffered in `decoder`, at most
    /// `frames_left` of them. Returns `false` when the stream must stop
    /// being read: framing damage (already answered) or a shutdown.
    fn dispatch_frames(
        &mut self,
        token: u64,
        decoder: &mut FrameDecoder,
        frames_left: &mut usize,
    ) -> bool {
        while *frames_left > 0 {
            let body = match decoder.next_frame() {
                Ok(Some(body)) => body,
                Ok(None) => break,
                Err(e) => {
                    // Over-cap length prefix: answer, then drop the
                    // connection (the stream is no longer frame-aligned).
                    obs::counter("serve.bad_frames", 1);
                    if let Some(state) = self.conns.get_mut(&token) {
                        state.conn.append(&frame_error(e));
                    }
                    return false;
                }
            };
            *frames_left -= 1;
            // Framing damage mid-pipeline, or a Shutdown frame (everything
            // after it is discarded): stop reading; frames already
            // dispatched stay answered.
            if !self.dispatch(token, body) || self.inner.shutdown.load(Ordering::SeqCst) {
                return false;
            }
        }
        true
    }

    /// Handles one complete frame body. Returns `false` when the frame
    /// was damaged in a way that poisons stream alignment.
    fn dispatch(&mut self, token: u64, body: &[u8]) -> bool {
        obs::counter_id(self.frames_id, 1);
        let Some(state) = self.conns.get_mut(&token) else {
            return false;
        };
        let conn = &mut state.conn;
        let decode_begin_ns = if obs::enabled() { trace::now_ns() } else { 0 };
        match wire::decode_request(body) {
            Err(e @ (WireError::TooLarge { .. } | WireError::Truncated { .. })) => {
                // A lying in-body count (the frame held fewer bytes than
                // its fields claim): treated as alignment damage, answer
                // and drop the connection.
                obs::counter("serve.bad_frames", 1);
                conn.append(&frame_error(e));
                false
            }
            Err(e) => {
                // The frame arrived intact but its body was malformed;
                // framing is still aligned, so keep the connection.
                obs::counter("serve.bad_frames", 1);
                conn.append(&frame_error(e));
                true
            }
            Ok(Request::Ping { id }) => {
                conn.append(&Response::Pong { id });
                true
            }
            Ok(Request::Shutdown { id }) => {
                conn.append(&Response::Pong { id });
                self.inner.trigger_shutdown();
                true
            }
            Ok(Request::Predict {
                id,
                trace_id,
                features,
            }) => {
                record_decode(trace_id, decode_begin_ns);
                let frame = PredictFrame {
                    id,
                    trace_id,
                    stamped: false,
                    decode_begin_ns,
                };
                self.inner.predict(conn, frame, features);
                true
            }
            Ok(Request::PredictStamped {
                id,
                trace_id,
                features,
            }) => {
                record_decode(trace_id, decode_begin_ns);
                let frame = PredictFrame {
                    id,
                    trace_id,
                    stamped: true,
                    decode_begin_ns,
                };
                self.inner.predict(conn, frame, features);
                true
            }
            Ok(Request::Feedback {
                id,
                trace_id,
                label,
                features,
            }) => {
                record_decode(trace_id, decode_begin_ns);
                let queue = Arc::clone(&self.queue);
                let reply = ReplyTo { queue, token };
                self.inner.enqueue_train(
                    conn,
                    TrainCmd::Feedback {
                        reply,
                        id,
                        trace_id,
                        label,
                        features,
                    },
                );
                true
            }
            Ok(Request::Refresh { id, trace_id }) => {
                record_decode(trace_id, decode_begin_ns);
                let queue = Arc::clone(&self.queue);
                let reply = ReplyTo { queue, token };
                self.inner.enqueue_train(
                    conn,
                    TrainCmd::Refresh {
                        reply,
                        id,
                        trace_id,
                    },
                );
                true
            }
        }
    }

    /// EOF or transport error on the read side. `clean` distinguishes a
    /// proper EOF, where a frame cut mid-body still earns a truncation
    /// error frame.
    fn read_finished(&mut self, token: u64, clean: bool) {
        if clean {
            if let Some(state) = self.conns.get_mut(&token) {
                // EOF with a complete length prefix but a short body is
                // frame damage; EOF inside the prefix is a silent close.
                if state.decoder.mid_frame() && state.decoder.buffered() >= 4 {
                    obs::counter("serve.bad_frames", 1);
                    state.conn.append(&frame_error(WireError::Truncated {
                        offset: state.decoder.buffered() - 4,
                        field: "frame body",
                    }));
                }
            }
        }
        self.condemn_read(token);
    }

    /// Stops reading this connection for good; it is reaped as soon as
    /// its trainer commands are answered and the outbox drains. A
    /// non-empty outbox keeps `EPOLLOUT` armed.
    fn condemn_read(&mut self, token: u64) {
        let Some(state) = self.conns.get_mut(&token) else {
            return;
        };
        state.conn.read_shut = true;
        if state.conn.is_reapable() {
            self.teardown(token);
            return;
        }
        let writable = state.conn.has_backlog();
        self.want(
            token,
            if writable {
                Interest::WRITABLE
            } else {
                Interest::NONE
            },
            false,
        );
    }

    // -- interest + teardown ------------------------------------------------

    /// Sets a connection's interest; `add` merges with the current set
    /// instead of replacing it.
    fn want(&mut self, token: u64, interest: Interest, add: bool) {
        let Some(state) = self.conns.get_mut(&token) else {
            return;
        };
        let next = if add {
            state.interest.union(interest)
        } else {
            interest
        };
        if next == state.interest {
            return;
        }
        if self.poller.modify(state.conn.fd(), token, next).is_ok() {
            state.interest = next;
        }
    }

    fn teardown(&mut self, token: u64) {
        if let Some(state) = self.conns.remove(&token) {
            let _ = self.poller.deregister(state.conn.fd());
            state.conn.close();
            self.inner.conn_count.fetch_sub(1, Ordering::SeqCst);
        }
    }

    // -- shutdown + drain ---------------------------------------------------

    fn poll_shutdown(&mut self) {
        if self.inner.shutdown.load(Ordering::SeqCst) && !self.shutdown_seen {
            self.shutdown_seen = true;
            if let Some(listener) = self.listener.take() {
                let _ = self.poller.deregister(listener.as_raw_fd());
                // Dropping the listener closes it: new connects are
                // refused from this point on.
            }
            // Park every read; predicts already read are answered, and
            // their bytes and queued trainer acks still get flushed.
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.condemn_read(token);
            }
        }
        if self.inner.drained.load(Ordering::SeqCst) && self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            // Nothing can produce another response, but a reply may still
            // wait in this reactor's list: the drain rule reaps only what
            // `is_reapable` allows, and the reply's flush reaps the rest.
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                if self
                    .conns
                    .get(&token)
                    .is_some_and(|state| state.conn.is_reapable())
                {
                    self.teardown(token);
                }
            }
        }
    }

    fn finished(&mut self) -> bool {
        let Some(deadline) = self.drain_deadline else {
            return false;
        };
        if self.conns.is_empty() {
            return true;
        }
        Instant::now() >= deadline
    }
}

/// The answer to a frame the decoder could not use. Its id is unknown,
/// so it carries 0.
fn frame_error(e: WireError) -> Response {
    Response::Error {
        id: 0,
        trace_id: 0,
        code: ErrorCode::BadRequest,
        message: e.to_string(),
    }
}

/// Best-effort rejection of a not-yet-admitted connection: one
/// `Overloaded` frame, then close. The stream is still in blocking
/// mode; a short write timeout keeps a pathological client from
/// stalling the reactor.
fn reject(mut stream: TcpStream, message: String) {
    obs::counter("serve.responses.error", 1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = wire::write_response(
        &mut stream,
        &Response::Error {
            id: 0,
            trace_id: 0,
            code: ErrorCode::Overloaded,
            message,
        },
    );
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
    use std::sync::OnceLock;

    use super::*;
    use crate::client::Client;
    use crate::model::ModelSlot;
    use crate::slo::{HealthState, SloConfig};
    use crate::ServeConfig;

    struct ZeroStub;

    impl hdc::Classifier for ZeroStub {
        fn num_classes(&self) -> usize {
            1
        }

        fn predict(&self, _features: &[f64]) -> hdc::Result<usize> {
            Ok(0)
        }
    }

    /// The drain rule: a reactor that sees the server drained while a
    /// trainer reply still waits in its list keeps that connection until
    /// the reply is written, instead of closing it for having no backlog.
    #[test]
    fn a_reply_still_listed_at_drain_is_delivered_before_teardown() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let local_addr = listener.local_addr().expect("local address");
        let mut client = Client::connect(local_addr).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        let poller = Poller::new().expect("poller");
        let queue = Arc::new(ReactorQueue::new(poller.waker()));
        let inner = Arc::new(Inner {
            model: ModelSlot::new(Arc::new(ZeroStub)),
            online: None,
            config: ServeConfig::new(),
            local_addr,
            shutdown: AtomicBool::new(false),
            shutdown_at: OnceLock::new(),
            drained: AtomicBool::new(false),
            conn_count: AtomicUsize::new(0),
            next_token: AtomicU64::new(0),
            reactor_queues: vec![Arc::clone(&queue)],
            health: Arc::new(HealthState::new(SloConfig::new())),
        });
        let mut reactor = Reactor::new(0, Arc::clone(&inner), poller, Arc::clone(&queue), listener);
        reactor.admit(stream);

        // The trainer answered the connection's one command, then drained;
        // the reactor sees the drain before it takes the reply.
        let state = reactor.conns.get_mut(&0).expect("admitted as token 0");
        state.conn.inflight = 1;
        queue.reply(0, Response::Pong { id: 7 });
        inner.shutdown.store(true, Ordering::SeqCst);
        inner.drained.store(true, Ordering::SeqCst);
        reactor.poll_shutdown();
        assert!(reactor.conns.contains_key(&0), "closed in flight");
        reactor.take_replies();
        assert!(reactor.conns.is_empty(), "answered but not reaped");
        assert_eq!(client.recv().expect("reply"), Response::Pong { id: 7 });
    }
}
