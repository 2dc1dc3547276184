//! The load generator: one thread, two nonblocking pipelined connections.
//!
//! Open-loop phases issue on a fixed schedule and time every request from
//! the moment it was due, so a stall charges its wait to every request it
//! delays. The schedule is kept with `ppoll(2)`, whose nanosecond timeout
//! (with the thread's timer slack set to 1 ns) keeps sub-millisecond
//! gaps; `netpoll::Poller::wait` rounds timeouts up to whole
//! milliseconds. Closed-loop phases keep a fixed window of requests in
//! flight per connection. The server sees only wire frames.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use lookhd_serve::wire::{decode_response, encode_request, FrameDecoder, Request, Response};

/// One operation the generator can issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Predict on a test row.
    Predict(usize),
    /// Version-stamped predict on a test row (online server).
    Stamped(usize),
    /// Labelled feedback on a train row (online server).
    Feedback(usize),
    /// Materialize the trainer's counters and swap the model in.
    Refresh,
}

/// How a phase issues requests.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// A fixed aggregate rate in operations per second.
    Open(f64),
    /// A fixed number of requests in flight on each connection.
    Closed(usize),
}

/// One load phase.
pub struct Plan<'a> {
    pub pace: Pace,
    /// Issue for this long (`None`: until `max_ops` are issued).
    pub duration: Option<Duration>,
    pub max_ops: Option<u64>,
    /// The `k`-th scheduled operation.
    pub op_at: &'a dyn Fn(u64) -> Op,
    /// Issue a refresh this often (one outstanding at a time).
    pub refresh_every: Option<Duration>,
    /// Put a distinct trace id on every request.
    pub traced: bool,
}

/// What the data says each answer must be.
pub struct Truth<'a> {
    pub test: &'a [Vec<f64>],
    pub train: &'a [Vec<f64>],
    pub train_labels: &'a [usize],
    /// Direct `Classifier::predict` on the served model, per test row.
    pub expected: &'a [usize],
}

/// Latency of a failed or refused operation: +∞.
pub const FAILED: u64 = u64::MAX;

/// Everything one phase measured.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub attempted: u64,
    pub failed: u64,
    /// Unstamped predicts whose class differs from direct predict.
    pub wrong: u64,
    /// Latency per operation kind in ns (from due time in open loops,
    /// from send time otherwise); [`FAILED`] for failures.
    pub predict_ns: Vec<u64>,
    pub feedback_ns: Vec<u64>,
    pub refresh_ns: Vec<u64>,
    /// Open loop: how late each request left, in ns.
    pub lag_ns: Vec<u64>,
    /// Operations answered successfully before the issuing window closed,
    /// and when the first and last of them arrived.
    pub completed_in_window: u64,
    pub first_done: Option<Instant>,
    pub last_done: Option<Instant>,
    /// `(row, class, version)` of every stamped answer.
    pub stamped: Vec<(usize, u32, u64)>,
    /// `(row, version)` of every acknowledged feedback.
    pub feedback_acks: Vec<(usize, u64)>,
    /// Versions reported by refresh acks, in order.
    pub refresh_versions: Vec<u64>,
    /// Unstamped predict answers `(row, class)`, for accuracy.
    pub answers: Vec<(usize, u32)>,
    /// Benchmark-side `encode_request` / `decode_response` times in ns.
    pub client_encode_ns: Vec<u64>,
    pub client_decode_ns: Vec<u64>,
    /// Frame length (prefix + body) of the last predict request.
    pub request_bytes: usize,
    /// Human-readable failure notes (first few).
    pub notes: Vec<String>,
}

impl PhaseResult {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    decoder: FrameDecoder,
    inflight: usize,
    broken: bool,
}

struct Pending {
    op: Op,
    /// Latency origin: due time (open loop) or send time.
    origin: Instant,
    trace_id: u64,
}

/// Connections to one server and the requests they owe answers to.
pub struct Link {
    conns: Vec<Conn>,
    pending: HashMap<u64, Pending>,
}

/// Request ids (and trace ids) are unique across the whole process, so
/// trace events from different servers never share an id.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// How long a phase waits for stragglers after it stops issuing; a
/// request unanswered by then counts as failed (missing).
const DRAIN: Duration = Duration::from_secs(5);
/// On open-loop schedules whose gaps are over ten times this, the
/// generator stops sleeping this long before each request is due and
/// polls instead (at 100 requests/s that costs 1% of a core).
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(100);

impl Link {
    /// Opens `n` nonblocking connections.
    pub fn connect(addr: SocketAddr, n: usize) -> io::Result<Self> {
        let mut conns = Vec::with_capacity(n);
        for _ in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            conns.push(Conn {
                stream,
                out: Vec::new(),
                out_pos: 0,
                decoder: FrameDecoder::new(),
                inflight: 0,
                broken: false,
            });
        }
        set_timer_slack_1ns();
        Ok(Self {
            conns,
            pending: HashMap::new(),
        })
    }

    fn issue(
        &mut self,
        c: usize,
        op: Op,
        origin: Instant,
        plan: &Plan<'_>,
        truth: &Truth<'_>,
        res: &mut PhaseResult,
    ) {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let trace_id = if plan.traced { id } else { 0 };
        let request = match op {
            Op::Predict(row) => Request::Predict {
                id,
                trace_id,
                features: truth.test[row].clone(),
            },
            Op::Stamped(row) => Request::PredictStamped {
                id,
                trace_id,
                features: truth.test[row].clone(),
            },
            Op::Feedback(row) => Request::Feedback {
                id,
                trace_id,
                label: truth.train_labels[row] as u32,
                features: truth.train[row].clone(),
            },
            Op::Refresh => Request::Refresh { id, trace_id },
        };
        let started = Instant::now();
        let body = encode_request(&request);
        res.client_encode_ns
            .push(started.elapsed().as_nanos() as u64);
        let conn = &mut self.conns[c];
        conn.out
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        conn.out.extend_from_slice(&body);
        if matches!(op, Op::Predict(_) | Op::Stamped(_)) {
            res.request_bytes = 4 + body.len();
        }
        conn.inflight += 1;
        res.attempted += 1;
        self.pending.insert(
            id,
            Pending {
                op,
                origin,
                trace_id,
            },
        );
    }

    fn flush(&mut self) {
        for conn in &mut self.conns {
            while !conn.broken && conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => conn.broken = true,
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => conn.broken = true,
                }
            }
            if conn.out_pos == conn.out.len() {
                conn.out.clear();
                conn.out_pos = 0;
            }
        }
    }

    /// Waits until a connection is readable (or writable with a backlog),
    /// or `timeout` passes.
    fn wait(&self, timeout: Duration) {
        let mut fds: Vec<PollFd> = self
            .conns
            .iter()
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN | if c.out_pos < c.out.len() { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        ppoll_wait(&mut fds, timeout);
    }

    /// Reads and settles every buffered response.
    fn read_all(&mut self, truth: &Truth<'_>, res: &mut PhaseResult, window_end: Option<Instant>) {
        for c in 0..self.conns.len() {
            loop {
                let conn = &mut self.conns[c];
                if conn.broken {
                    break;
                }
                let buf = conn.decoder.space(64 * 1024);
                match conn.stream.read(buf) {
                    Ok(0) => {
                        conn.broken = true;
                        break;
                    }
                    Ok(n) => conn.decoder.commit(n),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.broken = true;
                        break;
                    }
                }
                loop {
                    let conn = &mut self.conns[c];
                    let frame = match conn.decoder.next_frame() {
                        Ok(Some(frame)) => frame,
                        Ok(None) => break,
                        Err(e) => {
                            res.fail(format!("conn {c}: bad frame: {e}"));
                            conn.broken = true;
                            break;
                        }
                    };
                    let started = Instant::now();
                    let decoded = decode_response(frame);
                    res.client_decode_ns
                        .push(started.elapsed().as_nanos() as u64);
                    let now = Instant::now();
                    conn.inflight = conn.inflight.saturating_sub(1);
                    settle(&mut self.pending, decoded, now, truth, res, window_end);
                }
            }
        }
    }

    /// Runs one phase to completion: issue, then drain every answer.
    pub fn run(&mut self, plan: &Plan<'_>, truth: &Truth<'_>) -> PhaseResult {
        let start = Instant::now();
        let mut res = PhaseResult::default();
        let end = plan.duration.map(|d| start + d);
        let mut k: u64 = 0;
        let mut next_refresh = plan.refresh_every.map(|every| start + every);
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let now = Instant::now();
            // A closed connection ends issuing; the drain below fails
            // whatever it still owed.
            let issuing = end.is_none_or(|e| now < e)
                && plan.max_ops.is_none_or(|m| k < m)
                && !self.conns.iter().any(|c| c.broken);
            if issuing {
                match plan.pace {
                    Pace::Open(rate) => loop {
                        if plan.max_ops.is_some_and(|m| k >= m) {
                            break;
                        }
                        let due = start + Duration::from_secs_f64(k as f64 / rate);
                        if due > now || end.is_some_and(|e| due >= e) {
                            break;
                        }
                        let c = (k % self.conns.len() as u64) as usize;
                        self.issue(c, (plan.op_at)(k), due, plan, truth, &mut res);
                        res.lag_ns
                            .push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
                        k += 1;
                    },
                    Pace::Closed(window) => {
                        for c in 0..self.conns.len() {
                            while self.conns[c].inflight < window
                                && !self.conns[c].broken
                                && plan.max_ops.is_none_or(|m| k < m)
                            {
                                let op = (plan.op_at)(k);
                                self.issue(c, op, Instant::now(), plan, truth, &mut res);
                                k += 1;
                            }
                        }
                    }
                }
                if let (Some(at), Some(every)) = (next_refresh, plan.refresh_every) {
                    let refresh_pending = self.pending.values().any(|p| p.op == Op::Refresh);
                    if now >= at && !refresh_pending {
                        self.issue(0, Op::Refresh, now, plan, truth, &mut res);
                        next_refresh = Some(at + every);
                    }
                }
            } else if self.pending.is_empty() {
                break;
            } else {
                let deadline = *drain_deadline.get_or_insert(now + DRAIN);
                if now >= deadline || self.conns.iter().all(|c| c.broken) {
                    let missing: Vec<u64> = self.pending.keys().copied().collect();
                    for id in missing {
                        let p = self.pending.remove(&id).expect("listed id");
                        record_latency(&mut res, p.op, FAILED);
                        res.fail(format!("request {id} ({:?}) never answered", p.op));
                    }
                    break;
                }
            }
            self.flush();
            let now = Instant::now();
            let mut timeout = Duration::from_millis(50);
            if issuing {
                if let Pace::Open(rate) = plan.pace {
                    let due = start + Duration::from_secs_f64(k as f64 / rate);
                    let until_due = due.saturating_duration_since(now);
                    // On a sparse schedule, wake early and poll the last
                    // stretch: waking an idle virtual CPU from a long
                    // sleep takes tens of microseconds, which would
                    // otherwise land on every request as generator lag.
                    let spin = if rate * SPIN_BEFORE_DUE.as_secs_f64() < 0.1 {
                        SPIN_BEFORE_DUE
                    } else {
                        Duration::ZERO
                    };
                    timeout = timeout.min(until_due.saturating_sub(spin));
                }
                if let Some(e) = end {
                    timeout = timeout.min(e.saturating_duration_since(now));
                }
                if let Some(at) = next_refresh {
                    timeout = timeout.min(at.saturating_duration_since(now));
                }
            }
            if !timeout.is_zero() {
                self.wait(timeout);
            }
            self.read_all(truth, &mut res, end);
        }
        if self.conns.iter().any(|c| c.broken) {
            res.fail("a connection closed mid-phase".into());
        }
        res
    }
}

fn record_latency(res: &mut PhaseResult, op: Op, ns: u64) {
    match op {
        Op::Predict(_) | Op::Stamped(_) => res.predict_ns.push(ns),
        Op::Feedback(_) => res.feedback_ns.push(ns),
        Op::Refresh => res.refresh_ns.push(ns),
    }
}

/// Matches one decoded response to its request and checks it.
fn settle(
    pending: &mut HashMap<u64, Pending>,
    decoded: Result<Response, lookhd_serve::WireError>,
    now: Instant,
    truth: &Truth<'_>,
    res: &mut PhaseResult,
    window_end: Option<Instant>,
) {
    let response = match decoded {
        Ok(response) => response,
        Err(e) => {
            res.fail(format!("undecodable response: {e}"));
            return;
        }
    };
    let id = response.id();
    let Some(p) = pending.remove(&id) else {
        res.fail(format!("response for unknown request id {id}"));
        return;
    };
    let took = now.saturating_duration_since(p.origin).as_nanos() as u64;
    if response.trace_id() != p.trace_id {
        record_latency(res, p.op, FAILED);
        res.fail(format!(
            "request {id}: trace id {} echoed as {}",
            p.trace_id,
            response.trace_id()
        ));
        return;
    }
    let ok = match (&response, p.op) {
        (Response::Predict { class, .. }, Op::Predict(row)) => {
            if *class as usize != truth.expected[row] {
                res.wrong += 1;
                res.fail(format!(
                    "request {id}: row {row} served class {class}, direct predict says {}",
                    truth.expected[row]
                ));
                record_latency(res, p.op, FAILED);
                return;
            }
            res.answers.push((row, *class));
            true
        }
        (Response::PredictStamped { class, version, .. }, Op::Stamped(row)) => {
            res.stamped.push((row, *class, *version));
            true
        }
        (Response::FeedbackAck { version, .. }, Op::Feedback(row)) => {
            res.feedback_acks.push((row, *version));
            true
        }
        (Response::RefreshAck { version, .. }, Op::Refresh) => {
            res.refresh_versions.push(*version);
            true
        }
        (Response::Error { code, message, .. }, op) => {
            res.fail(format!("request {id} ({op:?}): {code}: {message}"));
            false
        }
        (other, op) => {
            res.fail(format!("request {id} ({op:?}) answered with {other:?}"));
            false
        }
    };
    if ok {
        record_latency(res, p.op, took);
        if window_end.is_none_or(|e| now <= e) {
            res.completed_in_window += 1;
            res.first_done.get_or_insert(now);
            res.last_done = Some(now);
        }
    } else {
        record_latency(res, p.op, FAILED);
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Blocks until one of `fds` is ready or `timeout` passes. Errors (EINTR)
/// just end the wait early; the caller's loop re-checks everything.
fn ppoll_wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and `nfds` is its length; `ts` outlives the call; a
    // null sigmask asks the kernel to leave the signal mask alone.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// Lets the calling thread's timed waits expire within a nanosecond of
/// their deadline instead of the default 50 µs slack.
fn set_timer_slack_1ns() {
    // SAFETY: PR_SET_TIMERSLACK reads only its integer argument and
    // changes only the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}
