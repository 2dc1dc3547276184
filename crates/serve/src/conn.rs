//! Per-connection state shared between the reactor and the trainer
//! thread.
//!
//! A [`Conn`] owns the nonblocking `TcpStream` for its whole lifetime.
//! The owning reactor is the only reader. Responses reach the socket
//! through the outbox, under its lock:
//!
//! * **reactor path** — every response the reactor produces (pongs,
//!   errors, scored predicts) is encoded onto the outbox by
//!   [`Conn::append`] without a write; after dispatching a read chunk's
//!   frames the reactor writes them all with one [`Conn::flush_outbox`]
//!   and arms `EPOLLOUT` for whatever the kernel refuses. Whenever the
//!   reactor sleeps, a non-empty outbox has `EPOLLOUT` armed.
//! * **trainer path** — the trainer thread's acks go through
//!   [`Conn::send`]: the frame is appended the same way, the trainer
//!   writes what the kernel accepts, and the owning reactor is asked to
//!   flush the rest.
//!
//! A client that stops reading while responses keep completing grows
//! its outbox until [`OUTBOX_CAP`] and is then condemned (load
//! shedding, `serve.slow_client_drops`): the connection writes nothing
//! further and is torn down by its reactor.
//!
//! Teardown is reference-counted by work, not by `Arc`s: a connection
//! whose read side is finished ([`Conn::mark_read_shut`]) is closed as
//! soon as its last trainer command has been answered and its outbox
//! has drained ([`Conn::is_reapable`]). The trainer finishing the last
//! ack nudges the reactor via [`ReactorQueue::check`] so the close
//! happens promptly instead of at the next unrelated wakeup.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::reactor::ReactorQueue;
use crate::wire::{self, Response};

/// Cap on buffered-but-unsent response bytes per connection. A client
/// that stops reading while its requests keep completing hits this cap
/// and is dropped rather than growing server memory without bound.
pub(crate) const OUTBOX_CAP: usize = 256 * 1024;

/// Consumed-prefix length at which the outbox slides its unsent tail to
/// the front. Each compaction memmoves at most [`OUTBOX_CAP`] bytes and
/// reclaims at least this many, so total memmove traffic is bounded by
/// `written_bytes * OUTBOX_CAP / OUTBOX_COMPACT_AT` — amortized O(1)
/// per byte, where the old always-retained prefix grew the buffer (and
/// its realloc copies) without bound under sustained backpressure.
pub(crate) const OUTBOX_COMPACT_AT: usize = 16 * 1024;

/// Result of an outbox flush attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Everything pending was written; `EPOLLOUT` interest can drop.
    Empty,
    /// The socket filled up again; keep `EPOLLOUT` interest.
    Pending,
    /// The transport failed or the connection was condemned; tear it
    /// down.
    Dead,
}

/// The outbox byte buffer: a flat `Vec` with a consumed-offset cursor.
/// `buf[pos..]` is unsent; `buf[..pos]` is dead weight reclaimed by
/// threshold compaction (see [`OUTBOX_COMPACT_AT`]).
struct OutboxBuf {
    buf: Vec<u8>,
    pos: usize,
    /// Total bytes memmoved by compaction (pinned by regression tests).
    moved: u64,
}

impl OutboxBuf {
    fn new() -> Self {
        Self {
            buf: Vec::new(),
            pos: 0,
            moved: 0,
        }
    }

    fn backlog(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reclaims the consumed prefix when it has grown past the
    /// threshold (or frees the buffer state when fully drained).
    fn compact_if_due(&mut self) {
        if self.pos == 0 {
            return;
        }
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
            return;
        }
        if self.pos >= OUTBOX_COMPACT_AT {
            let backlog = self.backlog();
            self.buf.copy_within(self.pos.., 0);
            self.buf.truncate(backlog);
            self.moved += backlog as u64;
            self.pos = 0;
        }
    }

    /// Queues `bytes` behind the current backlog; `false` means the
    /// [`OUTBOX_CAP`] would be exceeded (condemn the connection).
    fn append(&mut self, bytes: &[u8]) -> bool {
        if self.backlog() + bytes.len() > OUTBOX_CAP {
            return false;
        }
        self.compact_if_due();
        self.buf.extend_from_slice(bytes);
        true
    }

    /// Writes the backlog through `write` until drained or blocked.
    /// `Ok(true)` = drained, `Ok(false)` = the writer would block;
    /// errors (and zero-length writes) mean the transport is dead.
    fn flush_with<F: FnMut(&[u8]) -> io::Result<usize>>(
        &mut self,
        write: &mut F,
    ) -> io::Result<bool> {
        while self.backlog() > 0 {
            match write(&self.buf[self.pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.pos += n;
                    self.compact_if_due();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.pos = 0;
        Ok(true)
    }
}

/// Pending response bytes not yet accepted by the kernel, plus the
/// per-connection frame-encode scratch buffer.
struct Outbox {
    b: OutboxBuf,
    /// Reusable frame-encode buffer: every response encodes into this
    /// one allocation instead of a fresh `Vec` per frame.
    scratch: Vec<u8>,
    /// Condemned: transport error or outbox overflow. All later writes
    /// are no-ops and the reactor tears the connection down.
    dead: bool,
}

/// One live client connection, shared (via `Arc`) between the owning
/// reactor and the trainer commands holding it.
pub(crate) struct Conn {
    /// The reactor-assigned epoll token.
    pub(crate) token: u64,
    stream: TcpStream,
    out: Mutex<Outbox>,
    /// Trainer commands enqueued but not yet answered.
    inflight: AtomicUsize,
    /// The reactor stopped reading (EOF, framing damage, or shutdown).
    read_shut: AtomicBool,
    /// The owning reactor's command queue + waker.
    reactor: Arc<ReactorQueue>,
}

impl Conn {
    /// Wraps an accepted stream: nonblocking (readiness-driven) and
    /// nodelay (small response frames must not wait for ACKs).
    pub(crate) fn new(
        stream: TcpStream,
        token: u64,
        reactor: Arc<ReactorQueue>,
    ) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            token,
            stream,
            out: Mutex::new(Outbox {
                b: OutboxBuf::new(),
                scratch: Vec::new(),
                dead: false,
            }),
            inflight: AtomicUsize::new(0),
            read_shut: AtomicBool::new(false),
            reactor,
        })
    }

    /// The raw fd, for reactor registration only.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads from the socket (reactor thread only).
    pub(crate) fn read_into(&self, buf: &mut [u8]) -> io::Result<usize> {
        (&self.stream).read(buf)
    }

    /// Encodes one response frame onto the outbox without writing it:
    /// the reactor writes everything a read chunk produced with one
    /// [`Conn::flush_outbox`]. The lock keeps frames from interleaving,
    /// and the scratch buffer means zero allocations per frame once it
    /// has warmed up. Overflowing [`OUTBOX_CAP`] condemns the
    /// connection; the flush that follows reports it dead.
    pub(crate) fn append(&self, response: &Response) {
        let mut out = self.out.lock().expect("outbox lock poisoned");
        if out.dead {
            return;
        }
        // Take the scratch out so the encoded frame and the outbox can
        // be borrowed side by side; restored before unlock.
        let mut scratch = std::mem::take(&mut out.scratch);
        wire::encode_response_frame_into(response, &mut scratch);
        debug_assert!(scratch.len() <= 4 + wire::MAX_FRAME_LEN);
        if !out.b.append(&scratch) {
            out.dead = true;
            obs::counter("serve.slow_client_drops", 1);
        }
        out.scratch = scratch;
    }

    /// Sends one response frame from the trainer thread; never blocks.
    /// The frame joins the outbox behind any reactor output and the
    /// kernel takes what it will; the owning reactor is asked to flush
    /// the rest on `EPOLLOUT`, or to reap a dead connection.
    pub(crate) fn send(&self, response: &Response) {
        self.append(response);
        match self.flush_outbox() {
            Flush::Empty => {}
            Flush::Pending => self.reactor.flush(self.token),
            Flush::Dead => self.reactor.check(self.token),
        }
    }

    /// Writes as much backlog as the kernel accepts: on the reactor
    /// once per read chunk, on `EPOLLOUT` or on a flush command, and on
    /// the trainer after each ack.
    pub(crate) fn flush_outbox(&self) -> Flush {
        let mut out = self.out.lock().expect("outbox lock poisoned");
        if out.dead {
            return Flush::Dead;
        }
        let mut stream = &self.stream;
        match out.b.flush_with(&mut |bytes| stream.write(bytes)) {
            Ok(true) => Flush::Empty,
            Ok(false) => Flush::Pending,
            Err(_) => {
                out.dead = true;
                Flush::Dead
            }
        }
    }

    /// Counts one command handed to the trainer queue.
    pub(crate) fn begin_request(&self) {
        self.inflight.fetch_add(1, Ordering::SeqCst);
    }

    /// Counts one answered trainer command; when it was the last one on
    /// a read-finished connection, nudges the reactor so the close is
    /// prompt.
    pub(crate) fn finish_request(&self) {
        if self.inflight.fetch_sub(1, Ordering::SeqCst) == 1
            && self.read_shut.load(Ordering::SeqCst)
        {
            self.reactor.check(self.token);
        }
    }

    /// Marks the read side finished (EOF, framing damage, shutdown).
    pub(crate) fn mark_read_shut(&self) {
        self.read_shut.store(true, Ordering::SeqCst);
    }

    /// Whether the read side is finished.
    pub(crate) fn is_read_shut(&self) -> bool {
        self.read_shut.load(Ordering::SeqCst)
    }

    /// A connection is reaped once it will never produce another byte:
    /// reads are done, every trainer command is answered, and the
    /// outbox is drained (or the connection is condemned).
    pub(crate) fn is_reapable(&self) -> bool {
        if !self.is_read_shut() || self.inflight.load(Ordering::SeqCst) != 0 {
            return false;
        }
        let out = self.out.lock().expect("outbox lock poisoned");
        out.dead || out.b.backlog() == 0
    }

    /// Whether backlogged bytes are waiting on `EPOLLOUT`.
    pub(crate) fn has_backlog(&self) -> bool {
        let out = self.out.lock().expect("outbox lock poisoned");
        !out.dead && out.b.backlog() > 0
    }

    /// Hard-closes both directions (reap time). Lingering `Arc`s held
    /// by queued trainer commands turn into harmless failed writes.
    pub(crate) fn close(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The O(n²)/unbounded-growth regression: under sustained
    /// backpressure (every flush drains a trickle while new frames keep
    /// arriving) the outbox used to retain its consumed prefix until
    /// fully drained, growing the buffer — and its realloc copies —
    /// without bound. The cursor + threshold compaction keeps both the
    /// buffer length and the total memmoved bytes bounded.
    #[test]
    fn outbox_compaction_bounds_buffer_and_memmove_traffic() {
        let mut out = OutboxBuf::new();
        let frame = vec![0xABu8; 512];
        let mut total_written = 0u64;
        let mut appended = 0u64;
        for _ in 0..10_000 {
            if out.append(&frame) {
                appended += frame.len() as u64;
            }
            // A slow client: the kernel accepts a trickle, then blocks.
            let mut budget = 96usize;
            let drained = out
                .flush_with(&mut |bytes: &[u8]| {
                    if budget == 0 {
                        return Err(io::ErrorKind::WouldBlock.into());
                    }
                    let n = bytes.len().min(budget);
                    budget -= n;
                    total_written += n as u64;
                    Ok(n)
                })
                .unwrap();
            assert!(!drained || out.backlog() == 0);
            // Bounded memory: backlog cap plus at most one compaction
            // threshold of dead prefix.
            assert!(
                out.buf.len() <= OUTBOX_CAP + OUTBOX_COMPACT_AT,
                "outbox buffer grew to {} bytes",
                out.buf.len()
            );
        }
        // Bounded memmove: each compaction reclaims >= OUTBOX_COMPACT_AT
        // consumed bytes and moves <= OUTBOX_CAP live ones.
        let max_moved = (total_written / OUTBOX_COMPACT_AT as u64 + 1) * OUTBOX_CAP as u64;
        assert!(
            out.moved <= max_moved,
            "memmoved {} bytes for {} written (bound {})",
            out.moved,
            total_written,
            max_moved
        );
        assert_eq!(out.backlog() as u64, appended - total_written);
    }

    /// Byte-stream integrity across interleaved appends, partial
    /// flushes, and compactions: what comes out is exactly what went in.
    #[test]
    fn outbox_preserves_byte_order_across_compactions() {
        let mut out = OutboxBuf::new();
        let mut expected: Vec<u8> = Vec::new();
        let mut got: Vec<u8> = Vec::new();
        let mut seed = 0x9E3779B97F4A7C15u64;
        for round in 0..4_000u32 {
            let frame: Vec<u8> = (0..100).map(|i| (round as u8).wrapping_add(i)).collect();
            assert!(out.append(&frame));
            expected.extend_from_slice(&frame);
            // Pseudo-random trickle sizes exercise every cursor state.
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut budget = (seed >> 33) as usize % 160;
            let _ = out.flush_with(&mut |bytes: &[u8]| {
                if budget == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = bytes.len().min(budget);
                budget -= n;
                got.extend_from_slice(&bytes[..n]);
                Ok(n)
            });
        }
        let _ = out.flush_with(&mut |bytes: &[u8]| {
            got.extend_from_slice(bytes);
            Ok(bytes.len())
        });
        assert_eq!(got, expected);
        assert!(out.moved > 0, "the sweep never exercised compaction");
    }

    /// Overflow is detected against the live backlog (not the dead
    /// prefix), and zero-length writes condemn the transport.
    #[test]
    fn outbox_overflow_and_write_zero() {
        let mut out = OutboxBuf::new();
        assert!(out.append(&vec![0u8; OUTBOX_CAP]));
        assert!(!out.append(&[0u8]), "cap not enforced");
        // Drain half; the freed space is usable again.
        let mut budget = OUTBOX_CAP / 2;
        let _ = out.flush_with(&mut |bytes: &[u8]| {
            if budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = bytes.len().min(budget);
            budget -= n;
            Ok(n)
        });
        assert!(out.append(&vec![0u8; OUTBOX_CAP / 2]));
        let err = out
            .flush_with(&mut |_: &[u8]| Ok(0))
            .expect_err("write zero must be fatal");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
