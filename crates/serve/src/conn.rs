//! Per-connection state, owned by one reactor thread.
//!
//! A [`Conn`] owns the nonblocking `TcpStream` for its whole lifetime,
//! and only the reactor that accepted it ever touches it: that reactor
//! reads the socket, encodes every response onto the outbox and writes
//! it. Responses come from two places, both on the reactor thread:
//!
//! * **frames the reactor dispatches** — pongs, errors and scored
//!   predicts are encoded onto the outbox by [`Conn::append`] without a
//!   write;
//! * **trainer replies** — the trainer thread never sees a connection;
//!   it hands each ack to the owning reactor's queue under the
//!   connection's token, and the reactor appends it here and counts the
//!   command answered (`inflight`).
//!
//! After appending a read chunk's responses (or a batch of replies) the
//! reactor writes them with one [`Conn::flush_outbox`] and arms
//! `EPOLLOUT` for whatever the kernel refuses. Whenever the reactor
//! sleeps, a non-empty outbox has `EPOLLOUT` armed.
//!
//! A client that stops reading while responses keep completing grows
//! its outbox until [`OUTBOX_CAP`] and is then condemned (load
//! shedding, `serve.slow_client_drops`): the connection writes nothing
//! further and is torn down by its reactor.
//!
//! Teardown is counted by work: a connection whose read side is
//! finished (`read_shut`) is closed as soon as its last trainer command
//! has been answered and its outbox has drained ([`Conn::is_reapable`]).

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::{AsRawFd, RawFd};

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

/// One live client connection: its socket, the pending response bytes
/// not yet accepted by the kernel, and the per-connection frame-encode
/// scratch buffer.
pub(crate) struct Conn {
    stream: TcpStream,
    out: OutboxBuf,
    /// Reusable frame-encode buffer: every response encodes into this
    /// one allocation instead of a fresh `Vec` per frame.
    scratch: Vec<u8>,
    /// Condemned: transport error or outbox overflow. All later writes
    /// are no-ops and the reactor tears the connection down.
    dead: bool,
    /// Trainer commands enqueued but not yet answered.
    pub(crate) inflight: usize,
    /// The reactor stopped reading (EOF, framing damage, or shutdown).
    pub(crate) read_shut: bool,
}

impl Conn {
    /// Wraps an accepted stream: nonblocking (readiness-driven) and
    /// nodelay (small response frames must not wait for ACKs).
    pub(crate) fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            out: OutboxBuf::new(),
            scratch: Vec::new(),
            dead: false,
            inflight: 0,
            read_shut: false,
        })
    }

    /// The raw fd, for reactor registration only.
    pub(crate) fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Reads from the socket.
    pub(crate) fn read_into(&self, buf: &mut [u8]) -> io::Result<usize> {
        (&self.stream).read(buf)
    }

    /// Encodes one response frame onto the outbox without writing it:
    /// the reactor writes everything a read chunk produced with one
    /// [`Conn::flush_outbox`]. The scratch buffer means zero allocations
    /// per frame once it has warmed up. Overflowing [`OUTBOX_CAP`]
    /// condemns the connection; the flush that follows reports it dead.
    pub(crate) fn append(&mut self, response: &Response) {
        if self.dead {
            return;
        }
        wire::encode_response_frame_into(response, &mut self.scratch);
        debug_assert!(self.scratch.len() <= 4 + wire::MAX_FRAME_LEN);
        if !self.out.append(&self.scratch) {
            self.dead = true;
            obs::counter("serve.slow_client_drops", 1);
        }
    }

    /// Writes as much backlog as the kernel accepts: once per read
    /// chunk, once per batch of trainer replies, and on `EPOLLOUT`.
    pub(crate) fn flush_outbox(&mut self) -> Flush {
        if self.dead {
            return Flush::Dead;
        }
        let mut stream = &self.stream;
        match self.out.flush_with(&mut |bytes| stream.write(bytes)) {
            Ok(true) => Flush::Empty,
            Ok(false) => Flush::Pending,
            Err(_) => {
                self.dead = true;
                Flush::Dead
            }
        }
    }

    /// A connection is reaped once it will never produce another byte:
    /// reads are done, every trainer command is answered, and the
    /// outbox is drained (or the connection is condemned).
    pub(crate) fn is_reapable(&self) -> bool {
        self.read_shut && self.inflight == 0 && (self.dead || self.out.backlog() == 0)
    }

    /// Whether backlogged bytes are waiting on `EPOLLOUT`.
    pub(crate) fn has_backlog(&self) -> bool {
        !self.dead && self.out.backlog() > 0
    }

    /// Hard-closes both directions (reap time).
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
