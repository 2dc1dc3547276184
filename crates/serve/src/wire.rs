//! The `lookhd-serve` binary wire protocol.
//!
//! Every message on the wire is one *frame*: a little-endian `u32` body
//! length followed by that many body bytes. Frame bodies begin with a
//! 4-byte magic ([`REQUEST_MAGIC`] / [`RESPONSE_MAGIC`]) and a version
//! byte, mirroring the hardening conventions of the `HDC1`/`LKS1`/`LKC1`
//! persistence formats: length headers are untrusted until proven
//! otherwise.
//!
//! ## Request body (`LHQ1`)
//!
//! | field      | size | notes                                       |
//! |------------|------|---------------------------------------------|
//! | magic      | 4    | `LHQ1`                                      |
//! | version    | 1    | [`WIRE_VERSION`] or [`WIRE_VERSION_TRACED`] |
//! | kind       | 1    | 1 = predict, 2 = ping, 3 = shutdown         |
//! | request id | 8    | echoed verbatim in the response             |
//! | trace id   | 8    | **version 2 only**; echoed in the response  |
//! | n_features | 4    | predict only; capped at [`MAX_FEATURES`]    |
//! | features   | 8·n  | predict only; `f64` little-endian           |
//!
//! ## Feedback-family request body (`LHF1`)
//!
//! The online-training frames share the LHQ1 header layout under their
//! own magic, so a server without online training rejects them with one
//! tag check rather than misparsing them as predicts.
//!
//! | field      | size | notes                                             |
//! |------------|------|---------------------------------------------------|
//! | magic      | 4    | `LHF1`                                            |
//! | version    | 1    | [`WIRE_VERSION`] or [`WIRE_VERSION_TRACED`]       |
//! | kind       | 1    | 1 = feedback, 2 = refresh, 3 = stamped predict    |
//! | request id | 8    | echoed verbatim in the response                   |
//! | trace id   | 8    | **version 2 only**; echoed in the response        |
//! | label      | 4    | feedback only; the ground-truth class             |
//! | n_features | 4    | feedback / stamped predict; capped at [`MAX_FEATURES`] |
//! | features   | 8·n  | feedback / stamped predict; `f64` little-endian   |
//!
//! ## Response body (`LHR1`)
//!
//! | field      | size | notes                                        |
//! |------------|------|----------------------------------------------|
//! | magic      | 4    | `LHR1`                                       |
//! | version    | 1    | [`WIRE_VERSION`] or [`WIRE_VERSION_TRACED`]  |
//! | request id | 8    | copied from the request                      |
//! | trace id   | 8    | **version 2 only**; copied from the request  |
//! | status     | 1    | 0 = predict ok, 1 = pong, 2 = error, 3 = feedback ack, 4 = refresh ack, 5 = stamped predict |
//! | class      | 4    | predict ok / stamped predict                 |
//! | error code | 1    | error only ([`ErrorCode`])                   |
//! | msg len    | 2    | error only; capped at [`MAX_ERROR_MESSAGE`]  |
//! | msg        | len  | error only; UTF-8                            |
//! | version    | 8    | feedback ack / refresh ack / stamped predict: the live model version |
//! | observed   | 8    | feedback ack only: total examples folded     |
//!
//! ## Versioning
//!
//! Version 2 is version 1 plus one 64-bit trace-id field immediately
//! after the request id, in **both** directions and for **every**
//! kind/status. Decoders accept both versions; encoders emit version 2
//! exactly when the message carries a non-zero trace id, so untraced
//! traffic (and every v1 client) keeps exchanging byte-identical v1
//! frames — a v1 client never receives a v2 response. Trace id 0 means
//! "untraced" and is therefore not representable on the wire as v2.
//!
//! ## Hardening
//!
//! * A frame length above [`MAX_FRAME_LEN`] is rejected **before** any
//!   allocation; in-cap lengths are read through [`std::io::Read::take`],
//!   so a lying header hits EOF while buffers are still small.
//! * `n_features` is checked against both [`MAX_FEATURES`] and the bytes
//!   actually present in the body before the feature vector is allocated.
//! * Trailing bytes after a complete message are rejected with the
//!   offending offset; decoders never panic on arbitrary input (see
//!   `tests/prop_serve_wire.rs` and `tests/serve_corruption.rs`).

use std::fmt;
use std::io::{self, Read, Write};

/// Request-body magic bytes.
pub const REQUEST_MAGIC: &[u8; 4] = b"LHQ1";

/// Feedback-family request magic bytes (online training: labeled
/// feedback, model refresh, version-stamped predicts).
pub const FEEDBACK_MAGIC: &[u8; 4] = b"LHF1";

/// Response-body magic bytes.
pub const RESPONSE_MAGIC: &[u8; 4] = b"LHR1";

/// Baseline protocol version (no trace id on the wire).
pub const WIRE_VERSION: u8 = 1;

/// Traced protocol version: identical to [`WIRE_VERSION`] plus one
/// 64-bit trace-id field after the request id. Emitted exactly when a
/// message carries a non-zero trace id; decoders accept both versions.
pub const WIRE_VERSION_TRACED: u8 = 2;

/// Largest feature count a predict request may carry (2^16). Far above
/// any real model arity, small enough that a corrupt count cannot demand
/// a multi-GB allocation.
pub const MAX_FEATURES: usize = 1 << 16;

/// Longest error message a response may carry.
pub const MAX_ERROR_MESSAGE: usize = 1 << 10;

/// Largest frame body either side accepts: a maximal predict request
/// (header + `MAX_FEATURES` doubles) with headroom. Checked against the
/// length prefix before any allocation happens.
pub const MAX_FRAME_LEN: usize = 64 + 8 * MAX_FEATURES;

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Classify one feature vector.
    Predict {
        /// Caller-chosen id echoed in the response (responses may arrive
        /// out of order under pipelining).
        id: u64,
        /// Caller-chosen trace id stamped onto the server's per-stage
        /// trace events and echoed in the response. `0` = untraced (the
        /// request travels as a v1 frame).
        trace_id: u64,
        /// Raw feature values, in model arity.
        features: Vec<f64>,
    },
    /// Liveness probe, answered by the reactor that reads it.
    Ping {
        /// Caller-chosen id echoed in the pong.
        id: u64,
    },
    /// Ask the server to shut down gracefully (answer what it has read,
    /// drain the trainer queue, flush, join every thread). Acknowledged
    /// with a pong before the drain begins.
    Shutdown {
        /// Caller-chosen id echoed in the acknowledgement.
        id: u64,
    },
    /// Fold one labeled example into the server's live training counters
    /// (an `LHF1` frame). Rejected with `BadRequest` when the server was
    /// not started with online training.
    Feedback {
        /// Caller-chosen id echoed in the acknowledgement.
        id: u64,
        /// Caller-chosen trace id (0 = untraced, a v1 frame).
        trace_id: u64,
        /// The ground-truth class label for `features`.
        label: u32,
        /// Raw feature values, in model arity.
        features: Vec<f64>,
    },
    /// Materialize the accumulated counters into a fresh model version
    /// and hot-swap it live (an `LHF1` frame). Rejected with
    /// `BadRequest` when the server was not started with online
    /// training.
    Refresh {
        /// Caller-chosen id echoed in the acknowledgement.
        id: u64,
        /// Caller-chosen trace id (0 = untraced, a v1 frame).
        trace_id: u64,
    },
    /// Classify one feature vector and stamp the answering model version
    /// on the response (an `LHF1` frame) — the hot-swap soak tests use
    /// the stamp to check bit-identity against the exact version that
    /// answered.
    PredictStamped {
        /// Caller-chosen id echoed in the response.
        id: u64,
        /// Caller-chosen trace id (0 = untraced, a v1 frame).
        trace_id: u64,
        /// Raw feature values, in model arity.
        features: Vec<f64>,
    },
}

impl Request {
    /// The caller-chosen request id.
    pub fn id(&self) -> u64 {
        match self {
            Self::Predict { id, .. }
            | Self::Ping { id }
            | Self::Shutdown { id }
            | Self::Feedback { id, .. }
            | Self::Refresh { id, .. }
            | Self::PredictStamped { id, .. } => *id,
        }
    }

    /// The trace id this request propagates (0 = untraced; pings and
    /// shutdowns are never traced).
    pub fn trace_id(&self) -> u64 {
        match self {
            Self::Predict { trace_id, .. }
            | Self::Feedback { trace_id, .. }
            | Self::Refresh { trace_id, .. }
            | Self::PredictStamped { trace_id, .. } => *trace_id,
            Self::Ping { .. } | Self::Shutdown { .. } => 0,
        }
    }
}

/// Why a request failed, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request was malformed or the model rejected its features
    /// (wrong arity, non-finite values, …).
    BadRequest = 1,
    /// The request waited past a deadline and was dropped without
    /// running inference. Kept for decoding: the current server, which
    /// scores every predict where it lands, never sends it.
    DeadlineExceeded = 2,
    /// A bounded resource was full (the connection cap, or the online
    /// trainer's queue); the client should back off and retry.
    Overloaded = 3,
    /// The server failed internally while processing the request.
    Internal = 4,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown = 5,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(Self::BadRequest),
            2 => Some(Self::DeadlineExceeded),
            3 => Some(Self::Overloaded),
            4 => Some(Self::Internal),
            5 => Some(Self::ShuttingDown),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::BadRequest => "bad request",
            Self::DeadlineExceeded => "deadline exceeded",
            Self::Overloaded => "overloaded",
            Self::Internal => "internal error",
            Self::ShuttingDown => "shutting down",
        };
        f.write_str(name)
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Successful classification.
    Predict {
        /// The id of the request this answers.
        id: u64,
        /// The trace id echoed from the request (0 = untraced, answered
        /// as a v1 frame).
        trace_id: u64,
        /// The predicted class label.
        class: u32,
    },
    /// Answer to a ping or shutdown request.
    Pong {
        /// The id of the request this answers.
        id: u64,
    },
    /// The request failed; `code` says why.
    Error {
        /// The id of the request this answers (0 when the request never
        /// parsed far enough to carry one).
        id: u64,
        /// The trace id echoed from the request (0 when untraced or the
        /// request never parsed far enough to carry one).
        trace_id: u64,
        /// Machine-readable failure category.
        code: ErrorCode,
        /// Human-readable detail (capped at [`MAX_ERROR_MESSAGE`]).
        message: String,
    },
    /// One labeled example was folded into the live training counters.
    FeedbackAck {
        /// The id of the request this answers.
        id: u64,
        /// The trace id echoed from the request (0 = untraced).
        trace_id: u64,
        /// The model version serving when the fold completed.
        version: u64,
        /// Total examples folded into the live trainer so far.
        observed: u64,
    },
    /// A model refresh completed and the new version is live.
    RefreshAck {
        /// The id of the request this answers.
        id: u64,
        /// The trace id echoed from the request (0 = untraced).
        trace_id: u64,
        /// The version that is now answering new requests.
        version: u64,
    },
    /// Successful classification, stamped with the answering model
    /// version.
    PredictStamped {
        /// The id of the request this answers.
        id: u64,
        /// The trace id echoed from the request (0 = untraced).
        trace_id: u64,
        /// The predicted class label.
        class: u32,
        /// The model version that produced `class`.
        version: u64,
    },
}

impl Response {
    /// The id of the request this response answers.
    pub fn id(&self) -> u64 {
        match self {
            Self::Predict { id, .. }
            | Self::Pong { id }
            | Self::Error { id, .. }
            | Self::FeedbackAck { id, .. }
            | Self::RefreshAck { id, .. }
            | Self::PredictStamped { id, .. } => *id,
        }
    }

    /// The trace id echoed to the client (0 = untraced; pongs are never
    /// traced).
    pub fn trace_id(&self) -> u64 {
        match self {
            Self::Predict { trace_id, .. }
            | Self::Error { trace_id, .. }
            | Self::FeedbackAck { trace_id, .. }
            | Self::RefreshAck { trace_id, .. }
            | Self::PredictStamped { trace_id, .. } => *trace_id,
            Self::Pong { .. } => 0,
        }
    }
}

/// Decoding/transport failures.
#[derive(Debug)]
pub enum WireError {
    /// The message ended before a required field.
    Truncated {
        /// Offset at which more bytes were needed.
        offset: usize,
        /// The field being read.
        field: &'static str,
    },
    /// The body did not start with the expected magic.
    BadMagic,
    /// The version byte is neither [`WIRE_VERSION`] nor
    /// [`WIRE_VERSION_TRACED`].
    BadVersion(u8),
    /// An unknown request kind / response status / error code byte.
    BadTag {
        /// The field holding the tag.
        field: &'static str,
        /// The unrecognised value.
        value: u8,
    },
    /// A length field exceeded its cap.
    TooLarge {
        /// The field holding the length.
        field: &'static str,
        /// The claimed value.
        value: usize,
        /// The cap it violated.
        cap: usize,
    },
    /// Bytes remained after a complete message.
    Trailing {
        /// Offset of the first trailing byte.
        offset: usize,
        /// How many bytes were left over.
        count: usize,
    },
    /// An error message was not valid UTF-8.
    BadUtf8,
    /// An underlying transport error.
    Io(io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { offset, field } => {
                write!(f, "truncated at offset {offset} while reading {field}")
            }
            Self::BadMagic => write!(f, "bad magic: not a lookhd-serve message"),
            Self::BadVersion(v) => write!(
                f,
                "unsupported wire version {v} (want {WIRE_VERSION} or {WIRE_VERSION_TRACED})"
            ),
            Self::BadTag { field, value } => write!(f, "unknown {field} tag {value}"),
            Self::TooLarge { field, value, cap } => {
                write!(f, "{field} {value} exceeds the wire limit of {cap}")
            }
            Self::Trailing { offset, count } => {
                write!(
                    f,
                    "{count} trailing byte(s) after message (offset {offset})"
                )
            }
            Self::BadUtf8 => write!(f, "error message is not valid UTF-8"),
            Self::Io(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Specialized result for wire operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------------
// Byte-slice cursor (decoding)
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, field: &'static str) -> WireResult<&'a [u8]> {
        if self.bytes.len() - self.pos < n {
            return Err(WireError::Truncated {
                offset: self.pos,
                field,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, field: &'static str) -> WireResult<u8> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> WireResult<u16> {
        let b = self.take(2, field)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, field: &'static str) -> WireResult<u32> {
        let b = self.take(4, field)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, field: &'static str) -> WireResult<u64> {
        let b = self.take(8, field)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn finish(self) -> WireResult<()> {
        let count = self.bytes.len() - self.pos;
        if count != 0 {
            return Err(WireError::Trailing {
                offset: self.pos,
                count,
            });
        }
        Ok(())
    }
}

/// Validates magic + version and returns the accepted version byte
/// ([`WIRE_VERSION`] or [`WIRE_VERSION_TRACED`]).
fn check_header(c: &mut Cursor<'_>, magic: &[u8; 4]) -> WireResult<u8> {
    if c.take(4, "magic")? != magic {
        return Err(WireError::BadMagic);
    }
    let version = c.u8("version")?;
    if version != WIRE_VERSION && version != WIRE_VERSION_TRACED {
        return Err(WireError::BadVersion(version));
    }
    Ok(version)
}

/// Reads the v2 trace-id field (absent and zero in v1).
fn read_trace_id(c: &mut Cursor<'_>, version: u8) -> WireResult<u64> {
    if version == WIRE_VERSION_TRACED {
        c.u64("trace id")
    } else {
        Ok(0)
    }
}

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

const KIND_PREDICT: u8 = 1;
const KIND_PING: u8 = 2;
const KIND_SHUTDOWN: u8 = 3;

// The LHF1 feedback family has its own kind namespace.
const FEEDBACK_KIND_FEEDBACK: u8 = 1;
const FEEDBACK_KIND_REFRESH: u8 = 2;
const FEEDBACK_KIND_PREDICT_STAMPED: u8 = 3;

/// Encodes a request body (without the frame length prefix). A non-zero
/// trace id selects the v2 layout; everything else stays byte-identical
/// to v1. The feedback-family variants travel under the `LHF1` magic,
/// everything else under `LHQ1`.
pub fn encode_request(request: &Request) -> Vec<u8> {
    let trace_id = request.trace_id();
    let mut out = Vec::with_capacity(40);
    match request {
        Request::Predict { .. } | Request::Ping { .. } | Request::Shutdown { .. } => {
            out.extend_from_slice(REQUEST_MAGIC);
        }
        Request::Feedback { .. } | Request::Refresh { .. } | Request::PredictStamped { .. } => {
            out.extend_from_slice(FEEDBACK_MAGIC);
        }
    }
    out.push(if trace_id == 0 {
        WIRE_VERSION
    } else {
        WIRE_VERSION_TRACED
    });
    let push_features = |out: &mut Vec<u8>, features: &[f64]| {
        debug_assert!(features.len() <= MAX_FEATURES);
        out.extend_from_slice(&(features.len() as u32).to_le_bytes());
        for v in features {
            out.extend_from_slice(&v.to_le_bytes());
        }
    };
    let push_ids = |out: &mut Vec<u8>, id: u64| {
        out.extend_from_slice(&id.to_le_bytes());
        if trace_id != 0 {
            out.extend_from_slice(&trace_id.to_le_bytes());
        }
    };
    match request {
        Request::Predict { id, features, .. } => {
            out.push(KIND_PREDICT);
            push_ids(&mut out, *id);
            push_features(&mut out, features);
        }
        Request::Ping { id } => {
            out.push(KIND_PING);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Shutdown { id } => {
            out.push(KIND_SHUTDOWN);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Feedback {
            id,
            label,
            features,
            ..
        } => {
            out.push(FEEDBACK_KIND_FEEDBACK);
            push_ids(&mut out, *id);
            out.extend_from_slice(&label.to_le_bytes());
            push_features(&mut out, features);
        }
        Request::Refresh { id, .. } => {
            out.push(FEEDBACK_KIND_REFRESH);
            push_ids(&mut out, *id);
        }
        Request::PredictStamped { id, features, .. } => {
            out.push(FEEDBACK_KIND_PREDICT_STAMPED);
            push_ids(&mut out, *id);
            push_features(&mut out, features);
        }
    }
    out
}

/// Reads a cap-checked feature vector (count validated against both
/// [`MAX_FEATURES`] and the bytes actually present before allocation).
fn read_features(c: &mut Cursor<'_>) -> WireResult<Vec<f64>> {
    let n = c.u32("n_features")? as usize;
    if n > MAX_FEATURES {
        return Err(WireError::TooLarge {
            field: "n_features",
            value: n,
            cap: MAX_FEATURES,
        });
    }
    // The count is untrusted: make sure the bytes are actually
    // present before allocating the feature vector.
    let payload = c.take(n * 8, "features")?;
    Ok(payload
        .chunks_exact(8)
        .map(|b| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(b);
            f64::from_le_bytes(buf)
        })
        .collect())
}

/// Decodes a request body. Never panics, whatever the input.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first malformed field.
pub fn decode_request(bytes: &[u8]) -> WireResult<Request> {
    let mut c = Cursor::new(bytes);
    let magic = c.take(4, "magic")?;
    let feedback_family = if magic == REQUEST_MAGIC {
        false
    } else if magic == FEEDBACK_MAGIC {
        true
    } else {
        return Err(WireError::BadMagic);
    };
    let version = c.u8("version")?;
    if version != WIRE_VERSION && version != WIRE_VERSION_TRACED {
        return Err(WireError::BadVersion(version));
    }
    let kind = c.u8("kind")?;
    let id = c.u64("request id")?;
    // The v2 trace-id field follows the request id for every kind; ping
    // and shutdown consume and ignore it (they are never traced).
    let trace_id = read_trace_id(&mut c, version)?;
    let request = if feedback_family {
        match kind {
            FEEDBACK_KIND_FEEDBACK => {
                let label = c.u32("label")?;
                Request::Feedback {
                    id,
                    trace_id,
                    label,
                    features: read_features(&mut c)?,
                }
            }
            FEEDBACK_KIND_REFRESH => Request::Refresh { id, trace_id },
            FEEDBACK_KIND_PREDICT_STAMPED => Request::PredictStamped {
                id,
                trace_id,
                features: read_features(&mut c)?,
            },
            value => {
                return Err(WireError::BadTag {
                    field: "feedback kind",
                    value,
                })
            }
        }
    } else {
        match kind {
            KIND_PREDICT => Request::Predict {
                id,
                trace_id,
                features: read_features(&mut c)?,
            },
            KIND_PING => Request::Ping { id },
            KIND_SHUTDOWN => Request::Shutdown { id },
            value => {
                return Err(WireError::BadTag {
                    field: "request kind",
                    value,
                })
            }
        }
    };
    c.finish()?;
    Ok(request)
}

// ---------------------------------------------------------------------------
// Response codec
// ---------------------------------------------------------------------------

const STATUS_PREDICT: u8 = 0;
const STATUS_PONG: u8 = 1;
const STATUS_ERROR: u8 = 2;
const STATUS_FEEDBACK_ACK: u8 = 3;
const STATUS_REFRESH_ACK: u8 = 4;
const STATUS_PREDICT_STAMPED: u8 = 5;

/// Encodes a response body (without the frame length prefix). A
/// non-zero trace id selects the v2 layout (so v1 clients, which never
/// send one, always receive v1 frames). Error messages longer than
/// [`MAX_ERROR_MESSAGE`] bytes are truncated at a character boundary.
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(40);
    encode_response_into(response, &mut out);
    out
}

/// Appends the encoded response body to `out` without clearing it —
/// the allocation-free sibling of [`encode_response`], used by the
/// reactor's per-connection scratch buffer so the hot path never
/// allocates a fresh `Vec` per frame.
pub fn encode_response_into(response: &Response, out: &mut Vec<u8>) {
    let trace_id = response.trace_id();
    out.extend_from_slice(RESPONSE_MAGIC);
    out.push(if trace_id == 0 {
        WIRE_VERSION
    } else {
        WIRE_VERSION_TRACED
    });
    match response {
        Response::Predict { id, class, .. } => {
            out.extend_from_slice(&id.to_le_bytes());
            if trace_id != 0 {
                out.extend_from_slice(&trace_id.to_le_bytes());
            }
            out.push(STATUS_PREDICT);
            out.extend_from_slice(&class.to_le_bytes());
        }
        Response::Pong { id } => {
            out.extend_from_slice(&id.to_le_bytes());
            out.push(STATUS_PONG);
        }
        Response::Error {
            id, code, message, ..
        } => {
            out.extend_from_slice(&id.to_le_bytes());
            if trace_id != 0 {
                out.extend_from_slice(&trace_id.to_le_bytes());
            }
            out.push(STATUS_ERROR);
            out.push(*code as u8);
            let mut msg = message.as_str();
            while msg.len() > MAX_ERROR_MESSAGE {
                let mut cut = MAX_ERROR_MESSAGE;
                while !msg.is_char_boundary(cut) {
                    cut -= 1;
                }
                msg = &msg[..cut];
            }
            out.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            out.extend_from_slice(msg.as_bytes());
        }
        Response::FeedbackAck {
            id,
            version,
            observed,
            ..
        } => {
            out.extend_from_slice(&id.to_le_bytes());
            if trace_id != 0 {
                out.extend_from_slice(&trace_id.to_le_bytes());
            }
            out.push(STATUS_FEEDBACK_ACK);
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(&observed.to_le_bytes());
        }
        Response::RefreshAck { id, version, .. } => {
            out.extend_from_slice(&id.to_le_bytes());
            if trace_id != 0 {
                out.extend_from_slice(&trace_id.to_le_bytes());
            }
            out.push(STATUS_REFRESH_ACK);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Response::PredictStamped {
            id, class, version, ..
        } => {
            out.extend_from_slice(&id.to_le_bytes());
            if trace_id != 0 {
                out.extend_from_slice(&trace_id.to_le_bytes());
            }
            out.push(STATUS_PREDICT_STAMPED);
            out.extend_from_slice(&class.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
        }
    }
}

/// Encodes `response` as one complete wire frame (length prefix +
/// body) into `out`, clearing it first. Reusing one buffer across calls
/// replaces the old `Vec::with_capacity(4 + body.len())` per frame on
/// the response hot path.
pub fn encode_response_frame_into(response: &Response, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    encode_response_into(response, out);
    let body_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&body_len.to_le_bytes());
}

/// Decodes a response body. Never panics, whatever the input.
///
/// # Errors
///
/// Returns a [`WireError`] describing the first malformed field.
pub fn decode_response(bytes: &[u8]) -> WireResult<Response> {
    let mut c = Cursor::new(bytes);
    let version = check_header(&mut c, RESPONSE_MAGIC)?;
    let id = c.u64("request id")?;
    let trace_id = read_trace_id(&mut c, version)?;
    let status = c.u8("status")?;
    let response = match status {
        STATUS_PREDICT => Response::Predict {
            id,
            trace_id,
            class: c.u32("class")?,
        },
        STATUS_PONG => Response::Pong { id },
        STATUS_ERROR => {
            let code_byte = c.u8("error code")?;
            let code = ErrorCode::from_u8(code_byte).ok_or(WireError::BadTag {
                field: "error code",
                value: code_byte,
            })?;
            let len = c.u16("msg len")? as usize;
            if len > MAX_ERROR_MESSAGE {
                return Err(WireError::TooLarge {
                    field: "msg len",
                    value: len,
                    cap: MAX_ERROR_MESSAGE,
                });
            }
            let raw = c.take(len, "msg")?;
            let message = std::str::from_utf8(raw)
                .map_err(|_| WireError::BadUtf8)?
                .to_owned();
            Response::Error {
                id,
                trace_id,
                code,
                message,
            }
        }
        STATUS_FEEDBACK_ACK => Response::FeedbackAck {
            id,
            trace_id,
            version: c.u64("model version")?,
            observed: c.u64("observed count")?,
        },
        STATUS_REFRESH_ACK => Response::RefreshAck {
            id,
            trace_id,
            version: c.u64("model version")?,
        },
        STATUS_PREDICT_STAMPED => Response::PredictStamped {
            id,
            trace_id,
            class: c.u32("class")?,
            version: c.u64("model version")?,
        },
        value => {
            return Err(WireError::BadTag {
                field: "response status",
                value,
            })
        }
    };
    c.finish()?;
    Ok(response)
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (length prefix + body).
///
/// # Errors
///
/// Returns `InvalidData` for a body above [`MAX_FRAME_LEN`] and
/// propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame body of {} bytes exceeds the wire limit of {MAX_FRAME_LEN}",
                body.len()
            ),
        ));
    }
    // One buffered write per frame: splitting the prefix and body into
    // separate writes triggers Nagle/delayed-ACK stalls (~40 ms per
    // round trip) on sockets without `TCP_NODELAY`.
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame body.
///
/// The length prefix is untrusted: lengths above [`MAX_FRAME_LEN`] are
/// rejected before any allocation, and in-cap bodies are read through
/// [`Read::take`] so a lying length hits EOF with buffers still small.
///
/// # Errors
///
/// Returns [`WireError::TooLarge`] for an over-cap length,
/// [`WireError::Io`] for transport failures, and
/// [`WireError::Truncated`] when the stream ends mid-frame.
pub fn read_frame<R: Read>(r: &mut R) -> WireResult<Vec<u8>> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge {
            field: "frame length",
            value: len,
            cap: MAX_FRAME_LEN,
        });
    }
    let mut body = Vec::new();
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(WireError::Truncated {
            offset: body.len(),
            field: "frame body",
        });
    }
    Ok(body)
}

/// Writes a request as one frame.
///
/// # Errors
///
/// Same conditions as [`write_frame`].
pub fn write_request<W: Write>(w: &mut W, request: &Request) -> io::Result<()> {
    write_frame(w, &encode_request(request))
}

/// Reads and decodes one request frame.
///
/// # Errors
///
/// Same conditions as [`read_frame`] plus [`decode_request`] failures.
pub fn read_request<R: Read>(r: &mut R) -> WireResult<Request> {
    decode_request(&read_frame(r)?)
}

/// Writes a response as one frame.
///
/// # Errors
///
/// Same conditions as [`write_frame`].
pub fn write_response<W: Write>(w: &mut W, response: &Response) -> io::Result<()> {
    write_frame(w, &encode_response(response))
}

/// Reads and decodes one response frame.
///
/// # Errors
///
/// Same conditions as [`read_frame`] plus [`decode_response`] failures.
pub fn read_response<R: Read>(r: &mut R) -> WireResult<Response> {
    decode_response(&read_frame(r)?)
}

// ---------------------------------------------------------------------------
// Incremental framing (nonblocking readers)
// ---------------------------------------------------------------------------

/// Consumed-prefix length at which [`FrameDecoder`] compacts its buffer:
/// below this the dead bytes at the front are cheaper to carry than to
/// memmove; above it the remainder is slid to offset 0. Compaction also
/// fires whenever growing the buffer could be avoided by reclaiming the
/// consumed prefix, so total memmove traffic stays amortized O(1) per
/// byte received.
const DECODER_COMPACT_AT: usize = 4 * 1024;

/// Incremental frame reassembler for nonblocking sockets.
///
/// [`read_frame`] blocks until a whole frame arrives, which a readiness
/// loop cannot do: each `read(2)` returns whatever bytes the kernel has,
/// possibly a fraction of a frame or several pipelined frames at once.
/// `FrameDecoder` owns the connection's read buffer: the reader (the
/// serve reactor, or a client such as loadgen) reads straight into
/// [`space`], records the byte count with [`commit`], and drains
/// complete frames with [`next_frame`] — each frame body is a
/// `&[u8]` **borrowed** out of that buffer, so the steady-state decode
/// path performs zero per-frame allocations and zero copies beyond the
/// kernel→buffer read itself.
///
/// ## Borrowed-frame lifetime contract
///
/// A slice returned by [`next_frame`] is valid until the next call that
/// takes `&mut self` ([`space`], [`commit`], [`next_frame`]) —
/// the borrow checker enforces exactly this. Frames are consumed the
/// moment they are returned; the backing bytes are reclaimed lazily by
/// compaction (see [`DECODER_COMPACT_AT`]), never while a borrow is
/// live.
///
/// The hardening contract matches [`read_frame`]: the length prefix is
/// validated against [`MAX_FRAME_LEN`] the moment its fourth byte is
/// examined, and the buffer only ever grows to hold bytes actually
/// received (plus the caller's requested read headroom) — a lying
/// header can never demand a multi-GB allocation.
///
/// After an error the decoder is poisoned and every later
/// [`next_frame`] fails; the connection should be torn down (which is
/// what the serve reactor does).
///
/// [`space`]: FrameDecoder::space
/// [`commit`]: FrameDecoder::commit
/// [`next_frame`]: FrameDecoder::next_frame
pub struct FrameDecoder {
    /// Read buffer. `buf.len()` is the zero-initialized high-water mark;
    /// real data lives in `buf[start..filled]`.
    buf: Vec<u8>,
    start: usize,
    filled: usize,
    moved: u64,
    poisoned: Option<usize>,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// Creates an empty decoder positioned at a frame boundary.
    pub fn new() -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            filled: 0,
            moved: 0,
            poisoned: None,
        }
    }

    fn poison_error(value: usize) -> WireError {
        WireError::TooLarge {
            field: "frame length",
            value,
            cap: MAX_FRAME_LEN,
        }
    }

    /// Slides `buf[start..filled]` to offset 0 when the consumed prefix
    /// is worth reclaiming (or when `extra` more bytes would otherwise
    /// force the buffer to grow).
    fn maybe_compact(&mut self, extra: usize) {
        if self.start == 0 {
            return;
        }
        if self.start == self.filled {
            self.start = 0;
            self.filled = 0;
            return;
        }
        if self.start >= DECODER_COMPACT_AT || self.filled + extra > self.buf.len() {
            self.buf.copy_within(self.start..self.filled, 0);
            self.moved += (self.filled - self.start) as u64;
            self.filled -= self.start;
            self.start = 0;
        }
    }

    /// Returns at least `min` writable bytes at the tail of the read
    /// buffer for the caller to `read(2)` into, compacting or growing
    /// first as needed. Follow with [`commit`] for the bytes actually
    /// read.
    ///
    /// [`commit`]: FrameDecoder::commit
    pub fn space(&mut self, min: usize) -> &mut [u8] {
        let min = min.max(1);
        self.maybe_compact(min);
        if self.buf.len() < self.filled + min {
            self.buf.resize(self.filled + min, 0);
        }
        &mut self.buf[self.filled..]
    }

    /// Records that `n` bytes were read into the slice returned by
    /// [`space`]. Panics if `n` exceeds the space handed out.
    ///
    /// [`space`]: FrameDecoder::space
    pub fn commit(&mut self, n: usize) {
        assert!(
            self.filled + n <= self.buf.len(),
            "commit of {n} bytes overruns the {} bytes of space handed out",
            self.buf.len() - self.filled
        );
        self.filled += n;
    }

    /// Pops the next complete frame body as a slice borrowed from the
    /// read buffer, or `None` when no complete frame is buffered yet.
    /// The frame is consumed immediately; the slice stays valid until
    /// the next `&mut self` call.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TooLarge`] when a length prefix exceeds
    /// [`MAX_FRAME_LEN`]; the decoder is then poisoned and every later
    /// call fails the same way.
    pub fn next_frame(&mut self) -> WireResult<Option<&[u8]>> {
        if let Some(value) = self.poisoned {
            return Err(Self::poison_error(value));
        }
        let avail = self.filled - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let prefix = [
            self.buf[self.start],
            self.buf[self.start + 1],
            self.buf[self.start + 2],
            self.buf[self.start + 3],
        ];
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            self.poisoned = Some(len);
            return Err(Self::poison_error(len));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let body_start = self.start + 4;
        self.start = body_start + len;
        Ok(Some(&self.buf[body_start..body_start + len]))
    }

    /// True when bytes of an unfinished frame are buffered, i.e. EOF at
    /// this point means the peer hung up mid-frame. Meaningful once all
    /// complete frames have been drained via [`next_frame`].
    ///
    /// [`next_frame`]: FrameDecoder::next_frame
    pub fn mid_frame(&self) -> bool {
        self.filled != self.start
    }

    /// How many bytes of the current partial frame are buffered
    /// (prefix bytes included). Used for read-buffer accounting; like
    /// [`mid_frame`], meaningful once complete frames are drained.
    ///
    /// [`mid_frame`]: FrameDecoder::mid_frame
    pub fn buffered(&self) -> usize {
        self.filled - self.start
    }

    /// Total bytes the compactor has memmoved over the decoder's
    /// lifetime. Bounded-compaction regression tests pin this.
    pub fn moved_bytes(&self) -> u64 {
        self.moved
    }

    /// Current allocated size of the internal read buffer. Steady-state
    /// decoding must not grow it — pinned by the zero-allocation test.
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bodies_round_trip() {
        let requests = [
            Request::Predict {
                id: 7,
                trace_id: 0,
                features: vec![0.25, -1.5, 1e300, f64::MIN_POSITIVE],
            },
            Request::Predict {
                id: u64::MAX,
                trace_id: 0,
                features: Vec::new(),
            },
            Request::Predict {
                id: 11,
                trace_id: u64::MAX,
                features: vec![0.5],
            },
            Request::Ping { id: 0 },
            Request::Shutdown { id: 42 },
        ];
        for request in &requests {
            let back = decode_request(&encode_request(request)).unwrap();
            assert_eq!(&back, request);
            assert_eq!(back.id(), request.id());
            assert_eq!(back.trace_id(), request.trace_id());
        }
    }

    #[test]
    fn response_bodies_round_trip() {
        let responses = [
            Response::Predict {
                id: 3,
                trace_id: 0,
                class: u32::MAX,
            },
            Response::Predict {
                id: 4,
                trace_id: 0xdead_beef,
                class: 1,
            },
            Response::Pong { id: 9 },
            Response::Error {
                id: 1,
                trace_id: 0,
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
            },
            Response::Error {
                id: 2,
                trace_id: 77,
                code: ErrorCode::DeadlineExceeded,
                message: String::new(),
            },
        ];
        for response in &responses {
            let back = decode_response(&encode_response(response)).unwrap();
            assert_eq!(&back, response);
            assert_eq!(back.id(), response.id());
            assert_eq!(back.trace_id(), response.trace_id());
        }
    }

    #[test]
    fn feedback_family_bodies_round_trip() {
        let requests = [
            Request::Feedback {
                id: 3,
                trace_id: 0,
                label: 7,
                features: vec![0.5, -2.25, 1e9],
            },
            Request::Feedback {
                id: 4,
                trace_id: 0xfeed,
                label: u32::MAX,
                features: Vec::new(),
            },
            Request::Refresh { id: 5, trace_id: 0 },
            Request::Refresh {
                id: 6,
                trace_id: 77,
            },
            Request::PredictStamped {
                id: 7,
                trace_id: 0,
                features: vec![1.0],
            },
            Request::PredictStamped {
                id: 8,
                trace_id: 9,
                features: vec![f64::MIN_POSITIVE, 0.0],
            },
        ];
        for request in &requests {
            let body = encode_request(request);
            assert_eq!(&body[..4], FEEDBACK_MAGIC);
            let back = decode_request(&body).unwrap();
            assert_eq!(&back, request);
            assert_eq!(back.id(), request.id());
            assert_eq!(back.trace_id(), request.trace_id());
        }
        let responses = [
            Response::FeedbackAck {
                id: 3,
                trace_id: 0,
                version: 1,
                observed: 42,
            },
            Response::FeedbackAck {
                id: 3,
                trace_id: 11,
                version: u64::MAX,
                observed: 0,
            },
            Response::RefreshAck {
                id: 5,
                trace_id: 0,
                version: 2,
            },
            Response::RefreshAck {
                id: 5,
                trace_id: 6,
                version: 3,
            },
            Response::PredictStamped {
                id: 7,
                trace_id: 0,
                class: u32::MAX,
                version: 9,
            },
            Response::PredictStamped {
                id: 7,
                trace_id: 1,
                class: 0,
                version: 1,
            },
        ];
        for response in &responses {
            let back = decode_response(&encode_response(response)).unwrap();
            assert_eq!(&back, response);
            assert_eq!(back.id(), response.id());
            assert_eq!(back.trace_id(), response.trace_id());
        }
    }

    #[test]
    fn feedback_frames_harden_like_predicts() {
        let body = encode_request(&Request::Feedback {
            id: 1,
            trace_id: 42,
            label: 2,
            features: vec![2.0, 3.0],
        });
        // Every truncation errors; a trailing byte is rejected.
        for cut in 0..body.len() {
            assert!(decode_request(&body[..cut]).is_err(), "cut {cut} parsed");
        }
        let mut extended = body.clone();
        extended.push(0);
        assert!(matches!(
            decode_request(&extended),
            Err(WireError::Trailing { .. })
        ));
        // The LHF1 kind namespace is its own: kind 4 is rejected.
        let mut bad_kind = body.clone();
        bad_kind[5] = 4;
        assert!(matches!(
            decode_request(&bad_kind),
            Err(WireError::BadTag {
                field: "feedback kind",
                ..
            })
        ));
        // An over-cap feature count is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(FEEDBACK_MAGIC);
        huge.push(WIRE_VERSION);
        huge.push(FEEDBACK_KIND_FEEDBACK);
        huge.extend_from_slice(&1u64.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes()); // label
        huge.extend_from_slice(&u32::MAX.to_le_bytes()); // n_features
        assert!(matches!(
            decode_request(&huge),
            Err(WireError::TooLarge { .. })
        ));
        // The v2 layout is v1 plus the trace id spliced after the id.
        let v1 = encode_request(&Request::Feedback {
            id: 1,
            trace_id: 0,
            label: 2,
            features: vec![2.0, 3.0],
        });
        assert_eq!(body.len(), v1.len() + 8);
        assert_eq!(&body[..4], &v1[..4]);
        assert_eq!(&body[5..14], &v1[5..14]);
        assert_eq!(&body[14..22], &42u64.to_le_bytes());
        assert_eq!(&body[22..], &v1[14..]);
        // New response statuses also reject truncation everywhere.
        let ack = encode_response(&Response::FeedbackAck {
            id: 9,
            trace_id: 3,
            version: 2,
            observed: 10,
        });
        for cut in 0..ack.len() {
            assert!(decode_response(&ack[..cut]).is_err(), "cut {cut} parsed");
        }
    }

    #[test]
    fn trace_id_selects_the_wire_version() {
        // Untraced messages stay byte-identical to v1.
        let untraced = encode_request(&Request::Predict {
            id: 7,
            trace_id: 0,
            features: vec![1.0],
        });
        assert_eq!(untraced[4], WIRE_VERSION);
        let traced = encode_request(&Request::Predict {
            id: 7,
            trace_id: 9,
            features: vec![1.0],
        });
        assert_eq!(traced[4], WIRE_VERSION_TRACED);
        assert_eq!(traced.len(), untraced.len() + 8);
        // The v2 layout is v1 plus the trace id spliced after the id.
        assert_eq!(&traced[..4], &untraced[..4]);
        assert_eq!(&traced[5..14], &untraced[5..14]);
        assert_eq!(&traced[14..22], &9u64.to_le_bytes());
        assert_eq!(&traced[22..], &untraced[14..]);
        // Same rule on the response side.
        let pong = encode_response(&Response::Pong { id: 3 });
        assert_eq!(pong[4], WIRE_VERSION);
        let err = encode_response(&Response::Error {
            id: 3,
            trace_id: 5,
            code: ErrorCode::Internal,
            message: "x".into(),
        });
        assert_eq!(err[4], WIRE_VERSION_TRACED);
    }

    #[test]
    fn v2_frames_harden_like_v1() {
        // Truncation inside the trace-id field is caught.
        let body = encode_request(&Request::Predict {
            id: 1,
            trace_id: 42,
            features: vec![2.0],
        });
        for cut in 14..22 {
            assert!(matches!(
                decode_request(&body[..cut]),
                Err(WireError::Truncated { .. })
            ));
        }
        // Trailing bytes after a complete v2 message are rejected.
        let mut extended = body.clone();
        extended.push(0);
        assert!(matches!(
            decode_request(&extended),
            Err(WireError::Trailing { .. })
        ));
        // A v2 ping (foreign encoder) must carry the trace-id field;
        // it is consumed and ignored.
        let mut ping = encode_request(&Request::Ping { id: 6 });
        ping[4] = WIRE_VERSION_TRACED;
        assert!(matches!(
            decode_request(&ping),
            Err(WireError::Truncated { .. })
        ));
        let mut id_then_trace = ping[..14].to_vec();
        id_then_trace.extend_from_slice(&123u64.to_le_bytes());
        assert_eq!(
            decode_request(&id_then_trace).unwrap(),
            Request::Ping { id: 6 }
        );
        // Version 3 is still rejected.
        let mut v3 = encode_request(&Request::Ping { id: 6 });
        v3[4] = 3;
        assert!(matches!(decode_request(&v3), Err(WireError::BadVersion(3))));
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let request = Request::Predict {
            id: 5,
            trace_id: 0,
            features: vec![1.0, 2.0],
        };
        let mut buf = Vec::new();
        write_request(&mut buf, &request).unwrap();
        write_response(&mut buf, &Response::Pong { id: 5 }).unwrap();
        let mut r = io::Cursor::new(&buf);
        assert_eq!(read_request(&mut r).unwrap(), request);
        assert_eq!(read_response(&mut r).unwrap(), Response::Pong { id: 5 });
    }

    #[test]
    fn oversized_lengths_are_rejected_before_allocation() {
        // Frame length prefix claiming 4 GB.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&bytes)),
            Err(WireError::TooLarge { .. })
        ));
        // In-cap but lying frame length: EOF before large buffers.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 32]);
        assert!(matches!(
            read_frame(&mut io::Cursor::new(&bytes)),
            Err(WireError::Truncated { .. })
        ));
        // Feature count above the cap inside a request body.
        let mut body = Vec::new();
        body.extend_from_slice(REQUEST_MAGIC);
        body.push(WIRE_VERSION);
        body.push(KIND_PREDICT);
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&body),
            Err(WireError::TooLarge { .. })
        ));
        // Over-long frame body on the write side.
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(write_frame(&mut Vec::new(), &huge).is_err());
    }

    #[test]
    fn bad_magic_version_and_tags_are_rejected() {
        let mut body = encode_request(&Request::Ping { id: 1 });
        body[0] = b'X';
        assert!(matches!(decode_request(&body), Err(WireError::BadMagic)));
        let mut body = encode_request(&Request::Ping { id: 1 });
        body[4] = 99;
        assert!(matches!(
            decode_request(&body),
            Err(WireError::BadVersion(99))
        ));
        let mut body = encode_request(&Request::Ping { id: 1 });
        body[5] = 200;
        assert!(matches!(
            decode_request(&body),
            Err(WireError::BadTag { .. })
        ));
        let mut body = encode_response(&Response::Pong { id: 1 });
        body[13] = 200;
        assert!(matches!(
            decode_response(&body),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = encode_request(&Request::Ping { id: 1 });
        body.push(0);
        assert!(matches!(
            decode_request(&body),
            Err(WireError::Trailing { .. })
        ));
        let mut body = encode_response(&Response::Predict {
            id: 1,
            trace_id: 0,
            class: 2,
        });
        body.push(0);
        assert!(matches!(
            decode_response(&body),
            Err(WireError::Trailing { .. })
        ));
    }

    #[test]
    fn long_error_messages_are_truncated_on_encode() {
        let response = Response::Error {
            id: 1,
            trace_id: 0,
            code: ErrorCode::Internal,
            message: "x".repeat(MAX_ERROR_MESSAGE * 2),
        };
        let back = decode_response(&encode_response(&response)).unwrap();
        match back {
            Response::Error { message, .. } => assert_eq!(message.len(), MAX_ERROR_MESSAGE),
            other => panic!("unexpected response {other:?}"),
        }
    }

    /// Copies `chunk` into the decoder's read buffer through the
    /// borrowing API (as a socket read would land it) and collects every
    /// frame body it completes.
    fn push_chunk(
        dec: &mut FrameDecoder,
        chunk: &[u8],
        frames: &mut Vec<Vec<u8>>,
    ) -> WireResult<()> {
        dec.space(chunk.len())[..chunk.len()].copy_from_slice(chunk);
        dec.commit(chunk.len());
        while let Some(body) = dec.next_frame()? {
            frames.push(body.to_vec());
        }
        Ok(())
    }

    #[test]
    fn borrowing_decoder_matches_read_frame_at_every_split() {
        // Four pipelined frames, including an empty-features predict and
        // a response body.
        let bodies = [
            encode_request(&Request::Predict {
                id: 1,
                trace_id: 9,
                features: vec![1.0, -2.5, 3e7],
            }),
            encode_request(&Request::Ping { id: 2 }),
            encode_request(&Request::Predict {
                id: 3,
                trace_id: 0,
                features: Vec::new(),
            }),
            encode_response(&Response::Pong { id: 4 }),
        ];
        let mut stream = Vec::new();
        for body in &bodies {
            write_frame(&mut stream, body).unwrap();
        }
        // Blocking reference decode.
        let mut r = io::Cursor::new(&stream);
        let reference: Vec<Vec<u8>> = (0..bodies.len())
            .map(|_| read_frame(&mut r).unwrap())
            .collect();
        assert_eq!(reference.as_slice(), bodies.as_slice());
        // Incremental decode, split at every byte boundary.
        for split in 0..=stream.len() {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            push_chunk(&mut dec, &stream[..split], &mut frames).unwrap();
            push_chunk(&mut dec, &stream[split..], &mut frames).unwrap();
            assert_eq!(frames, reference, "split at {split}");
            assert!(!dec.mid_frame());
            assert_eq!(dec.buffered(), 0);
        }
        // And one byte at a time.
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &stream {
            push_chunk(&mut dec, std::slice::from_ref(b), &mut frames).unwrap();
        }
        assert_eq!(frames, reference);
    }

    #[test]
    fn frame_decoder_rejects_oversized_prefix_before_buffering() {
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        // Commit exactly the 4-byte lying prefix: rejected immediately,
        // before a body allocation.
        let err = push_chunk(&mut dec, &u32::MAX.to_le_bytes(), &mut frames).unwrap_err();
        assert!(matches!(err, WireError::TooLarge { .. }));
        assert!(err.to_string().contains("limit"));
        assert!(dec.buffer_capacity() < 1024, "{}", dec.buffer_capacity());
        // Poisoned: later reads keep failing.
        assert!(push_chunk(&mut dec, &[0u8; 8], &mut frames).is_err());
        assert!(frames.is_empty());
    }

    #[test]
    fn frame_decoder_tracks_partial_frames() {
        let body = encode_request(&Request::Ping { id: 7 });
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        assert!(!dec.mid_frame());
        push_chunk(&mut dec, &framed[..2], &mut frames).unwrap();
        assert!(dec.mid_frame());
        assert_eq!(dec.buffered(), 2);
        push_chunk(&mut dec, &framed[2..6], &mut frames).unwrap();
        assert!(dec.mid_frame());
        assert_eq!(dec.buffered(), 6);
        push_chunk(&mut dec, &framed[6..], &mut frames).unwrap();
        assert!(!dec.mid_frame());
        assert_eq!(frames, vec![body]);
        // A zero-length frame completes at the prefix boundary.
        let mut frames = Vec::new();
        push_chunk(&mut dec, &0u32.to_le_bytes(), &mut frames).unwrap();
        assert_eq!(frames, vec![Vec::<u8>::new()]);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn borrowing_decoder_reuses_its_buffer_without_growing() {
        let body = encode_request(&Request::Predict {
            id: 1,
            trace_id: 0,
            features: vec![1.0; 16],
        });
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let mut dec = FrameDecoder::new();
        // Warm up: one frame establishes the buffer size.
        dec.space(framed.len())[..framed.len()].copy_from_slice(&framed);
        dec.commit(framed.len());
        assert_eq!(dec.next_frame().unwrap().unwrap(), body.as_slice());
        let settled = dec.buffer_capacity();
        // Steady state: thousands of frames, zero buffer growth — the
        // read buffer is the only storage and frames borrow from it.
        for _ in 0..10_000 {
            dec.space(framed.len())[..framed.len()].copy_from_slice(&framed);
            dec.commit(framed.len());
            assert_eq!(dec.next_frame().unwrap().unwrap(), body.as_slice());
        }
        assert_eq!(
            dec.buffer_capacity(),
            settled,
            "steady-state decode grew the read buffer"
        );
        // Compaction traffic stays amortized: never more than the total
        // bytes fed through the decoder.
        assert!(dec.moved_bytes() <= (10_001 * framed.len()) as u64);
    }

    #[test]
    fn borrowing_decoder_compacts_partial_frames_across_reads() {
        let body = encode_request(&Request::Ping { id: 42 });
        let mut framed = Vec::new();
        write_frame(&mut framed, &body).unwrap();
        let mut dec = FrameDecoder::new();
        // Feed many frames, always splitting mid-frame so a partial
        // tail must survive each compaction.
        let mut pending: Vec<u8> = Vec::new();
        for _ in 0..5_000 {
            pending.extend_from_slice(&framed);
            let keep = 3.min(pending.len());
            let now = pending.len() - keep;
            dec.space(now)[..now].copy_from_slice(&pending[..now]);
            dec.commit(now);
            pending.drain(..now);
            while let Some(b) = dec.next_frame().unwrap() {
                assert_eq!(b, body.as_slice());
            }
        }
        // The consumed front is reclaimed: the buffer stays near the
        // compaction threshold, not 5 000 frames long.
        assert!(
            dec.buffer_capacity() < 2 * DECODER_COMPACT_AT + 2 * framed.len(),
            "capacity {} suggests the consumed prefix is never reclaimed",
            dec.buffer_capacity()
        );
    }

    #[test]
    fn encode_response_frame_into_matches_write_frame() {
        let responses = [
            Response::Pong { id: 1 },
            Response::Predict {
                id: 2,
                trace_id: 7,
                class: 3,
            },
            Response::Error {
                id: 3,
                trace_id: 0,
                code: ErrorCode::Overloaded,
                message: "busy".into(),
            },
        ];
        let mut scratch = vec![0xAAu8; 64]; // dirty: must be cleared
        for response in &responses {
            let mut reference = Vec::new();
            write_frame(&mut reference, &encode_response(response)).unwrap();
            encode_response_frame_into(response, &mut scratch);
            assert_eq!(scratch, reference);
        }
    }

    #[test]
    fn errors_display_cleanly() {
        let errors: Vec<WireError> = vec![
            WireError::Truncated {
                offset: 3,
                field: "magic",
            },
            WireError::BadMagic,
            WireError::BadVersion(9),
            WireError::BadTag {
                field: "kind",
                value: 7,
            },
            WireError::TooLarge {
                field: "n_features",
                value: 1 << 30,
                cap: MAX_FEATURES,
            },
            WireError::Trailing {
                offset: 10,
                count: 2,
            },
            WireError::BadUtf8,
            WireError::Io(io::Error::other("boom")),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
