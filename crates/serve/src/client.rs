//! A minimal blocking client for the `lookhd-serve` wire protocol.
//!
//! One [`Client`] wraps one TCP connection. Requests may be pipelined
//! ([`Client::send`] many, then [`Client::recv`] many); responses carry
//! the request id, so matching them stays unambiguous even where they
//! complete out of order (trainer acks arrive whenever the trainer
//! thread answers). The convenience calls ([`Client::predict`],
//! [`Client::ping`]) are strict request/response round trips.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::wire::{self, Request, Response, WireResult};

/// A blocking connection to a `lookhd-serve` server.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Bounds how long [`Client::recv`] blocks (`None` = forever).
    ///
    /// # Errors
    ///
    /// Propagates socket-option errors.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request frame without waiting for the response
    /// (pipelining).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        wire::write_request(&mut self.stream, request)
    }

    /// Reads the next response frame, in server completion order.
    ///
    /// # Errors
    ///
    /// Returns a [`wire::WireError`] for transport failures or a
    /// malformed response.
    pub fn recv(&mut self) -> WireResult<Response> {
        wire::read_response(&mut self.stream)
    }

    /// Round-trips one untraced predict request (a v1 frame on the wire).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::send`] and [`Client::recv`].
    pub fn predict(&mut self, id: u64, features: &[f64]) -> WireResult<Response> {
        self.predict_traced(id, 0, features)
    }

    /// Round-trips one predict request carrying a client trace id. A
    /// non-zero `trace_id` selects the v2 frame layout; the server echoes
    /// the id in the response and stamps it on every per-request span it
    /// records (see `obs::trace`). A zero id degrades to [`Client::predict`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::send`] and [`Client::recv`].
    pub fn predict_traced(
        &mut self,
        id: u64,
        trace_id: u64,
        features: &[f64],
    ) -> WireResult<Response> {
        self.send(&Request::Predict {
            id,
            trace_id,
            features: features.to_vec(),
        })?;
        self.recv()
    }

    /// Round-trips one version-stamped predict request (`LHF1` kind 3):
    /// the [`Response::PredictStamped`] answer carries the model version
    /// that produced it, so callers can pin each prediction to an exact
    /// model across hot-swaps.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::send`] and [`Client::recv`].
    pub fn predict_stamped(&mut self, id: u64, features: &[f64]) -> WireResult<Response> {
        self.send(&Request::PredictStamped {
            id,
            trace_id: 0,
            features: features.to_vec(),
        })?;
        self.recv()
    }

    /// Round-trips one feedback frame (`LHF1` kind 1): the server folds
    /// the labelled example into its live training counters and answers
    /// with [`Response::FeedbackAck`] carrying the current model version
    /// and the total examples observed so far.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::send`] and [`Client::recv`].
    pub fn feedback(&mut self, id: u64, label: u32, features: &[f64]) -> WireResult<Response> {
        self.send(&Request::Feedback {
            id,
            trace_id: 0,
            label,
            features: features.to_vec(),
        })?;
        self.recv()
    }

    /// Asks the server to materialize its live counters into a new model
    /// version and hot-swap it (`LHF1` kind 2); the
    /// [`Response::RefreshAck`] carries the new version.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::send`] and [`Client::recv`].
    pub fn refresh(&mut self, id: u64) -> WireResult<Response> {
        self.send(&Request::Refresh { id, trace_id: 0 })?;
        self.recv()
    }

    /// Round-trips one ping.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::send`] and [`Client::recv`].
    pub fn ping(&mut self, id: u64) -> WireResult<Response> {
        self.send(&Request::Ping { id })?;
        self.recv()
    }

    /// Asks the server to shut down gracefully and waits for the
    /// acknowledgement.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::send`] and [`Client::recv`].
    pub fn shutdown_server(&mut self, id: u64) -> WireResult<Response> {
        self.send(&Request::Shutdown { id })?;
        self.recv()
    }

    /// The underlying stream (for tests that need raw byte access).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
