//! Protocol corruption sweep for the `lookhd-serve` wire format, in the
//! style of `tests/persist_corruption.rs`: bytes arriving over a socket
//! cross a trust boundary, so the decoder must never panic, hang, or
//! preallocate multi-GB buffers on hostile input. Every truncation of a
//! valid request frame must yield a clean protocol error, every
//! single-byte flip must decode cleanly or fail cleanly, and oversized
//! length headers must be rejected against a cap *before* allocation —
//! at the codec layer and against a live server. The LHF1 feedback
//! family (feedback / refresh / stamped predict) is held to the exact
//! same bar, including against a live `start_online` server whose
//! trainer thread must survive every sweep.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::serve::wire::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    ErrorCode, Request, Response, WireError, MAX_FEATURES, MAX_FRAME_LEN,
};
use lookhd_paper::serve::{self, Client, ServeConfig};

fn sample_request() -> Request {
    Request::Predict {
        id: 0x0123_4567_89ab_cdef,
        trace_id: 0,
        features: vec![0.25, -1.5, 3.75, 0.0, 1e12],
    }
}

/// The same request as a v2 frame (non-zero trace id selects the traced
/// layout on the wire).
fn sample_traced_request() -> Request {
    Request::Predict {
        id: 0x0123_4567_89ab_cdef,
        trace_id: 0xfeed_f00d_dead_beef,
        features: vec![0.25, -1.5, 3.75, 0.0, 1e12],
    }
}

/// LHF1 sample frames: one of each feedback-family kind, v1 and v2
/// layouts — held to the same hardening bar as the predict family.
fn feedback_family_requests() -> Vec<Request> {
    let features = vec![0.25, -1.5, 3.75, 0.0, 1e12];
    let mut out = Vec::new();
    for trace_id in [0u64, 0xfeed_f00d_dead_beef] {
        out.push(Request::Feedback {
            id: 0x0123_4567_89ab_cdef,
            trace_id,
            label: 2,
            features: features.clone(),
        });
        out.push(Request::Refresh {
            id: 0x0123_4567_89ab_cdef,
            trace_id,
        });
        out.push(Request::PredictStamped {
            id: 0x0123_4567_89ab_cdef,
            trace_id,
            features: features.clone(),
        });
    }
    out
}

/// A full frame (length prefix + body) for the sample request.
fn framed(request: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, &encode_request(request)).unwrap();
    out
}

#[test]
fn feedback_request_truncated_at_every_length_errors() {
    for request in feedback_family_requests() {
        let body = encode_request(&request);
        for cut in 0..body.len() {
            assert!(
                decode_request(&body[..cut]).is_err(),
                "truncation at {cut}/{} parsed successfully ({request:?})",
                body.len()
            );
        }
        let mut longer = body.clone();
        longer.push(0);
        assert!(matches!(
            decode_request(&longer),
            Err(WireError::Trailing { .. })
        ));
    }
}

#[test]
fn feedback_response_truncated_at_every_length_errors() {
    for response in [
        Response::FeedbackAck {
            id: 7,
            trace_id: 0,
            version: 3,
            observed: 41,
        },
        Response::RefreshAck {
            id: 7,
            trace_id: 0xabcd,
            version: 4,
        },
        Response::PredictStamped {
            id: 7,
            trace_id: 0,
            class: 2,
            version: 4,
        },
    ] {
        let body = encode_response(&response);
        for cut in 0..body.len() {
            assert!(
                decode_response(&body[..cut]).is_err(),
                "truncation at {cut}/{} parsed successfully ({response:?})",
                body.len()
            );
        }
    }
}

#[test]
fn feedback_request_survives_every_single_byte_flip() {
    for request in feedback_family_requests() {
        let body = encode_request(&request);
        for i in 0..body.len() {
            for flip in [0xFFu8, 0x01, 0x80] {
                let mut bad = body.clone();
                bad[i] ^= flip;
                if let Ok(back) = decode_request(&bad) {
                    let re = decode_request(&encode_request(&back)).unwrap();
                    assert_eq!(re, back);
                }
            }
        }
    }
}

/// An LHF1 body whose `n_features` lies past the cap must be rejected
/// against [`MAX_FEATURES`] before any allocation, like LHQ1.
#[test]
fn feedback_n_features_lie_is_rejected_before_allocation() {
    for request in feedback_family_requests() {
        let mut body = encode_request(&request);
        // The feature count sits 4 bytes before the feature payload —
        // find it by re-encoding with one fewer feature and diffing
        // lengths is overkill; just scan for the little-endian count.
        let Some(n) = (match &request {
            Request::Feedback { features, .. } | Request::PredictStamped { features, .. } => {
                Some(features.len() as u32)
            }
            _ => None,
        }) else {
            continue;
        };
        let payload = 8 * n as usize;
        let count_at = body.len() - payload - 4;
        assert_eq!(&body[count_at..count_at + 4], &n.to_le_bytes());
        body[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_request(&body) {
            Err(WireError::TooLarge { value, cap, .. }) => {
                assert_eq!(value, u32::MAX as usize);
                assert_eq!(cap, MAX_FEATURES);
            }
            other => panic!("n_features lie decoded as {other:?}"),
        }
    }
}

#[test]
fn request_body_truncated_at_every_length_errors() {
    for request in [sample_request(), sample_traced_request()] {
        let body = encode_request(&request);
        for cut in 0..body.len() {
            assert!(
                decode_request(&body[..cut]).is_err(),
                "truncation at {cut}/{} parsed successfully",
                body.len()
            );
        }
        let mut longer = body.clone();
        longer.push(0);
        assert!(matches!(
            decode_request(&longer),
            Err(WireError::Trailing { .. })
        ));
    }
}

#[test]
fn response_body_truncated_at_every_length_errors() {
    for response in [
        Response::Predict {
            id: 7,
            trace_id: 0,
            class: 3,
        },
        Response::Predict {
            id: 7,
            trace_id: 0xabcd,
            class: 3,
        },
        Response::Error {
            id: 9,
            trace_id: 0,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        },
        Response::Error {
            id: 9,
            trace_id: 42,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        },
    ] {
        let body = encode_response(&response);
        for cut in 0..body.len() {
            assert!(
                decode_response(&body[..cut]).is_err(),
                "truncation at {cut}/{} parsed successfully",
                body.len()
            );
        }
    }
}

#[test]
fn request_survives_every_single_byte_flip() {
    for request in [sample_request(), sample_traced_request()] {
        let body = encode_request(&request);
        for i in 0..body.len() {
            for flip in [0xFFu8, 0x01, 0x80] {
                let mut bad = body.clone();
                bad[i] ^= flip;
                // Structural corruption must error; payload corruption may
                // decode into a different-but-valid request. Either way: no
                // panic, and any Ok must still round-trip.
                if let Ok(back) = decode_request(&bad) {
                    let re = decode_request(&encode_request(&back)).unwrap();
                    assert_eq!(re, back);
                }
            }
        }
    }
}

#[test]
fn frame_length_corruption_never_overallocates() {
    let frame = framed(&sample_request());
    // Flip every byte of the 4-byte length prefix in every position: the
    // reader must reject over-cap lengths before allocating and hit a
    // clean truncation error for in-cap lies.
    for i in 0..4 {
        for flip in 1..=255u8 {
            let mut bad = frame.clone();
            bad[i] ^= flip;
            let claimed = u32::from_le_bytes([bad[0], bad[1], bad[2], bad[3]]) as usize;
            match read_frame(&mut std::io::Cursor::new(&bad)) {
                Ok(body) => assert!(body.len() <= MAX_FRAME_LEN && body.len() == claimed),
                Err(WireError::TooLarge { value, cap, .. }) => {
                    assert_eq!(value, claimed);
                    assert_eq!(cap, MAX_FRAME_LEN);
                }
                Err(WireError::Truncated { .. } | WireError::Io(_)) => {}
                Err(other) => panic!("unexpected framing error {other:?}"),
            }
        }
    }
}

#[test]
fn decoders_reject_arbitrary_magic_prefixes() {
    // All 256 first-byte values: only the genuine magic parses.
    let body = encode_request(&sample_request());
    for b in 0..=255u8 {
        let mut candidate = body.clone();
        candidate[0] = b;
        let result = decode_request(&candidate);
        if b == b'L' {
            assert!(result.is_ok());
        } else {
            assert!(matches!(result, Err(WireError::BadMagic)));
        }
    }
}

// ---------------------------------------------------------------------------
// Live-server sweeps
// ---------------------------------------------------------------------------

/// Sign-of-first-feature stub so the server sweep needs no training.
struct SignStub;

impl lookhd_paper::hdc::Classifier for SignStub {
    fn num_classes(&self) -> usize {
        2
    }

    fn predict(&self, features: &[f64]) -> lookhd_paper::hdc::Result<usize> {
        match features.first() {
            Some(&v) => Ok(usize::from(v >= 0.0)),
            None => Err(lookhd_paper::hdc::HdcError::invalid_dataset("empty")),
        }
    }
}

fn start_server() -> serve::ServerHandle {
    serve::start("127.0.0.1:0", Arc::new(SignStub), ServeConfig::new()).expect("bind failed")
}

/// Checks the server at `addr` still answers a well-formed request.
fn assert_still_serving(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match client.predict(1, &[1.0]).expect("round trip failed") {
        Response::Predict {
            id: 1,
            trace_id: 0,
            class: 1,
        } => {}
        other => panic!("unexpected response {other:?}"),
    }
}

/// Every truncation of a valid frame, sent raw and then half-closed,
/// leaves the server alive and serving.
#[test]
fn live_server_survives_every_frame_truncation() {
    let handle = start_server();
    let addr = handle.addr();
    for frame in [framed(&sample_request()), framed(&sample_traced_request())] {
        for cut in 0..frame.len() {
            let mut raw = TcpStream::connect(addr).expect("connect failed");
            raw.write_all(&frame[..cut]).expect("write failed");
            drop(raw); // mid-frame EOF
        }
    }
    assert_still_serving(addr);
    handle.shutdown();
    handle.join();
}

/// Every single-byte flip of a valid frame elicits a response or a clean
/// close — never a hang — and the server keeps serving afterwards.
#[test]
fn live_server_survives_every_single_byte_flip() {
    let handle = start_server();
    let addr = handle.addr();
    let frame = framed(&sample_request());
    for i in 0..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 0xFF;
        let mut client = Client::connect(addr).expect("connect failed");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.stream().write_all(&bad).expect("write failed");
        // A length-prefix flip usually leaves the server waiting for the
        // rest of a (now longer) frame; half-close the write side so it
        // sees EOF instead of waiting on this client forever.
        let _ = client.stream().shutdown(std::net::Shutdown::Write);
        // The server must answer (predict result, protocol error) or
        // close; blocking forever trips the read timeout and fails.
        match client.recv() {
            Ok(_) => {}
            Err(WireError::Io(e)) => assert!(
                e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut,
                "server hung on flipped byte {i}: {e}"
            ),
            Err(other) => panic!("malformed server response for flipped byte {i}: {other:?}"),
        }
    }
    assert_still_serving(addr);
    handle.shutdown();
    handle.join();
}

/// An oversized length header is rejected against the cap before any
/// allocation; the server answers with a protocol error (or closes) and
/// keeps running.
#[test]
fn live_server_rejects_oversized_length_headers() {
    let handle = start_server();
    let addr = handle.addr();
    for claimed in [u32::MAX, (MAX_FRAME_LEN as u32) + 1, 1 << 30] {
        let mut client = Client::connect(addr).expect("connect failed");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client
            .stream()
            .write_all(&claimed.to_le_bytes())
            .expect("write failed");
        client.stream().write_all(&[0u8; 16]).expect("write failed");
        match client.recv() {
            Ok(Response::Error { code, message, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("limit"), "unexpected message: {message}");
            }
            Ok(other) => panic!("unexpected response {other:?}"),
            Err(WireError::Io(_)) => {} // clean close is acceptable
            Err(other) => panic!("malformed server response: {other:?}"),
        }
    }
    assert_still_serving(addr);
    handle.shutdown();
    handle.join();
}

// ---------------------------------------------------------------------------
// Live-server LHF1 sweeps (online training enabled)
// ---------------------------------------------------------------------------

/// A real trained model: the LHF1 sweeps need `start_online`, which
/// derives a streaming trainer from the classifier.
fn online_model() -> lookhd_paper::lookhd::LookHdClassifier {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..30 {
        let base = [0.2, 0.8][i % 2];
        xs.push(vec![base, 1.0 - base, base, base, 1.0 - base]);
        ys.push(i % 2);
    }
    let config = lookhd_paper::lookhd::LookHdConfig::new()
        .with_dim(128)
        .with_retrain_epochs(0)
        .with_validation_fraction(0.0);
    lookhd_paper::lookhd::LookHdClassifier::fit(&config, &xs, &ys).expect("fit failed")
}

fn start_online_server() -> serve::ServerHandle {
    serve::start_online(
        "127.0.0.1:0",
        online_model(),
        ServeConfig::new(),
        serve::OnlineConfig::new(),
    )
    .expect("bind failed")
}

/// The online server still folds feedback and answers stamped predicts.
fn assert_still_training(addr: std::net::SocketAddr) {
    let mut client = Client::connect(addr).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match client
        .feedback(1, 0, &[0.2, 0.8, 0.2, 0.2, 0.8])
        .expect("feedback round trip failed")
    {
        Response::FeedbackAck { id: 1, .. } => {}
        other => panic!("unexpected response {other:?}"),
    }
    match client
        .predict_stamped(2, &[0.8, 0.2, 0.8, 0.8, 0.2])
        .expect("stamped round trip failed")
    {
        Response::PredictStamped { id: 2, .. } => {}
        other => panic!("unexpected response {other:?}"),
    }
}

/// Every truncation of every LHF1 frame kind, sent raw and half-closed,
/// leaves the online server alive — reactor and trainer thread.
#[test]
fn live_online_server_survives_every_feedback_frame_truncation() {
    let handle = start_online_server();
    let addr = handle.addr();
    for request in feedback_family_requests() {
        let frame = framed(&request);
        for cut in 0..frame.len() {
            let mut raw = TcpStream::connect(addr).expect("connect failed");
            raw.write_all(&frame[..cut]).expect("write failed");
            drop(raw); // mid-frame EOF
        }
    }
    assert_still_training(addr);
    handle.shutdown();
    handle.join();
}

/// Every single-byte flip of a feedback frame elicits a response or a
/// clean close — never a hang — and training keeps working afterwards.
#[test]
fn live_online_server_survives_every_feedback_byte_flip() {
    let handle = start_online_server();
    let addr = handle.addr();
    let frame = framed(&Request::Feedback {
        id: 3,
        trace_id: 0,
        label: 1,
        features: vec![0.25, -1.5, 3.75, 0.0, 1e12],
    });
    for i in 0..frame.len() {
        let mut bad = frame.clone();
        bad[i] ^= 0xFF;
        let mut client = Client::connect(addr).expect("connect failed");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        client.stream().write_all(&bad).expect("write failed");
        let _ = client.stream().shutdown(std::net::Shutdown::Write);
        match client.recv() {
            Ok(_) => {}
            Err(WireError::Io(e)) => assert!(
                e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut,
                "server hung on flipped byte {i}: {e}"
            ),
            Err(other) => panic!("malformed server response for flipped byte {i}: {other:?}"),
        }
    }
    assert_still_training(addr);
    handle.shutdown();
    handle.join();
}

/// A feedback frame whose `n_features` lies (frame length in cap, count
/// past it) gets a BadRequest naming the limit; the connection is then
/// dropped (a `TooLarge` decode means the stream may be desynced — the
/// same answer-then-drop contract as LHQ1), and the server keeps
/// training for fresh connections.
#[test]
fn live_online_server_rejects_feedback_feature_count_lies() {
    let handle = start_online_server();
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut body = encode_request(&Request::Feedback {
        id: 9,
        trace_id: 0,
        label: 1,
        features: vec![1.0, 2.0],
    });
    let count_at = body.len() - 16 - 4;
    body[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    write_frame(client.stream(), &body).expect("write failed");
    // The id is unrecoverable once the body fails to decode; the error
    // comes back with id 0, and must name the feature-count limit.
    match client.recv().expect("recv failed") {
        Response::Error {
            id: 0,
            code,
            message,
            ..
        } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("limit"), "unexpected message: {message}");
        }
        other => panic!("unexpected response {other:?}"),
    }
    // The poisoned connection is closed after the answer; a fresh one
    // keeps training.
    assert_still_training(addr);
    handle.shutdown();
    handle.join();
}

/// Non-finite feature values (NaN, ±inf) have no quantization level. A
/// predict carrying one, pipelined into the middle of a burst, gets a
/// BadRequest naming the feature while its burst-mates still get their
/// exact classes; a feedback carrying one is refused without folding
/// anything into the live counters.
#[test]
fn live_online_server_refuses_non_finite_feature_values() {
    let model = online_model();
    let handle = serve::start_online(
        "127.0.0.1:0",
        model.clone(),
        ServeConfig::new(),
        serve::OnlineConfig::new(),
    )
    .expect("bind failed");
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let good = [0.2, 0.8, 0.2, 0.2, 0.8];
    let hostile = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    // Seven pipelined predicts in one write, hostile values in the middle
    // three: the reactor scores them from one read chunk (or a few).
    let mut rows: Vec<Vec<f64>> = (0..7)
        .map(|i| vec![[0.2, 0.8][i % 2], 0.5, [0.8, 0.2][i % 2], 0.3, 0.7])
        .collect();
    for (row, &bad) in rows[2..5].iter_mut().zip(&hostile) {
        row[3] = bad;
    }
    let mut burst = Vec::new();
    for (id, features) in (1u64..).zip(&rows) {
        burst.extend(framed(&Request::Predict {
            id,
            trace_id: 0,
            features: features.clone(),
        }));
    }
    client.stream().write_all(&burst).expect("write failed");
    let mut answers = std::collections::HashMap::new();
    for _ in 0..rows.len() {
        match client.recv().expect("recv failed") {
            Response::Predict { id, class, .. } => answers.insert(id, Ok(class)),
            Response::Error {
                id, code, message, ..
            } => answers.insert(id, Err((code, message))),
            other => panic!("unexpected response {other:?}"),
        };
    }
    for (id, features) in (1u64..).zip(&rows) {
        match &answers[&id] {
            Ok(class) if features.iter().all(|x| x.is_finite()) => {
                let expected = model.predict(features).expect("direct predict");
                assert_eq!(*class as usize, expected, "batch-mate {id}");
            }
            Err((code, message)) if !features[3].is_finite() => {
                assert_eq!(*code, ErrorCode::BadRequest, "request {id}");
                assert!(message.contains("feature 3"), "request {id}: {message}");
            }
            other => panic!("request {id} ({features:?}) answered {other:?}"),
        }
    }

    // Feedback: each hostile value is refused and the next ack's observed
    // count has not moved.
    let observed = |response| match response {
        Response::FeedbackAck { observed, .. } => observed,
        other => panic!("unexpected response {other:?}"),
    };
    let before = observed(client.feedback(10, 0, &good).expect("feedback"));
    for (id, &bad) in (11u64..).zip(&hostile) {
        let mut features = good;
        features[1] = bad;
        match client.feedback(id, 0, &features).expect("feedback") {
            Response::Error { code, message, .. } => {
                assert_eq!(code, ErrorCode::BadRequest);
                assert!(message.contains("feature 1"), "{message}");
            }
            other => panic!("non-finite feedback {bad} answered {other:?}"),
        }
    }
    let after = observed(client.feedback(20, 0, &good).expect("feedback"));
    assert_eq!(after, before + 1, "a non-finite feedback row was folded");
    handle.shutdown();
    handle.join();
}

/// Garbage that parses as a frame but not as a request gets a BadRequest
/// error while the connection stays frame-aligned and usable.
#[test]
fn malformed_bodies_get_error_responses_without_dropping_the_connection() {
    let handle = start_server();
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut garbage = encode_request(&sample_request());
    garbage[0] = b'X'; // breaks the magic, not the framing
    write_frame(client.stream(), &garbage).expect("write failed");
    match client.recv().expect("recv failed") {
        Response::Error { id: 0, code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("unexpected response {other:?}"),
    }
    // Same connection still serves valid requests afterwards.
    match client.predict(5, &[2.0]).expect("round trip failed") {
        Response::Predict {
            id: 5,
            trace_id: 0,
            class: 1,
        } => {}
        other => panic!("unexpected response {other:?}"),
    }
    handle.shutdown();
    handle.join();
}
