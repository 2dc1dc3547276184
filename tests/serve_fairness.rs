//! Read-fairness and bit-identity tests for the edge-triggered reactor.
//!
//! The ET rewrite drains sockets to `WouldBlock` under a per-connection
//! read budget instead of a fixed per-event cap. These tests pin the two
//! user-visible contracts of that change:
//!
//! * **Fairness** — a firehose client pipelining thousands of requests
//!   cannot monopolize its reactor thread: polite request/response
//!   clients sharing the same reactor keep completing round trips with
//!   bounded latency, and the budget exhaustions show up in the
//!   `serve.fairness_deferrals` counter.
//! * **Bit identity** — edge triggering, budget deferrals, and the
//!   zero-copy borrowed-frame decode path change *no response bytes*:
//!   the raw byte stream a client reads back is exactly the
//!   length-prefixed encoding of the direct `Classifier::predict`
//!   answers, even when requests arrive in pathological 3-byte slivers.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lookhd_paper::obs;
use lookhd_paper::prelude::*;
use lookhd_paper::serve::wire::{encode_request, encode_response};
use lookhd_paper::serve::{self, Client, Request, Response, ServeConfig};

/// Well-separated 3-class training set plus off-grid query rows.
fn dataset() -> (Vec<Vec<f64>>, Vec<usize>, Vec<Vec<f64>>) {
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for i in 0..45 {
        let class = i % 3;
        let base = [0.2, 0.5, 0.8][class];
        let jitter = (i / 3) as f64 * 0.006;
        xs.push(vec![base + jitter, base - jitter, base, 1.0 - base, base]);
        ys.push(class);
    }
    let queries = (0..37)
        .map(|i| {
            let t = i as f64 / 36.0;
            vec![t, 1.0 - t, 0.5 + t / 3.0, t * t, 0.3 + t / 2.0]
        })
        .collect();
    (xs, ys, queries)
}

fn trained_bytes() -> (Vec<u8>, Vec<Vec<f64>>) {
    let (xs, ys, queries) = dataset();
    let config = LookHdConfig::new().with_dim(256).with_retrain_epochs(2);
    let clf = LookHdClassifier::fit(&config, &xs, &ys).expect("training failed");
    (clf.to_bytes().expect("serialization failed"), queries)
}

/// A handful of firehose connections each pipeline thousands of requests
/// in one burst — far more buffered bytes per socket than the reactor's
/// maximum per-round read budget — while polite closed-loop clients share
/// the same single reactor. The polite clients' p99 stays under a
/// generous bound (they are not starved behind the firehose backlog),
/// every request from both populations is answered correctly, and the
/// reactor records at least one budget exhaustion in
/// `serve.fairness_deferrals`.
#[test]
fn firehose_client_cannot_starve_polite_clients() {
    const FIREHOSES: usize = 4;
    const FIREHOSE_REQUESTS: usize = 4000;
    const POLITE: usize = 4;
    const POLITE_ROUNDS: usize = 100;
    /// Generous: polite round trips share the reactor with the firehose
    /// backlog, so they wait rounds — but must never wait out the
    /// firehose.
    const POLITE_P99_BOUND: Duration = Duration::from_secs(5);

    let (bytes, queries) = trained_bytes();
    let direct = LookHdClassifier::from_bytes(&bytes).expect("reload failed");
    let expected: Arc<Vec<usize>> = Arc::new(
        queries
            .iter()
            .map(|q| direct.predict(q).expect("direct predict failed"))
            .collect(),
    );
    let queries = Arc::new(queries);

    obs::set_enabled(true);

    let model = Arc::new(LookHdClassifier::from_bytes(&bytes).expect("model load failed"));
    let handle = serve::start(
        "127.0.0.1:0",
        model,
        ServeConfig::new()
            .with_reactors(1) // everyone shares one reactor thread
            .with_max_conns(64),
    )
    .expect("bind failed");
    let addr = handle.addr();

    let mut polite_latencies: Vec<Vec<Duration>> = Vec::new();
    std::thread::scope(|scope| {
        let mut firehoses = Vec::new();
        for f in 0..FIREHOSES {
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            firehoses.push(scope.spawn(move || {
                let mut client =
                    Client::connect(addr).unwrap_or_else(|e| panic!("firehose {f} connect: {e}"));
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .unwrap();
                // Blast the whole quota before reading anything: the
                // socket's receive queue on the server side stays far
                // deeper than any single round's read budget.
                for i in 0..FIREHOSE_REQUESTS {
                    let q = (f + i) % queries.len();
                    client
                        .send(&Request::Predict {
                            id: i as u64,
                            trace_id: 0,
                            features: queries[q].clone(),
                        })
                        .expect("firehose send failed");
                }
                // Match responses by id.
                let mut seen = vec![false; FIREHOSE_REQUESTS];
                for _ in 0..FIREHOSE_REQUESTS {
                    match client.recv().expect("firehose recv failed") {
                        Response::Predict { id, class, .. } => {
                            let i = usize::try_from(id).unwrap();
                            assert!(!std::mem::replace(&mut seen[i], true), "duplicate id {id}");
                            let q = (f + i) % queries.len();
                            assert_eq!(class as usize, expected[q], "firehose answer diverged");
                        }
                        other => panic!("unexpected firehose response {other:?}"),
                    }
                }
            }));
        }

        let polite: Vec<_> = (0..POLITE)
            .map(|p| {
                let queries = Arc::clone(&queries);
                let expected = Arc::clone(&expected);
                scope.spawn(move || {
                    let mut client =
                        Client::connect(addr).unwrap_or_else(|e| panic!("polite {p} connect: {e}"));
                    client
                        .set_read_timeout(Some(Duration::from_secs(60)))
                        .unwrap();
                    let mut latencies = Vec::with_capacity(POLITE_ROUNDS);
                    for r in 0..POLITE_ROUNDS {
                        let q = (p + r) % queries.len();
                        let started = Instant::now();
                        match client
                            .predict(r as u64, &queries[q])
                            .expect("polite predict failed")
                        {
                            Response::Predict { id, class, .. } => {
                                assert_eq!(id, r as u64);
                                assert_eq!(class as usize, expected[q], "polite answer diverged");
                            }
                            other => panic!("unexpected polite response {other:?}"),
                        }
                        latencies.push(started.elapsed());
                    }
                    latencies
                })
            })
            .collect();

        for handle in firehoses {
            handle.join().expect("firehose thread panicked");
        }
        for handle in polite {
            polite_latencies.push(handle.join().expect("polite thread panicked"));
        }
    });

    // Polite tail latency: the firehose backlog must not starve the
    // closed-loop clients sharing its reactor.
    let mut all: Vec<Duration> = polite_latencies.into_iter().flatten().collect();
    all.sort_unstable();
    let p99 = all[(all.len() * 99) / 100 - 1];
    assert!(
        p99 < POLITE_P99_BOUND,
        "polite p99 {p99:?} exceeded {POLITE_P99_BOUND:?} — firehose starved polite clients"
    );

    // Each firehose socket buffered far more than the maximum per-round
    // budget, so the reactor must have deferred at least once.
    let deferrals = obs::snapshot().counter("serve.fairness_deferrals");
    assert!(
        deferrals > 0,
        "expected at least one read-budget deferral under firehose load"
    );

    handle.shutdown();
    handle.join();
}

/// Raw-byte differential: pipeline requests over a plain `TcpStream`
/// (written in 3-byte slivers to force partial-frame reads, mid-frame
/// compaction, and repeated ET re-arms on the server) and compare the
/// complete response byte stream against the locally computed expected
/// encoding. Predicts are answered in request order on their
/// connection, so the comparison is exact: ET + zero-copy decode +
/// per-chunk flushes must change no bytes.
#[test]
fn edge_triggered_zero_copy_keeps_response_bytes_identical() {
    const REQUESTS: usize = 200;

    let (bytes, queries) = trained_bytes();
    let direct = LookHdClassifier::from_bytes(&bytes).expect("reload failed");

    let model = Arc::new(LookHdClassifier::from_bytes(&bytes).expect("model load failed"));
    let handle = serve::start("127.0.0.1:0", model, ServeConfig::new()).expect("bind failed");

    // Build the request byte stream and, in lockstep, the exact byte
    // stream the server must answer with. Odd requests use the traced v2
    // layout so both frame versions cross the zero-copy path.
    let mut outbound = Vec::new();
    let mut expected = Vec::new();
    for i in 0..REQUESTS {
        let q = i % queries.len();
        let trace_id = if i % 2 == 1 { i as u64 + 1 } else { 0 };
        let body = encode_request(&Request::Predict {
            id: i as u64,
            trace_id,
            features: queries[q].clone(),
        });
        outbound.extend_from_slice(&u32::try_from(body.len()).unwrap().to_le_bytes());
        outbound.extend_from_slice(&body);

        let class = direct.predict(&queries[q]).expect("direct predict failed");
        let reply = encode_response(&Response::Predict {
            id: i as u64,
            trace_id,
            class: u32::try_from(class).unwrap(),
        });
        expected.extend_from_slice(&u32::try_from(reply.len()).unwrap().to_le_bytes());
        expected.extend_from_slice(&reply);
    }

    let mut stream = TcpStream::connect(handle.addr()).expect("connect failed");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.set_nodelay(true).unwrap();

    // Reader first, writer second: the server answers while the writer
    // is still dribbling slivers, so responses interleave with partial
    // request frames in the decoder buffer.
    let mut actual = vec![0u8; expected.len()];
    std::thread::scope(|scope| {
        let mut reader = stream.try_clone().expect("clone failed");
        let actual = &mut actual;
        scope.spawn(move || {
            reader.read_exact(actual).expect("short response stream");
        });
        for sliver in outbound.chunks(3) {
            stream.write_all(sliver).expect("sliver write failed");
        }
    });
    assert_eq!(
        actual, expected,
        "response bytes diverged from the direct-predict encoding"
    );

    handle.shutdown();
    handle.join();
}
