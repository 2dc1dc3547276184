//! High-concurrency soak and admission-control tests for the readiness-
//! based serve event loop.
//!
//! The acceptance bar of the reactor rewrite: a thousand-plus concurrent
//! pipelined connections served with responses **bit-identical** to the
//! direct single-threaded predict path and zero drops, the connection
//! cap at accept answering with an explicit `Overloaded` error instead
//! of a hang, and event-driven shutdown that
//! wakes the reactors without the old self-connect hack — including on
//! `0.0.0.0` binds, where self-connect used to wedge `join()`.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use lookhd_paper::prelude::*;
use lookhd_paper::serve::{self, Client, ErrorCode, Request, Response, ServeConfig};

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

/// ≥1k concurrent pipelined connections, every response bit-identical to
/// the direct predict path, zero drops. Connections are all opened (and
/// verified accepted) before any load is issued, so the server really
/// holds the full population concurrently.
#[test]
fn soak_1k_pipelined_connections_stay_bit_identical() {
    const CONNS: usize = 1024;
    const DRIVERS: usize = 8;
    const WINDOW: usize = 3;

    let (bytes, queries) = trained_bytes();
    let direct = LookHdClassifier::from_bytes(&bytes).expect("reload failed");
    let expected: Arc<Vec<usize>> = Arc::new(
        queries
            .iter()
            .map(|q| direct.predict(q).expect("direct predict failed"))
            .collect(),
    );
    let queries = Arc::new(queries);

    let model = Arc::new(LookHdClassifier::from_bytes(&bytes).expect("model load failed"));
    let handle = serve::start(
        "127.0.0.1:0",
        model,
        ServeConfig::new()
            .with_reactors(2)
            .with_max_conns(2 * CONNS),
    )
    .expect("bind failed");
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for driver in 0..DRIVERS {
            let queries = Arc::clone(&queries);
            let expected = Arc::clone(&expected);
            scope.spawn(move || {
                // Phase 1: open this driver's share of the population and
                // prove each connection live with one round trip, so all
                // CONNS sockets are concurrently accepted before the
                // pipelined load starts.
                let mut clients: Vec<Client> = (0..CONNS / DRIVERS)
                    .map(|i| {
                        let client = Client::connect(addr)
                            .unwrap_or_else(|e| panic!("driver {driver} conn {i}: {e}"));
                        client
                            .set_read_timeout(Some(Duration::from_secs(30)))
                            .unwrap();
                        client
                    })
                    .collect();
                for (i, client) in clients.iter_mut().enumerate() {
                    let q = (driver + i) % queries.len();
                    match client
                        .predict(q as u64, &queries[q])
                        .expect("warmup failed")
                    {
                        Response::Predict { id, class, .. } => {
                            assert_eq!(id, q as u64);
                            assert_eq!(class as usize, expected[q], "warmup {q} diverged");
                        }
                        other => panic!("unexpected warmup response {other:?}"),
                    }
                }
                // Phase 2: WINDOW pipelined requests on every connection,
                // then collect; responses are matched by id.
                for (i, client) in clients.iter_mut().enumerate() {
                    for w in 0..WINDOW {
                        let q = (driver + i + w) % queries.len();
                        // Odd drivers speak the traced v2 layout.
                        let trace_id = if driver % 2 == 1 { q as u64 + 1 } else { 0 };
                        client
                            .send(&Request::Predict {
                                id: q as u64,
                                trace_id,
                                features: queries[q].clone(),
                            })
                            .expect("pipelined send failed");
                    }
                }
                for client in clients.iter_mut() {
                    for _ in 0..WINDOW {
                        match client.recv().expect("pipelined recv failed") {
                            Response::Predict {
                                id,
                                trace_id,
                                class,
                            } => {
                                let q = id as usize;
                                let want_trace = if driver % 2 == 1 { id + 1 } else { 0 };
                                assert_eq!(trace_id, want_trace, "trace id not echoed");
                                assert_eq!(
                                    class as usize, expected[q],
                                    "pipelined query {q} diverged under 1k-connection load"
                                );
                            }
                            other => panic!("unexpected soak response {other:?}"),
                        }
                    }
                }
            });
        }
    });

    handle.shutdown();
    handle.join();
}

/// Connections beyond `max_conns` are rejected at accept with an
/// explicit `Overloaded` error frame and an immediate close, while the
/// admitted population keeps serving.
#[test]
fn connection_cap_rejects_excess_connections_with_overloaded() {
    const CAP: usize = 4;

    let (bytes, queries) = trained_bytes();
    let model = Arc::new(LookHdClassifier::from_bytes(&bytes).expect("model load failed"));
    let handle = serve::start("127.0.0.1:0", model, ServeConfig::new().with_max_conns(CAP))
        .expect("bind failed");
    let addr = handle.addr();

    // Fill the cap, proving each admitted connection live (the round
    // trips also guarantee all CAP accepts happened before the probe).
    let mut admitted: Vec<Client> = (0..CAP)
        .map(|i| {
            let mut client = Client::connect(addr).expect("connect failed");
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            match client
                .predict(i as u64, &queries[0])
                .expect("predict failed")
            {
                Response::Predict { id, .. } => assert_eq!(id, i as u64),
                other => panic!("unexpected response {other:?}"),
            }
            client
        })
        .collect();

    // The CAP+1'th connection gets one Overloaded frame, then EOF.
    let mut probe = Client::connect(addr).expect("probe connect failed");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match probe.recv().expect("rejection frame expected") {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Overloaded, "{message}");
            assert!(
                message.contains("connection"),
                "rejection should name the connection cap: {message}"
            );
        }
        other => panic!("expected Overloaded rejection, got {other:?}"),
    }
    assert!(
        probe.recv().is_err(),
        "rejected connection must be closed after the error frame"
    );

    // The admitted population is unaffected by the rejection.
    for (i, client) in admitted.iter_mut().enumerate() {
        match client
            .predict(100 + i as u64, &queries[1])
            .expect("post-rejection predict failed")
        {
            Response::Predict { id, .. } => assert_eq!(id, 100 + i as u64),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Closing an admitted connection frees its slot for a newcomer.
    drop(admitted.pop());
    let mut retry = None;
    for _ in 0..100 {
        let mut client = Client::connect(addr).expect("retry connect failed");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        match client.predict(999, &queries[0]) {
            Ok(Response::Predict { id, .. }) => {
                assert_eq!(id, 999);
                retry = Some(client);
                break;
            }
            // The reactor may not have reaped the closed socket yet.
            _ => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    assert!(
        retry.is_some(),
        "freed slot was never granted to a newcomer"
    );

    handle.shutdown();
    handle.join();
}

/// `shutdown()` + `join()` complete promptly on a `0.0.0.0` bind with
/// live idle connections — the regression the event-driven drain fixes:
/// the old accept-loop unblocking self-connected to `local_addr()`,
/// which on an unspecified bind address never reached the listener and
/// wedged `join()` forever.
#[test]
fn shutdown_wakes_reactors_on_unspecified_bind() {
    let (bytes, queries) = trained_bytes();
    let model = Arc::new(LookHdClassifier::from_bytes(&bytes).expect("model load failed"));
    let handle = serve::start("0.0.0.0:0", model, ServeConfig::new()).expect("bind failed");
    let port = handle.addr().port();

    // An idle connection (no pending request) must not block the drain.
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    match client.predict(7, &queries[0]).expect("predict failed") {
        Response::Predict { id, .. } => assert_eq!(id, 7),
        other => panic!("unexpected response {other:?}"),
    }

    handle.shutdown();
    let (done_tx, done_rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        handle.join();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("join() wedged after shutdown on a 0.0.0.0 bind");
    joiner.join().unwrap();
}
