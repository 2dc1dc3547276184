//! Differential equivalence of the batched inference server: every
//! response from `lookhd-serve` must be **bit-identical** to a direct
//! single-threaded `Classifier::predict` call on the same deserialized
//! model, regardless of reactor count, thread interleaving, or
//! pipelining depth: the served ≡ direct-predict contract, across the
//! wire.

use std::sync::Arc;
use std::time::Duration;

use lookhd_paper::prelude::*;
use lookhd_paper::serve::{self, Client, Request, Response, ServeConfig};

/// Reactor counts the acceptance criteria pin: each reactor scores the
/// frames of its own connections, so this is the serving parallelism.
const REACTORS: [usize; 3] = [1, 2, 3];

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

/// Every reactor count serves predictions identical to the direct
/// single-threaded path on the same model bytes, under concurrent
/// clients with varied pipelining interleavings.
#[test]
fn server_matches_direct_predictions_for_all_configs() {
    let (bytes, queries) = trained_bytes();
    let direct = LookHdClassifier::from_bytes(&bytes).expect("reload failed");
    let expected: Vec<usize> = queries
        .iter()
        .map(|q| direct.predict(q).expect("direct predict failed"))
        .collect();
    let queries = Arc::new(queries);
    let expected = Arc::new(expected);

    for reactors in REACTORS {
        let model = Arc::new(LookHdClassifier::from_bytes(&bytes).expect("model load failed"));
        let config = ServeConfig::new().with_reactors(reactors);
        let handle = serve::start("127.0.0.1:0", model, config).expect("bind failed");
        let addr = handle.addr();

        // 4 concurrent client threads, each with a different
        // pipelining window so request interleavings vary: windows of
        // 1 (strict request/response), 3, 5, and the whole set.
        std::thread::scope(|scope| {
            for (thread_idx, window) in [1usize, 3, 5, usize::MAX].into_iter().enumerate() {
                let queries = Arc::clone(&queries);
                let expected = Arc::clone(&expected);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect failed");
                    client
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    let window = window.min(queries.len());
                    // Odd-numbered clients speak the traced v2 wire
                    // layout, even ones stay on v1 — the server must
                    // serve the mixed population identically.
                    let trace_of = |id: u64| {
                        if thread_idx % 2 == 1 {
                            id + 1000
                        } else {
                            0
                        }
                    };
                    let mut next_send = 0usize;
                    let mut outstanding = 0usize;
                    let mut seen = 0usize;
                    while seen < queries.len() {
                        while outstanding < window && next_send < queries.len() {
                            client
                                .send(&Request::Predict {
                                    id: next_send as u64,
                                    trace_id: trace_of(next_send as u64),
                                    features: queries[next_send].clone(),
                                })
                                .expect("send failed");
                            next_send += 1;
                            outstanding += 1;
                        }
                        match client.recv().expect("recv failed") {
                            Response::Predict {
                                id,
                                trace_id,
                                class,
                            } => {
                                let idx = id as usize;
                                assert_eq!(
                                    trace_id,
                                    trace_of(id),
                                    "client {thread_idx}: trace id not echoed"
                                );
                                assert_eq!(
                                    class as usize, expected[idx],
                                    "client {thread_idx}: query {idx} diverged \
                                         (reactors={reactors})"
                                );
                            }
                            other => panic!(
                                "client {thread_idx}: unexpected response {other:?} \
                                     (reactors={reactors})"
                            ),
                        }
                        outstanding -= 1;
                        seen += 1;
                    }
                });
            }
        });

        handle.shutdown();
        handle.join();
    }
}

/// An LKS1 artifact carrying the score-LUT kernel serves responses
/// byte-identical to the dense-path server for every reactor count: the
/// kernel is an exact integer refactoring of the dense scoring, so only
/// latency may differ, never a class.
#[test]
fn score_lut_kernel_serves_identically_to_dense_path() {
    let (xs, ys, queries) = dataset();
    // Train the dense sibling with the same (default, decorrelated)
    // compression so both models are identical up to the kernel; the
    // score-LUT carries the whitening projection as one more column.
    let base = LookHdConfig::new().with_dim(256).with_retrain_epochs(2);
    let dense = LookHdClassifier::fit(&base, &xs, &ys).expect("dense training failed");
    let fast = LookHdClassifier::fit(
        &base
            .clone()
            .with_kernel(lookhd_paper::lookhd::KernelSpec::auto()),
        &xs,
        &ys,
    )
    .expect("lut training");
    assert!(fast.score_lut().is_some(), "kernel should have been built");
    let lut_bytes = fast.to_bytes().expect("serialization failed");
    // The kernel survives the LKS1 round trip into the served model.
    let reloaded = LookHdClassifier::from_bytes(&lut_bytes).expect("reload failed");
    assert!(reloaded.score_lut().is_some(), "kernel lost in round trip");

    let expected: Vec<usize> = queries
        .iter()
        .map(|q| dense.predict(q).expect("dense predict failed"))
        .collect();
    for reactors in REACTORS {
        let model = Arc::new(LookHdClassifier::from_bytes(&lut_bytes).expect("model load failed"));
        let handle = serve::start(
            "127.0.0.1:0",
            model,
            ServeConfig::new().with_reactors(reactors),
        )
        .expect("bind failed");
        let mut client = Client::connect(handle.addr()).expect("connect failed");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for (i, q) in queries.iter().enumerate() {
            match client.predict(i as u64, q).expect("round trip failed") {
                Response::Predict { id, class, .. } => {
                    assert_eq!(id, i as u64);
                    assert_eq!(
                        class as usize, expected[i],
                        "score-LUT server diverged from dense path on query {i} \
                             (reactors={reactors})"
                    );
                }
                other => panic!(
                    "unexpected response {other:?} \
                         (reactors={reactors})"
                ),
            }
        }
        handle.shutdown();
        handle.join();
    }
}

/// With the metrics registry *and* the trace ring enabled, a server
/// facing mixed v1/v2 clients still answers bit-identically to the
/// direct path — tracing is pure observation — and every traced request
/// leaves a complete decode → predict → encode span chain in the ring,
/// keyed by its client trace id.
#[test]
fn tracing_enabled_keeps_responses_identical_and_records_span_chains() {
    use lookhd_paper::obs;

    let (bytes, queries) = trained_bytes();
    let direct = LookHdClassifier::from_bytes(&bytes).expect("reload failed");
    let expected: Vec<usize> = queries
        .iter()
        .map(|q| direct.predict(q).expect("direct predict failed"))
        .collect();

    obs::set_enabled(true);
    obs::trace::set_enabled(true);
    obs::trace::reset();

    let model = Arc::new(LookHdClassifier::from_bytes(&bytes).expect("model load failed"));
    let handle = serve::start("127.0.0.1:0", model, ServeConfig::new()).expect("bind failed");
    let mut v2 = Client::connect(handle.addr()).expect("connect failed");
    let mut v1 = Client::connect(handle.addr()).expect("connect failed");
    for client in [&mut v2, &mut v1] {
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
    }
    for (i, q) in queries.iter().enumerate() {
        let id = i as u64;
        let trace_id = id + 1;
        match v2
            .predict_traced(id, trace_id, q)
            .expect("traced round trip failed")
        {
            Response::Predict {
                id: got,
                trace_id: got_trace,
                class,
            } => {
                assert_eq!((got, got_trace), (id, trace_id));
                assert_eq!(class as usize, expected[i], "traced query {i} diverged");
            }
            other => panic!("unexpected traced response {other:?}"),
        }
        match v1.predict(id, q).expect("v1 round trip failed") {
            Response::Predict {
                id: got,
                trace_id: 0,
                class,
            } => {
                assert_eq!(got, id);
                assert_eq!(class as usize, expected[i], "v1 query {i} diverged");
            }
            other => panic!("unexpected v1 response {other:?}"),
        }
    }
    handle.shutdown();
    handle.join();

    // Every traced request left its full three-stage span chain; the v1
    // client (trace id 0) left none.
    let events = obs::trace::events();
    const STAGES: [&str; 3] = ["decode", "predict", "encode"];
    for i in 0..queries.len() {
        let trace_id = i as u64 + 1;
        for stage in STAGES {
            let begins = events
                .iter()
                .filter(|e| {
                    e.trace_id == trace_id && e.name == stage && e.phase == obs::trace::Phase::Begin
                })
                .count();
            let ends = events
                .iter()
                .filter(|e| {
                    e.trace_id == trace_id && e.name == stage && e.phase == obs::trace::Phase::End
                })
                .count();
            assert_eq!(
                (begins, ends),
                (1, 1),
                "trace {trace_id} stage {stage}: want exactly one begin/end pair"
            );
        }
    }
    assert!(
        events.iter().all(|e| e.trace_id != 0),
        "untraced requests must not emit events"
    );
    // The export is Chrome trace-event JSON carrying (at least) one b/e
    // pair per stage per traced request. Other tests in this binary may
    // be emitting concurrently, so the counts are lower bounds.
    let chrome = obs::trace::to_chrome_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"id\": \"0x1\""));
    assert!(chrome.matches("\"ph\": \"b\"").count() >= STAGES.len() * queries.len());

    obs::trace::set_enabled(false);
    obs::trace::reset();
    obs::set_enabled(false);
}

/// Repeating the same query through different server configurations
/// always yields the same class — servers are stateless and
/// deterministic end to end.
#[test]
fn repeated_queries_are_stable_across_server_restarts() {
    let (bytes, queries) = trained_bytes();
    let mut first: Option<Vec<u32>> = None;
    for reactors in REACTORS {
        let model = Arc::new(LookHdClassifier::from_bytes(&bytes).unwrap());
        let handle = serve::start(
            "127.0.0.1:0",
            model,
            ServeConfig::new().with_reactors(reactors),
        )
        .expect("bind failed");
        let mut client = Client::connect(handle.addr()).expect("connect failed");
        let classes: Vec<u32> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| match client.predict(i as u64, q).unwrap() {
                Response::Predict { class, .. } => class,
                other => panic!("unexpected response {other:?}"),
            })
            .collect();
        match &first {
            None => first = Some(classes),
            Some(reference) => {
                assert_eq!(&classes, reference, "server (reactors={reactors}) diverged")
            }
        }
        handle.shutdown();
        handle.join();
    }
}
