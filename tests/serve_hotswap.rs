//! Hot-swap soak: online counter training under live pipelined traffic.
//!
//! The acceptance bar of the online-training path: ≥ 1k feedback frames
//! folded into the live trainer while concurrent pipelined clients
//! stream version-stamped predicts, ≥ 3 model hot-swaps land mid-load,
//! and **every** stamped response is bit-identical to a direct predict
//! on the exact model version stamped on it — reconstructed
//! independently by replaying the same feedback stream into a local
//! [`StreamingTrainer`] (valid because `tests/online_differential.rs`
//! pins replay ≡ server-side fold, bit for bit). Zero requests may be
//! dropped or errored. A drain regression pins that a swap racing
//! queued feedback loses nothing, and the drift gate's fold/threshold
//! arms are pinned deterministically.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use lookhd_paper::hdc::{Classifier, FitClassifier};
use lookhd_paper::lookhd::{
    CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig, StreamingTrainer,
};
use lookhd_paper::serve::{start_online, Client, OnlineConfig, Request, Response, ServeConfig};

/// Well-separated 3-class training set (5 features) plus off-grid
/// queries — the serve-soak dataset shape.
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
            vec![t, 1.0 - t, 0.3 + t / 3.0, t * t, 0.9 - t / 2.0]
        })
        .collect();
    (xs, ys, queries)
}

fn trained() -> LookHdClassifier {
    let (xs, ys, _) = dataset();
    let config = LookHdConfig::new()
        .with_dim(256)
        .with_retrain_epochs(0)
        .with_validation_fraction(0.0)
        .with_compression(CompressionConfig::new().with_decorrelate(false))
        .with_kernel(KernelSpec::lut());
    LookHdClassifier::fit(&config, &xs, &ys).expect("fit failed")
}

/// Feedback folds per refresh round; 4 rounds × 300 = 1200 total
/// (≥ 1k) and 4 swaps (≥ 3), all under concurrent predict load.
const ROUNDS: usize = 4;
const FOLDS_PER_ROUND: usize = 300;
const DRIVERS: usize = 6;
/// Outstanding stamped predicts per driver connection.
const WINDOW: usize = 3;

#[test]
fn soak_hotswaps_under_pipelined_load_stay_bit_identical_to_the_stamped_version() {
    let (xs, ys, queries) = dataset();
    let v1 = trained();
    // The local replica: replaying the identical feedback stream
    // reconstructs every server-side version bit for bit.
    let mut replica = StreamingTrainer::from_classifier(&v1).expect("replica failed");

    let handle = start_online(
        "127.0.0.1:0",
        v1.clone(),
        ServeConfig::new().with_reactors(2),
        OnlineConfig::new(),
    )
    .expect("bind failed");
    let addr = handle.addr();

    // Version → the model that served it (version 1 = the initial fit;
    // versions 2..=ROUNDS+1 materialized at each refresh point).
    let expected: Mutex<HashMap<u64, LookHdClassifier>> = Mutex::new(HashMap::new());
    expected.lock().unwrap().insert(1, v1);
    let done = AtomicBool::new(false);
    // (query index, class, version) per driver, verified after the load.
    let observed: Mutex<Vec<(usize, u32, u64)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        // Drivers: pipelined stamped predicts until the trainer side is
        // done, so every swap happens under live concurrent load.
        for d in 0..DRIVERS {
            let (queries, done, observed) = (&queries, &done, &observed);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("driver connect failed");
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut sent: Vec<usize> = Vec::new(); // id → query index
                let mut received = 0usize;
                let mut local = Vec::new();
                let recv_one = |client: &mut Client,
                                sent: &Vec<usize>,
                                received: &mut usize,
                                local: &mut Vec<(usize, u32, u64)>| {
                    match client.recv().expect("driver recv failed") {
                        Response::PredictStamped {
                            id, class, version, ..
                        } => {
                            let qi = sent[usize::try_from(id).unwrap()];
                            local.push((qi, class, version));
                            *received += 1;
                        }
                        other => panic!("driver {d}: unexpected response {other:?}"),
                    }
                };
                while !done.load(Ordering::SeqCst) {
                    while sent.len() - received < WINDOW {
                        let qi = (d + sent.len() * 7) % queries.len();
                        client
                            .send(&Request::PredictStamped {
                                id: sent.len() as u64,
                                trace_id: 0,
                                features: queries[qi].clone(),
                            })
                            .expect("driver send failed");
                        sent.push(qi);
                    }
                    recv_one(&mut client, &sent, &mut received, &mut local);
                }
                while received < sent.len() {
                    recv_one(&mut client, &sent, &mut received, &mut local);
                }
                assert_eq!(received, sent.len(), "driver {d} dropped responses");
                observed.lock().unwrap().extend(local);
            });
        }

        // The feedback thread: strict round trips, so the server folds
        // in exactly this order and the local replica can replay it.
        let mut client = Client::connect(addr).expect("feedback connect failed");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut fed = 0u64;
        for round in 0..ROUNDS {
            for _ in 0..FOLDS_PER_ROUND {
                let i = (fed as usize * 11 + round) % xs.len();
                let label = u32::try_from(ys[i]).unwrap();
                match client
                    .feedback(fed, label, &xs[i])
                    .expect("feedback failed")
                {
                    Response::FeedbackAck {
                        id,
                        version,
                        observed: count,
                        ..
                    } => {
                        assert_eq!(id, fed);
                        assert_eq!(version, round as u64 + 1, "ack on the wrong version");
                        assert_eq!(count, fed + 1, "fold count drifted");
                    }
                    other => panic!("unexpected feedback response {other:?}"),
                }
                replica.observe(&xs[i], ys[i]).expect("replica observe");
                fed += 1;
            }
            match client
                .refresh(1_000_000 + round as u64)
                .expect("refresh failed")
            {
                Response::RefreshAck { version, .. } => {
                    assert_eq!(version, round as u64 + 2, "swap version out of order");
                    let model = replica.materialize().expect("replica materialize");
                    expected.lock().unwrap().insert(version, model);
                }
                other => panic!("unexpected refresh response {other:?}"),
            }
        }
        done.store(true, Ordering::SeqCst);
    });

    assert_eq!(
        handle.model_version(),
        ROUNDS as u64 + 1,
        "expected {ROUNDS} hot-swaps"
    );

    // Every stamped response must be bit-identical to a direct predict
    // on the version stamped on it.
    let expected = expected.into_inner().unwrap();
    let observed = observed.into_inner().unwrap();
    assert!(
        observed.len() as u64 >= DRIVERS as u64,
        "drivers produced no traffic"
    );
    let mut versions_seen: Vec<u64> = observed.iter().map(|&(_, _, v)| v).collect();
    versions_seen.sort_unstable();
    versions_seen.dedup();
    assert!(
        versions_seen.len() >= 3,
        "load finished before 3 swaps were observed (saw versions {versions_seen:?})"
    );
    for &(qi, class, version) in &observed {
        let model = expected
            .get(&version)
            .unwrap_or_else(|| panic!("response stamped with unknown version {version}"));
        let direct = model.predict(&queries[qi]).expect("direct predict failed");
        assert_eq!(
            class as usize, direct,
            "response on version {version} diverged from direct predict (query {qi})"
        );
    }

    // A fresh client lands on the final version.
    let mut client = Client::connect(addr).expect("connect failed");
    match client
        .predict_stamped(7, &queries[0])
        .expect("predict failed")
    {
        Response::PredictStamped { version, class, .. } => {
            assert_eq!(version, ROUNDS as u64 + 1);
            let direct = expected[&version].predict(&queries[0]).unwrap();
            assert_eq!(class as usize, direct);
        }
        other => panic!("unexpected response {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn swap_racing_queued_feedback_drains_without_loss() {
    let (xs, ys, _) = dataset();
    let handle = start_online(
        "127.0.0.1:0",
        trained(),
        ServeConfig::new(),
        OnlineConfig::new(),
    )
    .expect("bind failed");

    // Pipeline a burst of feedback, with a refresh racing it from a
    // second connection: the swap must not drop or reorder queued folds.
    let mut feeder = Client::connect(handle.addr()).unwrap();
    feeder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    const BURST: usize = 200;
    for k in 0..BURST {
        let i = k % xs.len();
        feeder
            .send(&Request::Feedback {
                id: k as u64,
                trace_id: 0,
                label: u32::try_from(ys[i]).unwrap(),
                features: xs[i].clone(),
            })
            .expect("send failed");
        if k == BURST / 2 {
            // Mid-burst swap from another connection.
            let mut swapper = Client::connect(handle.addr()).unwrap();
            match swapper.refresh(u64::MAX - 1).expect("refresh failed") {
                Response::RefreshAck { version, .. } => assert_eq!(version, 2),
                other => panic!("unexpected refresh response {other:?}"),
            }
        }
    }
    let mut counts_seen = Vec::with_capacity(BURST);
    let mut versions = Vec::with_capacity(BURST);
    for _ in 0..BURST {
        match feeder.recv().expect("recv failed") {
            Response::FeedbackAck {
                observed, version, ..
            } => {
                counts_seen.push(observed);
                versions.push(version);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // No fold lost, none double-counted: the running count is exactly
    // 1..=BURST in order, whatever the swap timing.
    let want: Vec<u64> = (1..=BURST as u64).collect();
    assert_eq!(
        counts_seen, want,
        "feedback folds lost or reordered across the swap"
    );
    // The version sequence is monotone 1 → 2 (the swap interleaves at
    // one point, never flaps back).
    assert!(
        versions.windows(2).all(|w| w[0] <= w[1]),
        "version went backwards across the swap: {versions:?}"
    );
    assert_eq!(*versions.last().unwrap(), 2, "swap never landed");

    handle.shutdown();
    handle.join();
}

#[test]
fn auto_refresh_fires_on_the_fold_gate_exactly() {
    let (xs, ys, _) = dataset();
    // Threshold 0 disables the drift arm: the fold count alone swaps.
    let handle = start_online(
        "127.0.0.1:0",
        trained(),
        ServeConfig::new(),
        OnlineConfig::new()
            .with_auto_refresh_min_folds(20)
            .with_drift_threshold(0.0),
    )
    .expect("bind failed");
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    // Folds 1..=20 are acked on version 1; the 20th triggers the swap,
    // so folds 21..=40 ack on version 2, and 41..=45 on version 3.
    for k in 0..45u64 {
        let i = k as usize % xs.len();
        match client
            .feedback(k, u32::try_from(ys[i]).unwrap(), &xs[i])
            .expect("feedback failed")
        {
            Response::FeedbackAck { version, .. } => {
                let want = 1 + k / 20;
                assert_eq!(version, want, "fold {k} acked on the wrong version");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(handle.model_version(), 3);
    handle.shutdown();
    handle.join();
}

#[test]
fn auto_refresh_respects_the_drift_threshold() {
    let (xs, ys, _) = dataset();
    // An unreachable drift bar: with no predict traffic the drift score
    // is 0, so the fold gate alone must NOT swap.
    let handle = start_online(
        "127.0.0.1:0",
        trained(),
        ServeConfig::new(),
        OnlineConfig::new()
            .with_auto_refresh_min_folds(5)
            .with_drift_threshold(1.0),
    )
    .expect("bind failed");
    let mut client = Client::connect(handle.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for k in 0..15u64 {
        let i = k as usize % xs.len();
        match client
            .feedback(k, u32::try_from(ys[i]).unwrap(), &xs[i])
            .expect("feedback failed")
        {
            Response::FeedbackAck { version, .. } => assert_eq!(version, 1),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(
        handle.model_version(),
        1,
        "drift gate failed to hold the swap"
    );
    // Manual refresh still works regardless of the gate.
    match client.refresh(99).expect("refresh failed") {
        Response::RefreshAck { version, .. } => assert_eq!(version, 2),
        other => panic!("unexpected response {other:?}"),
    }
    handle.shutdown();
    handle.join();
}
