//! Telemetry under fire: concurrent admin scrapes during live model
//! hot-swap, and snapshot determinism under 8 writer threads.
//!
//! Pins the observability contract the sharded registry makes to its
//! consumers:
//!
//! * admin scrapes racing live traffic and hot-swaps never see a torn
//!   windowed read (`w10`/`w60` always ≤ the cumulative value, per
//!   entry, on every scrape);
//! * the `model_version` label on `serve.predictions` flips atomically
//!   with the swap — every ok predict lands on exactly one version
//!   label, the labels observed are exactly the versions that were
//!   live, and the totals add up to the request count with nothing
//!   double- or un-labeled;
//! * snapshots are sorted by (name, labels) and deterministic: with
//!   writers stopped and the window clock frozen, two back-to-back
//!   snapshots are bit-identical even after 8 threads hammered the
//!   same labeled metrics concurrently;
//! * `/healthz` flips to 503 (`draining`) once shutdown begins.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use lookhd_paper::hdc::FitClassifier;
use lookhd_paper::lookhd::{CompressionConfig, KernelSpec, LookHdClassifier, LookHdConfig};
use lookhd_paper::obs;
use lookhd_paper::serve::{
    http_get, http_get_status, start_admin_with, start_online, AdminOptions, Client, OnlineConfig,
    Request, Response, ServeConfig,
};

/// The global obs registry is process-wide; tests in this binary must
/// not interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

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

/// Asserts the snapshot ordering + windowed-read invariants that every
/// concurrent scrape must uphold, torn reads included.
fn assert_snapshot_consistent(snapshot: &obs::Snapshot) {
    for pair in snapshot.counters.windows(2) {
        assert!(
            (&pair[0].name, &pair[0].labels) < (&pair[1].name, &pair[1].labels),
            "counters out of order: {:?} then {:?}",
            (&pair[0].name, &pair[0].labels),
            (&pair[1].name, &pair[1].labels),
        );
    }
    for pair in snapshot.spans.windows(2) {
        assert!(
            (&pair[0].path, &pair[0].labels) < (&pair[1].path, &pair[1].labels),
            "spans out of order: {:?} then {:?}",
            (&pair[0].path, &pair[0].labels),
            (&pair[1].path, &pair[1].labels),
        );
    }
    for c in &snapshot.counters {
        assert!(
            c.w10 <= c.value && c.w60 <= c.value,
            "torn windowed counter read: {}{:?} w10={} w60={} value={}",
            c.name,
            c.labels,
            c.w10,
            c.w60,
            c.value
        );
    }
    for s in &snapshot.spans {
        assert!(
            s.w10.count <= s.count && s.w60.count <= s.count,
            "torn windowed span read: {}{:?} w10={} w60={} count={}",
            s.path,
            s.labels,
            s.w10.count,
            s.w60.count,
            s.count
        );
    }
}

/// Folds per refresh round; 3 rounds = 3 hot-swaps under live scrape +
/// predict load.
const ROUNDS: usize = 3;
const FOLDS_PER_ROUND: usize = 80;
const DRIVERS: usize = 6;
const WINDOW: usize = 3;

#[test]
fn concurrent_scrapes_during_hotswap_stay_consistent_and_version_labels_flip_atomically() {
    let _guard = obs_guard();
    obs::reset();
    obs::set_enabled(true);

    let (xs, ys, queries) = dataset();
    let handle = start_online(
        "127.0.0.1:0",
        trained(),
        ServeConfig::new().with_reactors(2),
        OnlineConfig::new(),
    )
    .expect("bind failed");
    let addr = handle.addr();
    let admin = start_admin_with(
        "127.0.0.1:0",
        AdminOptions::new().with_health(handle.health()),
    )
    .expect("admin bind failed");
    let admin_addr = admin.addr().to_string();

    let done = AtomicBool::new(false);
    let total_predicts = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Drivers: pipelined stamped predicts until the trainer side is
        // done, so every swap happens under live predict + scrape load.
        for d in 0..DRIVERS {
            let (queries, done, total_predicts) = (&queries, &done, &total_predicts);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("driver connect failed");
                client
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                let mut sent = 0usize;
                let mut received = 0usize;
                let recv_one = |client: &mut Client, received: &mut usize| match client
                    .recv()
                    .expect("driver recv failed")
                {
                    Response::PredictStamped { .. } => *received += 1,
                    other => panic!("driver {d}: unexpected response {other:?}"),
                };
                while !done.load(Ordering::SeqCst) {
                    while sent - received < WINDOW {
                        let qi = (d + sent * 7) % queries.len();
                        client
                            .send(&Request::PredictStamped {
                                id: sent as u64,
                                trace_id: (d as u64) << 32 | sent as u64 | 1,
                                features: queries[qi].clone(),
                            })
                            .expect("driver send failed");
                        sent += 1;
                    }
                    recv_one(&mut client, &mut received);
                }
                while received < sent {
                    recv_one(&mut client, &mut received);
                }
                total_predicts.fetch_add(sent, Ordering::SeqCst);
            });
        }

        // Scrapers: hammer the admin HTTP routes and the snapshot API
        // concurrently with traffic and swaps; every read must be
        // internally consistent.
        for _ in 0..2 {
            let (done, admin_addr) = (&done, admin_addr.as_str());
            scope.spawn(move || {
                // Every render below must carry the serve counters, which
                // exist once the first response is counted: start then.
                while !done.load(Ordering::SeqCst)
                    && obs::snapshot().counter("serve.responses.ok") == 0
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let mut scrapes = 0usize;
                while !done.load(Ordering::SeqCst) {
                    let json = http_get(admin_addr, "/metrics.json").expect("scrape failed");
                    assert!(
                        json.contains("\"version\": 3"),
                        "metrics.json is not schema v3"
                    );
                    assert!(json.contains("\"window\""), "v3 window header missing");
                    let prom = http_get(admin_addr, "/metrics").expect("prom scrape failed");
                    assert!(
                        prom.contains("lookhd_serve_responses_ok"),
                        "prometheus render missing serve counters"
                    );
                    // Same data source the admin serves: the full torn-read
                    // and ordering audit on a live concurrent snapshot.
                    let snapshot = obs::snapshot();
                    assert_snapshot_consistent(&snapshot);
                    for c in snapshot
                        .counters
                        .iter()
                        .filter(|c| c.name == "serve.predictions")
                    {
                        let kernel = c.labels.iter().find(|(k, _)| k == "kernel");
                        let version = c.labels.iter().find(|(k, _)| k == "model_version");
                        assert_eq!(
                            kernel.map(|(_, v)| v.as_str()),
                            Some("lut"),
                            "serve.predictions missing kernel label: {:?}",
                            c.labels
                        );
                        let version: u64 = version
                            .map(|(_, v)| v.parse().expect("non-numeric model_version"))
                            .expect("serve.predictions missing model_version label");
                        assert!(
                            (1..=ROUNDS as u64 + 1).contains(&version),
                            "scrape saw a version label ({version}) that was never live"
                        );
                    }
                    // Health stays green while serving (no SLO, no drain).
                    let (status, _) =
                        http_get_status(admin_addr, "/healthz").expect("healthz failed");
                    assert_eq!(status, 200, "healthz degraded while healthy");
                    scrapes += 1;
                }
                assert!(scrapes > 0, "scraper never ran");
            });
        }

        // The feedback thread drives the hot-swaps: strict round trips,
        // one refresh per round.
        let mut client = Client::connect(addr).expect("feedback connect failed");
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut fed = 0u64;
        for round in 0..ROUNDS {
            for _ in 0..FOLDS_PER_ROUND {
                let i = (fed as usize * 11 + round) % xs.len();
                match client
                    .feedback(fed, u32::try_from(ys[i]).unwrap(), &xs[i])
                    .expect("feedback failed")
                {
                    Response::FeedbackAck { id, .. } => assert_eq!(id, fed),
                    other => panic!("unexpected feedback response {other:?}"),
                }
                fed += 1;
            }
            match client
                .refresh(9_000 + round as u64)
                .expect("refresh failed")
            {
                Response::RefreshAck { version, .. } => {
                    assert_eq!(version, round as u64 + 2, "swap version out of order");
                }
                other => panic!("unexpected refresh response {other:?}"),
            }
        }
        done.store(true, Ordering::SeqCst);
    });

    let final_version = ROUNDS as u64 + 1;
    assert_eq!(handle.model_version(), final_version);

    // One more predict after the last swap pins traffic on the final
    // version's label set.
    let mut client = Client::connect(addr).expect("connect failed");
    match client
        .predict_stamped(7, &queries[0])
        .expect("predict failed")
    {
        Response::PredictStamped { version, .. } => assert_eq!(version, final_version),
        other => panic!("unexpected response {other:?}"),
    }
    let total = total_predicts.load(Ordering::SeqCst) as u64 + 1;

    // The atomic-flip ledger: every ok predict bumped exactly one
    // version-labeled serve.predictions cell, so the per-version label
    // sets partition the request count exactly — a response counted
    // under two versions (or none) during a swap would break the sum.
    let snapshot = obs::snapshot();
    assert_snapshot_consistent(&snapshot);
    assert_eq!(
        snapshot.counter("serve.predictions"),
        total,
        "version-labeled predictions do not partition the request count"
    );
    assert!(
        snapshot.counter_labeled(
            "serve.predictions",
            &[
                ("kernel", "lut"),
                ("model_version", &final_version.to_string())
            ],
        ) > 0,
        "no traffic recorded under the post-swap model_version label"
    );
    let labeled_versions: Vec<&str> = snapshot
        .counters
        .iter()
        .filter(|c| c.name == "serve.predictions")
        .filter_map(|c| c.labels.iter().find(|(k, _)| k == "model_version"))
        .map(|(_, v)| v.as_str())
        .collect();
    assert!(
        labeled_versions.len() >= 2,
        "expected traffic on at least two model versions, saw {labeled_versions:?}"
    );

    // The Prometheus render carries the same dimensional labels.
    let prom = http_get(&admin_addr, "/metrics").expect("prom scrape failed");
    assert!(
        prom.contains(&format!(
            "lookhd_serve_predictions{{kernel=\"lut\",model_version=\"{final_version}\"}}"
        )),
        "prometheus output missing the dimensional predictions counter:\n{prom}"
    );
    // Which reactor indices carried traffic depends on accept
    // scheduling, so check the label sets the traffic actually produced:
    // they are non-empty, and the render carries every one of their
    // values.
    for (name, key) in [("serve.reactor.frames", "reactor")] {
        let values: Vec<&str> = snapshot
            .counters
            .iter()
            .filter(|c| c.name == name && c.value > 0)
            .filter_map(|c| c.labels.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v.as_str())
            .collect();
        assert!(!values.is_empty(), "no {name}{{{key}}} label sets recorded");
        for value in values {
            let series = format!("lookhd_{}{{{key}=\"{value}\"}}", name.replace('.', "_"));
            assert!(prom.contains(&series), "prometheus output missing {series}");
        }
    }

    // Shutdown starts the drain; /healthz must degrade to 503 with the
    // reason in the body.
    handle.shutdown();
    let (status, body) = http_get_status(&admin_addr, "/healthz").expect("healthz failed");
    assert_eq!(status, 503, "draining server still reported healthy");
    assert!(
        body.contains("draining"),
        "503 body does not name the drain: {body:?}"
    );
    handle.join();
    admin.shutdown();
    admin.join();

    obs::set_enabled(false);
    obs::reset();
}

#[test]
fn snapshot_is_sorted_and_deterministic_under_8_writer_threads() {
    let _guard = obs_guard();
    obs::reset();
    obs::set_enabled(true);
    // Freeze the window clock so windowed aggregates cannot roll
    // between the two back-to-back snapshots compared below.
    obs::set_window_epoch_for_test(500);

    const WRITERS: usize = 8;
    const OPS: usize = 20_000;

    // Every writer hits its own labeled cell of the same metric names
    // plus one shared unlabeled counter — the worst case for both the
    // shard fold (merge across shards) and the sort (same name, many
    // label sets).
    let shared = obs::intern_counter("scrape.shared", &[]);
    let per_thread: Vec<(obs::MetricId, obs::SpanId)> = (0..WRITERS)
        .map(|t| {
            let label = t.to_string();
            (
                obs::intern_counter("scrape.ops", &[("writer", &label)]),
                obs::intern_span("scrape/work", &[("writer", &label)]),
            )
        })
        .collect();

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        // A concurrent auditor snapshots throughout the write storm.
        let auditor = scope.spawn(move || {
            let mut taken = 0usize;
            while !stop.load(Ordering::SeqCst) {
                assert_snapshot_consistent(&obs::snapshot());
                taken += 1;
            }
            taken
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let per_thread = &per_thread;
                scope.spawn(move || {
                    let (counter, span) = per_thread[t];
                    for i in 0..OPS {
                        obs::counter_id(counter, 1);
                        obs::counter_id(shared, 1);
                        obs::record_id(span, Duration::from_nanos((i % 4096) as u64 + 1));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::SeqCst);
        assert!(auditor.join().expect("auditor panicked") > 0);
    });

    // Quiesced + frozen clock: the fold is exact and repeatable.
    let a = obs::snapshot();
    let b = obs::snapshot();
    assert_snapshot_consistent(&a);
    assert_eq!(
        a, b,
        "back-to-back snapshots diverged after writers stopped"
    );

    assert_eq!(a.counter("scrape.shared"), (WRITERS * OPS) as u64);
    for t in 0..WRITERS {
        let label = t.to_string();
        assert_eq!(
            a.counter_labeled("scrape.ops", &[("writer", &label)]),
            OPS as u64,
            "writer {t} lost counter increments"
        );
    }
    let work: Vec<_> = a.spans.iter().filter(|s| s.path == "scrape/work").collect();
    assert_eq!(
        work.len(),
        WRITERS,
        "expected one span entry per writer label"
    );
    for s in &work {
        assert_eq!(s.count, OPS as u64, "span {:?} lost observations", s.labels);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count, "histogram drifted");
    }

    obs::set_window_epoch_for_test(0);
    obs::set_enabled(false);
    obs::reset();
}
