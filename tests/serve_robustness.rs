//! Robustness tests for the run-to-completion server's flow control:
//! a slow model cannot let one pipelining connection hold the reactor
//! that scores its frames, a full trainer queue answers `Overloaded`
//! without holding the connection open, and graceful shutdown answers
//! every request the server read — predicts and accepted trainer
//! commands alike — before its threads exit, refusing refreshes queued
//! past the drain grace so a long queue cannot hold the join open.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use lookhd_paper::datasets::apps::App;
use lookhd_paper::hdc::{Classifier, FitClassifier, HdcError, Result as HdcResult};
use lookhd_paper::lookhd::{LookHdClassifier, LookHdConfig, StreamingTrainer};
use lookhd_paper::obs;
use lookhd_paper::serve::{
    self, Client, ErrorCode, OnlineConfig, Request, Response, ServeConfig, WireError,
};

/// Sign-of-first-feature classifier that sleeps in `predict`, simulating
/// an expensive model so pipelined requests pile up on the reactor.
struct SlowStub {
    delay: Duration,
}

impl Classifier for SlowStub {
    fn num_classes(&self) -> usize {
        2
    }

    fn predict(&self, features: &[f64]) -> HdcResult<usize> {
        std::thread::sleep(self.delay);
        match features.first() {
            Some(&v) => Ok(usize::from(v >= 0.0)),
            None => Err(HdcError::invalid_dataset("empty feature vector")),
        }
    }
}

fn start_slow(delay: Duration, config: ServeConfig) -> serve::ServerHandle {
    serve::start("127.0.0.1:0", Arc::new(SlowStub { delay }), config).expect("bind failed")
}

/// Predicts are scored on the reactor thread, so a slow model must not
/// let one connection hold its reactor: a firehose connection that
/// pipelines far more frames than the per-round frame budget is
/// deferred after each budget's worth, and a polite client sharing the
/// reactor waits at most one budget of model calls plus its own.
#[test]
fn slow_model_cannot_let_one_connection_hold_its_reactor() {
    /// The reactor's per-connection frame budget per round.
    const ROUND_FRAMES: u32 = 16;
    const DELAY: Duration = Duration::from_millis(20);
    const FIREHOSE: u64 = 200;
    /// Scheduling slack on a shared host.
    const SLACK: Duration = Duration::from_millis(250);

    obs::set_enabled(true);
    let deferrals_before = obs::snapshot().counter("serve.fairness_deferrals");
    // The default configuration runs one reactor: both clients share it.
    let handle = start_slow(DELAY, ServeConfig::new());
    let mut firehose = Client::connect(handle.addr()).expect("connect failed");
    let mut polite = Client::connect(handle.addr()).expect("connect failed");
    for client in [&mut firehose, &mut polite] {
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        // A round trip proves the connection accepted and registered
        // before the load starts.
        assert_eq!(
            client.ping(0).expect("ping failed"),
            Response::Pong { id: 0 }
        );
    }

    for id in 1..=FIREHOSE {
        firehose
            .send(&Request::Predict {
                id,
                trace_id: 0,
                features: vec![1.0],
            })
            .expect("send failed");
    }
    // Let the reactor get going on the firehose backlog.
    std::thread::sleep(DELAY * 2);
    let started = Instant::now();
    match polite
        .predict(u64::MAX, &[-1.0])
        .expect("round trip failed")
    {
        Response::Predict {
            id: u64::MAX,
            class: 0,
            ..
        } => {}
        other => panic!("unexpected response {other:?}"),
    }
    let round_trip = started.elapsed();
    let bound = DELAY * (ROUND_FRAMES + 1) + SLACK;
    assert!(
        round_trip < bound,
        "the polite round trip took {round_trip:?} behind a {FIREHOSE}-frame firehose \
         (bound {bound:?}): one connection held the reactor"
    );

    // Every firehose request is still answered, in request order.
    for want in 1..=FIREHOSE {
        match firehose.recv().expect("firehose recv failed") {
            Response::Predict { id, class: 1, .. } => assert_eq!(id, want),
            other => panic!("unexpected firehose response {other:?}"),
        }
    }
    assert!(
        obs::snapshot().counter("serve.fairness_deferrals") > deferrals_before,
        "the firehose was never deferred for its frame budget"
    );

    handle.shutdown();
    handle.join();
}

/// Graceful shutdown drains in-flight work: every request accepted
/// before the shutdown gets its real response, then all threads join.
#[test]
fn graceful_shutdown_drains_accepted_requests() {
    const PREDICTS: u64 = 4;
    let handle = start_slow(Duration::from_millis(20), ServeConfig::new());
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    for id in 0..PREDICTS {
        client
            .send(&Request::Predict {
                id,
                trace_id: 0,
                features: vec![1.0],
            })
            .expect("send failed");
    }
    // The ping is answered after the four predicts it follows, so
    // receiving the pong proves the server read all four.
    // It must arrive *before* we trigger shutdown: shutdown half-closes
    // the read side, and unread frames would otherwise race with it.
    client
        .send(&Request::Ping { id: u64::MAX })
        .expect("send failed");
    let mut pongs = 0usize;
    let mut classes = vec![None; PREDICTS as usize];
    while pongs == 0 {
        match client.recv().expect("recv failed") {
            Response::Pong { id } => {
                assert_eq!(id, u64::MAX);
                pongs += 1;
            }
            Response::Predict { id, class, .. } => classes[id as usize] = Some(class),
            other => panic!("unexpected response {other:?}"),
        }
    }

    // Trigger shutdown, then collect the remaining predict responses —
    // none may be dropped.
    handle.shutdown();
    while classes.iter().any(Option::is_none) {
        match client.recv().expect("shutdown dropped an accepted request") {
            Response::Predict { id, class, .. } => classes[id as usize] = Some(class),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(
        classes.iter().all(|c| *c == Some(1)),
        "every accepted predict must be answered before shutdown: {classes:?}"
    );

    // All threads (reactors) terminate.
    handle.join();
}

/// The server's drain grace: a connection still open when the server
/// drains is force-closed after this long.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Feedback frames pipelined after the refresh by the trainer-queue
/// tests.
const TRAILING_FEEDBACKS: u64 = 50;

/// A SPEECH-shaped classifier (n = 617, k = 26, D = 2000) and one
/// labelled training row to feed back. At this size a refresh
/// (materialize, compress, swap) runs long enough that commands
/// pipelined behind it are still queued when the reactor answers the
/// ping that follows them. The fit takes seconds in a debug build, so
/// the tests share one.
fn speech_model() -> &'static (LookHdClassifier, Vec<f64>, u32) {
    static MODEL: OnceLock<(LookHdClassifier, Vec<f64>, u32)> = OnceLock::new();
    MODEL.get_or_init(|| {
        let data = App::Speech.profile().generate_small(41);
        let config = LookHdConfig::new().with_dim(2000);
        let clf = LookHdClassifier::fit(&config, &data.train.features, &data.train.labels)
            .expect("training failed");
        let label = u32::try_from(data.train.labels[0]).expect("label fits the wire");
        (clf, data.train.features[0].clone(), label)
    })
}

/// Feedback (id 1), refresh (id 2), [`TRAILING_FEEDBACKS`] more
/// feedbacks (ids 3..), then a ping with the last id.
fn trainer_frames(features: &[f64], label: u32) -> Vec<Request> {
    let feedback = |id| Request::Feedback {
        id,
        trace_id: 0,
        label,
        features: features.to_vec(),
    };
    let mut frames = vec![feedback(1), Request::Refresh { id: 2, trace_id: 0 }];
    frames.extend((3..3 + TRAILING_FEEDBACKS).map(feedback));
    frames.push(Request::Ping {
        id: 3 + TRAILING_FEEDBACKS,
    });
    frames
}

/// Starts an online server on the shared model and pipelines
/// [`trainer_frames`] on one connection.
fn start_pipelined(online: OnlineConfig) -> (serve::ServerHandle, Client, Vec<Request>) {
    let (clf, features, label) = speech_model();
    let handle = serve::start_online("127.0.0.1:0", clf.clone(), ServeConfig::new(), online)
        .expect("bind failed");
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let frames = trainer_frames(features, *label);
    for frame in &frames {
        client.send(frame).expect("send failed");
    }
    (handle, client, frames)
}

/// Records `response` under its id; a second answer to one frame fails.
fn record(answers: &mut HashMap<u64, Response>, response: Response) {
    let id = response.id();
    if let Some(first) = answers.insert(id, response) {
        panic!("frame {id} answered twice (first {first:?})");
    }
}

/// Admission tier 3: with a trainer queue of one, commands pipelined
/// behind a refresh are refused with `Overloaded`. Every frame still
/// gets exactly one answer carrying its own id, and a refused frame
/// leaves nothing in flight: once the client closes, the server drains
/// at once instead of holding the connection for the drain grace.
#[test]
fn full_trainer_queue_answers_overloaded() {
    obs::set_enabled(true);
    let rejections_before = obs::snapshot().counter("serve.overload_rejections");
    let (handle, mut client, frames) = start_pipelined(OnlineConfig::new().with_queue_cap(1));
    let mut answers = HashMap::new();
    while answers.len() < frames.len() {
        record(&mut answers, client.recv().expect("recv failed"));
    }
    // Nothing else is owed: a last ping's pong is the next answer.
    let last = Request::Ping { id: u64::MAX };
    client.send(&last).expect("send failed");
    assert_eq!(
        client.recv().expect("recv failed"),
        Response::Pong { id: u64::MAX }
    );

    let mut overloaded = 0;
    for frame in &frames {
        match (frame, &answers[&frame.id()]) {
            (_, Response::Error { code, .. }) if *code == ErrorCode::Overloaded => overloaded += 1,
            (Request::Feedback { .. }, Response::FeedbackAck { .. })
            | (Request::Refresh { .. }, Response::RefreshAck { .. })
            | (Request::Ping { .. }, Response::Pong { .. }) => {}
            (frame, answer) => panic!("{frame:?} answered with {answer:?}"),
        }
    }
    assert!(overloaded > 0, "a queue of one refused nothing");
    assert!(
        obs::snapshot().counter("serve.overload_rejections") > rejections_before,
        "serve.overload_rejections did not count the refusals"
    );

    drop(client);
    let started = Instant::now();
    handle.shutdown();
    handle.join();
    let drain = started.elapsed();
    assert!(
        drain < DRAIN_GRACE / 2,
        "shutdown took {drain:?}: a refused frame left the connection waiting for a reply"
    );
}

/// Graceful shutdown answers every trainer command it accepted: the
/// trainer drains its queue, each ack reaches the socket through the
/// reactor that owns the connection, and only then does the server
/// close it and join. Shutdown starts as soon as the ping that follows
/// the commands is answered, while the refresh is still running.
#[test]
fn graceful_shutdown_answers_accepted_trainer_commands() {
    let (handle, mut client, frames) = start_pipelined(OnlineConfig::new());
    let ping = frames.last().expect("frames end with a ping").id();
    let mut answers = HashMap::new();
    loop {
        let response = client.recv().expect("recv failed");
        if response == (Response::Pong { id: ping }) {
            break;
        }
        record(&mut answers, response);
    }
    let answered_before_shutdown = answers.len();

    handle.shutdown();
    let commands = frames.len() - 1;
    while answers.len() < commands {
        let response = client
            .recv()
            .expect("shutdown dropped an accepted trainer command");
        record(&mut answers, response);
    }
    // Every command is answered; the server then closes the connection.
    match client.recv() {
        Err(WireError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
        other => panic!("expected EOF after the last answer, got {other:?}"),
    }
    handle.join();

    // One trainer folds in arrival order: the refresh swaps in version
    // 2 after the first fold, and each ack counts the folds so far.
    assert_eq!(
        answers[&2],
        Response::RefreshAck {
            id: 2,
            trace_id: 0,
            version: 2
        }
    );
    for (observed, id) in (1u64..).zip(std::iter::once(1).chain(3..3 + TRAILING_FEEDBACKS)) {
        let version = if id == 1 { 1 } else { 2 };
        assert_eq!(
            answers[&id],
            Response::FeedbackAck {
                id,
                trace_id: 0,
                version,
                observed
            }
        );
    }
    eprintln!(
        "{} of {commands} trainer answers outstanding at shutdown",
        commands - answered_before_shutdown
    );
}

/// A shutdown's drain is bounded even behind a long queue of refreshes,
/// each a full materialize: the trainer answers every refresh it pops
/// more than the drain grace after the trigger with `ShuttingDown`
/// instead of materializing it. Every refresh still gets exactly one
/// answer, in order: consecutive `RefreshAck` versions, then
/// `ShuttingDown`.
///
/// The queue is sized from a measured materialize of this model after one
/// fold (the fastest of three), so that it outlasts the drain grace three
/// times over on any build profile and host speed.
#[test]
fn shutdown_refuses_refreshes_queued_past_the_drain_grace() {
    let (clf, features, label) = speech_model();
    let mut trainer = StreamingTrainer::from_classifier(clf).expect("trainer failed");
    trainer
        .observe(features, *label as usize)
        .expect("observe failed");
    let materialize = (0..3)
        .map(|_| {
            let started = Instant::now();
            trainer.materialize().expect("materialize failed");
            started.elapsed()
        })
        .min()
        .expect("three timings");
    let refreshes = (3 * DRAIN_GRACE.as_nanos() / materialize.as_nanos().max(1)) as u64 + 1;
    // The feedback and every refresh wait in the trainer queue together.
    let queue_cap = usize::try_from(refreshes + 1).expect("queue fits usize");
    let handle = serve::start_online(
        "127.0.0.1:0",
        clf.clone(),
        ServeConfig::new(),
        OnlineConfig::new().with_queue_cap(queue_cap),
    )
    .expect("bind failed");
    let mut client = Client::connect(handle.addr()).expect("connect failed");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    client
        .send(&Request::Feedback {
            id: 0,
            trace_id: 0,
            label: *label,
            features: features.clone(),
        })
        .expect("send failed");
    for id in 1..=refreshes {
        client
            .send(&Request::Refresh { id, trace_id: 0 })
            .expect("send failed");
    }
    let ping = refreshes + 1;
    client
        .send(&Request::Ping { id: ping })
        .expect("send failed");
    let mut answers = HashMap::new();
    loop {
        let response = client.recv().expect("recv failed");
        if response == (Response::Pong { id: ping }) {
            break;
        }
        record(&mut answers, response);
    }

    let started = Instant::now();
    handle.shutdown();
    while answers.len() < refreshes as usize + 1 {
        let response = client
            .recv()
            .expect("shutdown dropped an accepted trainer command");
        record(&mut answers, response);
    }
    handle.join();
    let drain = started.elapsed();

    assert!(matches!(answers[&0], Response::FeedbackAck { id: 0, .. }));
    let mut acked = 0;
    for id in 1..=refreshes {
        match &answers[&id] {
            Response::RefreshAck { version, .. } if acked + 1 == id => {
                assert_eq!(*version, id + 1, "refresh {id} swapped out of order");
                acked = id;
            }
            Response::Error { code, .. } if *code == ErrorCode::ShuttingDown => {}
            other => panic!("refresh {id} answered {other:?} after {acked} acks"),
        }
    }
    assert!(
        acked < refreshes,
        "every refresh materialized: the drain never refused one"
    );
    let bound = DRAIN_GRACE + Duration::from_secs(2);
    assert!(
        drain < bound,
        "join took {drain:?} after the shutdown (bound {bound:?}, {acked} refreshes acked)"
    );
    eprintln!(
        "{acked} of {refreshes} refreshes materialized ({materialize:?} each); join after {drain:?}"
    );
}
