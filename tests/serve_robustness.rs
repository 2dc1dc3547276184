//! Robustness tests for the run-to-completion server's flow control:
//! a slow model cannot let one pipelining connection hold the reactor
//! that scores its frames, and graceful shutdown answers every request
//! the server read before its threads exit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use lookhd_paper::hdc::{Classifier, HdcError, Result as HdcResult};
use lookhd_paper::obs;
use lookhd_paper::serve::{self, Client, Request, Response, ServeConfig};

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
    let handle = start_slow(
        Duration::from_millis(20),
        ServeConfig::new().with_queue_cap(64),
    );
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
