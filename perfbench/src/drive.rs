//! The measured phases of one run, and the statistics taken over them.
//!
//! A run splits `--seconds` over many fresh server instances (segments),
//! measured in one or more blocks that each start with a warm-up. Each
//! segment runs an open loop for three quarters of its time and a closed
//! loop for the rest. A correctness pass over the test split and a write
//! probe on a `start_online` server with the same model end the run.

use std::ops::Range;
use std::time::Duration;

use hdc::Classifier;
use lookhd::{LookHdClassifier, StreamingTrainer};

use crate::load::{Link, Op, Pace, PhaseResult, Plan, Truth};
use crate::{
    median_f64, ns_to_ms, percentile, start_online_server, start_server, Model, Tally, Workload,
};

/// Connections the load thread drives, one per core of the 2-core host
/// the benchmark was sized on.
const CONNECTIONS: usize = 2;
/// The write probe: feedback at this rate for this long, with a refresh
/// every second, so acks queue behind materialize. At 400/s a 2 s
/// materialize queues 800 folds, under the trainer queue's 1024 cap.
const PROBE_RATE: f64 = 400.0;
const PROBE_LENGTH: Duration = Duration::from_secs(4);
const PROBE_REFRESH_EVERY: Duration = Duration::from_secs(1);
/// An unmeasured open loop on a server of its own starts each block, so
/// the first requests after a set-up's fit (cold caches, lazy
/// allocations) are not measured.
const WARM_UP: Duration = Duration::from_secs(1);
/// A segment in which half the open-loop requests left more than this
/// late is one where the generator fell behind: its median latency,
/// timed from due time, describes the generator, so it is not averaged
/// in. The median decides, not a tail: the host at times deschedules the
/// load thread for milliseconds, which stretches the tail of the lag in
/// every segment but moves the gated median little.
const MAX_LAG_P50: Duration = Duration::from_millis(1);

/// One server instance's open and closed loop.
pub struct Segment {
    pub open: PhaseResult,
    pub closed: PhaseResult,
    /// Whether the generator kept the open loop's schedule (see
    /// [`MAX_LAG_P50`]).
    pub valid: bool,
}

/// What every phase of a run shares.
pub struct Load<'a> {
    pub workload: Workload,
    /// The run's `--seconds`, split evenly over the workload's segments.
    pub seconds: f64,
    /// Put a distinct trace id on every request.
    pub traced: bool,
    /// Direct `Classifier::predict` on every test row.
    pub expected: &'a [usize],
}

impl Load<'_> {
    fn truth<'a>(&'a self, model: &'a Model) -> Truth<'a> {
        Truth {
            test: &model.data.test.features,
            train: &model.data.train.features,
            train_labels: &model.data.train.labels,
            expected: self.expected,
        }
    }
}

/// Everything the phases of one run produced.
#[derive(Default)]
pub struct Driven {
    pub segments: Vec<Segment>,
    /// The write probe's feedback-ack latencies from due time.
    pub feedback_ns: Vec<u64>,
    /// The write probe's refresh round trips.
    pub refresh_ns: Vec<u64>,
    /// Correctness-pass answers that match the labels, over all passes.
    pub pass_hits: usize,
    /// Test rows asked for, and answers received, over all passes.
    pub pass_rows: usize,
    pub pass_answers: usize,
}

impl Driven {
    /// Median over segments of the closed loop's answers per second,
    /// counted between its first and last answer (so the pipeline's fill
    /// time is left out).
    pub fn throughput(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .segments
            .iter()
            .map(|s| match (s.closed.first_done, s.closed.last_done) {
                (Some(first), Some(last)) if last > first => {
                    (s.closed.completed_in_window - 1) as f64 / (last - first).as_secs_f64()
                }
                _ => 0.0,
            })
            .collect();
        median_f64(&mut rates)
    }

    /// Answers completed inside the closed loops' windows.
    pub fn closed_answers(&self) -> usize {
        self.segments
            .iter()
            .map(|s| s.closed.completed_in_window as usize)
            .sum()
    }

    /// Median refresh round trip of the write probe, ms.
    pub fn refresh_ms(&self) -> f64 {
        let mut refresh: Vec<f64> = self.refresh_ns.iter().map(|&ns| ns_to_ms(ns)).collect();
        median_f64(&mut refresh)
    }

    /// Generator lag of every open-loop request.
    pub fn lags(&self) -> Vec<u64> {
        self.segments
            .iter()
            .flat_map(|s| s.open.lag_ns.iter().copied())
            .collect()
    }

    /// Measures the segments in `range` (of the workload's segment count)
    /// on fresh servers for `model`, after a warm-up, and appends them.
    /// Every answer is checked. `hook(true)` / `hook(false)` run at the
    /// start and end of each segment's open loop, so callers can sample
    /// counters over exactly those phases.
    pub fn measure(
        &mut self,
        load: &Load<'_>,
        model: &Model,
        range: Range<usize>,
        tally: &mut Tally,
        hook: &mut dyn FnMut(bool),
    ) -> Result<(), String> {
        let workload = load.workload;
        let truth = load.truth(model);
        let n_test = truth.test.len();
        let predict_at = |k: u64| Op::Predict(k as usize % n_test);
        let segment = load.seconds / workload.segments() as f64;
        let open_length = Duration::from_secs_f64(segment * 3.0 / 4.0);
        let closed_length = Duration::from_secs_f64(segment / 4.0);

        let handle = start_server(&model.clf)?;
        let mut link =
            Link::connect(handle.addr(), CONNECTIONS).map_err(|e| format!("connecting: {e}"))?;
        let warm_up = link.run(
            &plan(
                Pace::Open(workload.open_rate()),
                Some(WARM_UP),
                None,
                &predict_at,
                load.traced,
            ),
            &truth,
        );
        tally.add("warm-up", &warm_up);
        drop(link);
        handle.shutdown();
        handle.join();
        for _ in range {
            let handle = start_server(&model.clf)?;
            let mut link = Link::connect(handle.addr(), CONNECTIONS)
                .map_err(|e| format!("connecting: {e}"))?;
            let open_plan = plan(
                Pace::Open(workload.open_rate()),
                Some(open_length),
                None,
                &predict_at,
                load.traced,
            );
            hook(true);
            let open = link.run(&open_plan, &truth);
            hook(false);
            tally.add("open loop", &open);
            let closed_plan = plan(
                Pace::Closed(workload.window()),
                Some(closed_length),
                None,
                &predict_at,
                load.traced,
            );
            let closed = link.run(&closed_plan, &truth);
            tally.add("closed loop", &closed);
            drop(link);
            handle.shutdown();
            handle.join();
            let valid = percentile(&open.lag_ns, 0.5)
                .is_some_and(|lag| lag <= MAX_LAG_P50.as_nanos() as u64);
            self.segments.push(Segment {
                open,
                closed,
                valid,
            });
        }
        Ok(())
    }

    /// Correctness-pass answers that match the labels, as a fraction of
    /// the test rows asked for (a missing answer is a miss).
    pub fn accuracy(&self) -> f64 {
        self.pass_hits as f64 / self.pass_rows.max(1) as f64
    }

    /// The correctness pass: every test row of `model` once, on a fresh
    /// server.
    pub fn pass(
        &mut self,
        load: &Load<'_>,
        model: &Model,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let truth = load.truth(model);
        let n_test = truth.test.len();
        let predict_at = |k: u64| Op::Predict(k as usize % n_test);
        let handle = start_server(&model.clf)?;
        let mut link =
            Link::connect(handle.addr(), CONNECTIONS).map_err(|e| format!("connecting: {e}"))?;
        let pass_plan = plan(
            Pace::Closed(load.workload.window()),
            None,
            Some(n_test as u64),
            &predict_at,
            load.traced,
        );
        let pass = link.run(&pass_plan, &truth);
        tally.add("correctness pass", &pass);
        drop(link);
        handle.shutdown();
        handle.join();
        // A missing or failed answer is already counted as failed; here
        // it is a miss.
        self.pass_hits += pass
            .answers
            .iter()
            .filter(|&&(row, class)| model.data.test.labels[row] == class as usize)
            .count();
        self.pass_rows += n_test;
        self.pass_answers += pass.answers.len();
        Ok(())
    }

    /// The write probe on `model` (see [`write_probe`]).
    pub fn probe(
        &mut self,
        load: &Load<'_>,
        model: &Model,
        tally: &mut Tally,
    ) -> Result<(), String> {
        let truth = load.truth(model);
        let probe = write_probe(load.workload, model, &truth, load.traced, tally)?;
        self.feedback_ns = probe.feedback_ns;
        self.refresh_ns = probe.refresh_ns;
        Ok(())
    }
}

fn plan<'a>(
    pace: Pace,
    duration: Option<Duration>,
    max_ops: Option<u64>,
    op_at: &'a dyn Fn(u64) -> Op,
    traced: bool,
) -> Plan<'a> {
    Plan {
        pace,
        duration,
        max_ops,
        op_at,
        refresh_every: None,
        traced,
    }
}

/// Direct `Classifier::predict` on every row.
pub fn direct_predictions(clf: &LookHdClassifier, rows: &[Vec<f64>]) -> Result<Vec<usize>, String> {
    rows.iter()
        .map(|row| clf.predict(row).map_err(|e| format!("direct predict: {e}")))
        .collect()
}

/// The write path, on the workload's own model: a `start_online` server
/// first folds every train row once, then takes feedback in an open loop
/// while refreshes run back to back, then answers every test row with a
/// version-stamped predict, which [`check_online`] compares with an exact
/// local replay. A materialize costs in proportion to the distinct
/// counters folded so far, which the warm-up saturates: every measured
/// refresh then does the same work, that of a long-running server.
fn write_probe(
    workload: Workload,
    model: &Model,
    truth: &Truth<'_>,
    traced: bool,
    tally: &mut Tally,
) -> Result<PhaseResult, String> {
    let handle = start_online_server(&model.clf)?;
    let mut link =
        Link::connect(handle.addr(), CONNECTIONS).map_err(|e| format!("connecting: {e}"))?;
    let (n_train, n_test) = (truth.train.len(), truth.test.len());
    let feedback_at = move |k: u64| Op::Feedback(k as usize % n_train);
    let warm_plan = plan(
        Pace::Closed(workload.window()),
        None,
        Some(n_train as u64),
        &feedback_at,
        traced,
    );
    let warm = link.run(&warm_plan, truth);
    tally.add("write probe warm-up", &warm);
    let mut probe_plan = plan(
        Pace::Open(PROBE_RATE),
        Some(PROBE_LENGTH),
        None,
        &feedback_at,
        traced,
    );
    probe_plan.refresh_every = Some(PROBE_REFRESH_EVERY);
    let probe = link.run(&probe_plan, truth);
    tally.add("write probe", &probe);
    let stamped_at = move |k: u64| Op::Stamped(k as usize % n_test);
    let pass_plan = plan(
        Pace::Closed(workload.window()),
        None,
        Some(n_test as u64),
        &stamped_at,
        traced,
    );
    let pass = link.run(&pass_plan, truth);
    tally.add("write probe pass", &pass);
    let version = handle.model_version();
    drop(link);
    handle.shutdown();
    handle.join();
    check_online(model, version, &[&warm, &probe], &pass, tally)?;
    Ok(probe)
}

/// Checks the write probe against an exact local replay. Its refreshes
/// must be acknowledged as versions 2, 3, … and the server must end on
/// version 1 + refreshes. Every stamped answer must come from that final
/// version and equal the prediction of the initial model's trainer fed
/// every feedback acknowledged under an earlier version, materialized.
fn check_online(
    model: &Model,
    final_version: u64,
    writes: &[&PhaseResult],
    pass: &PhaseResult,
    tally: &mut Tally,
) -> Result<(), String> {
    let data = &model.data;
    let refreshes: Vec<u64> = writes
        .iter()
        .flat_map(|w| w.refresh_versions.iter().copied())
        .collect();
    let want: Vec<u64> = (2..2 + refreshes.len() as u64).collect();
    if refreshes != want || final_version != 1 + want.len() as u64 {
        tally.wrong(format!(
            "write probe: refresh acks {refreshes:?}, server version {final_version}"
        ));
    }
    let mut trainer = StreamingTrainer::from_classifier(&model.clf)
        .map_err(|e| format!("replay trainer: {e}"))?;
    let acks = writes.iter().flat_map(|w| w.feedback_acks.iter());
    for &(row, version) in acks {
        if version < final_version {
            trainer
                .observe(&data.train.features[row], data.train.labels[row])
                .map_err(|e| format!("replay observe: {e}"))?;
        }
    }
    let replayed;
    let clf: &LookHdClassifier = if final_version == 1 {
        &model.clf
    } else {
        replayed = trainer
            .materialize()
            .map_err(|e| format!("replay materialize: {e}"))?;
        &replayed
    };
    for &(row, class, version) in &pass.stamped {
        if version != final_version {
            tally.wrong(format!(
                "write probe pass: row {row} answered by version {version}, not {final_version}"
            ));
            continue;
        }
        let want = clf
            .predict(&data.test.features[row])
            .map_err(|e| format!("replay predict: {e}"))?;
        if class as usize != want {
            tally.wrong(format!(
                "version {version}: row {row} served class {class}, replay says {want}"
            ));
        }
    }
    Ok(())
}

/// Open-loop predict latency.
pub struct OpenLatency {
    /// Medians over the valid segments of each segment's p50, p90 and
    /// p99, ms.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// Predicts in the valid segments.
    pub samples: usize,
    pub valid_segments: usize,
}

/// Takes each valid segment's p50, p90 and p99 over its whole open loop,
/// then the median of each across segments. A stall that recurs within
/// every segment moves them; a host episode that slows fewer than half
/// the segments does not. A segment whose generator fell behind (see
/// [`MAX_LAG_P50`]) is left out; a run with fewer than half its segments
/// valid is invalid.
pub fn open_latency(d: &Driven) -> Result<OpenLatency, String> {
    let (mut p50s, mut p90s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0;
    for s in &d.segments {
        if !s.valid || s.open.predict_ns.is_empty() {
            continue;
        }
        samples += s.open.predict_ns.len();
        let q = |p| percentile(&s.open.predict_ns, p).map_or(0.0, ns_to_ms);
        p50s.push(q(0.5));
        p90s.push(q(0.9));
        p99s.push(q(0.99));
    }
    let valid_segments = p50s.len();
    if valid_segments == 0 || valid_segments * 2 < d.segments.len() {
        return Err(format!(
            "invalid run: the generator fell behind in {} of {} segments",
            d.segments.len() - valid_segments,
            d.segments.len()
        ));
    }
    Ok(OpenLatency {
        p50_ms: median_f64(&mut p50s),
        p90_ms: median_f64(&mut p90s),
        p99_ms: median_f64(&mut p99s),
        samples,
        valid_segments,
    })
}
