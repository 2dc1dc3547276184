//! The traced run: per-layer metrics for one workload.
//!
//! 1. An untraced pass (the deployed configuration) gives the baseline
//!    for the tracing overhead and the counters measured from outside the
//!    program over its open loop: server-thread syscalls, context
//!    switches and CPU from `/proc`, and server allocations from the
//!    counting allocator.
//! 2. A traced pass on the same inputs, with the metrics registry and the
//!    trace ring on before fit and a trace id on every request, reads the
//!    server's own spans, counters and per-request trace events.
//!    Benchmark-side spans (`bench_*`) wrap the public calls the benchmark
//!    makes itself.
//! 3. With the server stopped, each layer function is timed on its own on
//!    the workload's model and rows, after a warm-up.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use hdc::encoding::Encode;
use hdc::Classifier;
use lookhd::{build_kernel, CompressedModel, KernelSpec, LookHdClassifier, StreamingTrainer};
use lookhd_datasets::data::Dataset;
use obs::trace::{Phase, TraceEvent};
use obs::{Snapshot, SpanStats};

use crate::drive::{Driven, Load};
use crate::load::FAILED;
use crate::{alloc_count, drive, percentile, procfs, set_up, syscalls, Args, Metrics, Tally};

/// One reading of the counters measured from outside the program.
struct Reading {
    server: procfs::TaskTotals,
    generator: procfs::TaskTotals,
    /// `(allocations, bytes)` of the server threads.
    allocs: (u64, u64),
    /// `(recv + send, epoll_wait)` calls of the server threads.
    socket_calls: (u64, u64),
}

impl Reading {
    fn now() -> Self {
        Self {
            server: procfs::server_threads(),
            generator: procfs::main_thread(),
            allocs: alloc_count::totals(),
            socket_calls: syscalls::totals(),
        }
    }
}

/// Counters measured from outside the program, summed over the open loops.
#[derive(Default)]
struct Outside {
    at_start: Option<Reading>,
    server: procfs::TaskTotals,
    generator: procfs::TaskTotals,
    allocs: u64,
    alloc_bytes: u64,
    rw_syscalls: u64,
    epoll_waits: u64,
}

impl Outside {
    /// Turns the counting allocator and socket-call counts on at the start
    /// of an open loop and off at its end, and adds up the growth.
    fn sample(&mut self, start: bool) {
        if start {
            alloc_count::set_counting(true);
            self.at_start = Some(Reading::now());
            return;
        }
        let now = Reading::now();
        alloc_count::set_counting(false);
        let Some(before) = self.at_start.take() else {
            return;
        };
        let server = now.server.since(&before.server);
        self.server.add(&server);
        self.generator.add(&now.generator.since(&before.generator));
        self.allocs += now.allocs.0 - before.allocs.0;
        self.alloc_bytes += now.allocs.1 - before.allocs.1;
        // recv/send seen by the interposer plus read/write seen by /proc.
        self.rw_syscalls += now.socket_calls.0 - before.socket_calls.0 + server.rw_syscalls;
        self.epoll_waits += now.socket_calls.1 - before.socket_calls.1;
    }
}

/// The span whose final path segment is `name` with the most samples.
fn span<'a>(snap: &'a Snapshot, name: &str) -> Option<&'a SpanStats> {
    snap.spans
        .iter()
        .filter(|s| s.name() == name)
        .max_by_key(|s| s.count)
}

/// Per-request stage durations from the trace ring: stage name → trace
/// id → duration in ns.
fn stage_durations(events: &[TraceEvent]) -> HashMap<&'static str, HashMap<u64, u64>> {
    let mut begins: HashMap<(&'static str, u64), u64> = HashMap::new();
    let mut stages: HashMap<&'static str, HashMap<u64, u64>> = HashMap::new();
    for e in events {
        match e.phase {
            Phase::Begin => {
                begins.insert((e.name, e.trace_id), e.ts_ns);
            }
            Phase::End => {
                if let Some(begin) = begins.remove(&(e.name, e.trace_id)) {
                    *stages
                        .entry(e.name)
                        .or_default()
                        .entry(e.trace_id)
                        .or_default() += e.ts_ns.saturating_sub(begin);
                }
            }
        }
    }
    stages
}

const STAGES: [&str; 5] = [
    "decode",
    "queue_wait",
    "batch_assembly",
    "predict",
    "encode",
];

fn stage_quantile(
    stages: &HashMap<&'static str, HashMap<u64, u64>>,
    name: &str,
    p: f64,
) -> (f64, usize) {
    let values: Vec<u64> = stages
        .get(name)
        .map(|m| m.values().copied().collect())
        .unwrap_or_default();
    (percentile(&values, p).unwrap_or(0) as f64, values.len())
}

fn mean(values: &[u64]) -> f64 {
    let ok: Vec<u64> = values.iter().copied().filter(|&v| v != FAILED).collect();
    ok.iter().sum::<u64>() as f64 / ok.len().max(1) as f64
}

/// Median time of one call of `f`, in ns, and the calls timed: one
/// warm-up call, then samples until `budget` has passed (at least
/// `min_samples`, at most 100 000). Calls shorter than 20 µs are timed in
/// groups, so the clock's resolution cannot round them to a constant.
fn time_calls(budget: Duration, min_samples: usize, mut f: impl FnMut(usize)) -> (f64, usize) {
    let warm_up = Instant::now();
    f(0);
    let group = (20_000 / warm_up.elapsed().as_nanos().max(1)).clamp(1, 10_000) as usize;
    let started = Instant::now();
    let mut times = Vec::new();
    let mut i = 1;
    while times.len() < min_samples || (started.elapsed() < budget && times.len() < 100_000) {
        let t = Instant::now();
        for _ in 0..group {
            f(i);
            i += 1;
        }
        times.push(t.elapsed().as_nanos() as f64 / group as f64);
    }
    let samples = times.len();
    (crate::median_f64(&mut times), samples * group)
}

/// Times each layer function on its own, on the served model and rows.
fn layer_functions(
    m: &mut Metrics,
    clf: &LookHdClassifier,
    data: &Dataset,
    kernel: &KernelSpec,
) -> Result<(), String> {
    let test = &data.test.features;
    let train = &data.train;
    let n = test.len();
    let fast = Duration::from_millis(200);
    let slow = Duration::from_millis(1);

    let (v, reps) = time_calls(fast, 5, |i| {
        black_box(
            clf.encoder()
                .encode(black_box(&test[i % n]))
                .expect("encode"),
        );
    });
    m.put_n("encoder.encode_ns", v, "ns", reps);
    let encoded: Vec<_> = test
        .iter()
        .take(64)
        .map(|row| clf.encoder().encode(row))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("encode: {e}"))?;
    let compressed = clf.compressed();
    let (v, reps) = time_calls(fast, 5, |i| {
        black_box(
            compressed
                .scores(black_box(&encoded[i % encoded.len()]))
                .expect("scores"),
        );
    });
    m.put_n("compress.scores_ns", v, "ns", reps);
    let (v, reps) = time_calls(fast, 5, |i| {
        black_box(clf.predict(black_box(&test[i % n])).expect("predict"));
    });
    m.put_n("kernel.predict_ns", v, "ns", reps);
    let batches: Vec<Vec<Vec<f64>>> = test.chunks_exact(16).map(<[Vec<f64>]>::to_vec).collect();
    let (v, reps) = time_calls(fast, 5, |i| {
        black_box(
            clf.predict_batch(black_box(&batches[i % batches.len()]))
                .expect("predict_batch"),
        );
    });
    m.put_n("kernel.predict_batch16_ns", v, "ns", reps);
    let (v, reps) = time_calls(fast, 5, |i| {
        black_box(
            clf.class_scores(black_box(&test[i % n]))
                .expect("class_scores"),
        );
    });
    m.put_n("kernel.class_scores_ns", v, "ns", reps);
    m.put(
        "kernel.table_bytes",
        clf.kernel().size_bytes() as f64,
        "bytes",
    );

    let mut trainer =
        StreamingTrainer::from_classifier(clf).map_err(|e| format!("trainer: {e}"))?;
    let (v, reps) = time_calls(fast, train.len(), |i| {
        let row = i % train.len();
        trainer
            .observe(black_box(&train.features[row]), train.labels[row])
            .expect("observe");
    });
    m.put_n("online.observe_ns", v, "ns", reps);
    let (v, reps) = time_calls(slow, 2, |_| {
        black_box(trainer.materialize().expect("materialize"));
    });
    m.put_n("online.materialize_ms", v / 1e6, "ms", reps);
    let config = compressed.compression_config();
    let (v, reps) = time_calls(slow, 2, |_| {
        black_box(CompressedModel::compress(clf.model(), config).expect("compress"));
    });
    m.put_n("online.compress_ms", v / 1e6, "ms", reps);
    let (v, reps) = time_calls(slow, 2, |_| {
        black_box(build_kernel(clf.encoder(), compressed, kernel).expect("build_kernel"));
    });
    m.put_n("online.kernel_build_ms", v / 1e6, "ms", reps);
    Ok(())
}

/// Span statistics of one name summed over several snapshots (one per
/// segment's open loop).
#[derive(Default)]
struct Merged {
    count: u64,
    total_ns: f64,
    buckets: Vec<u64>,
    min_ns: f64,
    max_ns: f64,
}

fn merged(snaps: &[Snapshot], name: &str) -> Merged {
    let mut m = Merged {
        buckets: vec![0; obs::N_BUCKETS],
        min_ns: f64::MAX,
        ..Merged::default()
    };
    for s in snaps.iter().filter_map(|snap| span(snap, name)) {
        m.count += s.count;
        m.total_ns += s.total.as_nanos() as f64;
        for (b, &c) in m.buckets.iter_mut().zip(&s.buckets) {
            *b += c;
        }
        m.min_ns = m.min_ns.min(s.min.as_nanos() as f64);
        m.max_ns = m.max_ns.max(s.max.as_nanos() as f64);
    }
    m
}

impl Merged {
    fn mean_ns(&self) -> f64 {
        self.total_ns / self.count.max(1) as f64
    }

    /// Exact-rank quantile from the power-of-two histogram, interpolated
    /// linearly inside the bucket holding the rank and clamped to the
    /// observed range; 0 when nothing was recorded.
    fn quantile_ns(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let lower = if i == 0 {
                    0.0
                } else {
                    (1u64 << (i - 1)) as f64
                };
                let upper = obs::bucket_upper_ns(i).min(1 << 62) as f64;
                let v = lower + (upper - lower) * (rank - seen) as f64 / c as f64;
                return v.clamp(self.min_ns, self.max_ns);
            }
            seen += c;
        }
        self.max_ns
    }
}

fn counter(snaps: &[Snapshot], name: &str) -> f64 {
    snaps.iter().map(|s| s.counter(name)).sum::<u64>() as f64
}

pub fn run_traced(args: &Args, tally: &mut Tally) -> Result<Metrics, String> {
    let workload = args.workload;
    let mut m = Metrics::default();
    let steal_before = procfs::cpu_steal();

    // 1. Untraced baseline; outside counters summed over the open loops.
    let (model, _) = set_up(workload, args.seed, false)?;
    let expected = drive::direct_predictions(&model.clf, &model.data.test.features)?;
    let load = Load {
        workload,
        seconds: args.seconds,
        traced: false,
        expected: &expected,
    };
    let segments = 0..workload.segments();
    let mut outside = Outside::default();
    let mut base = Driven::default();
    base.measure(&load, &model, segments.clone(), tally, &mut |start| {
        outside.sample(start)
    })?;
    base.pass(&load, &model, tally)?;
    base.probe(&load, &model, tally)?;
    let base_latency = drive::open_latency(&base)?;
    drop(model);

    // 2. Traced pass: registry and ring on before fit.
    obs::reset();
    // Room for every open-loop request's stage events on each thread's
    // stripe (the ring splits its capacity evenly over 8 stripes).
    let ops = (workload.open_rate() * args.seconds) as usize;
    obs::trace::set_capacity(8 * (10 * ops + 4096));
    let (model, _) = set_up(workload, args.seed, true)?;
    let fit = obs::snapshot();
    let mut snaps = Vec::new();
    let mut events = Vec::new();
    obs::reset();
    let load = Load {
        traced: true,
        ..load
    };
    let mut traced = Driven::default();
    traced.measure(&load, &model, segments, tally, &mut |start| {
        if start {
            obs::reset();
            obs::trace::reset();
        } else {
            snaps.push(obs::snapshot());
            events.extend(obs::trace::events());
        }
    })?;
    traced.pass(&load, &model, tally)?;
    traced.probe(&load, &model, tally)?;
    let traced_latency = drive::open_latency(&traced)?;
    // Since the last open loop began: its closed loop, the correctness
    // pass and the write probe.
    let tail = [obs::snapshot()];
    obs::set_enabled(false);
    obs::trace::set_enabled(false);

    // serve::wire
    let stages = stage_durations(&events);
    let (v, n) = stage_quantile(&stages, "decode", 0.5);
    m.put_n("wire.server_decode_ns", v, "ns", n);
    let (v, n) = stage_quantile(&stages, "encode", 0.5);
    m.put_n("wire.server_encode_ns", v, "ns", n);
    let opens: Vec<&crate::load::PhaseResult> = base.segments.iter().map(|s| &s.open).collect();
    let encode_ns: Vec<u64> = opens
        .iter()
        .flat_map(|o| o.client_encode_ns.iter().copied())
        .collect();
    let decode_ns: Vec<u64> = opens
        .iter()
        .flat_map(|o| o.client_decode_ns.iter().copied())
        .collect();
    m.put_n(
        "wire.client_encode_ns",
        percentile(&encode_ns, 0.5).unwrap_or(0) as f64,
        "ns",
        encode_ns.len(),
    );
    m.put_n(
        "wire.client_decode_ns",
        percentile(&decode_ns, 0.5).unwrap_or(0) as f64,
        "ns",
        decode_ns.len(),
    );
    m.put("wire.request_bytes", opens[0].request_bytes as f64, "bytes");

    // serve::reactor, serve::conn, netpoll: outside counters over the
    // untraced open loops, per request issued in them.
    let reqs = opens.iter().map(|o| o.attempted).sum::<u64>().max(1) as f64;
    m.put(
        "reactor.rw_syscalls_per_req",
        outside.rw_syscalls as f64 / reqs,
        "count",
    );
    m.put(
        "reactor.epoll_waits_per_req",
        outside.epoll_waits as f64 / reqs,
        "count",
    );
    m.put(
        "reactor.ctx_switches_per_req",
        outside.server.ctx_switches as f64 / reqs,
        "count",
    );
    m.put(
        "reactor.fairness_deferrals",
        counter(&snaps, "serve.fairness_deferrals"),
        "count",
    );

    // serve::server
    let (v, n) = stage_quantile(&stages, "queue_wait", 0.5);
    m.put_n("queue.wait_p50_us", v / 1e3, "us", n);
    let (v, n) = stage_quantile(&stages, "queue_wait", 0.99);
    m.put_n("queue.wait_p99_us", v / 1e3, "us", n);
    m.put(
        "batch.size_mean",
        merged(&snaps, "batch_size").mean_ns(),
        "count",
    );
    m.put("batch.count", counter(&snaps, "serve.batches"), "count");
    m.put(
        "worker.batch_us_p50",
        merged(&snaps, "batch").quantile_ns(0.5) / 1e3,
        "us",
    );
    m.put(
        "server.request_us_p50",
        merged(&snaps, "request").quantile_ns(0.5) / 1e3,
        "us",
    );
    m.put(
        "server.cpu_us_per_req",
        outside.server.cpu_ns as f64 / 1e3 / reqs,
        "us",
    );
    m.put(
        "server.allocs_per_req",
        outside.allocs as f64 / reqs,
        "count",
    );
    m.put(
        "server.alloc_bytes_per_req",
        outside.alloc_bytes as f64 / reqs,
        "bytes",
    );

    // lookhd kernels, encoder, compress, online: timed on their own.
    let predicts = traced
        .segments
        .iter()
        .map(|s| s.open.predict_ns.len())
        .sum::<usize>()
        .max(1);
    m.put(
        "kernel.margin_passes_per_req",
        merged(&snaps, "margin").count as f64 / predicts as f64,
        "count",
    );
    layer_functions(
        &mut m,
        &model.clf,
        &model.data,
        &workload.model_config().kernel,
    )?;
    let fold = merged(&tail, "serve_feedback");
    m.put_n(
        "online.fold_us_p99",
        fold.quantile_ns(0.99) / 1e3,
        "us",
        fold.count as usize,
    );
    let swap = merged(&tail, "serve_model_swap");
    m.put_n(
        "online.swap_ms",
        swap.mean_ns() / 1e6,
        "ms",
        swap.count as usize,
    );

    // lookhd classifier fit, lookhd-datasets: the fit's own spans.
    let secs = |name: &str| fit.total_for(name).as_secs_f64();
    m.put("data.generate_s", secs("bench_generate"), "s");
    m.put("fit.total_s", secs("fit"), "s");
    m.put("fit.encode_s", secs("encode_batch"), "s");
    m.put("fit.counter_train_s", secs("counter_train"), "s");
    m.put("fit.compress_s", secs("compress"), "s");
    m.put("fit.retrain_s", secs("retrain"), "s");
    let lut_build = secs("score_lut_build");
    if lut_build > 0.0 {
        m.put("fit.kernel_build_s", lut_build, "s");
    } else {
        // The dense kernel has no build step inside fit: report what a
        // standalone build of the same kernel costs.
        m.put(
            "fit.kernel_build_s",
            m.get("online.kernel_build_ms") / 1e3,
            "s",
        );
        m.note("fit.kernel_build_s: the dense kernel has no fit-phase build span; the value is a standalone build_kernel call".into());
    }

    // The untraced run's throughput, tails and refresh time, which the
    // end-to-end result prints but leaves out.
    m.put_n(
        "closed.throughput_rps",
        base.throughput(),
        "req/s",
        base.closed_answers(),
    );
    m.put_n(
        "open.latency_p90_ms",
        base_latency.p90_ms,
        "ms",
        base_latency.samples,
    );
    m.put_n(
        "open.latency_p99_ms",
        base_latency.p99_ms,
        "ms",
        base_latency.samples,
    );
    m.put_n(
        "online.refresh_ms",
        base.refresh_ms(),
        "ms",
        base.refresh_ns.len(),
    );
    let feedback = percentile(&base.feedback_ns, 0.99).map_or(0.0, crate::ns_to_ms);
    m.put_n(
        "online.feedback_p99_ms",
        feedback,
        "ms",
        base.feedback_ns.len(),
    );

    // Run validity.
    let lags = base.lags();
    m.put_n(
        "gen.lag_p99_us",
        percentile(&lags, 0.99).unwrap_or(0) as f64 / 1e3,
        "us",
        lags.len(),
    );
    m.put(
        "gen.cpu_us_per_req",
        outside.generator.cpu_ns as f64 / 1e3 / reqs,
        "us",
    );
    m.put(
        "host.steal_pct",
        procfs::steal_pct(steal_before, procfs::cpu_steal()),
        "%",
    );
    let (base_tput, traced_tput) = (base.throughput(), traced.throughput());
    m.put(
        "obs.tracing_overhead_pct",
        100.0 * (base_tput - traced_tput) / base_tput.max(1e-9),
        "%",
    );
    let (base_p50, traced_p50) = (base_latency.p50_ms, traced_latency.p50_ms);
    m.put(
        "obs.tracing_overhead_p50_pct",
        100.0 * (traced_p50 - base_p50) / base_p50.max(1e-9),
        "%",
    );
    // Closure: mean client latency minus the mean per-request sum of the
    // server's stage times; what is left is socket, reactor-loop and
    // client time that no span covers.
    let stage_sum: f64 = STAGES
        .iter()
        .map(|s| {
            let v: Vec<u64> = stages
                .get(s)
                .map(|m| m.values().copied().collect())
                .unwrap_or_default();
            mean(&v)
        })
        .sum();
    let client: Vec<u64> = traced
        .segments
        .iter()
        .flat_map(|s| s.open.predict_ns.iter().copied())
        .collect();
    m.put(
        "closure.unattributed_us",
        (mean(&client) - stage_sum) / 1e3,
        "us",
    );
    m.note(format!(
        "tracing overhead: throughput {base_tput:.0} -> {traced_tput:.0} req/s, p50 {base_p50:.4} -> {traced_p50:.4} ms"
    ));
    Ok(m)
}
