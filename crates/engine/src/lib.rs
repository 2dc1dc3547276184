//! Deterministic sharded execution engine for LookHD training and batch
//! inference.
//!
//! The engine partitions an index space `0..n` into fixed-size shards and
//! maps a caller-supplied function over the shards on a pool of scoped
//! threads ([`std::thread::scope`] — no external dependencies). Shard
//! results are always returned **in shard order**, whatever the thread
//! count, so any merge that folds them left-to-right is bit-identical to a
//! serial run. This is the determinism contract every parallel path in the
//! workspace relies on:
//!
//! > For a fixed input and [`EngineConfig::shard_size`], the outputs of
//! > [`Engine::run`] and [`Engine::map_reduce`] are identical for every
//! > `threads` value, including 1.
//!
//! With `threads == 1` (the default) shards run inline on the calling
//! thread with no pool at all, so serial callers pay nothing. Worker
//! threads claim shards dynamically from an atomic counter; ordering is
//! restored afterwards by slotting each result at its shard index.
//!
//! Every run also produces [`EngineStats`]: per-shard wall-clock timings,
//! merge time, and overall throughput, which the CLI and benchmark
//! binaries surface to users. When the [`obs`] registry is enabled, the
//! same timings are folded into it as `engine/run`, `engine/shard`, and
//! `engine/merge` spans, so sharded stages show up in `--metrics` output
//! alongside the algorithmic spans recorded by the callers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a sharded run should be executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker thread count. `0` means "use the host's available
    /// parallelism"; `1` (the default) runs everything inline on the
    /// calling thread.
    pub threads: usize,
    /// Number of items per shard. Larger shards amortise dispatch
    /// overhead; smaller shards balance load better.
    pub shard_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            shard_size: 1024,
        }
    }
}

impl EngineConfig {
    /// Returns the default (serial) configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker thread count (`0` = auto-detect).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the shard size (clamped up to 1 — empty shards are
    /// meaningless).
    pub fn with_shard_size(mut self, shard_size: usize) -> Self {
        self.shard_size = shard_size.max(1);
        self
    }

    /// The thread count a run will actually use: resolves `0` to the
    /// host's available parallelism and never exceeds the shard count.
    pub fn effective_threads(&self, n_shards: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.threads
        };
        requested.max(1).min(n_shards.max(1))
    }
}

/// Wall-clock timing of one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTiming {
    /// Shard index (position in `0..n_shards`).
    pub shard: usize,
    /// Number of items the shard covered.
    pub items: usize,
    /// Time spent executing the shard's map function.
    pub elapsed: Duration,
}

/// Timing record of one engine run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Threads the run actually used.
    pub threads: usize,
    /// Total items processed.
    pub items: usize,
    /// Per-shard timings, in shard order.
    pub shards: Vec<ShardTiming>,
    /// Time spent in the caller's merge/reduce step (zero for plain
    /// [`Engine::run`]).
    pub merge_time: Duration,
    /// End-to-end wall-clock time of the run, merge included.
    pub wall_time: Duration,
}

impl EngineStats {
    /// Overall throughput in items per second (0 if the run was too fast
    /// to measure).
    pub fn items_per_sec(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }

    /// The slowest shard's elapsed time, if any shards ran.
    pub fn max_shard_time(&self) -> Option<Duration> {
        self.shards.iter().map(|s| s.elapsed).max()
    }

    /// Folds this run's timings into the global [`obs`] registry (one
    /// `engine/shard` observation per shard, one `engine/run` for the
    /// whole run, plus an `engine.items` counter). No-op while the
    /// registry is disabled.
    pub fn fold_into_obs(&self) {
        if !obs::enabled() {
            return;
        }
        for shard in &self.shards {
            obs::record("engine/shard", shard.elapsed);
        }
        obs::record("engine/run", self.wall_time);
        obs::counter("engine.items", self.items as u64);
    }
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} items / {} shard(s) on {} thread(s): {:?} wall, {:?} merge, {:.0} items/s",
            self.items,
            self.shards.len(),
            self.threads,
            self.wall_time,
            self.merge_time,
            self.items_per_sec()
        )
    }
}

/// Splits `0..n_items` into consecutive shards of at most `shard_size`
/// items. The final shard holds the remainder when `n_items` is not a
/// multiple of `shard_size`.
pub fn shard_ranges(n_items: usize, shard_size: usize) -> Vec<Range<usize>> {
    let shard_size = shard_size.max(1);
    (0..n_items)
        .step_by(shard_size)
        .map(|start| start..(start + shard_size).min(n_items))
        .collect()
}

/// A sharded executor with a fixed [`EngineConfig`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Builds an engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        Self { config }
    }

    /// A serial engine (one thread, default shard size).
    pub fn serial() -> Self {
        Self::default()
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Maps `f` over the shards of `0..n_items` and returns the results
    /// **in shard order**, plus run statistics.
    ///
    /// `f` receives the item range of its shard. Results are ordered by
    /// shard index regardless of which thread produced them, so callers
    /// that fold the vector front-to-back observe exactly the serial
    /// order.
    pub fn run<R, F>(&self, n_items: usize, f: F) -> (Vec<R>, EngineStats)
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let started = Instant::now();
        let ranges = shard_ranges(n_items, self.config.shard_size);
        let threads = self.config.effective_threads(ranges.len());

        let (results, timings) = if threads <= 1 {
            run_inline(&ranges, &f)
        } else {
            run_scoped(&ranges, threads, &f)
        };

        let stats = EngineStats {
            threads,
            items: n_items,
            shards: timings,
            merge_time: Duration::ZERO,
            wall_time: started.elapsed(),
        };
        stats.fold_into_obs();
        (results, stats)
    }

    /// Maps `f` over shards, then folds the shard results **in shard
    /// order** with `reduce`. The fold is timed as the merge step in the
    /// returned [`EngineStats`].
    pub fn map_reduce<R, M, F, G>(&self, n_items: usize, f: F, reduce: G) -> (M, EngineStats)
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
        G: FnOnce(Vec<R>) -> M,
    {
        let started = Instant::now();
        let (results, mut stats) = self.run(n_items, f);
        let merge_started = Instant::now();
        let merged = reduce(results);
        stats.merge_time = merge_started.elapsed();
        stats.wall_time = started.elapsed();
        if obs::enabled() {
            obs::record("engine/merge", stats.merge_time);
        }
        (merged, stats)
    }
}

/// Serial execution on the calling thread: no pool, no channels.
fn run_inline<R, F>(ranges: &[Range<usize>], f: &F) -> (Vec<R>, Vec<ShardTiming>)
where
    F: Fn(Range<usize>) -> R,
{
    let mut results = Vec::with_capacity(ranges.len());
    let mut timings = Vec::with_capacity(ranges.len());
    for (shard, range) in ranges.iter().enumerate() {
        let items = range.len();
        let started = Instant::now();
        results.push(f(range.clone()));
        timings.push(ShardTiming {
            shard,
            items,
            elapsed: started.elapsed(),
        });
    }
    (results, timings)
}

/// Parallel execution: scoped workers claim shard indices from an atomic
/// counter, and results are re-ordered by shard index afterwards.
fn run_scoped<R, F>(ranges: &[Range<usize>], threads: usize, f: &F) -> (Vec<R>, Vec<ShardTiming>)
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let shard = next.fetch_add(1, Ordering::Relaxed);
                        let Some(range) = ranges.get(shard) else {
                            break;
                        };
                        let started = Instant::now();
                        let result = f(range.clone());
                        local.push((shard, result, started.elapsed()));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });

    // Restore shard order so merges are deterministic.
    tagged.sort_by_key(|(shard, _, _)| *shard);
    debug_assert_eq!(tagged.len(), ranges.len());
    let mut results = Vec::with_capacity(tagged.len());
    let mut timings = Vec::with_capacity(tagged.len());
    for (shard, result, elapsed) in tagged {
        results.push(result);
        timings.push(ShardTiming {
            shard,
            items: ranges[shard].len(),
            elapsed,
        });
    }
    (results, timings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_remainder() {
        let ranges = shard_ranges(10, 4);
        assert_eq!(ranges, vec![0..4, 4..8, 8..10]);
        assert_eq!(shard_ranges(0, 4), Vec::<Range<usize>>::new());
        assert_eq!(shard_ranges(3, 100), vec![0..3]);
    }

    #[test]
    fn shard_size_zero_is_clamped() {
        assert_eq!(shard_ranges(3, 0), vec![0..1, 1..2, 2..3]);
        assert_eq!(EngineConfig::new().with_shard_size(0).shard_size, 1);
    }

    #[test]
    fn results_arrive_in_shard_order_for_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let engine = Engine::new(EngineConfig::new().with_threads(threads).with_shard_size(3));
            let (results, stats) = engine.run(20, |range| range.collect::<Vec<usize>>());
            let flat: Vec<usize> = results.into_iter().flatten().collect();
            assert_eq!(flat, (0..20).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(stats.items, 20);
            assert_eq!(stats.shards.len(), 7);
            assert_eq!(
                stats.shards.iter().map(|s| s.shard).collect::<Vec<_>>(),
                (0..7).collect::<Vec<_>>()
            );
            assert_eq!(stats.shards.iter().map(|s| s.items).sum::<usize>(), 20);
        }
    }

    #[test]
    fn map_reduce_is_deterministic_across_thread_counts() {
        let reference: i64 = (0..1000).map(|i| (i as i64) * (i as i64)).sum();
        for threads in [1, 2, 3, 8] {
            let engine = Engine::new(EngineConfig::new().with_threads(threads).with_shard_size(7));
            let (sum, stats) = engine.map_reduce(
                1000,
                |range| range.map(|i| (i as i64) * (i as i64)).sum::<i64>(),
                |partials| partials.into_iter().sum::<i64>(),
            );
            assert_eq!(sum, reference, "threads={threads}");
            assert!(stats.wall_time >= stats.merge_time);
        }
    }

    #[test]
    fn effective_threads_resolves_auto_and_clamps() {
        let auto = EngineConfig::new().with_threads(0);
        assert!(auto.effective_threads(100) >= 1);
        let many = EngineConfig::new().with_threads(16);
        assert_eq!(many.effective_threads(4), 4);
        assert_eq!(many.effective_threads(0), 1);
    }

    #[test]
    fn empty_input_produces_no_shards() {
        let engine = Engine::new(EngineConfig::new().with_threads(4));
        let (results, stats) = engine.run(0, |range| range.len());
        assert!(results.is_empty());
        assert_eq!(stats.items, 0);
        assert_eq!(stats.items_per_sec(), 0.0);
        assert!(stats.max_shard_time().is_none());
    }

    #[test]
    fn runs_fold_timings_into_obs_when_enabled() {
        // The fold targets the process-global registry, and sibling tests
        // in this binary may run engines concurrently while it is enabled,
        // so assert lower bounds rather than exact counts.
        obs::reset();
        obs::set_enabled(true);
        let engine = Engine::new(EngineConfig::new().with_threads(2).with_shard_size(5));
        let (_, stats) = engine.map_reduce(
            20,
            |range| range.len(),
            |partials| partials.into_iter().sum::<usize>(),
        );
        obs::set_enabled(false);
        let snap = obs::snapshot();
        obs::reset();
        let shard = snap
            .spans
            .iter()
            .find(|s| s.path == "engine/shard")
            .expect("engine/shard span recorded");
        assert!(shard.count as usize >= stats.shards.len());
        assert!(snap.spans.iter().any(|s| s.path == "engine/run"));
        assert!(snap.spans.iter().any(|s| s.path == "engine/merge"));
        assert!(snap.counter("engine.items") >= 20);
    }

    #[test]
    fn stats_display_mentions_throughput() {
        let engine = Engine::serial();
        let (_, stats) = engine.run(10, |r| r.len());
        let text = format!("{stats}");
        assert!(text.contains("items/s"), "{text}");
    }
}
