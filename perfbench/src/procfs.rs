//! Counters read from outside the program: per-thread `/proc` task files,
//! host CPU steal and the process's peak resident set.

use std::fs;

/// Cumulative counters of a set of threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaskTotals {
    /// `syscr + syscw` from `/proc/self/task/<tid>/io`.
    pub rw_syscalls: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Time on a CPU in nanoseconds (`schedstat`, first field).
    pub cpu_ns: u64,
}

impl TaskTotals {
    pub fn add(&mut self, other: &TaskTotals) {
        self.rw_syscalls += other.rw_syscalls;
        self.ctx_switches += other.ctx_switches;
        self.cpu_ns += other.cpu_ns;
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &TaskTotals) -> TaskTotals {
        TaskTotals {
            rw_syscalls: self.rw_syscalls.saturating_sub(earlier.rw_syscalls),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
        }
    }
}

fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').trim().parse().ok())
        .unwrap_or(0)
}

fn task(tid: u32) -> TaskTotals {
    let dir = format!("/proc/self/task/{tid}");
    let io = fs::read_to_string(format!("{dir}/io")).unwrap_or_default();
    let status = fs::read_to_string(format!("{dir}/status")).unwrap_or_default();
    let schedstat = fs::read_to_string(format!("{dir}/schedstat")).unwrap_or_default();
    TaskTotals {
        rw_syscalls: field(&io, "syscr") + field(&io, "syscw"),
        ctx_switches: field(&status, "voluntary_ctxt_switches")
            + field(&status, "nonvoluntary_ctxt_switches"),
        cpu_ns: schedstat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0),
    }
}

/// The main thread's id (the process id on Linux).
pub fn main_tid() -> u32 {
    std::process::id()
}

/// Totals over every thread of this process except the main thread,
/// which generates the load: while a server runs, that is the server's
/// reactor, worker and trainer threads.
pub fn server_threads() -> TaskTotals {
    let mut totals = TaskTotals::default();
    let Ok(entries) = fs::read_dir("/proc/self/task") else {
        return totals;
    };
    for entry in entries.flatten() {
        if let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
            if tid != main_tid() {
                totals.add(&task(tid));
            }
        }
    }
    totals
}

/// Counters of the main (load-generating) thread.
pub fn main_thread() -> TaskTotals {
    task(main_tid())
}

/// Host-wide `(steal, total)` jiffies from the first line of `/proc/stat`.
pub fn cpu_steal() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let values: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user, so the total stops at steal.
    let total = values.iter().take(8).sum();
    (values.get(7).copied().unwrap_or(0), total)
}

/// Steal share in percent between two [`cpu_steal`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0);
    kib / 1024.0
}
