//! SLO-aware health: multi-window burn rates over the obs window ring.
//!
//! The admin `/healthz` route originally answered an unconditional
//! `ok` — useless to a load balancer deciding whether to keep routing
//! traffic here. This module turns the windowed telemetry the registry
//! already keeps (last-10-s and last-60-s aggregates, see
//! [`obs::WindowAgg`]) into an actionable health verdict:
//!
//! * **Draining** — the server took a shutdown and is flushing its last
//!   responses; new traffic belongs elsewhere immediately.
//! * **Sustained admission shed** — the admission tiers
//!   (`serve.conn_rejections` at accept, `serve.overload_rejections` at
//!   the trainer queue) are rejecting work in the short window
//!   *and* were already rejecting before it (`w60 > w10`): not a blip
//!   but a standing overload.
//! * **SLO burn** — the operator declared a p99 latency target
//!   (`--slo-p99-ms`) and/or an error-rate target (`--slo-error-rate`),
//!   and the measured value exceeds it in **both** windows. Requiring
//!   the short and the long window to burn together is the classic
//!   multi-window alerting rule: one slow request cannot flap the
//!   health bit (the long window stays clean), and a recovered server
//!   goes healthy as soon as the short window clears even while the
//!   long window still remembers the incident... the *burn rate* —
//!   measured / target — is reported per window so dashboards can graph
//!   how far over budget the server runs, not just that it is.
//!
//! [`HealthState`] is shared between the serving core (which flips the
//! draining bit on shutdown) and the admin listener (which calls
//! [`HealthState::evaluate`] per `/healthz` or `/slo.json` scrape).
//! Evaluation reads a fresh [`obs::snapshot`] — nothing here touches
//! the request hot path.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// The span whose windowed p99 the latency SLO is judged against.
const REQUEST_SPAN: &str = "serve/request";

/// Counters that terminate requests successfully / unsuccessfully; the
/// error-rate SLO is `error / (ok + error)` per window.
const OK_COUNTER: &str = "serve.responses.ok";
const ERROR_COUNTER: &str = "serve.responses.error";

/// Admission-control rejection counters; any of them firing means work
/// was turned away at the door.
const SHED_COUNTERS: &[&str] = &["serve.conn_rejections", "serve.overload_rejections"];

/// Operator-declared service-level objectives. Both axes are optional;
/// with neither set, health still reflects draining and sustained-shed
/// state. Targets are stored as integers (nanoseconds / parts per
/// million) so the config stays `Eq` and exactly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SloConfig {
    p99_ns: Option<u64>,
    error_ppm: Option<u64>,
}

impl SloConfig {
    /// No objectives: `/healthz` degrades only on draining or sustained
    /// shed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a p99 latency target for the `serve/request` span, in
    /// milliseconds (fractions allowed; clamped up to 1 µs so a zero
    /// target cannot make every request a violation).
    pub fn with_p99_ms(mut self, ms: f64) -> Self {
        self.p99_ns = Some(((ms * 1e6) as u64).max(1_000));
        self
    }

    /// Declares an error-rate target: the allowed fraction of responses
    /// answered with an error, in `[0, 1]` (e.g. `0.01` = 1%). Clamped
    /// up to one per million so burn rates stay finite.
    pub fn with_error_rate(mut self, rate: f64) -> Self {
        self.error_ppm = Some(((rate.clamp(0.0, 1.0) * 1e6) as u64).max(1));
        self
    }

    /// The latency target in nanoseconds, when declared.
    pub fn p99_ns(&self) -> Option<u64> {
        self.p99_ns
    }

    /// The error-rate target as a fraction, when declared.
    pub fn error_rate(&self) -> Option<f64> {
        self.error_ppm.map(|ppm| ppm as f64 / 1e6)
    }

    /// Whether any objective was declared.
    pub fn is_configured(&self) -> bool {
        self.p99_ns.is_some() || self.error_ppm.is_some()
    }
}

/// One SLO axis evaluated against both windows: the measured value, the
/// burn rate (measured / target), and the verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloAxis {
    /// The declared target (nanoseconds for latency, fraction for
    /// errors).
    pub target: f64,
    /// Measured value over the short (10 s) window.
    pub w10: f64,
    /// Measured value over the long (60 s) window.
    pub w60: f64,
    /// `w10 / target`.
    pub burn10: f64,
    /// `w60 / target`.
    pub burn60: f64,
}

impl SloAxis {
    fn new(target: f64, w10: f64, w60: f64) -> Self {
        Self {
            target,
            w10,
            w60,
            burn10: w10 / target,
            burn60: w60 / target,
        }
    }

    /// Multi-window breach: both the short and the long window exceed
    /// the target.
    pub fn breached(&self) -> bool {
        self.burn10 > 1.0 && self.burn60 > 1.0
    }
}

/// A point-in-time health verdict (see [`HealthState::evaluate`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Health {
    /// Draining: shutdown triggered, last responses still flushing.
    pub draining: bool,
    /// Sustained admission shed: rejections in the short window on top
    /// of rejections predating it.
    pub shedding: bool,
    /// Shed counts backing the verdict: `(w10, w60)` sums over the
    /// admission-rejection counters.
    pub shed_counts: (u64, u64),
    /// The latency axis, when a p99 target is declared.
    pub p99: Option<SloAxis>,
    /// The error-rate axis, when a target is declared.
    pub errors: Option<SloAxis>,
}

impl Health {
    /// Healthy = not draining, not in sustained shed, and no declared
    /// SLO burning in both windows.
    pub fn healthy(&self) -> bool {
        self.reason().is_none()
    }

    /// The first (most severe) reason this server is unhealthy, `None`
    /// when healthy. Severity order: draining (never route here again),
    /// then sustained shed (actively refusing work), then SLO burn
    /// (accepting work but violating its objectives).
    pub fn reason(&self) -> Option<String> {
        if self.draining {
            return Some("draining: shutdown in progress".to_owned());
        }
        if self.shedding {
            return Some(format!(
                "shedding: admission rejections sustained (w10={}, w60={})",
                self.shed_counts.0, self.shed_counts.1
            ));
        }
        if let Some(p99) = &self.p99 {
            if p99.breached() {
                return Some(format!(
                    "slo burn: p99 {:.3} ms over both windows (target {:.3} ms, burn w10={:.2}x w60={:.2}x)",
                    p99.w10 / 1e6,
                    p99.target / 1e6,
                    p99.burn10,
                    p99.burn60
                ));
            }
        }
        if let Some(errors) = &self.errors {
            if errors.breached() {
                return Some(format!(
                    "slo burn: error rate {:.4} over both windows (target {:.4}, burn w10={:.2}x w60={:.2}x)",
                    errors.w10, errors.target, errors.burn10, errors.burn60
                ));
            }
        }
        None
    }

    /// Renders the verdict as the `/slo.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        let _ = write!(
            out,
            "{{\n  \"healthy\": {},\n  \"draining\": {},\n  \"shedding\": {},\n  \"shed\": {{\"w10\": {}, \"w60\": {}}}",
            self.healthy(),
            self.draining,
            self.shedding,
            self.shed_counts.0,
            self.shed_counts.1
        );
        let axis = |out: &mut String, key: &str, axis: &Option<SloAxis>, scale: f64, unit: &str| {
            match axis {
                Some(a) => {
                    let _ = write!(
                        out,
                        ",\n  \"{key}\": {{\"target_{unit}\": {:.6}, \"w10_{unit}\": {:.6}, \"w60_{unit}\": {:.6}, \"burn10\": {:.6}, \"burn60\": {:.6}, \"breached\": {}}}",
                        a.target / scale,
                        a.w10 / scale,
                        a.w60 / scale,
                        a.burn10,
                        a.burn60,
                        a.breached()
                    );
                }
                None => {
                    let _ = write!(out, ",\n  \"{key}\": null");
                }
            }
        };
        axis(&mut out, "p99", &self.p99, 1e6, "ms");
        axis(&mut out, "error_rate", &self.errors, 1.0, "frac");
        match self.reason() {
            Some(reason) => {
                let _ = write!(out, ",\n  \"reason\": \"{}\"", reason.replace('"', "'"));
            }
            None => out.push_str(",\n  \"reason\": null"),
        }
        out.push_str("\n}\n");
        out
    }
}

/// Health state shared by the serving core and the admin listener. The
/// core flips the draining bit on shutdown; the admin listener calls
/// [`HealthState::evaluate`] per scrape.
#[derive(Debug, Default)]
pub struct HealthState {
    draining: AtomicBool,
    slo: SloConfig,
}

impl HealthState {
    /// A live (non-draining) health state judging against `slo`.
    pub fn new(slo: SloConfig) -> Self {
        Self {
            draining: AtomicBool::new(false),
            slo,
        }
    }

    /// The objectives this state judges against.
    pub fn slo(&self) -> &SloConfig {
        &self.slo
    }

    /// Marks the server as draining (idempotent; never unset — a
    /// drained server restarts rather than un-drains).
    pub fn set_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the draining bit is set.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Judges `snapshot` against the draining bit, the sustained-shed
    /// rule, and the declared objectives.
    pub fn evaluate(&self, snapshot: &obs::Snapshot) -> Health {
        let shed10: u64 = SHED_COUNTERS
            .iter()
            .map(|name| windowed_counter(snapshot, name).0)
            .sum();
        let shed60: u64 = SHED_COUNTERS
            .iter()
            .map(|name| windowed_counter(snapshot, name).1)
            .sum();

        let p99 = self.slo.p99_ns.map(|target| {
            // The span is judged across all its label sets (it has none
            // today; summing keeps the rule stable if it gains some).
            let (w10, w60) = snapshot
                .spans
                .iter()
                .filter(|s| s.path == REQUEST_SPAN)
                .fold((0u64, 0u64), |(a, b), s| {
                    (a.max(s.w10.p99_ns), b.max(s.w60.p99_ns))
                });
            SloAxis::new(target as f64, w10 as f64, w60 as f64)
        });

        let errors = self.slo.error_rate().map(|target| {
            let (ok10, ok60) = windowed_counter(snapshot, OK_COUNTER);
            let (err10, err60) = windowed_counter(snapshot, ERROR_COUNTER);
            let rate = |err: u64, ok: u64| {
                let total = err + ok;
                if total == 0 {
                    0.0
                } else {
                    err as f64 / total as f64
                }
            };
            SloAxis::new(target, rate(err10, ok10), rate(err60, ok60))
        });

        Health {
            draining: self.is_draining(),
            // Sustained: shedding inside the short window *and* before
            // it (the long window holds strictly more).
            shedding: shed10 > 0 && shed60 > shed10,
            shed_counts: (shed10, shed60),
            p99,
            errors,
        }
    }
}

/// `(w10, w60)` sums of counter `name` across all of its label sets.
fn windowed_counter(snapshot: &obs::Snapshot, name: &str) -> (u64, u64) {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name == name)
        .fold((0, 0), |(a, b), c| (a + c.w10, b + c.w60))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::obs_test_guard;

    #[test]
    fn slo_config_roundtrips_and_clamps() {
        let slo = SloConfig::new().with_p99_ms(2.5).with_error_rate(0.01);
        assert_eq!(slo.p99_ns(), Some(2_500_000));
        assert!((slo.error_rate().unwrap() - 0.01).abs() < 1e-9);
        assert!(slo.is_configured());
        // Zero targets clamp instead of dividing by zero.
        let zero = SloConfig::new().with_p99_ms(0.0).with_error_rate(0.0);
        assert_eq!(zero.p99_ns(), Some(1_000));
        assert!(zero.error_rate().unwrap() > 0.0);
        assert!(!SloConfig::new().is_configured());
    }

    #[test]
    fn draining_and_shed_rules() {
        let _guard = obs_test_guard();
        obs::reset();
        obs::set_enabled(true);

        let state = HealthState::new(SloConfig::new());
        let snap = obs::snapshot();
        assert!(state.evaluate(&snap).healthy());

        // Shed only inside the short window: a blip, still healthy.
        obs::set_window_epoch_for_test(1000);
        obs::counter("serve.conn_rejections", 3);
        let health = state.evaluate(&obs::snapshot());
        assert!(health.healthy(), "blip must not degrade: {health:?}");
        assert_eq!(health.shed_counts, (3, 3));

        // Shed before the short window too: sustained, unhealthy.
        obs::set_window_epoch_for_test(1010);
        obs::counter("serve.overload_rejections", 2);
        let health = state.evaluate(&obs::snapshot());
        assert!(health.shedding);
        assert!(!health.healthy());
        assert!(health.reason().unwrap().contains("shedding"), "{health:?}");

        state.set_draining();
        let health = state.evaluate(&obs::snapshot());
        assert!(health.draining);
        assert!(health.reason().unwrap().contains("draining"));

        obs::set_window_epoch_for_test(0);
        obs::set_enabled(false);
        obs::reset();
    }

    #[test]
    fn multi_window_burn_requires_both_windows() {
        let _guard = obs_test_guard();
        obs::reset();
        obs::set_enabled(true);
        let state = HealthState::new(SloConfig::new().with_p99_ms(1.0).with_error_rate(0.10));

        // Old slow traffic: only the long window sees it.
        obs::set_window_epoch_for_test(2000);
        for _ in 0..20 {
            obs::record("serve/request", Duration::from_millis(50));
            obs::counter("serve.responses.error", 1);
        }
        // Recent traffic is fast and clean.
        obs::set_window_epoch_for_test(2012);
        for _ in 0..20 {
            obs::record("serve/request", Duration::from_micros(100));
            obs::counter("serve.responses.ok", 1);
        }
        let health = state.evaluate(&obs::snapshot());
        let p99 = health.p99.unwrap();
        assert!(p99.burn60 > 1.0, "{p99:?}");
        assert!(p99.burn10 <= 1.0, "{p99:?}");
        assert!(!p99.breached());
        assert!(!health.errors.unwrap().breached());
        assert!(health.healthy(), "{health:?}");

        // Slow + erroring traffic in the short window as well: burn.
        for _ in 0..20 {
            obs::record("serve/request", Duration::from_millis(80));
            obs::counter("serve.responses.error", 1);
        }
        let health = state.evaluate(&obs::snapshot());
        assert!(health.p99.unwrap().breached());
        assert!(health.errors.unwrap().breached());
        assert!(!health.healthy());
        let json = health.to_json();
        assert!(json.contains("\"healthy\": false"), "{json}");
        assert!(json.contains("\"breached\": true"), "{json}");
        assert!(json.contains("\"reason\": \"slo burn"), "{json}");

        obs::set_window_epoch_for_test(0);
        obs::set_enabled(false);
        obs::reset();
    }
}
