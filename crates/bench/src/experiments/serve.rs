//! E24: the serving-layer throughput/latency benchmark.
//!
//! For each arrival pattern (Poisson, bursty, flood) the full
//! [`pas_sim::serve::Server`] loop — journal writes, watchdog timing,
//! admission gate, and the engine itself — is driven to completion and
//! timed. The table records **sustained jobs/sec** (jobs delivered over
//! serve-loop wall-clock) and the **p50/p99/max decision latency** from
//! [`pas_sim::ServeStats::decide_nanos`]. Each pattern runs fault-free
//! and again with a seeded E23 [`FaultPlan`] replayed on top, so the
//! numbers cover the crash/cancel/throttle/burst path too. The flood
//! pattern runs behind deadline-aware admission control — the overload
//! scenario the shedding gate exists for — and the row reports how many
//! jobs it shed.
//!
//! The shape to expect: decision latency is sub-microsecond (an O(1)
//! policy plus one journal line), throughput is decision-latency bound
//! and roughly flat across patterns, faults shave throughput by the
//! downtime they inject, and the flood row sheds most of its arrivals
//! while keeping p99 in the same band — overload degrades *capacity*,
//! not per-decision latency.

use crate::harness::{BenchFile, Row};
use pas_core::online::SpendAll;
use pas_power::PolyPower;
use pas_sim::online::{AdmissionConfig, ShedPolicy};
use pas_sim::{FaultModel, FaultPlan, Journal, ServeConfig, Server, WatchdogConfig};
use pas_workload::{generators, Instance};
use serde::Serialize;
use std::time::Instant;

/// One timed serving run.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Arrival pattern name.
    pub arrivals: &'static str,
    /// Jobs in the generated instance (bursts can add more).
    pub n: usize,
    /// Fault events in the injected plan (0 = fault-free run).
    pub fault_events: usize,
    /// Seed used for the workload and the fault plan.
    pub seed: u64,
    /// Jobs the run completed (admitted, not cancelled).
    pub delivered: usize,
    /// Jobs rejected or evicted by admission control.
    pub shed_jobs: usize,
    /// Serve-loop wall-clock, seconds.
    pub elapsed_secs: f64,
    /// Live policy consultations.
    pub decisions: u64,
    /// Median decision latency, nanoseconds.
    pub p50_decide_nanos: u64,
    /// 99th-percentile decision latency, nanoseconds.
    pub p99_decide_nanos: u64,
    /// Worst decision latency, nanoseconds.
    pub max_decide_nanos: u64,
    /// Watchdog budget overruns (expected 0 with the generous budget).
    pub watchdog_trips: u64,
    /// Energy the schedule metered.
    pub energy: f64,
}

impl ServePoint {
    /// Sustained throughput: delivered jobs over serve-loop wall-clock.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.delivered as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// The point as a `BENCH_serve.json` row.
    pub fn row(&self) -> Row {
        vec![
            ("arrivals", self.arrivals.to_value()),
            ("n", self.n.to_value()),
            ("fault_events", self.fault_events.to_value()),
            ("seed", self.seed.to_value()),
            ("delivered", self.delivered.to_value()),
            ("shed_jobs", self.shed_jobs.to_value()),
            ("elapsed_secs", self.elapsed_secs.to_value()),
            ("jobs_per_sec", self.jobs_per_sec().to_value()),
            ("decisions", self.decisions.to_value()),
            ("p50_decide_nanos", self.p50_decide_nanos.to_value()),
            ("p99_decide_nanos", self.p99_decide_nanos.to_value()),
            ("max_decide_nanos", self.max_decide_nanos.to_value()),
            ("watchdog_trips", self.watchdog_trips.to_value()),
            ("energy", self.energy.to_value()),
        ]
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn pattern_instance(pattern: &'static str, n: usize, seed: u64) -> Instance {
    match pattern {
        "poisson" => generators::poisson(n, 0.8, (0.5, 1.5), seed),
        "bursty" => generators::bursty(8, n.div_ceil(8), n as f64 / 4.0, 0.5, (0.5, 1.5), seed),
        "flood" => generators::flood(n, 1_000.0, (0.5, 1.5), seed),
        _ => unreachable!("unknown arrival pattern {pattern}"),
    }
}

/// The flood pattern's admission gate: deadline-aware shedding sized so
/// an `n`-job flood keeps only the prefix that can still meet a flow SLO
/// of ~10% of the backlog drain time at unit service rate.
fn flood_admission(instance: &Instance) -> AdmissionConfig {
    let slo = (0.1 * instance.total_work()).max(1.0);
    AdmissionConfig {
        capacity: instance.len(),
        shed: ShedPolicy::DeadlineAware {
            slo,
            service_rate: 1.0,
        },
    }
}

fn serve_point(
    pattern: &'static str,
    n: usize,
    fault_events_target: usize,
    seed: u64,
) -> ServePoint {
    let model = PolyPower::CUBE;
    let instance = pattern_instance(pattern, n, seed);
    let budget = 2.0 * instance.total_work();
    let horizon = instance.last_release() + instance.total_work();
    let plan = if fault_events_target == 0 {
        FaultPlan::none()
    } else {
        // Aim for a fixed number of events regardless of instance span
        // (the rates are per unit time) so the faulted rows stay
        // comparable across sizes.
        let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
        let rate = fault_events_target as f64 / horizon.max(1.0);
        FaultModel::uniform_mix(rate).sample(horizon, &ids, seed.wrapping_mul(0x9e37))
    };
    let config = ServeConfig {
        admission: (pattern == "flood").then(|| flood_admission(&instance)),
        snapshot_every: None,
        watchdog: Some(WatchdogConfig::default()),
        record_latency: true,
    };
    let mut policy = SpendAll::new(model, budget);
    let server = Server::new(&instance, &model, &plan, config, Journal::memory())
        .expect("serve setup succeeds");
    let start = Instant::now();
    let served = server.run(&mut policy).expect("serve run succeeds");
    let elapsed_secs = start.elapsed().as_secs_f64();
    let mut lat = served.stats.decide_nanos;
    lat.sort_unstable();
    ServePoint {
        arrivals: pattern,
        n,
        fault_events: plan.len(),
        seed,
        delivered: served.outcome.schedule.completion_times().len(),
        shed_jobs: served.outcome.resilience.shed_jobs,
        elapsed_secs,
        decisions: served.stats.decisions,
        p50_decide_nanos: percentile(&lat, 0.50),
        p99_decide_nanos: percentile(&lat, 0.99),
        max_decide_nanos: percentile(&lat, 1.0),
        watchdog_trips: served.stats.watchdog_trips,
        energy: served.outcome.energy,
    }
}

/// The three arrival patterns E24 sweeps.
pub const PATTERNS: [&str; 3] = ["poisson", "bursty", "flood"];

/// Run the sweep: every pattern, fault-free and with a seeded plan of
/// roughly `fault_events` events, at `n` jobs per instance.
pub fn serve_sweep(n: usize, fault_events: usize, seed: u64) -> Vec<ServePoint> {
    assert!(n >= 8, "need enough jobs to measure");
    let mut points = Vec::new();
    for pattern in PATTERNS {
        points.push(serve_point(pattern, n, 0, seed));
        points.push(serve_point(pattern, n, fault_events, seed));
    }
    points
}

/// `BENCH_serve.json`: a million jobs per pattern at the full tier, a
/// seconds-scale sweep at the smoke tier exercised in CI.
pub fn bench(smoke: bool) -> BenchFile {
    file(&if smoke {
        serve_sweep(4_000, 16, 1)
    } else {
        serve_sweep(1_000_000, 64, 1)
    })
}

fn file(points: &[ServePoint]) -> BenchFile {
    BenchFile::new(
        "serve_throughput",
        vec![
            (
                "setup",
                "full Server loop (memory journal, watchdog, latency capture; flood rows behind deadline-aware admission), SpendAll policy, fault-free and seeded-FaultPlan runs".to_value(),
            ),
            (
                "metric",
                "sustained jobs/sec (delivered over wall-clock) and p50/p99/max decision latency in nanoseconds".to_value(),
            ),
        ],
        points.iter().map(ServePoint::row).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::get;
    use serde::Value;

    #[test]
    fn sweep_covers_patterns_and_delivers_work() {
        let points = serve_sweep(64, 8, 3);
        // 3 patterns × {fault-free, faulted}.
        assert_eq!(points.len(), 6);
        for p in &points {
            assert!(p.delivered > 0, "{p:?}");
            assert!(p.decisions > 0, "{p:?}");
            assert!(p.elapsed_secs > 0.0, "{p:?}");
            assert!(p.p50_decide_nanos <= p.p99_decide_nanos, "{p:?}");
            assert!(p.p99_decide_nanos <= p.max_decide_nanos, "{p:?}");
        }
        let fault_free: Vec<_> = points.iter().filter(|p| p.fault_events == 0).collect();
        assert_eq!(fault_free.len(), 3);
        // The flood rows run behind deadline-aware admission; with the
        // tight SLO most of a 64-job flood is shed.
        let flood = points
            .iter()
            .find(|p| p.arrivals == "flood" && p.fault_events == 0)
            .unwrap();
        assert!(flood.shed_jobs > 0, "{flood:?}");
        assert_eq!(flood.delivered + flood.shed_jobs, flood.n, "{flood:?}");
    }

    #[test]
    fn bench_file_has_one_row_per_point() {
        let points = serve_sweep(32, 4, 1);
        let file = file(&points);
        assert_eq!(file.bench, "serve_throughput");
        assert!(get(&file.header, "setup").is_some());
        assert_eq!(file.rows.len(), points.len());
        for (row, p) in file.rows.iter().zip(&points) {
            assert_eq!(get(row, "arrivals"), Some(&Value::Str(p.arrivals.into())));
            assert_eq!(get(row, "shed_jobs"), Some(&Value::Num(p.shed_jobs as f64)));
        }
    }

    #[test]
    fn percentile_handles_edges() {
        assert_eq!(percentile(&[], 0.99), 0);
        assert_eq!(percentile(&[7], 0.5), 7);
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&v, 0.0), 0);
        assert_eq!(percentile(&v, 1.0), 99);
        assert_eq!(percentile(&v, 0.99), 98);
    }
}
