//! E23: the fault-resilience sweep — fault rate × online policy.
//!
//! For each workload family, policy, and fault rate, a deterministic
//! [`FaultPlan`] sampled from [`FaultModel::uniform_mix`] (equal parts
//! crash, cancellation, throttle, and arrival burst) is injected into
//! the online engine, and the faulted run is compared against the same
//! policy's fault-free baseline on the same instance. The table records
//! the energy and flow overheads, the makespan stretch, and the
//! [`pas_sim::ResilienceReport`] counters (downtime, lost work,
//! recovery latency, SLO misses). The shape to expect: overheads grow
//! with the fault rate, hedged policies degrade more gracefully than
//! spend-all (a crash late in a spend-all run has no energy left to
//! recover with), and recovery latency tracks crash duration plus the
//! re-planning delay of the first post-recovery decision.

use crate::harness::{BenchFile, Row};
use pas_core::online::{AdaptiveRate, FractionalSpend, SpendAll};
use pas_power::PolyPower;
use pas_sim::online::OnlinePolicy;
use pas_sim::{metrics, run_online_with_faults, FaultModel, FaultPlan};
use pas_workload::{generators, Instance};
use serde::Serialize;

/// One faulted run compared against its fault-free baseline.
#[derive(Debug, Clone)]
pub struct FaultPoint {
    /// Workload family name.
    pub workload: &'static str,
    /// Policy name (from [`OnlinePolicy::name`]).
    pub policy: String,
    /// Total fault rate fed to [`FaultModel::uniform_mix`].
    pub rate: f64,
    /// Seed used for both the workload and the fault plan.
    pub seed: u64,
    /// Energy of the fault-free baseline run.
    pub baseline_energy: f64,
    /// Makespan of the fault-free baseline run.
    pub baseline_makespan: f64,
    /// Mean per-job flow of the fault-free baseline run.
    pub baseline_mean_flow: f64,
    /// Energy of the faulted run.
    pub energy: f64,
    /// Makespan of the faulted run.
    pub makespan: f64,
    /// Mean per-job flow of the faulted run (over the jobs it actually
    /// delivered — cancelled jobs excluded, burst jobs included).
    pub mean_flow: f64,
    /// Crash events applied.
    pub crashes: usize,
    /// Total machine downtime.
    pub downtime: f64,
    /// Work erased by lose-progress crashes and cancellations.
    pub lost_work: f64,
    /// Energy metered on progress later erased or cancelled.
    pub wasted_energy: f64,
    /// Jobs cancelled.
    pub cancelled_jobs: usize,
    /// Jobs injected by arrival bursts.
    pub burst_jobs: usize,
    /// Decisions clamped by a throttle cap.
    pub throttle_clamps: usize,
    /// Largest crash-to-first-work recovery latency.
    pub max_recovery_latency: f64,
    /// Jobs whose flow exceeded the SLO (cancelled jobs count).
    pub deadline_misses: usize,
}

impl FaultPoint {
    /// Faulted energy over baseline energy.
    pub fn energy_overhead(&self) -> f64 {
        self.energy / self.baseline_energy
    }

    /// Faulted mean flow over baseline mean flow.
    pub fn flow_overhead(&self) -> f64 {
        self.mean_flow / self.baseline_mean_flow
    }

    /// Faulted makespan over baseline makespan.
    pub fn makespan_stretch(&self) -> f64 {
        self.makespan / self.baseline_makespan
    }

    /// The point as a `BENCH_faults.json` row.
    pub fn row(&self) -> Row {
        vec![
            ("workload", self.workload.to_value()),
            ("policy", self.policy.to_value()),
            ("rate", self.rate.to_value()),
            ("seed", self.seed.to_value()),
            ("energy_overhead", self.energy_overhead().to_value()),
            ("flow_overhead", self.flow_overhead().to_value()),
            ("makespan_stretch", self.makespan_stretch().to_value()),
            ("crashes", self.crashes.to_value()),
            ("downtime", self.downtime.to_value()),
            ("lost_work", self.lost_work.to_value()),
            ("wasted_energy", self.wasted_energy.to_value()),
            ("cancelled_jobs", self.cancelled_jobs.to_value()),
            ("burst_jobs", self.burst_jobs.to_value()),
            ("throttle_clamps", self.throttle_clamps.to_value()),
            ("max_recovery_latency", self.max_recovery_latency.to_value()),
            ("deadline_misses", self.deadline_misses.to_value()),
        ]
    }
}

/// Names of the swept policies, for documentation and assertions.
pub const POLICY_COUNT: usize = 3;

fn policy_at(idx: usize, model: PolyPower, budget: f64) -> Box<dyn OnlinePolicy> {
    match idx {
        0 => Box::new(SpendAll::new(model, budget)),
        1 => Box::new(FractionalSpend::new(model, budget, 0.5)),
        _ => Box::new(AdaptiveRate::new(model, budget, 10.0)),
    }
}

fn mean_flow(schedule: &pas_sim::Schedule, instance: &Instance) -> f64 {
    let completions = schedule.completion_times();
    let delivered = instance
        .jobs()
        .iter()
        .filter(|j| completions.contains_key(&j.id))
        .count();
    if delivered == 0 {
        return 0.0;
    }
    metrics::total_flow(schedule, instance) / delivered as f64
}

/// Run the sweep: `seeds` workloads per family, each policy once
/// fault-free and once per rate under a plan sampled for that rate.
pub fn fault_resilience(n: usize, rates: &[f64], seeds: u64) -> Vec<FaultPoint> {
    assert!(n >= 3, "need at least a few jobs");
    let model = PolyPower::CUBE;
    let mut points = Vec::new();
    for seed in 0..seeds {
        let workloads: Vec<(&'static str, Instance)> = vec![
            (
                "uniform",
                generators::uniform(n, n as f64 / 2.0, (0.5, 1.5), seed),
            ),
            (
                "clustered",
                generators::bursty(3, n / 3, n as f64 / 3.0, 0.5, (0.5, 1.5), seed),
            ),
            ("poisson", generators::poisson(n, 0.8, (0.5, 1.5), seed)),
        ];
        for (workload, instance) in workloads {
            // Generous budget: bursts inject extra work the budget must
            // absorb, and the point is degradation shape, not starvation.
            let budget = 2.5 * instance.total_work();
            let horizon = instance.last_release() + instance.total_work();
            let ids: Vec<u32> = instance.jobs().iter().map(|j| j.id).collect();
            for idx in 0..POLICY_COUNT {
                let mut baseline_policy = policy_at(idx, model, budget);
                let baseline = run_online_with_faults(
                    &instance,
                    &model,
                    baseline_policy.as_mut(),
                    &FaultPlan::none(),
                )
                .expect("fault-free run succeeds");
                let baseline_energy = baseline.energy;
                let baseline_makespan = metrics::makespan(&baseline.schedule);
                let baseline_mean_flow = mean_flow(&baseline.schedule, &instance);
                // SLO: twice the worst fault-free flow — a run that
                // doubles a job's response time has missed its deadline.
                let slo = 2.0 * metrics::max_flow(&baseline.schedule, &instance);
                for &rate in rates {
                    let plan = FaultModel::uniform_mix(rate)
                        .sample(
                            horizon,
                            &ids,
                            seed.wrapping_mul(0x9e37).wrapping_add(idx as u64),
                        )
                        .with_slo(slo);
                    let mut policy = policy_at(idx, model, budget);
                    let out = run_online_with_faults(&instance, &model, policy.as_mut(), &plan)
                        .expect("faulted run succeeds");
                    let flow_instance = out.effective.as_ref().unwrap_or(&instance);
                    points.push(FaultPoint {
                        workload,
                        policy: policy.name(),
                        rate,
                        seed,
                        baseline_energy,
                        baseline_makespan,
                        baseline_mean_flow,
                        energy: out.energy,
                        makespan: metrics::makespan(&out.schedule),
                        mean_flow: mean_flow(&out.schedule, flow_instance),
                        crashes: out.resilience.crashes,
                        downtime: out.resilience.downtime,
                        lost_work: out.resilience.lost_work,
                        wasted_energy: out.resilience.wasted_energy,
                        cancelled_jobs: out.resilience.cancelled_jobs,
                        burst_jobs: out.resilience.burst_jobs,
                        throttle_clamps: out.resilience.throttle_clamps,
                        max_recovery_latency: out.resilience.max_recovery_latency(),
                        deadline_misses: out.resilience.deadline_misses.unwrap_or(0),
                    });
                }
            }
        }
    }
    points
}

/// `BENCH_faults.json`: the acceptance tier (60 jobs, five rates, five
/// seeds) or the seconds-scale smoke tier exercised in CI.
pub fn bench(smoke: bool) -> BenchFile {
    file(&if smoke {
        fault_resilience(12, &[0.05, 0.2], 2)
    } else {
        fault_resilience(60, &[0.02, 0.05, 0.1, 0.2, 0.4], 5)
    })
}

fn file(points: &[FaultPoint]) -> BenchFile {
    BenchFile::new(
        "fault_resilience",
        vec![
            (
                "fault_model",
                "uniform_mix(rate): crash/cancel/throttle/burst at rate/4 each, seeded Poisson arrivals".to_value(),
            ),
            (
                "metric",
                "faulted-over-baseline overheads plus ResilienceReport counters".to_value(),
            ),
        ],
        points.iter().map(FaultPoint::row).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::get;
    use serde::Value;

    #[test]
    fn sweep_covers_the_matrix_and_baselines_are_clean() {
        let points = fault_resilience(10, &[0.0, 0.3], 1);
        // 3 workloads × 3 policies × 2 rates × 1 seed.
        assert_eq!(points.len(), 18);
        for p in &points {
            assert!(p.baseline_energy > 0.0, "{p:?}");
            assert!(p.baseline_makespan > 0.0, "{p:?}");
            assert!(p.energy_overhead().is_finite(), "{p:?}");
            assert!(p.makespan_stretch() >= 0.0, "{p:?}");
            if p.rate == 0.0 {
                // Rate zero samples an empty plan: the faulted run IS
                // the baseline (SLO aside), so overheads are exactly 1.
                assert_eq!(p.crashes, 0, "{p:?}");
                assert!((p.energy_overhead() - 1.0).abs() < 1e-9, "{p:?}");
                assert!((p.makespan_stretch() - 1.0).abs() < 1e-9, "{p:?}");
            }
        }
        // At rate 0.3 over 9 runs, at least one fault should land.
        let hit = points
            .iter()
            .filter(|p| p.rate > 0.0)
            .any(|p| p.crashes + p.cancelled_jobs + p.burst_jobs + p.throttle_clamps > 0);
        assert!(hit, "no faults landed at rate 0.3");
    }

    #[test]
    fn bench_file_has_one_row_per_point() {
        let points = fault_resilience(8, &[0.2], 1);
        let file = file(&points);
        assert_eq!(file.bench, "fault_resilience");
        assert!(get(&file.header, "fault_model").is_some());
        assert_eq!(file.rows.len(), points.len());
        for (row, p) in file.rows.iter().zip(&points) {
            assert_eq!(get(row, "policy"), Some(&Value::Str(p.policy.clone())));
            assert_eq!(get(row, "crashes"), Some(&Value::Num(p.crashes as f64)));
        }
    }

    #[test]
    fn plans_replay_identically_across_calls() {
        let a = fault_resilience(8, &[0.25], 2);
        let b = fault_resilience(8, &[0.25], 2);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.energy.to_bits(), y.energy.to_bits());
            assert_eq!(x.crashes, y.crashes);
            assert_eq!(x.deadline_misses, y.deadline_misses);
        }
    }
}
