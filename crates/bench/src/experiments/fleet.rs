//! E25: the fleet-scaling sweep — host count × dispatch policy.
//!
//! A heterogeneous fleet (four cycling host archetypes: bare cubic,
//! ladder+qOA, idle+sleep+BKP, capped ladder) serves a heavy-tailed
//! workload of roughly `jobs_per_host` jobs per host. For each host
//! count the sweep records wall time of a full deterministic run plus
//! the fleet-level outcome: dynamic/static energy, flow, makespan,
//! sleeps, sheds, and the fleet digest. The shape to expect: wall time
//! grows roughly linearly in total job count (each host's engine run is
//! linear in its own queue, dispatch is an `O(hosts)` scan per
//! arrival), static energy grows with host count (more idle floors to
//! pay), and the digest is bit-stable across re-runs of the same sweep.
//!
//! The bench document also embeds the single-host equivalence check —
//! a 1-host fleet re-run against the bare `pas_sim` engine at digest
//! level — so the perf record is self-certifying: a trajectory entry
//! with `"single_host_equivalence": false` is evidence of a correctness
//! regression, not a perf change.

use std::time::Instant;

use crate::harness::{BenchFile, Row};
use pas_fleet::{
    run, DispatchPolicy, EnginePower, FleetScenario, HostConfig, HostPolicy, PhaseBreakdown,
};
use pas_power::{DiscreteSpeeds, HostPower, PolyPower, SleepConfig};
use pas_sim::journal::outcome_digest;
use pas_sim::run_online_with_faults;
use pas_workload::{generators, Instance};
use serde::{Serialize, Value};

/// One fleet run at one host count.
#[derive(Debug, Clone)]
pub struct FleetScalingPoint {
    /// Number of hosts.
    pub hosts: usize,
    /// Total jobs dispatched.
    pub jobs: usize,
    /// Dispatch policy name.
    pub dispatch: &'static str,
    /// Seed of the run.
    pub seed: u64,
    /// Wall time of the full run (dispatch + every host engine).
    pub wall_ms: f64,
    /// The run's per-phase wall times.
    pub phases: PhaseBreakdown,
    /// Engine-metered dynamic energy across the fleet.
    pub dynamic_energy: f64,
    /// Idle/sleep static energy across the fleet.
    pub static_energy: f64,
    /// Total flow across the fleet.
    pub total_flow: f64,
    /// Latest completion across hosts.
    pub makespan: f64,
    /// Jobs completed fleet-wide.
    pub completed_jobs: usize,
    /// Arrivals no host could take plus per-host admission sheds.
    pub shed_jobs: usize,
    /// Sleep transitions across hosts.
    pub sleep_transitions: usize,
    /// The fleet digest (bit-stable across re-runs).
    pub digest: u64,
}

impl FleetScalingPoint {
    /// The point as a `BENCH_fleet.json` row.
    pub fn row(&self) -> Row {
        let mut row = vec![
            ("hosts", self.hosts.to_value()),
            ("jobs", self.jobs.to_value()),
            ("dispatch", self.dispatch.to_value()),
            ("seed", self.seed.to_value()),
            ("wall_ms", self.wall_ms.to_value()),
        ];
        row.extend(phase_cells(&self.phases));
        row.extend([
            ("dynamic_energy", self.dynamic_energy.to_value()),
            ("static_energy", self.static_energy.to_value()),
            ("total_flow", self.total_flow.to_value()),
            ("makespan", self.makespan.to_value()),
            ("completed_jobs", self.completed_jobs.to_value()),
            ("shed_jobs", self.shed_jobs.to_value()),
            ("sleep_transitions", self.sleep_transitions.to_value()),
            ("digest", format!("{:016x}", self.digest).to_value()),
        ]);
        row
    }
}

/// The `*_ms` phase columns shared by the E25 and E26 rows.
pub(crate) fn phase_cells(phases: &PhaseBreakdown) -> [(&'static str, Value); 4] {
    [
        ("dispatch_ms", phases.dispatch_ms.to_value()),
        ("partition_ms", phases.partition_ms.to_value()),
        ("execute_ms", phases.execute_ms.to_value()),
        ("reduce_ms", phases.reduce_ms.to_value()),
    ]
}

/// The four cycling host archetypes: the heterogeneity axis of the
/// sweep (also reused verbatim by E26 so its digests cross-check
/// against this sweep's).
pub fn archetype(id: u32) -> HostConfig {
    let cube = PolyPower::CUBE;
    match id % 4 {
        0 => HostConfig::new(id, HostPower::dynamic_only(EnginePower::Poly(cube))),
        1 => {
            let ladder = DiscreteSpeeds::new(cube, vec![0.8, 1.8, 2.0]);
            let mut h = HostConfig::new(id, HostPower::with_idle(EnginePower::Ladder(ladder), 0.1));
            h.policy = HostPolicy::Qoa {
                allowance: 4.0,
                alpha: 3.0,
                q: 5.0,
            };
            h
        }
        2 => {
            let mut h = HostConfig::new(
                id,
                HostPower::with_idle(EnginePower::Poly(cube), 0.3).with_sleep(SleepConfig {
                    threshold: 2.0,
                    sleep_power: 0.05,
                    wake_energy: 1.0,
                }),
            );
            h.policy = HostPolicy::Bkp { factor: 1.3 };
            h
        }
        _ => {
            let ladder = DiscreteSpeeds::new(cube, vec![0.5, 1.0, 1.5, 2.5]);
            let mut h =
                HostConfig::new(id, HostPower::with_idle(EnginePower::Ladder(ladder), 0.05));
            h.speed_cap = Some(1.5);
            h.policy = HostPolicy::Fixed { speed: 1.2 };
            h
        }
    }
}

fn dispatch_name(d: DispatchPolicy) -> &'static str {
    match d {
        DispatchPolicy::RoundRobin => "round_robin",
        DispatchPolicy::LeastAssigned => "least_assigned",
        DispatchPolicy::WeightedFastest => "weighted_fastest",
    }
}

/// Build the sweep's workload for a given fleet size: heavy-tailed
/// (bounded-Pareto) works on Poisson arrivals, sized to roughly
/// `jobs_per_host` jobs per host over a fixed arrival window.
pub fn fleet_workload(hosts: usize, jobs_per_host: usize, seed: u64) -> Instance {
    let n = hosts * jobs_per_host;
    // Arrival window ~50 time units regardless of n, so bigger fleets
    // face proportionally denser traffic (the scaling stressor).
    generators::heavy_tailed(n, n as f64 / 50.0, 0.2, 8.0, 1.5, seed)
}

/// The E25 scenario at one fleet size: the cycling archetypes serving
/// [`fleet_workload`], round-robin dispatch. E26 runs it verbatim.
pub(crate) fn scenario(hosts: usize, jobs_per_host: usize, seed: u64) -> FleetScenario {
    let workload = fleet_workload(hosts, jobs_per_host, seed);
    let horizon = workload.last_release() + 50.0;
    let host_cfgs = (0..hosts as u32).map(archetype).collect();
    FleetScenario::new(host_cfgs, workload, horizon, seed)
}

/// Run the sweep over `host_counts`, all three dispatch policies per
/// count.
pub fn fleet_scaling(
    host_counts: &[usize],
    jobs_per_host: usize,
    seed: u64,
) -> Vec<FleetScalingPoint> {
    let mut points = Vec::new();
    for &hosts in host_counts {
        assert!(hosts > 0, "host counts must be positive");
        let base = scenario(hosts, jobs_per_host, seed);
        for dispatch in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastAssigned,
            DispatchPolicy::WeightedFastest,
        ] {
            let mut scenario = base.clone();
            scenario.dispatch = dispatch;
            let t = Instant::now();
            let out = run(&scenario).expect("fleet run succeeds");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            points.push(FleetScalingPoint {
                hosts,
                jobs: scenario.workload.len(),
                dispatch: dispatch_name(dispatch),
                seed,
                wall_ms,
                phases: out.timings,
                dynamic_energy: out.dynamic_energy,
                static_energy: out.static_energy,
                total_flow: out.total_flow,
                makespan: out.makespan,
                completed_jobs: out.completed_jobs,
                shed_jobs: out.shed_jobs(),
                sleep_transitions: out.hosts.iter().map(|h| h.sleep_transitions).sum(),
                digest: out.digest,
            });
        }
    }
    points
}

/// The digest-level single-host equivalence check the JSON embeds: a
/// 1-host fleet (the ladder+qOA archetype, the hardest configuration)
/// must reproduce the bare engine bit-for-bit.
pub fn single_host_equivalence() -> bool {
    let workload = fleet_workload(1, 24, 7);
    let host = archetype(1);
    let mut cfgs = vec![host];
    cfgs[0].id = 0;
    let scenario = FleetScenario::new(cfgs, workload.clone(), workload.last_release() + 50.0, 7);
    let fleet = match run(&scenario) {
        Ok(out) => out,
        Err(_) => return false,
    };
    let cfg = &scenario.hosts[0];
    let ids: Vec<u32> = workload.jobs().iter().map(|j| j.id).collect();
    let plan = scenario.host_plan(cfg.id, &ids);
    let model = cfg.power.model();
    let mut policy = cfg.policy.build(model);
    match run_online_with_faults(&workload, model, policy.as_mut(), &plan) {
        Ok(bare) => fleet.hosts[0].digest == outcome_digest(&bare),
        Err(_) => false,
    }
}

/// The seed of every E25 sweep point (and of the E26 curve, whose
/// digests must match E25's).
pub(crate) const SEED: u64 = 11;

/// `BENCH_fleet.json`: host-count scaling through 1000 hosts at the
/// full tier, a seconds-scale sweep at the smoke tier exercised in CI.
pub fn bench(smoke: bool) -> BenchFile {
    file(&if smoke {
        fleet_scaling(&[4, 16], 8, SEED)
    } else {
        fleet_scaling(&[10, 100, 400, 1000], 20, SEED)
    })
}

/// The document embeds [`single_host_equivalence`], so the perf record
/// certifies the fleet layer is still semantically transparent.
fn file(points: &[FleetScalingPoint]) -> BenchFile {
    BenchFile::new(
        "fleet_scaling",
        vec![
            (
                "fleet",
                "4 cycling host archetypes (cubic, ladder+qOA, idle+sleep+BKP, capped ladder) on heavy-tailed Poisson traffic".to_value(),
            ),
            (
                "metric",
                "wall time + fleet-level energy/flow/shed/sleep per host count and dispatch policy".to_value(),
            ),
            (
                "single_host_equivalence",
                single_host_equivalence().to_value(),
            ),
        ],
        points.iter().map(FleetScalingPoint::row).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::get;

    #[test]
    fn smoke_sweep_covers_the_matrix_and_is_deterministic() {
        let a = fleet_scaling(&[3, 6], 4, 2);
        let b = fleet_scaling(&[3, 6], 4, 2);
        // 2 host counts × 3 dispatch policies.
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest, "{}x{}", x.hosts, x.dispatch);
            assert_eq!(x.dynamic_energy.to_bits(), y.dynamic_energy.to_bits());
        }
        for p in &a {
            assert!(p.dynamic_energy > 0.0, "{p:?}");
            assert!(p.static_energy > 0.0, "idle archetypes must charge, {p:?}");
            assert!(p.completed_jobs > 0, "{p:?}");
            assert!(p.makespan > 0.0, "{p:?}");
            assert!(
                p.phases.total_ms() <= p.wall_ms + 1.0,
                "phase breakdown exceeds the wall it decomposes, {p:?}"
            );
        }
    }

    #[test]
    fn equivalence_gate_holds() {
        assert!(single_host_equivalence());
    }

    #[test]
    fn bench_file_embeds_the_gate_and_one_row_per_point() {
        let points = fleet_scaling(&[2], 3, 1);
        let file = file(&points);
        assert_eq!(file.bench, "fleet_scaling");
        assert_eq!(
            get(&file.header, "single_host_equivalence"),
            Some(&Value::Bool(true))
        );
        assert_eq!(file.rows.len(), points.len());
        let digest = format!("{:016x}", points[0].digest);
        assert_eq!(get(&file.rows[0], "digest"), Some(&Value::Str(digest)));
    }
}
