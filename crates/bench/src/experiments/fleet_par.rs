//! E26: thread-scaling of the parallel fleet executor.
//!
//! One fixed scenario — the E25 fleet (cycling archetypes, heavy-tailed
//! Poisson traffic, round-robin dispatch) at a single host count — run
//! repeatedly under increasing worker counts via
//! [`pas_fleet::run_with`]. Two claims are on record:
//!
//! * **Perf**: `speedup_vs_1thread` = 1-worker wall divided by the best
//!   measured wall across the curve. On a multi-core runner the best
//!   wall comes from a multi-worker run and the ratio shows real
//!   scaling; on a single-core runner the 1-worker run itself is the
//!   floor, so the ratio is ≥ 1.0 by construction and the recorded
//!   `parallelism` field says why. Per-point phase breakdowns
//!   (dispatch/partition/execute/reduce) localize where the time went.
//! * **Correctness**: `digest_invariant` — every worker count produced
//!   the byte-identical fleet digest. Because the scenario is built
//!   with the exact E25 generators (same workload, horizon, archetypes,
//!   seed, dispatch), the digest also cross-checks against the matching
//!   `BENCH_fleet.json` point; CI asserts both.

use std::time::Instant;

use crate::harness::{BenchFile, Row};
use pas_fleet::{run_with, PhaseBreakdown};
use serde::Serialize;

use super::fleet::{phase_cells, scenario, SEED};

/// One run of the fixed scenario at one worker count.
#[derive(Debug, Clone)]
pub struct FleetParPoint {
    /// Worker threads used by the execute phase.
    pub workers: usize,
    /// Number of hosts in the scenario.
    pub hosts: usize,
    /// Total jobs dispatched.
    pub jobs: usize,
    /// Seed of the scenario.
    pub seed: u64,
    /// Wall time of the full run.
    pub wall_ms: f64,
    /// The run's per-phase wall times.
    pub phases: PhaseBreakdown,
    /// The fleet digest (must match across every worker count).
    pub digest: u64,
}

impl FleetParPoint {
    /// The point as a `BENCH_fleet_par.json` row.
    pub fn row(&self) -> Row {
        let mut row = vec![
            ("workers", self.workers.to_value()),
            ("wall_ms", self.wall_ms.to_value()),
        ];
        row.extend(phase_cells(&self.phases));
        row.push(("digest", format!("{:016x}", self.digest).to_value()));
        row
    }
}

/// Run the fixed scenario once per worker count. The scenario is the
/// E25 round-robin configuration verbatim, so the digests line up with
/// `BENCH_fleet.json`.
pub fn fleet_par_sweep(
    hosts: usize,
    jobs_per_host: usize,
    seed: u64,
    workers: &[usize],
) -> Vec<FleetParPoint> {
    assert!(hosts > 0, "host count must be positive");
    let scenario = scenario(hosts, jobs_per_host, seed);
    workers
        .iter()
        .map(|&w| {
            assert!(w > 0, "worker counts must be positive");
            let t = Instant::now();
            let out = run_with(&scenario, w).expect("fleet run succeeds");
            let wall_ms = t.elapsed().as_secs_f64() * 1e3;
            FleetParPoint {
                workers: w,
                hosts,
                jobs: scenario.workload.len(),
                seed,
                wall_ms,
                phases: out.timings,
                digest: out.digest,
            }
        })
        .collect()
}

/// `BENCH_fleet_par.json`. The full tier is the 1000-host / 20000-job
/// E25 point under 1, 2, 4, and 8 workers; the smoke tier (seconds,
/// exercised in CI) matches the E25 smoke point `{hosts: 16, dispatch:
/// round_robin}` digest.
pub fn bench(smoke: bool) -> BenchFile {
    file(&if smoke {
        fleet_par_sweep(16, 8, SEED, &[1, 2, 3])
    } else {
        fleet_par_sweep(1000, 20, SEED, &[1, 2, 4, 8])
    })
}

/// The header carries the scenario (taken from the sweep's points) and
/// the two gates CI asserts: `digest_invariant` and `speedup_vs_1thread`.
fn file(points: &[FleetParPoint]) -> BenchFile {
    let mut header = vec![(
        "metric",
        "wall time of one fixed fleet scenario (E25 round-robin config) per worker count; digests must be invariant".to_value(),
    )];
    if let Some(p) = points.first() {
        header.extend([
            ("hosts", p.hosts.to_value()),
            ("jobs", p.jobs.to_value()),
            ("seed", p.seed.to_value()),
            ("dispatch", "round_robin".to_value()),
        ]);
    }
    header.extend([
        ("digest_invariant", digest_invariant(points).to_value()),
        ("speedup_vs_1thread", speedup_vs_1thread(points).to_value()),
    ]);
    BenchFile::new(
        "fleet_par",
        header,
        points.iter().map(FleetParPoint::row).collect(),
    )
}

/// True when every point on the curve carries the same digest.
pub fn digest_invariant(points: &[FleetParPoint]) -> bool {
    points.windows(2).all(|w| w[0].digest == w[1].digest)
}

/// 1-worker wall divided by the best wall anywhere on the curve
/// (including the 1-worker run itself, so the ratio is ≥ 1.0 even on a
/// single-core runner).
pub fn speedup_vs_1thread(points: &[FleetParPoint]) -> f64 {
    let wall_1 = points
        .iter()
        .find(|p| p.workers == 1)
        .map(|p| p.wall_ms)
        .expect("curve includes a 1-worker point");
    let best = points
        .iter()
        .map(|p| p.wall_ms)
        .fold(f64::INFINITY, f64::min);
    wall_1 / best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::get;
    use serde::Value;

    #[test]
    fn smoke_curve_is_digest_invariant_and_matches_e25() {
        let points = fleet_par_sweep(4, 3, 2, &[1, 2, 3]);
        assert_eq!(points.len(), 3);
        assert!(digest_invariant(&points));
        assert!(speedup_vs_1thread(&points) >= 1.0);
        // Same generators as E25: the digest must match the E25 point
        // for the identical (hosts, dispatch, jobs_per_host, seed).
        let e25 = super::super::fleet::fleet_scaling(&[4], 3, 2);
        let rr = e25
            .iter()
            .find(|p| p.dispatch == "round_robin")
            .expect("E25 covers round_robin");
        assert_eq!(points[0].digest, rr.digest, "E26 drifted from E25");
    }

    #[test]
    fn bench_file_records_the_scenario_and_gates() {
        let points = fleet_par_sweep(3, 2, 1, &[1, 2]);
        let file = file(&points);
        assert_eq!(file.bench, "fleet_par");
        let header = |key| get(&file.header, key).cloned();
        assert_eq!(header("digest_invariant"), Some(Value::Bool(true)));
        let speedup = header("speedup_vs_1thread").and_then(|v| v.as_num());
        assert!(speedup.is_some_and(|s| s >= 1.0), "{speedup:?}");
        assert!(header("parallelism").and_then(|v| v.as_num()).is_some());
        assert_eq!(header("hosts"), Some(Value::Num(3.0)));
        assert_eq!(header("jobs"), Some(Value::Num(points[0].jobs as f64)));
        assert_eq!(header("seed"), Some(Value::Num(1.0)));
        assert_eq!(file.rows.len(), points.len());
    }
}
