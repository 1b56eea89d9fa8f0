//! All experiments, one module per EXPERIMENTS.md entry.
//!
//! | Module | Experiments | Reproduces |
//! |--------|-------------|------------|
//! | [`figures`] | E1–E3 | paper Figures 1, 2, 3 |
//! | [`scaling`] | E4, E5, E19–E22 | §3 linear-time claim vs DP / MoveRight; the `BENCH_*` naive-vs-optimized sweeps (YDS, flow, multiproc, OA) |
//! | [`hardness`] | E6 | Theorem 8 witness (+ measured correction) |
//! | [`flowcurve`] | E7, E8 | §4 flow↔energy curve and Theorem-1 residuals |
//! | [`multiproc`] | E9, E10 | Theorem 10, multiprocessor makespan/flow |
//! | [`partition`] | E11 | Theorem 11 reduction, B&B vs heuristics |
//! | [`deadline_ratios`] | E12 | AVR / OA empirical competitive ratios |
//! | [`online_budget`] | E13 | §6 online policies vs offline frontier (plus the arena-engine scale sweep to n=20000 and the flat-vs-growing policy ladder, `BENCH_policies.json`) |
//! | [`discrete_levels`] | E14, E15 | §6 discrete speeds and switch overhead |
//! | [`precedence_dag`] | E16 | §2 precedence-constrained makespan heuristic vs bounds |
//! | [`temperature`] | E17 | §2 thermal objective (Bansal–Kimbrel–Pruhs model) |
//! | [`bounded_speed`] | E18 | §6 minimum/maximum speed regimes |
//! | [`faults`] | E23 | fault-rate × policy resilience sweep (`BENCH_faults.json`) |
//! | [`serve`] | E24 | serving-layer throughput / decision latency (`BENCH_serve.json`) |
//! | [`fleet`] | E25 | fleet-scaling sweep: host count × dispatch policy, heterogeneous power envelopes (`BENCH_fleet.json`) |
//! | [`fleet_par`] | E26 | thread-scaling of the parallel fleet executor: fixed scenario × worker count, digest-invariance gate (`BENCH_fleet_par.json`) |

pub mod bounded_speed;
pub mod deadline_ratios;
pub mod discrete_levels;
pub mod faults;
pub mod figures;
pub mod fleet;
pub mod fleet_par;
pub mod flowcurve;
pub mod hardness;
pub mod multiproc;
pub mod online_budget;
pub mod partition;
pub mod precedence_dag;
pub mod scaling;
pub mod serve;
pub mod temperature;

use crate::harness::{BenchFile, CsvTable};

/// A bench sweep: `bench(smoke)` runs its smoke or full tier.
pub type Bench = fn(bool) -> BenchFile;

/// Every `BENCH_*.json` sweep as `(name, bench)`: `name` is the
/// `exp-scaling --only` value and, with `-` read as `_`, the file stem.
/// The multi sweep comes last because its censored reference runs
/// leave threads spinning until the process exits.
pub const BENCHES: [(&str, Bench); 9] = [
    ("yds", scaling::yds_bench),
    ("flow", scaling::flow_bench),
    ("oa", scaling::oa_bench),
    ("faults", faults::bench),
    ("serve", serve::bench),
    ("policies", online_budget::policies_bench),
    ("fleet", fleet::bench),
    ("fleet-par", fleet_par::bench),
    ("multi", scaling::multi_bench),
];

/// Run every experiment (used by `exp-all`), the `BENCH_*` sweeps at
/// their smoke tier.
pub fn run_all() -> Vec<CsvTable> {
    let mut tables = Vec::new();
    tables.extend(figures::run());
    tables.extend(scaling::run());
    tables.extend(hardness::run());
    tables.extend(flowcurve::run());
    tables.extend(multiproc::run());
    tables.extend(partition::run());
    tables.extend(deadline_ratios::run());
    tables.extend(online_budget::run());
    tables.extend(discrete_levels::run());
    tables.extend(precedence_dag::run());
    tables.extend(temperature::run());
    tables.extend(bounded_speed::run());
    tables.extend(BENCHES.iter().map(|(_, bench)| bench(true).table()));
    tables
}
