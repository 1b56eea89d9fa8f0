//! E4/E5: running-time scaling — IncMerge's linearity against the
//! quadratic/cubic baselines — plus E19: the deadline-stack (YDS)
//! timeline engine against the seed reference, and E20: the flow
//! block-decomposition solver against the damped fixed-point reference
//! (`BENCH_flow.json`).
//!
//! Reproduces two prose claims: §3's "linear time once the jobs are
//! sorted" (vs the §3.1 dynamic program) and §2's "our algorithm runs
//! faster" than the Uysal-Biyikoglu et al. quadratic server algorithm.
//! The table reports wall-clock seconds and the per-point growth factor;
//! the shape to check is IncMerge ≈ ×2 per doubling, MoveRight ≈ ×4,
//! DP ≈ ×8 (its feasibility scan makes the implementation cubic).
//!
//! E19 ([`yds_scaling`]) sweeps `yds()` (prefix-sum timeline engine)
//! against `yds_reference()` (the seed `O(n⁴)` loop) on one uniform
//! random family, recording seconds, the speedup, the YDS round count,
//! and the energy agreement; `exp-scaling --bench-json` renders it as
//! `BENCH_yds.json` so successive PRs accumulate a perf trajectory.
//!
//! E21 ([`multi_scaling`]) does the same for the §5 `L_α`-norm
//! partition solvers: the incremental branch and bound
//! (`min_norm_assignment`, sorted-loads state + seeded incumbent)
//! against the kept seed engine (`min_norm_assignment_reference`,
//! re-sort + re-scan per node), written as `BENCH_multi.json`. Both
//! engines are exponential in the worst case — that is Theorem 11 — so
//! unlike E19/E20 the instances are **named witnesses** (quantized-work
//! grids with recorded `(levels, seed)`), chosen so the reference
//! terminates where it is measured; points outside the reference's
//! reach record `null` reference columns exactly like the other paths'
//! caps.
//!
//! E22 ([`oa_scaling`]) covers the last deadline-stack engine: Optimal
//! Available on the kinetic tournament (`oa`, `O(log n)` amortized per
//! re-plan) against the kept per-event rank sweep (`oa_reference`,
//! `O(D log n)` per re-plan), written as `BENCH_oa.json`. Two families
//! per size — `uniform` (the E19 shape) and `clustered` (deadlines in
//! tight bands: near-tie certificates, the tournament's adversarial
//! case) — with per-point energy agreement recorded like E19/E20.

use crate::harness::{fmt, time_min, BenchFile, CsvTable, Row};
use pas_core::deadline::{oa, oa_reference, yds, yds_reference, DeadlineInstance, DeadlineJob};
use pas_core::flow::curve::tradeoff_curve;
use pas_core::flow::solver::{laptop_reference, solve_for_u, solve_for_u_reference};
use pas_core::makespan::{dp, incmerge, moveright, Frontier};
use pas_power::PolyPower;
use pas_sim::metrics;
use pas_workload::{generators, Instance};
use serde::Serialize;
use std::time::Instant;

/// The `metric` header shared by the naive-vs-optimized sweeps.
const WALL_METRIC: &str = "wall_seconds_min_over_repeats";

/// Sweep sizes. DP is capped (cubic); MoveRight quadratic; IncMerge and
/// the frontier run the full range.
pub fn run() -> Vec<CsvTable> {
    let model = PolyPower::CUBE;
    let mut table = CsvTable::new(
        "scaling_makespan_solvers",
        &["n", "incmerge_s", "frontier_build_s", "moveright_s", "dp_s"],
    );
    for &n in &[64usize, 128, 256, 512, 1024, 2048] {
        let instance = generators::uniform(n, n as f64, (0.2, 2.0), 42);
        let budget = 2.0 * instance.total_work();
        let deadline = instance.last_release() + 0.1 * n as f64;

        let (_, t_inc) = time_min(5, || {
            incmerge::laptop(&instance, &model, budget).expect("solvable")
        });
        let (_, t_frontier) = time_min(5, || Frontier::build(&instance, &model));
        let (_, t_mr) = time_min(3, || {
            moveright::server_moveright(&instance, &model, deadline).expect("solvable")
        });
        let t_dp = if n <= 512 {
            let (_, t) = time_min(1, || {
                dp::laptop_dp(&instance, &model, budget).expect("solvable")
            });
            fmt(t)
        } else {
            "".to_string()
        };
        table.push_row(vec![
            n.to_string(),
            fmt(t_inc),
            fmt(t_frontier),
            fmt(t_mr),
            t_dp,
        ]);
    }
    vec![table]
}

/// One measured point of the YDS naive-vs-optimized sweep.
#[derive(Debug, Clone)]
pub struct YdsScalingPoint {
    /// Instance size.
    pub n: usize,
    /// Optimized `yds()` seconds (min over repeats).
    pub optimized_s: f64,
    /// Repeats behind `optimized_s`.
    pub optimized_repeats: usize,
    /// Seed `yds_reference()` seconds (`None` when skipped as too slow).
    pub reference_s: Option<f64>,
    /// Repeats behind `reference_s`.
    pub reference_repeats: Option<usize>,
    /// YDS rounds on this instance (both engines run the same loop).
    pub rounds: usize,
    /// Relative energy gap |opt − ref| / ref under σ³ (`None` when the
    /// reference was skipped).
    pub energy_rel_gap: Option<f64>,
}

impl YdsScalingPoint {
    /// reference / optimized, when both were measured.
    pub fn speedup(&self) -> Option<f64> {
        self.reference_s.map(|r| r / self.optimized_s)
    }

    /// The point as a `BENCH_yds.json` row.
    pub fn row(&self) -> Row {
        vec![
            ("n", self.n.to_value()),
            ("optimized_s", self.optimized_s.to_value()),
            ("optimized_repeats", self.optimized_repeats.to_value()),
            ("reference_s", self.reference_s.to_value()),
            ("reference_repeats", self.reference_repeats.to_value()),
            ("speedup", self.speedup().to_value()),
            ("rounds", self.rounds.to_value()),
            ("energy_rel_gap", self.energy_rel_gap.to_value()),
        ]
    }
}

/// The E19 instance family (also E22's `uniform` family, so the two
/// deadline-stack curves describe the same instances).
pub fn e19_instance(n: usize) -> DeadlineInstance {
    DeadlineInstance::random(n, n as f64, (0.5, 6.0), (0.2, 3.0), 42)
}

/// `e19_instance` as a string, recorded in `BENCH_yds.json`.
pub const E19_FAMILY: &str = "DeadlineInstance::random(n, n, (0.5, 6.0), (0.2, 3.0), 42)";

/// E19: sweep the YDS engines over uniform random instances of the given
/// sizes, measuring the reference only up to `reference_cap` (it is
/// `O(n⁴)`; at n=2000 a single run is minutes). Both engines report the
/// minimum over the same kind of repeat loop (repeat counts recorded per
/// point) so the speedup column is apples-to-apples.
pub fn yds_scaling(sizes: &[usize], reference_cap: usize) -> Vec<YdsScalingPoint> {
    let model = PolyPower::CUBE;
    sizes
        .iter()
        .map(|&n| {
            let inst = e19_instance(n);
            let optimized_repeats = if n <= 512 { 5 } else { 2 };
            let (out, optimized_s) = time_min(optimized_repeats, || yds(&inst).expect("feasible"));
            let rounds = out.rounds.len();
            let (reference_s, reference_repeats, energy_rel_gap) = if n <= reference_cap {
                let repeats = if n <= 512 { 3 } else { 1 };
                let (ref_out, secs) = time_min(repeats, || yds_reference(&inst).expect("feasible"));
                let e_opt = metrics::energy(&out.schedule, &model);
                let e_ref = metrics::energy(&ref_out.schedule, &model);
                (
                    Some(secs),
                    Some(repeats),
                    Some((e_opt - e_ref).abs() / e_ref),
                )
            } else {
                (None, None, None)
            };
            YdsScalingPoint {
                n,
                optimized_s,
                optimized_repeats,
                reference_s,
                reference_repeats,
                rounds,
                energy_rel_gap,
            }
        })
        .collect()
}

/// `BENCH_yds.json`. The full tier measures the reference at every point,
/// n=2000 included (the acceptance configuration; minutes of wall
/// clock); the smoke tier is seconds.
pub fn yds_bench(smoke: bool) -> BenchFile {
    yds_file(&if smoke {
        yds_scaling(&[64, 128], 128)
    } else {
        yds_scaling(&[64, 128, 256, 512, 1024, 2000], 2000)
    })
}

fn yds_file(points: &[YdsScalingPoint]) -> BenchFile {
    BenchFile::new(
        "yds_timeline_engine",
        vec![
            ("instance_family", E19_FAMILY.to_value()),
            ("metric", WALL_METRIC.to_value()),
        ],
        points.iter().map(YdsScalingPoint::row).collect(),
    )
}

/// One measured point of the E20 flow naive-vs-block sweep.
#[derive(Debug, Clone)]
pub struct FlowScalingPoint {
    /// Instance size.
    pub n: usize,
    /// Block-decomposition `solve_for_u` seconds (min over repeats).
    pub solve_block_s: f64,
    /// Reference fixed-point `solve_for_u` seconds (`None` past the cap).
    pub solve_reference_s: Option<f64>,
    /// Relative energy gap between the engines at the probe `u`.
    pub solve_energy_rel_gap: Option<f64>,
    /// Energies in the tradeoff-curve sweep below.
    pub curve_points: usize,
    /// Warm-started workspace `tradeoff_curve` seconds for the sweep.
    pub curve_block_s: f64,
    /// Cold `laptop_reference` seconds over the energies it solved
    /// (`None` past cap).
    pub curve_reference_s: Option<f64>,
    /// How many of the energies `laptop_reference` solved.
    pub curve_reference_ok: Option<usize>,
    /// How many it failed (the damped fixed point stalls near some
    /// configuration-change energies — a weakness of the reference
    /// engine the bench records rather than hides).
    pub curve_reference_failed: Option<usize>,
    /// Per-curve-point block-vs-reference energy gap at the solved `u`
    /// (`None` past the cap; inner `None` where the reference stalled).
    pub curve_energy_rel_gaps: Option<Vec<Option<f64>>>,
}

impl FlowScalingPoint {
    /// reference / block for the single `solve_for_u`.
    pub fn solve_speedup(&self) -> Option<f64> {
        self.solve_reference_s.map(|r| r / self.solve_block_s)
    }

    /// Per-energy reference seconds / per-energy block seconds — robust
    /// to reference stalls, since each side is averaged over the points
    /// it actually solved.
    pub fn curve_speedup(&self) -> Option<f64> {
        let ok = self.curve_reference_ok.filter(|&k| k > 0)? as f64;
        let r = self.curve_reference_s?;
        Some((r / ok) / (self.curve_block_s / self.curve_points as f64))
    }

    /// Worst per-point engine disagreement over the sweep (`None` when
    /// the reference was capped out or solved no point at all — zero
    /// comparisons must not read as perfect agreement).
    pub fn curve_max_energy_rel_gap(&self) -> Option<f64> {
        self.curve_energy_rel_gaps
            .as_ref()?
            .iter()
            .flatten()
            .copied()
            .fold(None, |m: Option<f64>, g| Some(m.map_or(g, |m| m.max(g))))
    }

    /// The point as a `BENCH_flow.json` row.
    pub fn row(&self) -> Row {
        vec![
            ("n", self.n.to_value()),
            ("solve_block_s", self.solve_block_s.to_value()),
            ("solve_reference_s", self.solve_reference_s.to_value()),
            ("solve_speedup", self.solve_speedup().to_value()),
            ("solve_energy_rel_gap", self.solve_energy_rel_gap.to_value()),
            ("curve_points", self.curve_points.to_value()),
            ("curve_block_s", self.curve_block_s.to_value()),
            ("curve_reference_s", self.curve_reference_s.to_value()),
            ("curve_reference_ok", self.curve_reference_ok.to_value()),
            (
                "curve_reference_failed",
                self.curve_reference_failed.to_value(),
            ),
            ("curve_speedup", self.curve_speedup().to_value()),
            (
                "curve_max_energy_rel_gap",
                self.curve_max_energy_rel_gap().to_value(),
            ),
            (
                "curve_energy_rel_gaps",
                self.curve_energy_rel_gaps.to_value(),
            ),
        ]
    }
}

/// The E20 instance family: the E7/E8 tradeoff-curve workload (equal-work
/// jobs, Poisson releases at rate 1.5 — contact-heavy, so segment
/// resolution is exercised) generalized from the 3-job hardness witness
/// to `n` jobs.
pub fn e20_instance(n: usize) -> Instance {
    generators::equal_work_poisson(n, 1.5, 1.0, 42)
}

/// `e20_instance` as a string, recorded in `BENCH_flow.json`.
pub const E20_FAMILY: &str = "generators::equal_work_poisson(n, 1.5, 1.0, 42)";

/// Default reference cap: past this the fixed-point engine's curve sweep
/// takes tens of minutes (each cold laptop is ~50 bisection steps of an
/// `O(iters·n)` iteration).
pub const E20_REFERENCE_CAP: usize = 1_000;

/// The sweep's energy grid: `curve_points` energies spanning 0.5×W to
/// 4×W on the instance (W = total work).
fn e20_energies(instance: &Instance, curve_points: usize) -> Vec<f64> {
    let w = instance.total_work();
    (0..curve_points)
        .map(|k| w * (0.5 + 3.5 * k as f64 / (curve_points - 1).max(1) as f64))
        .collect()
}

/// E20: block-decomposition flow solver vs the damped fixed-point
/// reference — one `solve_for_u` probe and one `curve_points`-point
/// warm-started `tradeoff_curve` sweep per size, with the reference
/// measured (and the per-point engine agreement recorded) up to
/// `reference_cap`.
pub fn flow_scaling(
    sizes: &[usize],
    curve_points: usize,
    reference_cap: usize,
) -> Vec<FlowScalingPoint> {
    sizes
        .iter()
        .map(|&n| {
            let inst = e20_instance(n);
            let repeats = if n <= 1_000 { 5 } else { 2 };
            let (block_sol, solve_block_s) =
                time_min(repeats, || solve_for_u(&inst, 3.0, 1.0).expect("solvable"));
            let (solve_reference_s, solve_energy_rel_gap) = if n <= reference_cap {
                // One timed probe doubles as the does-it-converge check,
                // so a stalling reference costs a single attempt.
                let (probe, first_s) = time_min(1, || solve_for_u_reference(&inst, 3.0, 1.0));
                match probe {
                    Ok(ref_sol) => {
                        let secs = if n <= 500 {
                            let (_, more) = time_min(2, || {
                                solve_for_u_reference(&inst, 3.0, 1.0).expect("convergent")
                            });
                            first_s.min(more)
                        } else {
                            first_s
                        };
                        (
                            Some(secs),
                            Some((block_sol.energy - ref_sol.energy).abs() / ref_sol.energy),
                        )
                    }
                    Err(_) => (None, None),
                }
            } else {
                (None, None)
            };

            let energies = e20_energies(&inst, curve_points);
            let (curve, curve_block_s) = time_min(1, || {
                tradeoff_curve(&inst, 3.0, &energies, 1e-10).expect("solvable")
            });
            let (curve_reference_s, curve_reference_ok, curve_reference_failed, gaps) =
                if n <= reference_cap {
                    let mut secs = 0.0;
                    let mut ok = 0usize;
                    let mut failed = 0usize;
                    for &e in &energies {
                        let t = Instant::now();
                        match laptop_reference(&inst, 3.0, e, 1e-10) {
                            Ok(_) => {
                                secs += t.elapsed().as_secs_f64();
                                ok += 1;
                            }
                            Err(_) => failed += 1,
                        }
                    }
                    // Per-point engine agreement at each solved u; the
                    // block side is the curve point itself (tradeoff_curve
                    // already ran the block engine at exactly this u).
                    let gaps = curve
                        .iter()
                        .map(|pt| {
                            solve_for_u_reference(&inst, 3.0, pt.u)
                                .ok()
                                .map(|slow| (pt.energy - slow.energy).abs() / slow.energy)
                        })
                        .collect();
                    (Some(secs), Some(ok), Some(failed), Some(gaps))
                } else {
                    (None, None, None, None)
                };

            FlowScalingPoint {
                n,
                solve_block_s,
                solve_reference_s,
                solve_energy_rel_gap,
                curve_points,
                curve_block_s,
                curve_reference_s,
                curve_reference_ok,
                curve_reference_failed,
                curve_energy_rel_gaps: gaps,
            }
        })
        .collect()
}

/// `BENCH_flow.json`. The full tier runs n through 10⁴ with 120-point
/// curves and the reference measured through n = 1000 (expect ~20
/// minutes — the reference curve alone is ~120 cold bisection solves
/// of an `O(iters·n)` engine; that cost is the point); the smoke tier
/// is seconds.
pub fn flow_bench(smoke: bool) -> BenchFile {
    flow_file(&if smoke {
        flow_scaling(&[64, 256], 24, 256)
    } else {
        flow_scaling(&[100, 300, 1_000, 3_000, 10_000], 120, E20_REFERENCE_CAP)
    })
}

fn flow_file(points: &[FlowScalingPoint]) -> BenchFile {
    BenchFile::new(
        "flow_block_decomposition",
        vec![
            ("instance_family", E20_FAMILY.to_value()),
            ("metric", WALL_METRIC.to_value()),
        ],
        points.iter().map(FlowScalingPoint::row).collect(),
    )
}

/// One configured instance of the E21 multiprocessor-partition sweep:
/// a quantized-work witness at `(n, m)`, with the reference engine
/// measured only where `measure_reference` says it terminates in
/// reasonable time (minutes, not hours — both engines are exponential
/// in the worst case).
#[derive(Debug, Clone, Copy)]
pub struct MultiPointSpec {
    /// Job count.
    pub n: usize,
    /// Processor count.
    pub m: usize,
    /// Distinct work values in the quantized grid.
    pub levels: u64,
    /// LCG seed of the witness instance.
    pub seed: u64,
    /// Wall-clock budget for the seed reference engine on this point:
    /// `0.0` skips the reference entirely; otherwise the run is
    /// abandoned (and recorded as **censored**) once the budget
    /// elapses. Censoring is how exact-solver benches stay honest about
    /// exponential engines: the reference provably needs *at least*
    /// this long, so the recorded speedup is a lower bound.
    pub reference_budget_s: f64,
}

/// One measured point of the E21 incremental-vs-reference sweep.
#[derive(Debug, Clone)]
pub struct MultiScalingPoint {
    /// The witness configuration.
    pub spec: MultiPointSpec,
    /// Incremental `min_norm_assignment` seconds (min over repeats).
    pub incremental_s: f64,
    /// Repeats behind `incremental_s`.
    pub incremental_repeats: usize,
    /// The optimal `L_α` norm the incremental engine found.
    pub incremental_norm: f64,
    /// Work-deque `min_norm_assignment_parallel` seconds (collapses to
    /// the sequential engine on single-core machines).
    pub parallel_s: f64,
    /// Seed `min_norm_assignment_reference` seconds: the measured wall
    /// time when it completed, the exhausted budget when censored,
    /// `None` when the reference was skipped (`reference_budget_s = 0`).
    pub reference_s: Option<f64>,
    /// Whether the reference run was abandoned at its budget. When
    /// true, `reference_s` (and therefore [`speedup`](Self::speedup))
    /// is a **lower bound**.
    pub reference_censored: bool,
    /// Relative norm gap |incremental − reference| / reference (only
    /// when the reference completed).
    pub norm_rel_gap: Option<f64>,
    /// Relative norm gap |parallel − incremental| / incremental.
    pub parallel_rel_gap: f64,
}

impl MultiScalingPoint {
    /// reference / incremental: the exact speedup when the reference
    /// completed, a lower bound when
    /// [`reference_censored`](Self::reference_censored) is set.
    pub fn speedup(&self) -> Option<f64> {
        self.reference_s.map(|r| r / self.incremental_s)
    }

    /// The point as a `BENCH_multi.json` row.
    pub fn row(&self) -> Row {
        vec![
            ("n", self.spec.n.to_value()),
            ("m", self.spec.m.to_value()),
            ("levels", self.spec.levels.to_value()),
            ("seed", self.spec.seed.to_value()),
            ("incremental_s", self.incremental_s.to_value()),
            ("incremental_repeats", self.incremental_repeats.to_value()),
            ("parallel_s", self.parallel_s.to_value()),
            ("reference_s", self.reference_s.to_value()),
            ("reference_censored", self.reference_censored.to_value()),
            ("speedup", self.speedup().to_value()),
            ("norm_rel_gap", self.norm_rel_gap.to_value()),
            ("parallel_rel_gap", self.parallel_rel_gap.to_value()),
        ]
    }
}

/// The E21 instance family: works quantized to a `levels`-step grid
/// over `[0.5, 3.5]`, drawn by a fixed LCG from `seed`. Quantization
/// matters: duplicate work values are exactly where the incremental
/// engine's equal-load symmetry breaking bites, and grid sums keep the
/// Partition-style structure of Theorem 11.
pub fn multi_works(n: usize, levels: u64, seed: u64) -> Vec<f64> {
    let mut state = seed;
    let step = 3.0 / levels as f64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0.5 + step * ((state >> 33) % levels) as f64
        })
        .collect()
}

/// `multi_works` as a string, recorded in `BENCH_multi.json`.
pub const E21_FAMILY: &str =
    "0.5 + (3.0/levels)*(lcg(seed)>>33 % levels), alpha=3, per-point (n, m, levels, seed)";

/// Run the seed reference under a wall-clock budget on a detached
/// thread. Returns `(Some((norm, seconds)), false)` when it completes
/// in time and `(None, true)` when censored.
///
/// A censored run's thread cannot be killed (std has no thread
/// cancellation) and keeps burning CPU until the process exits, so
/// sweeps must order censored-budget points **after** every
/// completion-expected reference — `exp-scaling` runs this sweep last
/// and exits right after writing it, which reaps the leak.
fn run_reference_budgeted(
    works: &[f64],
    m: usize,
    alpha: f64,
    budget_s: f64,
) -> (Option<(f64, f64)>, bool) {
    use pas_core::multi::partition::min_norm_assignment_reference;
    use std::sync::mpsc;
    use std::time::Duration;
    let (tx, rx) = mpsc::channel();
    let works = works.to_vec();
    std::thread::spawn(move || {
        let t = Instant::now();
        let (_, norm) = min_norm_assignment_reference(&works, m, alpha);
        let _ = tx.send((norm, t.elapsed().as_secs_f64()));
    });
    match rx.recv_timeout(Duration::from_secs_f64(budget_s)) {
        Ok((norm, secs)) => (Some((norm, secs)), false),
        Err(_) => (None, true),
    }
}

/// E21: the incremental `L_α`-norm branch and bound vs the kept seed
/// reference on the given witness points.
///
/// Two passes: the fast engines are all timed first, then the
/// references run in spec order — so a censored reference's leaked
/// thread (see `run_reference_budgeted`) can never contend with a
/// fast-engine measurement. Put censored-budget specs last.
pub fn multi_scaling(specs: &[MultiPointSpec]) -> Vec<MultiScalingPoint> {
    use pas_core::multi::parallel::min_norm_assignment_parallel;
    use pas_core::multi::partition::min_norm_assignment;
    let alpha = 3.0;
    let mut points: Vec<MultiScalingPoint> = specs
        .iter()
        .map(|&spec| {
            let works = multi_works(spec.n, spec.levels, spec.seed);
            let incremental_repeats = 3;
            let ((_, inc_norm), incremental_s) = time_min(incremental_repeats, || {
                min_norm_assignment(&works, spec.m, alpha)
            });
            let ((_, par_norm), parallel_s) =
                time_min(1, || min_norm_assignment_parallel(&works, spec.m, alpha));
            MultiScalingPoint {
                spec,
                incremental_s,
                incremental_repeats,
                incremental_norm: inc_norm,
                parallel_s,
                reference_s: None,
                reference_censored: false,
                norm_rel_gap: None,
                parallel_rel_gap: (par_norm - inc_norm).abs() / inc_norm.max(1.0),
            }
        })
        .collect();
    for point in &mut points {
        let spec = point.spec;
        if spec.reference_budget_s <= 0.0 {
            continue;
        }
        let works = multi_works(spec.n, spec.levels, spec.seed);
        let (done, censored) =
            run_reference_budgeted(&works, spec.m, alpha, spec.reference_budget_s);
        point.reference_censored = censored;
        match done {
            Some((ref_norm, secs)) => {
                point.reference_s = Some(secs);
                point.norm_rel_gap = Some((point.incremental_norm - ref_norm).abs() / ref_norm);
            }
            None => {
                // Censored: the reference provably needed at least the
                // budget, so record the budget as the floor.
                point.reference_s = Some(spec.reference_budget_s);
            }
        }
    }
    points
}

/// `BENCH_multi.json`.
///
/// Full tier: the m = 4 points complete on both engines (probed:
/// milliseconds-to-seconds for the reference); the m = 8 points at
/// n = 24/30 carry 10–15-minute censor budgets the seed engine was
/// probed to exceed — the incremental engine solves those witnesses in
/// well under a second, so even the censored floors record 3–4 orders
/// of magnitude of speedup; the n = 34/40 reach points do not attempt
/// the reference at all.
///
/// Smoke tier: seconds, not minutes; exercised in CI. The reference
/// budgets are generous relative to the expected completion times, so
/// censoring only triggers on pathological machines (and is recorded as
/// such rather than failing).
pub fn multi_bench(smoke: bool) -> BenchFile {
    let specs: &[MultiPointSpec] = if smoke {
        &[
            MultiPointSpec {
                n: 12,
                m: 4,
                levels: 8,
                seed: 1,
                reference_budget_s: 60.0,
            },
            MultiPointSpec {
                n: 16,
                m: 4,
                levels: 12,
                seed: 1,
                reference_budget_s: 60.0,
            },
            MultiPointSpec {
                n: 20,
                m: 8,
                levels: 4,
                seed: 8,
                reference_budget_s: 0.0,
            },
        ]
    } else {
        &[
            MultiPointSpec {
                n: 16,
                m: 4,
                levels: 12,
                seed: 1,
                reference_budget_s: 600.0,
            },
            MultiPointSpec {
                n: 20,
                m: 4,
                levels: 12,
                seed: 1,
                reference_budget_s: 900.0,
            },
            MultiPointSpec {
                n: 24,
                m: 8,
                levels: 12,
                seed: 4,
                reference_budget_s: 900.0,
            },
            MultiPointSpec {
                n: 30,
                m: 8,
                levels: 4,
                seed: 10,
                reference_budget_s: 600.0,
            },
            MultiPointSpec {
                n: 30,
                m: 8,
                levels: 4,
                seed: 12,
                reference_budget_s: 600.0,
            },
            MultiPointSpec {
                n: 34,
                m: 8,
                levels: 12,
                seed: 5,
                reference_budget_s: 0.0,
            },
            MultiPointSpec {
                n: 40,
                m: 8,
                levels: 12,
                seed: 2,
                reference_budget_s: 0.0,
            },
        ]
    };
    multi_file(&multi_scaling(specs))
}

fn multi_file(points: &[MultiScalingPoint]) -> BenchFile {
    BenchFile::new(
        "multi_incremental_bb",
        vec![
            ("instance_family", E21_FAMILY.to_value()),
            ("metric", WALL_METRIC.to_value()),
            ("censoring", "reference_censored=true means the seed engine was abandoned at its wall-clock budget; reference_s is then a floor and speedup a lower bound".to_value()),
        ],
        points.iter().map(MultiScalingPoint::row).collect(),
    )
}

/// One measured point of the E22 OA kinetic-vs-sweep sweep.
#[derive(Debug, Clone)]
pub struct OaScalingPoint {
    /// Instance size.
    pub n: usize,
    /// Which E22 family the instance came from (`uniform` /
    /// `clustered`).
    pub family: &'static str,
    /// Kinetic-tournament `oa()` seconds (min over repeats).
    pub kinetic_s: f64,
    /// Repeats behind `kinetic_s`.
    pub kinetic_repeats: usize,
    /// Per-event-sweep `oa_reference()` seconds (`None` past the cap).
    pub reference_s: Option<f64>,
    /// Repeats behind `reference_s`.
    pub reference_repeats: Option<usize>,
    /// Relative energy gap |kinetic − reference| / reference under σ³.
    pub energy_rel_gap: Option<f64>,
}

impl OaScalingPoint {
    /// reference / kinetic, when both were measured.
    pub fn speedup(&self) -> Option<f64> {
        self.reference_s.map(|r| r / self.kinetic_s)
    }

    /// The point as a `BENCH_oa.json` row.
    pub fn row(&self) -> Row {
        vec![
            ("n", self.n.to_value()),
            ("family", self.family.to_value()),
            ("kinetic_s", self.kinetic_s.to_value()),
            ("kinetic_repeats", self.kinetic_repeats.to_value()),
            ("reference_s", self.reference_s.to_value()),
            ("reference_repeats", self.reference_repeats.to_value()),
            ("speedup", self.speedup().to_value()),
            ("energy_rel_gap", self.energy_rel_gap.to_value()),
        ]
    }
}

/// The E22 `clustered` family: deadlines packed into `n/100 + 4` tight
/// bands (distinct values, `~0.05`-wide jitter), releases a short
/// window before them. Near-ties everywhere is the adversarial case
/// for the kinetic tournament's certificates — margins are small, so
/// revalidation pressure is maximal — while the per-event sweep still
/// pays for every live rank.
pub fn e22_clustered(n: usize) -> DeadlineInstance {
    use rand::distributions::{Distribution, Uniform};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let clusters = n / 100 + 4;
    let span = n as f64;
    let mut rng = StdRng::seed_from_u64(42);
    let cluster_of = Uniform::new(0usize, clusters);
    let jitter = Uniform::new_inclusive(0.0, 0.05);
    let work = Uniform::new_inclusive(0.2, 2.0);
    let release_back = Uniform::new_inclusive(0.5, 4.0);
    let jobs = (0..n)
        .map(|i| {
            let center = span * (cluster_of.sample(&mut rng) as f64 + 1.0) / clusters as f64;
            let d = center + jitter.sample(&mut rng);
            let r = (d - release_back.sample(&mut rng)).max(0.0);
            DeadlineJob::new(i as u32, r, d, work.sample(&mut rng))
        })
        .collect();
    DeadlineInstance::new(jobs).expect("clustered jobs are valid")
}

/// The E22 families as strings, recorded in `BENCH_oa.json`.
pub const E22_FAMILIES: [&str; 2] = [
    "uniform: DeadlineInstance::random(n, n, (0.5, 6.0), (0.2, 3.0), 42)",
    "clustered: n/100+4 bands, 0.05 jitter, release 0.5-4.0 before deadline, seed 42",
];

/// E22: the kinetic-tournament OA against the per-event-sweep
/// reference on both families, reference measured up to
/// `reference_cap`. Unlike the `O(n⁴)` YDS seed, the OA reference is
/// only `O(n · D log n)`, so the acceptance sweep measures it at every
/// point including n = 20000 (seconds, not minutes).
pub fn oa_scaling(sizes: &[usize], reference_cap: usize) -> Vec<OaScalingPoint> {
    let model = PolyPower::CUBE;
    let mut points = Vec::new();
    for &n in sizes {
        for (family, inst) in [
            ("uniform", e19_instance(n)),
            ("clustered", e22_clustered(n)),
        ] {
            let kinetic_repeats = if n <= 5_000 { 5 } else { 3 };
            let (fast, kinetic_s) = time_min(kinetic_repeats, || oa(&inst).expect("feasible"));
            let (reference_s, reference_repeats, energy_rel_gap) = if n <= reference_cap {
                let repeats = if n <= 5_000 { 3 } else { 2 };
                let (slow, secs) = time_min(repeats, || oa_reference(&inst).expect("feasible"));
                let e_fast = metrics::energy(&fast, &model);
                let e_slow = metrics::energy(&slow, &model);
                (
                    Some(secs),
                    Some(repeats),
                    Some((e_fast - e_slow).abs() / e_slow),
                )
            } else {
                (None, None, None)
            };
            points.push(OaScalingPoint {
                n,
                family,
                kinetic_s,
                kinetic_repeats,
                reference_s,
                reference_repeats,
                energy_rel_gap,
            });
        }
    }
    points
}

/// `BENCH_oa.json`. The full tier measures the reference at every point
/// including the n = 20000 acceptance configuration; the smoke tier is
/// seconds.
pub fn oa_bench(smoke: bool) -> BenchFile {
    oa_file(&if smoke {
        oa_scaling(&[256, 1_024], 1_024)
    } else {
        oa_scaling(&[1_000, 5_000, 20_000], 20_000)
    })
}

fn oa_file(points: &[OaScalingPoint]) -> BenchFile {
    BenchFile::new(
        "oa_kinetic_tournament",
        vec![
            ("instance_families", E22_FAMILIES.to_vec().to_value()),
            ("metric", WALL_METRIC.to_value()),
        ],
        points.iter().map(OaScalingPoint::row).collect(),
    )
}

#[cfg(test)]
mod tests {
    use crate::harness::get;
    use serde::Value;

    #[test]
    fn oa_scaling_point_speedup_and_agreement() {
        let points = super::oa_scaling(&[96, 192], 96);
        assert_eq!(points.len(), 4); // two families per size
        for p in &points[..2] {
            assert_eq!(p.n, 96);
            assert!(p.speedup().unwrap() > 0.0);
            assert!(
                p.energy_rel_gap.unwrap() < 1e-9,
                "{}: gap {:?}",
                p.family,
                p.energy_rel_gap
            );
        }
        // Past the cap the reference columns go null.
        assert!(points[2].reference_s.is_none());
        assert!(points[3].energy_rel_gap.is_none());
        let file = super::oa_file(&points);
        assert_eq!(file.bench, "oa_kinetic_tournament");
        assert_eq!(file.rows.len(), 4);
        assert_eq!(
            get(&file.header, "instance_families")
                .and_then(Value::as_arr)
                .map(<[_]>::len),
            Some(2)
        );
        assert_eq!(
            get(&file.rows[1], "family"),
            Some(&Value::Str("clustered".into()))
        );
        assert_eq!(get(&file.rows[2], "reference_s"), Some(&Value::Null));
        assert_eq!(get(&file.rows[3], "speedup"), Some(&Value::Null));
    }

    #[test]
    fn flow_scaling_point_speedup_and_agreement() {
        let points = super::flow_scaling(&[32, 64], 8, 32);
        assert_eq!(points.len(), 2);
        let capped = &points[0];
        assert!(capped.solve_speedup().unwrap() > 0.0);
        assert!(capped.curve_speedup().unwrap() > 0.0);
        assert!(
            capped.curve_max_energy_rel_gap().unwrap() < 1e-9,
            "gap {:?}",
            capped.curve_max_energy_rel_gap()
        );
        assert_eq!(capped.curve_energy_rel_gaps.as_ref().unwrap().len(), 8);
        // Past the cap the reference columns go null.
        assert!(points[1].solve_reference_s.is_none());
        assert!(points[1].curve_reference_s.is_none());
        let file = super::flow_file(&points);
        assert_eq!(file.bench, "flow_block_decomposition");
        assert_eq!(file.rows.len(), 2);
        let gaps = get(&file.rows[0], "curve_energy_rel_gaps").and_then(Value::as_arr);
        assert_eq!(gaps.map(<[_]>::len), Some(8));
        assert_eq!(get(&file.rows[1], "curve_reference_s"), Some(&Value::Null));
        assert_eq!(
            get(&file.rows[1], "curve_energy_rel_gaps"),
            Some(&Value::Null)
        );
    }

    #[test]
    fn yds_scaling_point_speedup_and_agreement() {
        let points = super::yds_scaling(&[48, 96], 96);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.optimized_s >= 0.0 && p.rounds > 0);
            assert!(p.speedup().unwrap() > 0.0);
            assert!(
                p.energy_rel_gap.unwrap() < 1e-9,
                "gap {:?}",
                p.energy_rel_gap
            );
        }
        let file = super::yds_file(&points);
        assert_eq!(file.bench, "yds_timeline_engine");
        assert_eq!(file.rows.len(), 2);
        assert_eq!(
            get(&file.header, "instance_family"),
            Some(&Value::Str(super::E19_FAMILY.into()))
        );
        assert_eq!(get(&file.rows[0], "n"), Some(&Value::Num(48.0)));
        // The reference cap turns missing measurements into nulls.
        let capped = super::yds_scaling(&[48, 96], 48);
        assert!(capped[1].reference_s.is_none());
        let row = &super::yds_file(&capped).rows[1];
        assert_eq!(get(row, "reference_s"), Some(&Value::Null));
        assert_eq!(get(row, "speedup"), Some(&Value::Null));
    }

    #[test]
    fn multi_scaling_point_speedup_and_agreement() {
        use super::MultiPointSpec;
        let points = super::multi_scaling(&[
            MultiPointSpec {
                n: 10,
                m: 3,
                levels: 6,
                seed: 1,
                reference_budget_s: 120.0,
            },
            MultiPointSpec {
                n: 12,
                m: 4,
                levels: 4,
                seed: 2,
                reference_budget_s: 0.0,
            },
        ]);
        assert_eq!(points.len(), 2);
        let measured = &points[0];
        assert!(measured.speedup().unwrap() > 0.0);
        // Tiny instance within a generous budget: either it completed
        // with exact agreement, or a pathological machine censored it
        // (recorded, not hidden).
        if measured.reference_censored {
            assert!(measured.norm_rel_gap.is_none());
            assert!((measured.reference_s.unwrap() - 120.0).abs() < 1e-9);
        } else {
            assert!(
                measured.norm_rel_gap.unwrap() < 1e-9,
                "gap {:?}",
                measured.norm_rel_gap
            );
        }
        assert!(measured.parallel_rel_gap < 1e-9);
        // Reference skipped -> null columns, not censored.
        assert!(points[1].reference_s.is_none());
        assert!(points[1].norm_rel_gap.is_none());
        assert!(!points[1].reference_censored);
        let file = super::multi_file(&points);
        assert_eq!(file.bench, "multi_incremental_bb");
        assert_eq!(file.rows.len(), 2);
        assert!(get(&file.header, "censoring").is_some());
        assert_eq!(get(&file.rows[1], "reference_s"), Some(&Value::Null));
        assert_eq!(
            get(&file.rows[1], "reference_censored"),
            Some(&Value::Bool(false))
        );
    }

    #[test]
    fn multi_scaling_censors_hopeless_references() {
        use super::MultiPointSpec;
        // A witness the seed engine cannot finish in 0.05s wall-clock
        // but does finish in a few seconds (probed ~3s): the point must
        // come back censored with the budget as the floor, and the
        // leaked reference thread dies shortly after instead of pinning
        // a core for the rest of the test run.
        let points = super::multi_scaling(&[MultiPointSpec {
            n: 20,
            m: 4,
            levels: 12,
            seed: 1,
            reference_budget_s: 0.05,
        }]);
        let p = &points[0];
        assert!(p.reference_censored, "expected censoring, got {p:?}");
        assert!((p.reference_s.unwrap() - 0.05).abs() < 1e-9);
        assert!(p.norm_rel_gap.is_none());
        let row = &super::multi_file(&points).rows[0];
        assert_eq!(get(row, "reference_censored"), Some(&Value::Bool(true)));
        assert_eq!(get(row, "reference_s"), Some(&Value::Num(0.05)));
        assert_eq!(get(row, "norm_rel_gap"), Some(&Value::Null));
    }

    #[test]
    fn scaling_smoke() {
        // Full run is for the binary; here make sure one small row works.
        let model = pas_power::PolyPower::CUBE;
        let instance = pas_workload::generators::uniform(64, 64.0, (0.2, 2.0), 42);
        let budget = 2.0 * instance.total_work();
        let a = pas_core::makespan::incmerge::laptop(&instance, &model, budget)
            .unwrap()
            .makespan();
        let b = pas_core::makespan::dp::laptop_dp(&instance, &model, budget)
            .unwrap()
            .makespan();
        assert!((a - b).abs() < 1e-6 * a);
    }
}
