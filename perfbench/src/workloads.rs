//! The four workloads. Each is built from a seed, runs one op at a
//! time through the layers' public APIs, and checks each op's output
//! against a reference fixed at set-up.
//!
//! Layer calls are wrapped in [`Tracer`] spans named after the layer
//! (`makespan.frontier`, `serve.run`, `fleet.run`, ...); with tracing
//! off the spans cost one branch each.

use crate::trace::Tracer;
use pas_core::deadline::{oa, yds, DeadlineInstance};
use pas_core::flow::curve::tradeoff_curve;
use pas_core::makespan::{self, Frontier};
use pas_core::multi;
use pas_core::online::SpendAll;
use pas_fleet::{replay_with, run_with, DispatchPolicy, EventTrace, FleetOutcome, FleetScenario};
use pas_power::PolyPower;
use pas_sim::{
    outcome_digest, run_online, Decision, FaultModel, FaultNotice, FaultPlan, Journal,
    OnlinePolicy, ReadyView, ServeConfig, ServeOutcome, Server, WatchdogConfig,
};
use pas_workload::{generators, Instance};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker count for `fleet` (the benchmark machine has two cores).
pub const FLEET_WORKERS: usize = 2;

const MODEL: PolyPower = PolyPower::CUBE;

/// One benchmark workload.
pub trait Workload {
    /// Input sizes, recorded with every result.
    fn sizes(&self) -> Vec<(&'static str, f64)>;
    /// Run one op. An `Err` is a failed op.
    fn op(&mut self, t: &mut Tracer) -> Result<(), String>;
    /// Check the last op's output; returns the input jobs it processed.
    /// A mismatch is a failed op.
    fn check(&mut self) -> Result<f64, String>;
    /// Calls made only in the traced run, after a traced op, to split
    /// the op into layers (bare-engine and replay baselines, ...).
    fn probe(&mut self, _t: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Relative closeness: `|a - b| <= tol * max(1, |b|)`.
fn close(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * b.abs().max(1.0)
}

/// SplitMix64 step, for the few benchmark-side seeded choices.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `OnlinePolicy` wrapper that times each `decide` and delegates the
/// rest unchanged, so the run's decisions and digest are the same.
struct TimedPolicy<P> {
    inner: P,
    calls: u64,
    nanos: u64,
}

impl<P: OnlinePolicy> TimedPolicy<P> {
    fn new(inner: P) -> Self {
        TimedPolicy {
            inner,
            calls: 0,
            nanos: 0,
        }
    }
}

impl<P: OnlinePolicy> OnlinePolicy for TimedPolicy<P> {
    fn decide(&mut self, now: f64, ready: &dyn ReadyView, energy: f64) -> Option<Decision> {
        let t = Instant::now();
        let d = self.inner.decide(now, ready, energy);
        self.nanos += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }
    fn notify(&mut self, notice: &FaultNotice) {
        self.inner.notify(notice)
    }
    fn save_state(&self) -> Option<Vec<f64>> {
        self.inner.save_state()
    }
    fn load_state(&mut self, state: &[f64]) -> bool {
        self.inner.load_state(state)
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

// ---------------------------------------------------------------- offline

/// Sizes of the `offline` pass.
#[derive(Debug, Clone, Copy)]
pub struct OfflineSizes {
    pub makespan_n: usize,
    pub multi_n: usize,
    pub multi_m: usize,
    /// Independent instances each of the flow curve, YDS and OA solve:
    /// their cost swings by ~20% from one random instance to the next,
    /// and several per pass keep the pass time steady across seeds.
    pub instances: usize,
    pub flow_n: usize,
    pub curve_points: usize,
    pub yds_n: usize,
    pub oa_n: usize,
}

/// The fixed `min_norm_assignment` witness (E21: n = 20, m = 4,
/// levels = 12, LCG seed 1). It does not follow the workload seed:
/// branch-and-bound time varies by orders of magnitude across random
/// witnesses, which would swamp every other timing in the pass.
const WITNESS: (usize, usize, u64, u64) = (20, 4, 12, 1);

struct OfflineOut {
    frontier: Frontier,
    laptop_makespan: f64,
    norm: f64,
    curve_energies: Vec<Vec<f64>>,
    yds: Vec<pas_core::deadline::YdsOutcome>,
    oa: Vec<pas_sim::Schedule>,
}

/// A flow-curve instance and its energy grid.
struct FlowCase {
    inst: Instance,
    energies: Vec<f64>,
}

/// `offline`: the paper's solvers, one pass over all of them per op.
pub struct Offline {
    sizes: OfflineSizes,
    mk: Instance,
    eq: Instance,
    witness: Vec<f64>,
    flows: Vec<FlowCase>,
    yds: Vec<DeadlineInstance>,
    oa: Vec<DeadlineInstance>,
    /// Witness norm pinned at set-up.
    norm: Option<f64>,
    out: Option<OfflineOut>,
}

fn deadline_instance(n: usize, seed: u64) -> DeadlineInstance {
    DeadlineInstance::random(n, n as f64, (0.5, 6.0), (0.2, 3.0), seed)
}

impl Offline {
    pub fn setup(seed: u64, sizes: OfflineSizes, t: &mut Tracer) -> Offline {
        let gen = t.begin("workload.gen");
        let mk = generators::poisson(sizes.makespan_n, 0.8, (0.5, 1.5), seed);
        let eq = generators::equal_work_poisson(sizes.multi_n, 1.5, 1.0, seed);
        let (wn, _, levels, wseed) = WITNESS;
        let witness = pas_bench::experiments::scaling::multi_works(wn, levels, wseed);
        let seeds: Vec<u64> = (0..sizes.instances as u64)
            .map(|i| mix(seed ^ (i << 32)))
            .collect();
        let flows = seeds
            .iter()
            .map(|&s| {
                let inst = generators::equal_work_poisson(sizes.flow_n, 1.5, 1.0, s);
                // The E20 energy grid: 0.5×W to 4×W.
                let w = inst.total_work();
                let k = sizes.curve_points.max(2);
                let energies = (0..k)
                    .map(|i| w * (0.5 + 3.5 * i as f64 / (k - 1) as f64))
                    .collect();
                FlowCase { inst, energies }
            })
            .collect();
        let yds = seeds
            .iter()
            .map(|&s| deadline_instance(sizes.yds_n, s))
            .collect();
        let oa = seeds
            .iter()
            .map(|&s| deadline_instance(sizes.oa_n, mix(s)))
            .collect();
        t.end(gen);
        Offline {
            sizes,
            mk,
            eq,
            witness,
            flows,
            yds,
            oa,
            norm: None,
            out: None,
        }
    }
}

impl Workload for Offline {
    fn sizes(&self) -> Vec<(&'static str, f64)> {
        let s = self.sizes;
        vec![
            ("makespan_n", s.makespan_n as f64),
            ("multi_n", s.multi_n as f64),
            ("multi_m", s.multi_m as f64),
            ("partition_n", WITNESS.0 as f64),
            ("partition_m", WITNESS.1 as f64),
            ("instances", s.instances as f64),
            ("flow_n", s.flow_n as f64),
            ("curve_points", s.curve_points as f64),
            ("yds_n", s.yds_n as f64),
            ("oa_n", s.oa_n as f64),
        ]
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.out = None;
        let e = self.mk.total_work();
        let frontier = t.span("makespan.frontier", || Frontier::build(&self.mk, &MODEL));
        let laptop = t
            .span("makespan.laptop", || makespan::laptop(&self.mk, &MODEL, e))
            .map_err(err("makespan::laptop"))?;
        let e_eq = self.eq.total_work();
        let m = self.sizes.multi_m;
        let mm = t
            .span("multi.makespan", || {
                multi::makespan::laptop(&self.eq, &MODEL, m, e_eq, 1e-10)
            })
            .map_err(err("multi::makespan::laptop"))?;
        let mf = t
            .span("multi.flow", || {
                multi::flow::laptop(&self.eq, 3.0, m, e_eq, 1e-10)
            })
            .map_err(err("multi::flow::laptop"))?;
        let (_, norm) = t.span("multi.partition", || {
            multi::partition::min_norm_assignment(&self.witness, WITNESS.1, 3.0)
        });
        let mut curve_energies = Vec::new();
        for f in &self.flows {
            let curve = t
                .span("flow.curve", || {
                    tradeoff_curve(&f.inst, 3.0, &f.energies, 1e-10)
                })
                .map_err(err("tradeoff_curve"))?;
            t.value("flow.curve_points", curve.len() as f64);
            curve_energies.push(curve.iter().map(|p| p.energy).collect());
        }
        let mut yds_out = Vec::new();
        for d in &self.yds {
            let out = t.span("deadline.yds", || yds(d)).map_err(err("yds"))?;
            t.value("deadline.yds_rounds", out.rounds.len() as f64);
            yds_out.push(out);
        }
        let mut oa_out = Vec::new();
        for d in &self.oa {
            oa_out.push(t.span("deadline.oa", || oa(d)).map_err(err("oa"))?);
        }
        t.value("makespan.segments", frontier.segments().len() as f64);
        black_box((mm.makespan, mf.total_flow));
        self.out = Some(OfflineOut {
            frontier,
            laptop_makespan: laptop.makespan(),
            norm,
            curve_energies,
            yds: yds_out,
            oa: oa_out,
        });
        Ok(())
    }

    fn check(&mut self) -> Result<f64, String> {
        let out = self.out.take().ok_or("no output")?;
        let e = self.mk.total_work();
        let fm = out
            .frontier
            .makespan(&MODEL, e)
            .map_err(err("Frontier::makespan"))?;
        if !close(fm, out.laptop_makespan, 1e-9) {
            return Err(format!(
                "frontier makespan {fm} != laptop makespan {}",
                out.laptop_makespan
            ));
        }
        for (got, f) in out.curve_energies.iter().zip(&self.flows) {
            if got.len() != f.energies.len() {
                return Err("curve point count differs from the energy grid".into());
            }
            for (got, want) in got.iter().zip(&f.energies) {
                if (got - want).abs() > 1e-9 * want {
                    return Err(format!("curve point energy {got} != budget {want}"));
                }
            }
        }
        let pinned = *self.norm.get_or_insert(out.norm);
        if !(out.norm.is_finite() && out.norm.to_bits() == pinned.to_bits()) {
            return Err(format!("witness norm {} != pinned {pinned}", out.norm));
        }
        for (o, d) in out.yds.iter().zip(&self.yds) {
            d.validate_schedule(&o.schedule, 1e-6)
                .map_err(err("yds schedule"))?;
        }
        for (o, d) in out.oa.iter().zip(&self.oa) {
            d.validate_schedule(o, 1e-6).map_err(err("oa schedule"))?;
        }
        let s = self.sizes;
        let per_instance = s.flow_n + s.yds_n + s.oa_n;
        Ok((2 * s.makespan_n + 2 * s.multi_n + WITNESS.0 + s.instances * per_instance) as f64)
    }
}

// ----------------------------------------------------------- serve-stream

fn stream_config(snapshot_every: Option<u64>) -> ServeConfig {
    ServeConfig {
        admission: None,
        snapshot_every,
        watchdog: Some(WatchdogConfig::default()),
        record_latency: true,
    }
}

/// `serve-stream`: `Server::new` + `Server::run` over a Poisson stream
/// with a file journal, watchdog and latency capture.
pub struct ServeStream {
    inst: Instance,
    budget: f64,
    journal: PathBuf,
    /// `outcome_digest` of a bare `run_online` on the same stream.
    expected: u64,
    out: Option<ServeOutcome>,
}

impl ServeStream {
    pub fn setup(seed: u64, n: usize, dir: &Path, t: &mut Tracer) -> Result<ServeStream, String> {
        let inst = t.span("workload.gen", || {
            generators::poisson(n, 0.8, (0.5, 1.5), seed)
        });
        let budget = 2.0 * inst.total_work();
        let bare = run_online(&inst, &MODEL, &mut SpendAll::new(MODEL, budget))
            .map_err(err("run_online"))?;
        Ok(ServeStream {
            inst,
            budget,
            journal: dir.join("stream.journal"),
            expected: outcome_digest(&bare),
            out: None,
        })
    }

    /// `Server::new` + `Server::run` on `journal` in spans `new_span` and
    /// `run_span`. When tracing, `decide` calls are timed; for the
    /// measured op (`is_op`) their time and count become the
    /// `policy.decide_*` metrics.
    fn serve(
        &self,
        t: &mut Tracer,
        journal: Journal,
        (new_span, run_span): (&'static str, &'static str),
        is_op: bool,
    ) -> Result<ServeOutcome, String> {
        let plan = FaultPlan::none();
        let mut plain = SpendAll::new(MODEL, self.budget);
        let mut timed = TimedPolicy::new(SpendAll::new(MODEL, self.budget));
        let id = t.begin(new_span);
        let server = Server::new(&self.inst, &MODEL, &plan, stream_config(None), journal);
        t.end(id);
        let server = server.map_err(err("Server::new"))?;
        let id = t.begin(run_span);
        let out = if t.enabled() {
            server.run(&mut timed)
        } else {
            server.run(&mut plain)
        };
        t.end(id);
        if is_op {
            t.credit(id, "policy.decide_ms", timed.nanos as f64 / 1e6);
            t.value("policy.decide_calls", timed.calls as f64);
        }
        out.map_err(err("Server::run"))
    }
}

fn percentile_ns(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * p).round() as usize] as f64
}

impl Workload for ServeStream {
    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![("jobs", self.inst.len() as f64)]
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.out = None;
        let journal = t
            .span("journal.create", || Journal::create(&self.journal))
            .map_err(err("Journal::create"))?;
        let out = self.serve(t, journal, ("serve.new", "serve.run"), true)?;
        if t.enabled() {
            let mut lat = out.stats.decide_nanos.clone();
            lat.sort_unstable();
            t.value("serve.decide_p50_ns", percentile_ns(&lat, 0.50));
            t.value("serve.decide_p99_ns", percentile_ns(&lat, 0.99));
            t.value("journal.records", out.stats.journal_records as f64);
            let bytes = std::fs::metadata(&self.journal).map_or(0, |m| m.len());
            t.value("journal.bytes", bytes as f64);
        }
        self.out = Some(out);
        Ok(())
    }

    fn check(&mut self) -> Result<f64, String> {
        let out = self.out.take().ok_or("no output")?;
        let got = outcome_digest(&out.outcome);
        if got != self.expected {
            return Err(format!(
                "serve digest {got:016x} != pinned {:016x}",
                self.expected
            ));
        }
        Ok(self.inst.len() as f64)
    }

    fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        let mut policy = TimedPolicy::new(SpendAll::new(MODEL, self.budget));
        let bare = t
            .span("engine.run", || run_online(&self.inst, &MODEL, &mut policy))
            .map_err(err("run_online"))?;
        let spans = ("probe.memory_new", "probe.memory_run");
        let memory = self.serve(t, Journal::memory(), spans, false)?;
        for (what, got) in [("bare", &bare), ("memory-journal", &memory.outcome)] {
            if outcome_digest(got) != self.expected {
                return Err(format!("{what} digest differs from the pinned digest"));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------- serve-recover

/// Shape of the `serve-recover` op.
#[derive(Debug, Clone, Copy)]
pub struct RecoverSizes {
    /// Independent streams recovered per op.
    pub streams: usize,
    /// Jobs per stream.
    pub n: usize,
    pub snapshot_every: u64,
    /// Target fault events per stream (the E24 recipe).
    pub fault_events: usize,
}

/// One stream of `serve-recover`, with its crash point and reference.
struct Crash {
    inst: Instance,
    budget: f64,
    plan: FaultPlan,
    /// Engine steps of the uninterrupted run.
    steps: u64,
    /// Engine steps before the simulated crash.
    cut: u64,
    /// Digest of the uninterrupted run.
    expected: u64,
}

impl Crash {
    fn setup(seed: u64, sizes: RecoverSizes, t: &mut Tracer) -> Result<Crash, String> {
        let n = sizes.n;
        let inst = t.span("workload.gen", || {
            generators::poisson(n, 0.8, (0.5, 1.5), seed)
        });
        let budget = 2.0 * inst.total_work();
        let horizon = inst.last_release() + inst.total_work();
        let ids: Vec<u32> = inst.jobs().iter().map(|j| j.id).collect();
        let rate = sizes.fault_events as f64 / horizon.max(1.0);
        let plan = FaultModel::uniform_mix(rate).sample(horizon, &ids, seed.wrapping_mul(0x9e37));
        let every = sizes.snapshot_every;
        let whole = Server::new(
            &inst,
            &MODEL,
            &plan,
            stream_config(Some(every)),
            Journal::memory(),
        )
        .map_err(err("Server::new"))?
        .run(&mut SpendAll::new(MODEL, budget))
        .map_err(err("Server::run"))?;
        let steps = whole.stats.steps;
        // Crash just after the first snapshot of the run's second half,
        // at a seeded offset within half a snapshot interval, so every
        // seed restores from the same number of snapshots.
        let boundary = (steps / 2).div_ceil(every) * every;
        let cut = boundary + 1 + mix(seed) % (every / 2).max(1);
        if cut >= steps {
            return Err(format!("cut {cut} is past the run's {steps} engine steps"));
        }
        Ok(Crash {
            inst,
            budget,
            plan,
            steps,
            cut,
            expected: outcome_digest(&whole.outcome),
        })
    }
}

/// `serve-recover`: per stream, run to a seeded cut, drop the server,
/// read the journal back, `Server::restore` and run to completion.
///
/// An op recovers several independent streams: restore time depends
/// steeply on each stream's snapshot contents, and one stream per op
/// would make the op time swing with the seed.
pub struct ServeRecover {
    sizes: RecoverSizes,
    crashes: Vec<Crash>,
    journal: PathBuf,
    out: Vec<ServeOutcome>,
}

impl ServeRecover {
    pub fn setup(
        seed: u64,
        sizes: RecoverSizes,
        dir: &Path,
        t: &mut Tracer,
    ) -> Result<ServeRecover, String> {
        let crashes = (0..sizes.streams as u64)
            .map(|i| Crash::setup(mix(seed ^ (i << 32)), sizes, t))
            .collect::<Result<_, _>>()?;
        Ok(ServeRecover {
            sizes,
            crashes,
            journal: dir.join("recover.journal"),
            out: Vec::new(),
        })
    }

    fn recover(&self, c: &Crash, t: &mut Tracer) -> Result<ServeOutcome, String> {
        let config = stream_config(Some(self.sizes.snapshot_every));
        let id = t.begin("recover.prefix");
        let prefix = (|| {
            let journal = Journal::create(&self.journal).map_err(err("Journal::create"))?;
            let mut server = Server::new(&c.inst, &MODEL, &c.plan, config, journal)
                .map_err(err("Server::new"))?;
            let mut policy = SpendAll::new(MODEL, c.budget);
            server
                .run_for(&mut policy, c.cut)
                .map_err(err("Server::run_for"))
        })();
        t.end(id);
        if prefix? {
            return Err("run finished before the cut".into());
        }
        let text = t
            .span("journal.read", || std::fs::read_to_string(&self.journal))
            .map_err(err("read journal"))?;
        let mut policy = SpendAll::new(MODEL, c.budget);
        let id = t.begin("journal.restore");
        let server = Journal::append(&self.journal)
            .map_err(err("Journal::append"))
            .and_then(|j| {
                Server::restore(&c.inst, &MODEL, &c.plan, config, &text, j, &mut policy)
                    .map_err(err("Server::restore"))
            });
        t.end(id);
        let out = t.span("recover.replay", || {
            server?.run(&mut policy).map_err(err("Server::run"))
        })?;
        if t.enabled() {
            let snaps = text
                .lines()
                .filter(|l| l.starts_with("{\"t\":\"snap\""))
                .count();
            t.value("journal.snapshots", snaps as f64);
            t.value("journal.bytes", text.len() as f64);
            t.value(
                "recover.replayed_decisions",
                out.stats.replayed_decisions as f64,
            );
        }
        Ok(out)
    }
}

impl Workload for ServeRecover {
    fn sizes(&self) -> Vec<(&'static str, f64)> {
        let s = self.sizes;
        let sum = |f: fn(&Crash) -> f64| self.crashes.iter().map(f).sum::<f64>();
        vec![
            ("streams", s.streams as f64),
            ("jobs_per_stream", s.n as f64),
            ("snapshot_every", s.snapshot_every as f64),
            ("fault_events", sum(|c| c.plan.len() as f64)),
            ("run_steps", sum(|c| c.steps as f64)),
            ("cut_steps", sum(|c| c.cut as f64)),
        ]
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.out.clear();
        for c in &self.crashes {
            let out = self.recover(c, t)?;
            self.out.push(out);
        }
        Ok(())
    }

    fn check(&mut self) -> Result<f64, String> {
        if self.out.len() != self.crashes.len() {
            return Err("no output".into());
        }
        for (out, c) in self.out.drain(..).zip(&self.crashes) {
            let got = outcome_digest(&out.outcome);
            if got != c.expected {
                return Err(format!(
                    "restored digest {got:016x} != uninterrupted {:016x}",
                    c.expected
                ));
            }
        }
        Ok(self.crashes.iter().map(|c| c.inst.len() as f64).sum())
    }
}

// ------------------------------------------------------------------ fleet

/// `fleet`: `run_with(scenario, 2)` over the E25 archetypes with
/// least-assigned dispatch.
pub struct Fleet {
    scenario: FleetScenario,
    hosts: usize,
    jobs_per_host: usize,
    /// Digest of `replay_with` on the set-up run's trace.
    expected: u64,
    out: Option<FleetOutcome>,
}

impl Fleet {
    pub fn setup(
        seed: u64,
        hosts: usize,
        jobs_per_host: usize,
        t: &mut Tracer,
    ) -> Result<Fleet, String> {
        use pas_bench::experiments::fleet::{archetype, fleet_workload};
        let workload = t.span("workload.gen", || {
            fleet_workload(hosts, jobs_per_host, seed)
        });
        let scenario = t.span("fleet.scenario", || {
            let cfgs = (0..hosts as u32).map(archetype).collect();
            let horizon = workload.last_release() + 50.0;
            let mut s = FleetScenario::new(cfgs, workload, horizon, seed);
            s.dispatch = DispatchPolicy::LeastAssigned;
            s
        });
        let first = run_with(&scenario, FLEET_WORKERS).map_err(err("fleet run"))?;
        let replayed =
            replay_with(&scenario, &first.trace, FLEET_WORKERS).map_err(err("fleet replay"))?;
        if replayed.digest != first.digest {
            return Err("set-up replay digest differs from the run digest".into());
        }
        Ok(Fleet {
            scenario,
            hosts,
            jobs_per_host,
            expected: replayed.digest,
            out: None,
        })
    }
}

impl Workload for Fleet {
    fn sizes(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("hosts", self.hosts as f64),
            ("jobs_per_host", self.jobs_per_host as f64),
            ("jobs", self.scenario.workload.len() as f64),
            ("workers", FLEET_WORKERS as f64),
        ]
    }

    fn op(&mut self, t: &mut Tracer) -> Result<(), String> {
        self.out = None;
        let out = t
            .span("fleet.run", || run_with(&self.scenario, FLEET_WORKERS))
            .map_err(err("fleet run"))?;
        if t.enabled() {
            let p = out.timings;
            t.value("fleet.phase.dispatch_ms", p.dispatch_ms);
            t.value("fleet.phase.partition_ms", p.partition_ms);
            t.value("fleet.phase.execute_ms", p.execute_ms);
            t.value("fleet.phase.reduce_ms", p.reduce_ms);
            t.value("fleet.completed_jobs", out.completed_jobs as f64);
            t.value("fleet.shed_jobs", out.shed_jobs() as f64);
            t.value("fleet.workers", out.workers as f64);
        }
        self.out = Some(out);
        Ok(())
    }

    fn check(&mut self) -> Result<f64, String> {
        let out = self.out.as_ref().ok_or("no output")?;
        if out.digest != self.expected {
            return Err(format!(
                "fleet digest {:016x} != replay digest {:016x}",
                out.digest, self.expected
            ));
        }
        Ok(out.completed_jobs as f64)
    }

    fn probe(&mut self, t: &mut Tracer) -> Result<(), String> {
        let out = self.out.take().ok_or("no output")?;
        let replayed = t
            .span("fleet.replay", || {
                replay_with(&self.scenario, &out.trace, FLEET_WORKERS)
            })
            .map_err(err("fleet replay"))?;
        let text = t.span("fleet.trace_serialize", || out.trace.serialize());
        let parsed = t
            .span("fleet.trace_parse", || EventTrace::parse(&text))
            .map_err(err("trace parse"))?;
        t.value("fleet.trace_bytes", text.len() as f64);
        if replayed.digest != self.expected {
            return Err("replay digest differs from the pinned digest".into());
        }
        if parsed.records.len() != out.trace.records.len() {
            return Err("parsed trace lost records".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> PathBuf {
        let d = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.bench_build/perfbench-test");
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn op_ok(w: &mut dyn Workload) -> Result<f64, String> {
        w.op(&mut Tracer::new(false))?;
        w.check()
    }

    #[test]
    fn a_corrupted_expected_digest_fails_the_op() {
        let mut off = Tracer::new(false);
        let d = dir().join("corrupt");
        std::fs::create_dir_all(&d).unwrap();
        let mut s = ServeStream::setup(3, 300, &d, &mut off).unwrap();
        assert!(op_ok(&mut s).is_ok());
        s.expected ^= 1;
        assert!(op_ok(&mut s).unwrap_err().contains("digest"));

        let sizes = RecoverSizes {
            streams: 2,
            n: 300,
            snapshot_every: 50,
            fault_events: 6,
        };
        let mut r = ServeRecover::setup(3, sizes, &d, &mut off).unwrap();
        assert!(op_ok(&mut r).is_ok());
        r.crashes[1].expected ^= 1;
        assert!(op_ok(&mut r).unwrap_err().contains("digest"));

        let mut f = Fleet::setup(3, 8, 5, &mut off).unwrap();
        assert!(op_ok(&mut f).is_ok());
        f.expected ^= 1;
        assert!(op_ok(&mut f).unwrap_err().contains("digest"));
    }

    #[test]
    fn small_offline_pass_checks_out_and_traces_every_layer() {
        let sizes = OfflineSizes {
            makespan_n: 500,
            multi_n: 64,
            multi_m: 4,
            instances: 2,
            flow_n: 20,
            curve_points: 8,
            yds_n: 40,
            oa_n: 200,
        };
        let mut t = Tracer::new(true);
        let mut w = Offline::setup(5, sizes, &mut t);
        t.set_op(1);
        w.op(&mut t).unwrap();
        assert!(w.check().unwrap() > 0.0);
        let ops = t.per_op();
        for name in [
            "makespan.frontier",
            "makespan.laptop",
            "multi.makespan",
            "multi.flow",
            "multi.partition",
            "flow.curve",
            "deadline.yds",
            "deadline.oa",
            "makespan.segments",
            "flow.curve_points",
            "deadline.yds_rounds",
        ] {
            assert!(ops[&1].contains_key(name), "{name} missing");
        }
        assert!(ops[&0].contains_key("workload.gen"));
    }
}
