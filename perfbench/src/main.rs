//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <offline|serve-stream|serve-recover|fleet>
//!           --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. The run is split into
//! [`SHARDS`] child processes run one after another; each sets up once
//! (input generation, reference digests, one warm-up op), then runs ops
//! back to back for its share of `--seconds`. Every op's output is
//! checked, and a failed check is a failed op. `setup_s` is the median
//! set-up time of the children; the op metrics pool all their ops;
//! `peak_rss_mib` is the median of the children's peaks. Every timing
//! is divided by the machine's pace measured around it (see [`pace`]),
//! so it reads in milliseconds (or seconds) at the reference pace; the
//! wall figures go in the run's record next to it.
//!
//! `--trace 1` runs in one process, sets up once, alternates untraced
//! and traced ops and reports the per-layer metrics, the op time no
//! layer span covers and the tracing overhead. It also writes a Chrome
//! trace (`trace-<workload>-seed<n>.json`) and a per-layer summary with
//! self times (`layers-<workload>-seed<n>.json`) to the output
//! directory. Every run appends a record with its metadata to
//! `results.jsonl` there; `run.py --compare` reads two such files.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod pace;
mod stats;
mod trace;
mod workloads;

use pace::Pace;
use stats::{median, tail};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::{Fleet, Offline, OfflineSizes, RecoverSizes, ServeRecover, ServeStream, Workload};

/// Child processes per untraced run. The same op runs up to ~15% faster
/// or slower from one process to the next on the same input (memory
/// layout), while its speed within a process is steady; pooling the
/// ops of several processes keeps run medians steady across runs.
const SHARDS: usize = 4;

/// Input sizes. Each op takes 0.35-0.65 s on a 2-core machine, so a
/// 25 s run times 35-60 ops and the tail percentile (10 ops beyond it)
/// sits near p70-p80.
const OFFLINE: OfflineSizes = OfflineSizes {
    makespan_n: 100_000,
    multi_n: 8_000,
    multi_m: 8,
    instances: 3,
    flow_n: 150,
    curve_points: 30,
    yds_n: 400,
    oa_n: 5_000,
};
const STREAM_N: usize = 100_000;
const RECOVER: RecoverSizes = RecoverSizes {
    streams: 7,
    n: 300,
    snapshot_every: 200,
    fault_events: 16,
};
const FLEET_HOSTS: usize = 1_500;
const FLEET_JOBS_PER_HOST: usize = 20;

const WORKLOADS: [&str; 4] = ["offline", "serve-stream", "serve-recover", "fleet"];

/// Per-layer metrics, as listed in `BENCHMARK.json`. A workload that
/// does not reach a layer reports its metrics as 0.
const PER_LAYER: [(&str, &str); 49] = [
    ("workload.gen_ms", "ms"),
    ("makespan.frontier_ms", "ms"),
    ("makespan.laptop_ms", "ms"),
    ("multi.makespan_ms", "ms"),
    ("multi.flow_ms", "ms"),
    ("multi.partition_ms", "ms"),
    ("flow.curve_ms", "ms"),
    ("deadline.yds_ms", "ms"),
    ("deadline.oa_ms", "ms"),
    ("makespan.segments", "count"),
    ("flow.curve_points", "count"),
    ("deadline.yds_rounds", "count"),
    ("serve.new_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("engine.run_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("policy.decide_calls", "count"),
    ("policy.decide_ms", "ms"),
    ("serve.decide_p50_ns", "ns"),
    ("serve.decide_p99_ns", "ns"),
    ("journal.create_ms", "ms"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.file_ms", "ms"),
    ("recover.prefix_ms", "ms"),
    ("journal.snapshots", "count"),
    ("journal.read_ms", "ms"),
    ("journal.restore_ms", "ms"),
    ("recover.replay_ms", "ms"),
    ("recover.replayed_decisions", "count"),
    ("fleet.scenario_ms", "ms"),
    ("fleet.run_ms", "ms"),
    ("fleet.replay_ms", "ms"),
    ("fleet.dispatch_ms", "ms"),
    ("fleet.dispatch_gap_ms", "ms"),
    ("fleet.phase.dispatch_ms", "ms"),
    ("fleet.phase.partition_ms", "ms"),
    ("fleet.phase.execute_ms", "ms"),
    ("fleet.phase.reduce_ms", "ms"),
    ("fleet.trace_serialize_ms", "ms"),
    ("fleet.trace_parse_ms", "ms"),
    ("fleet.trace_bytes", "bytes"),
    ("fleet.completed_jobs", "count"),
    ("fleet.shed_jobs", "count"),
    ("fleet.workers", "count"),
    ("trace.ops", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.uncovered_ms", "ms"),
    ("trace.uncovered_pct", "%"),
];

/// Per-op differences of two metrics: `(metric, minuend, subtrahend)`,
/// computed in this order. `fleet.dispatch_gap_ms` cross-checks the
/// dispatch time derived from run minus replay against the phase time
/// `pas_fleet` reports itself.
const DERIVED: [(&str, &str, &str); 4] = [
    ("serve.overhead_ms", "serve.run_ms", "engine.run_ms"),
    ("journal.file_ms", "serve.run_ms", "probe.memory_run_ms"),
    ("fleet.dispatch_ms", "fleet.run_ms", "fleet.replay_ms"),
    (
        "fleet.dispatch_gap_ms",
        "fleet.dispatch_ms",
        "fleet.phase.dispatch_ms",
    ),
];

/// Uncovered op time above this share of the op is flagged.
const UNCOVERED_LIMIT_PCT: f64 = 5.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// Run as one child of an untraced run (see [`SHARDS`]).
    shard: bool,
    /// Run as the pace helper of a child (see [`pace`]).
    pace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench"),
        shard: false,
        pace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = PathBuf::from(v),
            "--shard" => a.shard = v == "1",
            "--pace" => a.pace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            a.workload
        ));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn build(name: &str, seed: u64, dir: &Path, t: &mut Tracer) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "offline" => Box::new(Offline::setup(seed, OFFLINE, t)),
        "serve-stream" => Box::new(ServeStream::setup(seed, STREAM_N, dir, t)?),
        "serve-recover" => Box::new(ServeRecover::setup(seed, RECOVER, dir, t)?),
        "fleet" => Box::new(Fleet::setup(seed, FLEET_HOSTS, FLEET_JOBS_PER_HOST, t)?),
        _ => unreachable!("workload names are checked in parse_args"),
    })
}

/// Ops attempted, failed, and the first failure seen.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Run and check one op with tracing off; returns (wall ms, jobs).
fn timed_op(w: &mut dyn Workload, off: &mut Tracer, tally: &mut Tally) -> (f64, f64) {
    let t0 = Instant::now();
    let r = w.op(off);
    let dt = t0.elapsed().as_secs_f64() * 1e3;
    let r = r.and_then(|()| w.check());
    let jobs = *r.as_ref().unwrap_or(&0.0);
    tally.record(r.map(|_| ()));
    (dt, jobs)
}

/// Set up once, with one warm-up op; returns the workload and the
/// set-up seconds.
fn setup(args: &Args, dir: &Path, t: &mut Tracer) -> Result<(Box<dyn Workload>, f64), String> {
    let t0 = Instant::now();
    let id = t.begin("setup");
    let mut w = build(&args.workload, args.seed, dir, t)?;
    t.end(id);
    w.op(&mut Tracer::new(false))
        .and_then(|()| w.check())
        .map_err(|e| format!("warm-up op failed: {e}"))?;
    Ok((w, t0.elapsed().as_secs_f64()))
}

struct Outcome {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
    /// Extra facts for the record, each value already JSON.
    notes: Vec<(String, String)>,
}

/// One child of an untraced run: set up, run ops for `--seconds`, and
/// print the raw figures for the parent, one `key values...` line each.
/// A pace helper process (see [`pace`]) is read after set-up and after
/// every op; each op's time is divided by the geometric mean of the two
/// readings around it, which follows the host's speed from one second
/// to the next. Wall times are printed too, for the record.
fn shard(args: &Args, dir: &Path) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let (mut w, setup_s) = setup(args, dir, &mut off)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut helper = std::process::Command::new(exe);
    helper
        .args(["--workload", &args.workload, "--pace", "1", "--out"])
        .arg(&args.out);
    let mut pace = Pace::spawn(helper)?;
    let mut paces = vec![pace.read()?];
    let mut tally = Tally::default();
    let (mut times, mut walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < args.seconds {
        let (dt, jobs) = timed_op(w.as_mut(), &mut off, &mut tally);
        let before = paces[paces.len() - 1];
        paces.push(pace.read()?);
        let paced = dt / (before * paces[paces.len() - 1]).sqrt();
        times.push(paced);
        walls.push(dt);
        rates.push(jobs / (paced / 1e3));
    }
    let join = |xs: &[f64]| {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("setup {setup_s}");
    println!("rss {}", peak_rss_mib());
    println!("tally {} {}", tally.attempted, tally.failed);
    println!("ops {}", join(&times));
    println!("walls {}", join(&walls));
    println!("rates {}", join(&rates));
    println!("paces {}", join(&paces));
    println!("sizes {}", sizes_json(&w.sizes()));
    if let Some(e) = tally.first_error {
        println!("error {}", e.replace('\n', " "));
    }
    Ok(())
}

/// The figures of all children of an untraced run.
#[derive(Default)]
struct Pooled {
    setups: Vec<f64>,
    rss: Vec<f64>,
    times: Vec<f64>,
    walls: Vec<f64>,
    rates: Vec<f64>,
    paces: Vec<f64>,
    sizes: String,
    tally: Tally,
}

impl Pooled {
    fn add(&mut self, stdout: &str) -> Result<(), String> {
        for line in stdout.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let nums = || -> Result<Vec<f64>, String> {
                rest.split_whitespace()
                    .map(|x| x.parse().map_err(|_| format!("bad shard line {line:?}")))
                    .collect()
            };
            match key {
                "setup" => self.setups.extend(nums()?),
                "rss" => self.rss.extend(nums()?),
                "ops" => self.times.extend(nums()?),
                "walls" => self.walls.extend(nums()?),
                "rates" => self.rates.extend(nums()?),
                "paces" => self.paces.extend(nums()?),
                "sizes" => self.sizes = rest.to_string(),
                "tally" => {
                    let n = nums()?;
                    if n.len() != 2 {
                        return Err(format!("bad shard line {line:?}"));
                    }
                    self.tally.attempted += n[0] as u64;
                    self.tally.failed += n[1] as u64;
                }
                "error" => {
                    self.tally.first_error.get_or_insert(rest.to_string());
                }
                _ => return Err(format!("unexpected shard line {line:?}")),
            }
        }
        Ok(())
    }
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut pooled = Pooled::default();
    for _ in 0..SHARDS {
        let child = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / SHARDS as f64).to_string()])
            .args(["--trace", "0", "--shard", "1"])
            .arg("--out")
            .arg(&args.out)
            .output()
            .map_err(|e| format!("spawn {exe:?}: {e}"))?;
        if !child.status.success() {
            return Err(String::from_utf8_lossy(&child.stderr).trim().to_string());
        }
        pooled.add(&String::from_utf8_lossy(&child.stdout))?;
    }
    let p = pooled;
    // Op times come paced from the children; set-up, which has no
    // readings on both sides, is divided by the run's median pace.
    let pace = median(&p.paces);
    let (tail_ms, tail_pct, beyond) = tail(&p.times);
    let error_rate = p.tally.failed as f64 / p.tally.attempted as f64;
    let peak_rss = median(&p.rss);
    let wall_ms: Vec<String> = p.walls.iter().map(|&x| num(x)).collect();
    Ok(Outcome {
        metrics: vec![
            ("setup_s".into(), median(&p.setups) / pace, "s"),
            ("op_p50_ms".into(), median(&p.times), "ms"),
            ("op_tail_ms".into(), tail_ms, "ms"),
            ("jobs_per_s".into(), median(&p.rates), "1/s"),
            ("peak_rss_mib".into(), peak_rss, "MiB"),
            ("error_rate".into(), error_rate, "ratio"),
        ],
        notes: vec![
            ("ops".into(), p.times.len().to_string()),
            ("op_tail_percentile".into(), format!("{tail_pct:.4}")),
            ("op_tail_ops_beyond".into(), beyond.to_string()),
            ("processes".into(), SHARDS.to_string()),
            ("pace".into(), num(pace)),
            ("pace_readings".into(), p.paces.len().to_string()),
            ("wall_setup_s".into(), num(median(&p.setups))),
            ("wall_op_p50_ms".into(), num(median(&p.walls))),
            ("wall_op_tail_ms".into(), num(tail(&p.walls).0)),
            ("wall_op_ms".into(), format!("[{}]", wall_ms.join(", "))),
            ("workload_sizes".into(), p.sizes),
        ],
        tally: p.tally,
    })
}

/// Per-op values of one span name across the traced ops.
#[derive(Default)]
struct SpanSeries {
    count: Vec<f64>,
    total: Vec<f64>,
    self_ms: Vec<f64>,
}

fn traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut t = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut w, _) = setup(args, dir, &mut t)?;
    let mut tally = Tally::default();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed().as_secs_f64() < args.seconds {
        plain_ms.push(timed_op(w.as_mut(), &mut off, &mut tally).0);
        op += 1;
        t.set_op(op);
        let id = t.begin("op");
        let t0 = Instant::now();
        let r = w.op(&mut t);
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t.end(id);
        let r = r.and_then(|()| w.check()).and_then(|_| w.probe(&mut t));
        tally.record(r);
    }

    // Per metric, the values of every op that reported it.
    let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut spans: BTreeMap<&str, SpanSeries> = BTreeMap::new();
    let mut uncovered = (Vec::new(), Vec::new());
    for (_, names) in t.per_op() {
        let mut row: BTreeMap<String, f64> = BTreeMap::new();
        for (name, tot) in names {
            if tot.count > 0 {
                row.insert(format!("{name}_ms"), tot.total);
                let s = spans.entry(name).or_default();
                s.count.push(tot.count as f64);
                s.total.push(tot.total);
                s.self_ms.push(tot.self_ms);
                if name == "op" {
                    uncovered.0.push(tot.self_ms);
                    uncovered.1.push(100.0 * tot.self_ms / tot.total);
                }
            } else {
                row.insert(name.to_string(), tot.total);
            }
        }
        for (metric, a, b) in DERIVED {
            if let (Some(x), Some(y)) = (row.get(a), row.get(b)) {
                row.insert(metric.to_string(), x - y);
            }
        }
        for (k, v) in row {
            series.entry(k).or_default().push(v);
        }
    }
    let mut produced: BTreeMap<String, f64> =
        series.iter().map(|(k, v)| (k.clone(), median(v))).collect();
    let overhead = median(&traced_ms) - median(&plain_ms);
    let uncovered_ms = median(&uncovered.0);
    let uncovered_pct = median(&uncovered.1);
    produced.insert("trace.ops".into(), traced_ms.len() as f64);
    produced.insert("trace.overhead_ms".into(), overhead);
    produced.insert("trace.uncovered_ms".into(), uncovered_ms);
    produced.insert("trace.uncovered_pct".into(), uncovered_pct);
    let flagged = uncovered_pct > UNCOVERED_LIMIT_PCT;

    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {:?}: {e}", args.out))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let trace_path = args.out.join(format!("trace-{stem}.json"));
    std::fs::write(&trace_path, t.chrome_json()).map_err(|e| format!("write trace: {e}"))?;

    let mut metrics = Vec::new();
    let mut dropped = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = produced.get(name).copied();
        if v.is_none() {
            dropped.push(name);
        }
        metrics.push((name.to_string(), v.unwrap_or(0.0), unit));
    }

    let mut summary = String::new();
    let _ = write!(
        summary,
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"ops_traced\": {},\n  \"op_p50_untraced_ms\": {},\n  \"op_p50_traced_ms\": {},\n  \"overhead_ms\": {},\n  \"uncovered_ms\": {},\n  \"uncovered_pct\": {},\n  \"uncovered_limit_pct\": {},\n  \"uncovered_flag\": {},\n  \"spans\": {{",
        json_str(&args.workload),
        args.seed,
        traced_ms.len(),
        num(median(&plain_ms)),
        num(median(&traced_ms)),
        num(overhead),
        num(uncovered_ms),
        num(uncovered_pct),
        UNCOVERED_LIMIT_PCT,
        flagged,
    );
    for (i, (name, s)) in spans.iter().enumerate() {
        let _ = write!(
            summary,
            "{}\n    {}: {{\"count_per_op\": {}, \"total_ms_p50\": {}, \"self_ms_p50\": {}}}",
            if i > 0 { "," } else { "" },
            json_str(name),
            num(median(&s.count)),
            num(median(&s.total)),
            num(median(&s.self_ms)),
        );
    }
    summary.push_str("\n  },\n  \"metrics\": ");
    summary.push_str(&metrics_json(&metrics));
    summary.push_str(",\n  \"not_exercised_reason\": \"this workload makes no call into the layer; reported as 0\",\n  \"not_exercised\": [");
    summary.push_str(
        &dropped
            .iter()
            .map(|d| json_str(d))
            .collect::<Vec<_>>()
            .join(", "),
    );
    summary.push_str("]\n}\n");
    let layers_path = args.out.join(format!("layers-{stem}.json"));
    std::fs::write(&layers_path, summary).map_err(|e| format!("write summary: {e}"))?;

    Ok(Outcome {
        metrics,
        notes: vec![
            ("ops_traced".into(), traced_ms.len().to_string()),
            ("uncovered_flag".into(), flagged.to_string()),
            ("not_exercised".into(), dropped.len().to_string()),
            (
                "chrome_trace".into(),
                json_str(&trace_path.display().to_string()),
            ),
            (
                "layer_summary".into(),
                json_str(&layers_path.display().to_string()),
            ),
            ("workload_sizes".into(), sizes_json(&w.sizes())),
        ],
        tally,
    })
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit checked out in the working directory, from `.git/HEAD`.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (no .git)".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({r})"))
}

fn meta_json(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"commit\": {}, \"available_parallelism\": {cores}, \"profile\": {}, \"rustc\": {}, \"seed\": {}, \"seconds\": {}, \"fleet_workers\": {}}}",
        json_str(&commit()),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        json_str(env!("PERFBENCH_RUSTC")),
        args.seed,
        args.seconds,
        workloads::FLEET_WORKERS,
    )
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON number; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn sizes_json(sizes: &[(&str, f64)]) -> String {
    let body: Vec<String> = sizes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn metrics_json(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out DIR]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let tmp = args.out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {tmp:?}: {e}");
        std::process::exit(1);
    }
    let result = if args.pace {
        pace::serve(&tmp).map(|()| None)
    } else if args.shard {
        shard(&args, &tmp).map(|()| None)
    } else if args.trace {
        traced(&args, &tmp).map(Some)
    } else {
        untraced(&args).map(Some)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let out = match result {
        Ok(Some(o)) => o,
        Ok(None) => return,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };

    let meta = meta_json(&args);
    println!(
        "perfbench {} seed={} trace={} attempted={} failed={}",
        args.workload, args.seed, args.trace as u8, out.tally.attempted, out.tally.failed
    );
    for (name, v, unit) in &out.metrics {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    for (k, v) in &out.notes {
        println!("  {k}: {v}");
    }
    if let Some(e) = &out.tally.first_error {
        println!("  first failure: {e}");
    }
    println!("meta {meta}");

    // The printed result holds the metrics BENCHMARK.json names; the
    // error rate is carried by `attempted` and `failed`.
    let reported: Vec<_> = out
        .metrics
        .iter()
        .filter(|(k, _, _)| k != "error_rate")
        .cloned()
        .collect();
    let correct = out.tally.failed == 0;
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let record = format!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"meta\": {meta}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"notes\": {{{}}}, \"metrics\": {}}}\n",
        json_str(&args.workload),
        args.seed,
        args.trace as u8,
        out.tally.attempted,
        out.tally.failed,
        notes.join(", "),
        metrics_json(&out.metrics),
    );
    let results = args.out.join("results.jsonl");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("perfbench: cannot append to {results:?}: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.tally.attempted,
        out.tally.failed,
        metrics_json(&reported)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_list_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let per_layer = &text[text.find("\"per_layer\"").expect("per_layer key")..];
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                per_layer.contains(&entry),
                "{name} missing from BENCHMARK.json"
            );
        }
        assert_eq!(per_layer.matches("\"name\"").count(), PER_LAYER.len());
    }

    struct Flaky(u32);

    impl Workload for Flaky {
        fn sizes(&self) -> Vec<(&'static str, f64)> {
            Vec::new()
        }
        fn op(&mut self, _t: &mut Tracer) -> Result<(), String> {
            self.0 += 1;
            Ok(())
        }
        fn check(&mut self) -> Result<f64, String> {
            if self.0.is_multiple_of(2) {
                Err("mismatch".into())
            } else {
                Ok(1.0)
            }
        }
    }

    #[test]
    fn a_failed_check_counts_as_a_failed_op() {
        let mut w = Flaky(0);
        let mut tally = Tally::default();
        let mut off = Tracer::new(false);
        let jobs: f64 = (0..4)
            .map(|_| timed_op(&mut w, &mut off, &mut tally).1)
            .sum();
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(jobs, 2.0);
        assert_eq!(tally.first_error.as_deref(), Some("mismatch"));
    }
}
