//! Print the `scaling` experiment tables as CSV to stdout.
//!
//! Modes:
//! * no args — the E4/E5 makespan-solver sweep plus the smoke tier of
//!   every `BENCH_*` sweep (E19 YDS, E20 flow, E21 multiproc partition,
//!   E22 OA, E23 faults, E24 serve, E13 policies, E25 fleet, E26
//!   fleet-par) as CSV tables, references capped so the run stays fast;
//! * `--bench-json [DIR]` — the acceptance sweeps written as per-path
//!   bench files `DIR/BENCH_<name>.json` (default DIR `.`), the
//!   perf-trajectory records successive PRs compare against; each
//!   sweep's CSV table goes to stdout as well.
//!   Expect tens of minutes: the YDS reference is `O(n⁴)` through
//!   n=2000, the flow reference curve is ~120 cold bisection solves of
//!   an `O(iters·n)` engine at n=1000, and the multiproc reference is
//!   an exponential branch and bound measured through the n=30/m=8
//!   witness — that cost is the point. (The OA sweep is the cheap one:
//!   its reference is `O(n·D log n)`, measured through n=20000.);
//! * `--smoke` — with `--bench-json`, the same files from a
//!   seconds-scale tier (small sizes, capped references), exercised in
//!   CI so the bench plumbing can never rot;
//! * `--only NAME` — restrict either mode to one sweep, NAME one of
//!   `yds flow oa faults serve policies fleet fleet-par multi` (the other
//!   `BENCH_*.json` files are left untouched).
//!
//! DIR is the one positional argument and may appear anywhere. An
//! unknown flag, a second positional, or a missing or unknown `--only`
//! value exits with status 2 and the usage line.
use pas_bench::experiments::{scaling, BENCHES};
use std::path::PathBuf;

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// `Some(DIR)` in `--bench-json` mode.
    json_dir: Option<PathBuf>,
    smoke: bool,
    only: Option<String>,
}

fn usage() -> String {
    let names: Vec<&str> = BENCHES.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: exp-scaling [--bench-json [DIR]] [--smoke] [--only {}]",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut bench_json = false;
    let mut smoke = false;
    let mut only = None;
    let mut dir = None;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench-json" => bench_json = true,
            "--smoke" => smoke = true,
            "--only" => match args.next() {
                Some(name) if BENCHES.iter().any(|(n, _)| *n == name) => only = Some(name.clone()),
                Some(name) => return Err(format!("--only: unknown sweep `{name}`")),
                None => return Err("--only needs a sweep name".to_string()),
            },
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ if dir.is_some() => return Err(format!("unexpected second DIR `{arg}`")),
            _ => dir = Some(PathBuf::from(arg)),
        }
    }
    if dir.is_some() && !bench_json {
        return Err("DIR needs --bench-json".to_string());
    }
    Ok(Args {
        json_dir: bench_json.then(|| dir.unwrap_or_else(|| PathBuf::from("."))),
        smoke,
        only,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|err| {
        eprintln!("exp-scaling: {err}\n{}", usage());
        std::process::exit(2);
    });
    let selected = BENCHES
        .iter()
        .filter(|(name, _)| args.only.as_deref().is_none_or(|o| o == *name));
    let Some(dir) = args.json_dir else {
        for table in scaling::run() {
            table.print();
            println!();
        }
        for (_, bench) in selected {
            bench(true).table().print();
            println!();
        }
        return;
    };
    for (name, bench) in selected {
        let file = bench(args.smoke);
        file.table().print();
        let json = file.to_json().expect("bench values are finite");
        let path = dir.join(format!("BENCH_{}.json", name.replace('-', "_")));
        std::fs::write(&path, json).expect("write BENCH json");
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn dir_is_positional_in_either_order() {
        let want = Args {
            json_dir: Some(PathBuf::from("/tmp/out")),
            smoke: true,
            only: Some("oa".to_string()),
        };
        for argv in [
            ["--bench-json", "/tmp/out", "--smoke", "--only", "oa"],
            ["--bench-json", "--smoke", "/tmp/out", "--only", "oa"],
            ["--smoke", "--only", "oa", "--bench-json", "/tmp/out"],
            ["/tmp/out", "--only", "oa", "--smoke", "--bench-json"],
        ] {
            assert_eq!(parse_strs(&argv).as_ref(), Ok(&want), "{argv:?}");
        }
    }

    #[test]
    fn defaults() {
        let quick = parse_strs(&[]).unwrap();
        assert_eq!(quick.json_dir, None);
        assert!(!quick.smoke && quick.only.is_none());
        let json = parse_strs(&["--bench-json"]).unwrap();
        assert_eq!(json.json_dir, Some(PathBuf::from(".")));
        assert_eq!(
            parse_strs(&["--only", "fleet-par"])
                .unwrap()
                .only
                .as_deref(),
            Some("fleet-par")
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(parse_strs(&["--bogus"]).is_err());
        assert!(parse_strs(&["--bench-json", ".", "-x"]).is_err());
        assert!(parse_strs(&["--only"]).is_err());
        assert!(parse_strs(&["--bench-json", "--only"]).is_err());
        assert!(parse_strs(&["--only", "nope"]).is_err());
        assert!(parse_strs(&["--bench-json", "a", "b"]).is_err());
        assert!(parse_strs(&["somewhere"]).is_err());
    }
}
