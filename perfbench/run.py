#!/usr/bin/env python3
"""Build and run the repository benchmark, or compare two result files.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
    python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

The first form builds `perfbench/` with the release profile (into
`$CARGO_TARGET_DIR`, default `.bench_build`) and runs it; see
`perfbench/src/main.rs` for what it measures. Every run appends a record
to `DIR/results.jsonl` (default `.bench_build/perfbench/results.jsonl`).

The second form reads two such files (give each commit its own `--out`
directory) and prints, for every workload and end-to-end metric, each
side's median and quartiles over its untraced runs and a verdict against
the metric's bound in BENCHMARK.json:

* worse      -- the median is worse than the base median by more than the bound;
* better     -- the median is better by more than the base's own quartile
                spread (as a share of its median);
* same       -- neither, and both sides' spreads are within the bound;
* unresolved -- a side's quartile spread exceeds the bound, unless every
                new run reads better (or worse) than every base run.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_and_run(argv):
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([str(target / "release" / "perfbench"), *argv], cwd=ROOT).returncode


def load(path):
    """Per workload, per metric: the values of the untraced runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace") != 0:
                continue
            w = runs.setdefault(rec["workload"], {"_attempted": 0, "_failed": 0})
            w["_attempted"] += rec["attempted"]
            w["_failed"] += rec["failed"]
            for name, m in rec["metrics"].items():
                if m["value"] is not None:
                    w.setdefault(name, []).append(m["value"])
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = (nm - bm) / bm
    worse_by = sign * change
    base_spread = (b3 - b1) / bm
    spread = max(base_spread, (n3 - n1) / nm)
    if spread > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "better", change
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "worse", change
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if -worse_by > base_spread:
        return "better", change
    return "same", change


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_path), load(new_path)
    fmt = "{:<14} {:<13} {:>13} {:>25} {:>13} {:>25} {:>8}  {}"
    print(fmt.format("workload", "metric", "base p50", "base [q1, q3]",
                     "new p50", "new [q1, q3]", "change", "verdict"))
    for wl in spec["workloads"]:
        name = wl["name"]
        if name not in base or name not in new:
            print(f"{name:<14} missing from {'base' if name not in base else 'new'}")
            continue
        for m in spec["end_to_end"]:
            b, n = base[name].get(m["name"]), new[name].get(m["name"])
            if not b or not n:
                print(f"{name:<14} {m['name']:<13} no values")
                continue
            v, change = verdict(b, n, m["better"], m["bound"])
            bq, nq = quartiles(b), quartiles(n)
            print(fmt.format(
                name, m["name"], f"{bq[1]:.4g}", f"[{bq[0]:.4g}, {bq[2]:.4g}]",
                f"{nq[1]:.4g}", f"[{nq[0]:.4g}, {nq[2]:.4g}]",
                f"{100 * change:+.1f}%", f"{v} (bound {100 * m['bound']:.0f}%, n={len(b)}/{len(n)})"))
        for side, runs in (("base", base), ("new", new)):
            w = runs[name]
            print(f"{name:<14} error_rate    {side}: {w['_failed']}/{w['_attempted']}")
    return 0


def main(argv):
    if argv[:1] == ["--compare"]:
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    return build_and_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
