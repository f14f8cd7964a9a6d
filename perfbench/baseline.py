"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 1-10 [--workloads hopf,tower] \\
        [--seconds S] [--traced] [--write]

For each workload it runs perfbench/run.py once per seed, one run after
another, and prints each end-to-end metric's median, quartiles (as
statistics.quantiles(values, n=4) gives them) and spread, the distance
between the quartiles as a share of the median, beside the bound from
BENCHMARK.json.  --traced adds one traced run per workload at the first
seed.  --write stores the summary in perfbench/baseline.json, which run.py
prints beside each metric as the baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "runs": len(values), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--write", action="store_true")
    ap.add_argument("--label", default="", help="what was measured, stored with --write")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    result = {"label": args.label, "seeds": seeds, "run_seconds": args.seconds,
              "workloads": {}}
    steady = True
    for w in args.workloads.split(","):
        runs, walls = [], []
        for s in seeds:
            t0 = perf_counter()
            runs.append(run_once(w, s, args.seconds, 0))
            walls.append(perf_counter() - t0)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        entry = {"attempted": attempted, "failed": failed, "end_to_end": {}}
        print(f"== {w}: {len(runs)} runs, seeds {args.seeds}, failed {failed}/{attempted}, "
              f"run wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for name, bound in bounds.items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            flag = "" if s["spread"] < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            steady = steady and not flag
            print(f"  {name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  bound {bound}{flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in s["values"]))
        if args.traced:
            t = run_once(w, seeds[0], args.seconds, 1)
            entry["per_layer"] = {
                "seed": seeds[0],
                "metrics": {k: v["value"] for k, v in t["metrics"].items()},
            }
        result["workloads"][w] = entry
        sys.stdout.flush()
    if args.write:
        (BENCH / "baseline.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
