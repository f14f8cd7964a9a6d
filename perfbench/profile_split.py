"""Self-time split by module under cProfile, for one pass of a workload.

    python3 perfbench/profile_split.py --workload hopf [--seed 0]
    python3 perfbench/profile_split.py --workload sweep --kind h2

Each CLI job runs in a fresh process under cProfile; for sweep, the steps
(optionally only those of one kind, such as the derived H2 ladder "h2") run
in one fresh process under cProfile.  Self time is then summed per module:
the lieobstruct modules, "fractions", and "other" for the interpreter,
builtins and the standard library.  cProfile charges a cost to every Python
call, so the split is a guide to where time goes, not a timing.
"""

from __future__ import annotations

import argparse
import json
import pstats
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def module_of(filename: str) -> str:
    path = Path(filename)
    if path.parent.name == "lieobstruct":
        return "lieobstruct" if path.stem == "__init__" else path.stem
    if path.name == "fractions.py":
        return "fractions"
    return "other"


def split(profiles) -> dict:
    totals: dict = {}
    for prof in profiles:
        for (filename, _, _), (_, _, tt, _, _) in pstats.Stats(str(prof)).stats.items():
            m = module_of(filename)
            totals[m] = totals.get(m, 0.0) + tt
    whole = sum(totals.values())
    return {m: round(t / whole, 3) for m, t in sorted(totals.items(), key=lambda kv: -kv[1])}


# one fresh process running the sweep steps (of one kind, or all) profiled
SWEEP_CHILD = """
import cProfile, sys
from pathlib import Path
prof, bench, seed, work, kind = sys.argv[1:6]
sys.path.insert(0, bench)
import sweep
steps = [s for s in sweep.plan(int(seed), Path(work)) if kind in ("", s.kind)]
with open(Path(work) / "steps.jsonl", "w") as out:
    cProfile.runctx("sweep._execute(steps, out)", globals(), locals(), prof)
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seed", type=int, default=run.CONFIG["default_seed"])
    ap.add_argument("--kind", help="sweep only: profile just the steps of this kind")
    args = ap.parse_args(argv)
    work = run.WORK / f"profile-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        r = run.Run(args.workload, args.seed, work)
        profiles = []
        for i, j in enumerate(r.jobs if args.workload != "sweep" else [None]):
            prof = work / f"{i}.prof"
            if j is None:
                cmd = ["-c", SWEEP_CHILD, str(prof), str(BENCH), str(args.seed),
                       str(work), args.kind or ""]
            else:
                cmd = ["-m", "cProfile", "-o", str(prof), "-m", "lieobstruct.cli", *j.argv]
            subprocess.run([sys.executable, *cmd], env=run.child_env(), cwd=run.ROOT,
                           stdout=subprocess.DEVNULL, check=True)
            profiles.append(prof)
        print(json.dumps({"workload": args.workload, "seed": args.seed,
                          "kind": args.kind, "self_time_share": split(profiles)}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
