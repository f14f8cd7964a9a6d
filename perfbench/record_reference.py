"""Record the basis-independent facts of every job, for checks.Reference.

    python3 perfbench/record_reference.py --seeds 0-10

Runs one untraced pass of each workload per seed and merges the facts into
perfbench/reference.json, keyed by job.  Run it on the commit whose results
are taken as right; a later commit is then checked against them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from baseline import parse_seeds  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default=str(run.CONFIG["default_seed"]))
    args = ap.parse_args(argv)
    ref = checks.Reference()
    for seed in parse_seeds(args.seeds):
        for w in run.WORKLOADS:
            work = run.WORK / f"record-{w}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                p = run.Run(w, seed, work).one_pass(perf_counter() + 300)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if p.failed:
                raise SystemExit(f"{w} seed {seed}: {p.failed} failed: {p.errors}")
            ref.table.update(p.facts)
            print(f"{w} seed {seed}: {len(p.facts)} jobs recorded", flush=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(ref.table.items())]
    ref.path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
