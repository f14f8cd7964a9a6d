"""The sweep workload: one process that calls the library API directly.

It runs ascending cap ladders over the bundled inputs and a few generated
cdgas, the way scripts/tower_demo.py and scripts/dimension_tables.py do, so
the library's global caches (_PAIR_NORM, _SOLVERS, _EXPAND and the
lru_caches) stay warm and are shared from one call to the next.  This is
the only workload where that sharing happens.

    python3 perfbench/sweep.py --seed N --inputs DIR --out FILE [--spans FILE]

DIR holds the generated inputs that plan() names.  FILE receives one JSON
line per step: its name, its wall time and its basis-independent facts, or
the error it raised.  With --spans the outside-in tracer is installed first
and its spans are written to that file at exit.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
DATA = BENCH.parent / "src" / "lieobstruct" / "data"
CONFIG = json.loads((BENCH / "config.json").read_text())["sweep"]


@dataclass
class Step:
    name: str
    kind: str
    args: tuple
    oracle: dict
    inputs: list = field(default_factory=list)


def random_cdgas(inputs: Path) -> list:
    """(label, path, spec) of each generated cdga: first those of the lcs
    ladders, in order, then those of the resonance probes."""
    specs = [ladder["random"] for ladder in CONFIG["lcs"] if "random" in ladder]
    specs += CONFIG["resonance"]["random"]
    return [(f"cdga{k}", inputs / f"sweep_cdga{k}.json", s) for k, s in enumerate(specs)]


def plan(seed: int, inputs: Path) -> list:
    """The step list: names, what each calls, and its oracle.  Plain data,
    so the parent process can read it without importing lieobstruct."""
    from checks import BUNDLED_WEIGHTS, free_weights, holonomy_weights

    steps = []
    for h in CONFIG["hall"]:
        g, lvl = h["gens"], h["level"]
        for cap in h["caps"]:
            oracle = (
                {"kind": "weights", "weights": free_weights(g, cap)}
                if lvl == 0 else {"kind": "none"}
            )
            steps.append(Step(f"hall:{g}:{lvl}:{cap}", "hall", (g, lvl, cap), oracle))
    h2 = CONFIG["h2_derived"]
    path = DATA / f"{h2['input']}.json"
    for cap in h2["caps"]:
        # free metabelian on two letters: H2 is k - 3 in odd degrees k >= 5
        # and 0 elsewhere, pinned through degree 12 by the acceptance suite
        known = {k: (k - 3 if k % 2 and k >= 5 else 0) for k in range(1, min(cap, 12) + 1)}
        steps.append(Step(
            f"h2:{h2['input']}:{cap}", "h2", (str(path), cap),
            {"kind": "weights", "weights": known}, [path],
        ))
    generated = iter(random_cdgas(inputs))
    for ladder in CONFIG["lcs"]:
        if "random" in ladder:
            label, path, spec = next(generated)
            weights = holonomy_weights(spec["gens"], spec["classes"])
        else:
            path = DATA / f"{ladder['input']}.json"
            label = ladder["input"]
            weights = BUNDLED_WEIGHTS[label]
        for c in ladder["classes"]:
            steps.append(Step(
                f"lcs:{label}:{c}", "lcs", (str(path), c),
                {"kind": "weights", "weights": weights}, [path],
            ))
    # one step probes every target: each probe takes milliseconds, and as
    # steps of their own they would crowd the low end of the step times and
    # push job_s.p50 into the gap below the mid-size rungs
    res = CONFIG["resonance"]
    verdicts = {"torus": "no-witness-found", "wedge2": "nontrivial"}
    targets = [(m, DATA / f"{m}.json") for m in res["inputs"]]
    targets += [(label, path) for label, path, _ in generated]
    oracle = {"kind": "each", "oracles": {
        label: {"kind": "verdict", "want": verdicts[label]} if label in verdicts
        else {"kind": "none"}
        for label, _ in targets
    }}
    steps.append(Step(
        "probe:all", "probe",
        (tuple(str(path) for _, path in targets), tuple(label for label, _ in targets),
         res["trials"], seed),
        oracle, [path for _, path in targets],
    ))
    for fx in CONFIG["fixed"]:
        a, act = DATA / f"{fx['input']}.json", DATA / f"{fx['action']}.json"
        # the swap a1 <-> a2, b -> -b fixes a1 + a2 and nothing in degree 2
        oracle = (
            {"kind": "equal", "want": {"dims": [1, 1, 0], "betti": [1, 1, 0]}}
            if (fx["input"], fx["action"]) == ("torus", "swap_torus")
            else {"kind": "none"}
        )
        steps.append(Step(
            f"fixed:{fx['input']}:{fx['action']}", "fixed", (str(a), str(act)),
            oracle, [a, act],
        ))
    return steps


def _execute(steps, out):
    # modules are looked up at call time, so wrappers installed by the
    # tracer are the ones called
    from lieobstruct import cdga, fplie, freelie

    presentations = {s.args[0]: None for s in steps if s.kind == "h2"}
    cdgas = {s.args[0]: None for s in steps if s.kind in ("lcs", "fixed")}
    cdgas.update({a: None for s in steps if s.kind == "probe" for a in s.args[0]})
    for p in presentations:
        presentations[p] = fplie.load_presentation(p)
    for p in cdgas:
        cdgas[p] = cdga.load_cdga(p)
    holonomies: dict = {}

    def hall(g, lvl, cap):
        counts = {d: 0 for d in range(1, cap + 1)}
        for w in freelie.hall_basis_derived(g, lvl, cap):
            counts[w.degree] += 1
        return {"dims": counts}

    def h2(path, cap):
        return {"dims": fplie.h2_graded(presentations[path], cap)}

    def lcs(path, c):
        if path not in holonomies:
            holonomies[path] = cdga.holonomy(cdgas[path])
        return {"dims": fplie.lcs_quotient(holonomies[path], c).dims_by_weight()}

    def probe(paths, labels, trials, seed):
        out = {}
        for path, label in zip(paths, labels):
            r = cdga.resonance_trivial_probe(cdgas[path], trials=trials, seed=seed)
            out[label] = {
                k: r[k] for k in ("verdict", "witness_dim", "points_tested") if k in r
            }
        return out

    def fixed(path, action_path):
        action = cdga.load_action(cdgas[path], action_path)
        sub, _ = cdga.fixed_subcdga(action)
        return {
            "dims": [sub.dim(i) for i in range(sub.top + 1)],
            "betti": [cdga.cohomology(sub, i)[0] for i in range(sub.top + 1)],
        }

    run = {"hall": hall, "h2": h2, "lcs": lcs, "probe": probe, "fixed": fixed}
    for s in steps:
        t0 = perf_counter()
        try:
            f = run[s.kind](*s.args)
        except Exception as exc:  # one failed step must not stop the ladder
            line = {"step": s.name, "s": perf_counter() - t0,
                    "error": f"{type(exc).__name__}: {exc}"}
        else:
            line = {"step": s.name, "s": perf_counter() - t0, "facts": f}
        out.write(json.dumps(line, sort_keys=True) + "\n")
        out.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer("sweep")
        tracer.install()
    steps = plan(args.seed, args.inputs)
    try:
        with open(args.out, "w") as out:
            _execute(steps, out)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
