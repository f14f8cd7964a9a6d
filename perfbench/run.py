"""Benchmark driver for lieobstruct.

    python3 perfbench/run.py --workload {hopf,tower,sweep,all} --seed N \\
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it builds nothing, since the program
is pure Python, and puts the checkout's src/ on the path of every process it
starts.  One driver process runs the jobs as a closed loop with one client:
each job starts after the previous one ends, never two at once.

Workloads (the reasons are in config.json under "rationale"):
  hopf   h2scan CLI jobs, one fresh process per job, on the bundled
         pres_cubic and pres_torus and on seeded random presentations;
  tower  classify --stage and holonomy --lcs CLI jobs, one process per
         job, on the bundled wedge2, noncarnot and heis and on seeded
         random cdgas with d = 0 and top degree 2;
  sweep  one process per pass that calls the library API directly over
         ascending cap ladders, so the global caches stay warm.

With --trace 0 the run repeats passes over the job list for about --seconds
seconds and reports, per workload:
  makespan_s   wall time of one pass, median over the run's passes;
  job_s.p50    median wall time of one job (one sweep step), all passes,
               printed with its sample count;
  peak_rss_mb  largest max-RSS of any job process (os.wait4 rusage);
  failed_frac  failed jobs over attempted jobs; a failure is a nonzero
               exit, the per-job time limit, or a wrong result;
  setup_s      fresh interpreter, import lieobstruct.cli and load one
               input, no computation; median over one spawn per input.
failed_frac is carried by the result's "attempted" and "failed" counts,
not as a metric, because it is 0 whenever the program is right.

Every time is reported at the reference speed of calib.py.  A pass spawns
the calibration process before its first job and after each job (the sweep:
three times before and three times after its one process), and each time
measured in the pass is scaled by calib.REFERENCE_S over the median of
those spawns' wall times; set-up spawns likewise.  That takes out most of
the shifts of the shared host's speed, which moved unscaled wall times
30-40% between runs of the same code.  A CLI pass's makespan is the sum of
its scaled job times, the calibration spawns left out.  The unscaled values
and the median calibration time are printed beside the metrics (raw_*,
calib_s); they are not in the result line.

With --trace 1 the run alternates two untraced and two traced passes and
reports the per-layer metrics of tracer.py per pass, plus the tracing
overhead: median traced minus median untraced makespan, both scaled.  The
last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = SRC / "lieobstruct" / "data"
WORK = ROOT / ".bench_work"
TRACE_DIR = ROOT / ".bench_trace"
BASELINE = BENCH / "baseline.json"
WORKLOADS = ("hopf", "tower", "sweep")

sys.path.insert(0, str(BENCH))
import calib  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import sweep  # noqa: E402
import tracer  # noqa: E402

CONFIG = json.loads((BENCH / "config.json").read_text())

SETUP_CODE = (
    "import sys, lieobstruct.cli\n"
    "from lieobstruct.cdga import load_cdga\n"
    "from lieobstruct.fplie import load_presentation\n"
    "(load_cdga if sys.argv[1] == 'cdga' else load_presentation)(sys.argv[2])\n"
)

# oracles of the bundled inputs, worked out by hand
BUNDLED_ORACLES = {
    "pres_cubic": {"kind": "relators", "relator_degrees": [3], "low_rank": 1},
    "pres_torus": {"kind": "relators", "relator_degrees": [2], "low_rank": 1},
    "wedge2": {"weights": checks.BUNDLED_WEIGHTS["wedge2"], "generators": 2, "relators": 0},
    "heis": {"weights": checks.BUNDLED_WEIGHTS["heis"], "generators": 3, "relators": 3},
    "noncarnot": {"weights": checks.BUNDLED_WEIGHTS["noncarnot"]},
}


@dataclass
class Job:
    name: str
    argv: list
    inputs: list
    oracle: dict
    key: str = ""

    def __post_init__(self):
        self.key = checks.job_key(self.argv, self.inputs)


@dataclass
class Pass:
    makespan: float = 0.0  # at the reference speed
    raw_makespan: float = 0.0  # as measured
    wall: float = 0.0  # the whole pass, calibration spawns included
    job_s: list = field(default_factory=list)  # at the reference speed
    raw_job_s: list = field(default_factory=list)
    calib_s: list = field(default_factory=list)  # calibration spawn times
    rss_kb: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    outputs: dict = field(default_factory=dict)  # job name -> report bytes
    facts: dict = field(default_factory=dict)  # job key -> checked facts
    errors: list = field(default_factory=list)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, out_path: Path, timeout: float):
    """Run one process to completion or to its time limit.  Returns
    (wall seconds, exit code or None if killed, max RSS in KB)."""
    killed = []
    t0 = perf_counter()
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)

    def kill():
        killed.append(True)
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, (None if killed else proc.returncode), usage.ru_maxrss


def calibrate(work: Path) -> float:
    """Wall time of one spawn of the calibration process."""
    wall, code, _ = spawn([sys.executable, str(BENCH / "calib.py")], work / "calib.out", 60)
    if code != 0:
        raise RuntimeError(f"calibration process failed: exit code {code}")
    return wall


def scale(calib_s: list) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return calib.REFERENCE_S / statistics.median(calib_s)


# ---------------------------------------------------------------------------
# job lists


def _bundled(name: str) -> Path:
    return DATA / f"{name}.json"


def hopf_jobs(seed: int, work: Path) -> list:
    cfg = CONFIG["hopf"]
    jobs = []
    for b in cfg["bundled"]:
        path = _bundled(b["input"])
        jobs.append(Job(
            f"h2scan:{b['input']}", ["h2scan", str(path), "--deg", str(b["cap"])],
            [path], BUNDLED_ORACLES[b["input"]],
        ))
    for slot, spec in enumerate(cfg["random"]):
        data, oracle = inputs.random_presentation(seed, slot, spec, cfg["coefficient_range"])
        path = inputs.write_json(work / f"hopf_{slot}.json", data)
        jobs.append(Job(
            f"h2scan:random{slot}", ["h2scan", str(path), "--deg", str(spec["cap"])],
            [path], {"kind": "relators", **oracle},
        ))
    return jobs


def _tower_job(name: str, path: Path, spec: dict, known: dict) -> Job:
    if "classify" in spec:
        argv = ["classify", str(path), "--stage", str(spec["classify"])]
        oracle = {"kind": "classify", "weights": known["weights"]}
    else:
        argv = ["holonomy", str(path), "--lcs", str(spec["holonomy"])]
        oracle = {"kind": "holonomy", **known}
    return Job(f"{argv[0]}:{name}:{argv[3]}", argv, [path], oracle)


def tower_jobs(seed: int, work: Path) -> list:
    cfg = CONFIG["tower"]
    jobs = [
        _tower_job(b["input"], _bundled(b["input"]), b, BUNDLED_ORACLES[b["input"]])
        for b in cfg["bundled"]
    ]
    for slot, spec in enumerate(cfg["random"]):
        data = inputs.random_cdga(seed, slot, spec, cfg["coefficient_range"])
        path = inputs.write_json(work / f"tower_{slot}.json", data)
        known = {
            "weights": checks.holonomy_weights(spec["gens"], spec["classes"]),
            "generators": spec["gens"],
            "relators": spec["classes"],
        }
        jobs.append(_tower_job(f"random{slot}", path, spec, known))
    return jobs


def sweep_steps(seed: int, work: Path) -> list:
    coeff = CONFIG["sweep"]["coefficient_range"]
    for slot, (_, path, spec) in enumerate(sweep.random_cdgas(work)):
        inputs.write_json(path, inputs.random_cdga(seed, 100 + slot, spec, coeff))
    return sweep.plan(seed, work)


def setup_inputs(workload: str, jobs) -> list:
    """(loader, path) of each distinct input the workload loads."""
    if workload == "sweep":
        # every input but the action file of the fixed step
        pairs = [
            ("presentation" if s.kind == "h2" else "cdga", str(p))
            for s in jobs for p in (s.inputs[:1] if s.kind == "fixed" else s.inputs)
        ]
    else:
        kind = "presentation" if workload == "hopf" else "cdga"
        pairs = [(kind, str(p)) for j in jobs for p in j.inputs]
    return sorted(set(pairs))


# ---------------------------------------------------------------------------
# passes


def _check(oracle: dict, key: str, f: dict, reference, p: Pass, where: str):
    errs = checks.oracle_errors(oracle, f)
    ref_errs, checked = reference.check(key, f)
    p.facts[key] = f
    p.checked += checked
    errs += ref_errs
    if errs:
        p.failed += 1
        p.errors.append(f"{where}: " + "; ".join(errs))


def cli_pass(jobs, work: Path, reference, deadline: float, spans_dir: Path | None) -> Pass:
    p = Pass()
    t_pass = perf_counter()
    p.calib_s.append(calibrate(work))
    for j in jobs:
        p.attempted += 1
        out = work / "out.json"
        timeout = min(CONFIG["job_timeout_s"], deadline - perf_counter())
        if spans_dir is None:
            argv = [sys.executable, "-m", "lieobstruct.cli", *j.argv]
        else:
            spans = spans_dir / f"{len(p.raw_job_s):03d}_{j.name.replace(':', '_')}.spans"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), j.name, "--", *j.argv]
        wall, code, rss = spawn(argv, out, timeout)
        p.calib_s.append(calibrate(work))
        p.raw_job_s.append(wall)
        p.rss_kb.append(rss)
        if code != 0:
            p.failed += 1
            why = "time limit hit" if code is None else f"exit code {code}"
            p.errors.append(f"{j.name}: {why}: {Path(str(out) + '.err').read_text()[-300:]}")
            continue
        raw = out.read_bytes()
        p.outputs[j.name] = raw
        try:
            results = json.loads(raw)["results"]
            f = checks.facts(j.argv[0], results)
        except (ValueError, KeyError) as exc:
            p.failed += 1
            p.errors.append(f"{j.name}: unreadable report: {exc}")
            continue
        _check(j.oracle, j.key, f, reference, p, j.name)
    p.wall = perf_counter() - t_pass
    p.raw_makespan = sum(p.raw_job_s)
    p.makespan = p.raw_makespan * scale(p.calib_s)
    p.job_s = [t * scale(p.calib_s) for t in p.raw_job_s]
    return p


def sweep_pass(steps, work: Path, reference, deadline: float, seed: int,
               spans_dir: Path | None) -> Pass:
    p = Pass()
    out = work / "sweep_out.jsonl"
    argv = [sys.executable, str(BENCH / "sweep.py"), "--seed", str(seed),
            "--inputs", str(work), "--out", str(out)]
    if spans_dir is not None:
        argv += ["--spans", str(spans_dir / "sweep.spans")]
    t_pass = perf_counter()
    p.calib_s += [calibrate(work) for _ in range(3)]
    timeout = min(CONFIG["job_timeout_s"] * 2, deadline - perf_counter())
    wall, code, rss = spawn(argv, out, timeout)
    p.calib_s += [calibrate(work) for _ in range(3)]
    p.wall = perf_counter() - t_pass
    p.raw_makespan = wall
    p.makespan = wall * scale(p.calib_s)
    p.rss_kb.append(rss)
    lines = {}
    if out.is_file():
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            lines[rec["step"]] = rec
    for s in steps:
        p.attempted += 1
        rec = lines.get(s.name)
        if rec is None or "error" in rec:
            p.failed += 1
            why = rec["error"] if rec else f"not reached (sweep exit code {code})"
            p.errors.append(f"{s.name}: {why}")
            continue
        p.raw_job_s.append(rec["s"])
        p.job_s.append(rec["s"] * scale(p.calib_s))
        p.outputs[s.name] = json.dumps(rec["facts"], sort_keys=True).encode()
        key = checks.job_key([s.name, *map(str, s.args)], s.inputs)
        _check(s.oracle, key, checks.normalize(rec["facts"]), reference, p, s.name)
    if code != 0 and not p.failed:
        p.failed += 1
        p.attempted += 1
        p.errors.append(f"sweep process: exit code {code}")
    return p


# ---------------------------------------------------------------------------
# metrics


def measure_setup(pairs, work: Path):
    """(set-up times at the reference speed, as measured, calibration
    spawn times): one spawn per input, each followed by a calibration
    spawn."""
    raw, calib_s = [], []
    out = work / "setup.out"
    # one untimed spawn first, so a fresh checkout's byte-code is written
    spawn([sys.executable, "-c", SETUP_CODE, *pairs[0]], out, 60)
    for kind, path in pairs:
        wall, code, _ = spawn([sys.executable, "-c", SETUP_CODE, kind, path], out, 60)
        if code != 0:
            raise RuntimeError(f"set-up spawn failed on {path}: exit code {code}")
        raw.append(wall)
        calib_s.append(calibrate(work))
    return [t * scale(calib_s) for t in raw], raw, calib_s


class Run:
    """One workload, one seed: inputs, passes, metrics."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = checks.Reference()
        if workload == "sweep":
            self.jobs = sweep_steps(seed, work)
        else:
            self.jobs = (hopf_jobs if workload == "hopf" else tower_jobs)(seed, work)

    def one_pass(self, deadline: float, spans_dir: Path | None = None) -> Pass:
        if self.workload == "sweep":
            return sweep_pass(self.jobs, self.work, self.reference, deadline,
                              self.seed, spans_dir)
        return cli_pass(self.jobs, self.work, self.reference, deadline, spans_dir)


def run_untraced(run: Run, seconds: float, deadline: float):
    setup, raw_setup, setup_calib = measure_setup(setup_inputs(run.workload, run.jobs), run.work)
    passes = []
    t0 = perf_counter()
    while True:
        p = run.one_pass(deadline)
        passes.append(p)
        elapsed = perf_counter() - t0
        # start another pass only if it is expected to end within the run
        if elapsed + p.wall > seconds or perf_counter() + p.wall > deadline:
            break
    job_s = [t for p in passes for t in p.job_s]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    makespans = [p.makespan for p in passes]
    metrics = {
        "makespan_s": (statistics.median(makespans), "s", len(makespans)),
        "job_s.p50": (statistics.median(job_s) if job_s else float("nan"), "s", len(job_s)),
        "peak_rss_mb": (max(r for p in passes for r in p.rss_kb) / 1024, "MB",
                        sum(len(p.rss_kb) for p in passes)),
        "failed_frac": (failed / attempted, "ratio", attempted),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }
    raw_job_s = [t for p in passes for t in p.raw_job_s]
    calib_s = setup_calib + [k for p in passes for k in p.calib_s]
    raw = {
        "raw_makespan_s": (statistics.median(p.raw_makespan for p in passes), "s", len(passes)),
        "raw_job_s.p50": (statistics.median(raw_job_s) if raw_job_s else float("nan"), "s",
                          len(raw_job_s)),
        "raw_setup_s": (statistics.median(raw_setup), "s", len(raw_setup)),
        "calib_s": (statistics.median(calib_s), "s", len(calib_s)),
    }
    return passes, metrics, raw


def run_traced(run: Run, deadline: float):
    """Alternate untraced and traced passes; per-layer metrics are per pass."""
    pairs = 2  # one pair leaves the overhead within the pass-to-pass noise
    spans_dir = TRACE_DIR / run.workload
    shutil.rmtree(spans_dir, ignore_errors=True)
    plain, traced = [], []
    for i in range(pairs):
        plain.append(run.one_pass(deadline))
        (spans_dir / f"pass{i}").mkdir(parents=True)
        traced.append(run.one_pass(deadline, spans_dir / f"pass{i}"))
    # tracing must not change a single byte of any report
    for t in traced:
        for name, raw in plain[0].outputs.items():
            if name in t.outputs and t.outputs[name] != raw:
                t.failed += 1
                t.errors.append(f"{name}: traced report differs from untraced")
    summary = tracer.summarize(sorted(spans_dir.glob("pass*/*.spans")), passes=pairs)
    metrics = {k: (v, unit, None) for k, (v, unit) in summary.items()}
    untraced_s = statistics.median(p.makespan for p in plain)
    traced_s = statistics.median(p.makespan for p in traced)
    metrics["trace.untraced_makespan_s"] = (untraced_s, "s", pairs)
    metrics["trace.makespan_s"] = (traced_s, "s", pairs)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", pairs)
    return plain + traced, metrics, {}


# ---------------------------------------------------------------------------
# output


def _baseline(workload: str):
    """(label, end-to-end summary) of the recorded baseline, if any."""
    if not BASELINE.is_file():
        return "", {}
    data = json.loads(BASELINE.read_text())
    return data["label"], data["workloads"].get(workload, {}).get("end_to_end", {})


def report(workload: str, seed: int, passes, metrics: dict, raw: dict, traced: bool):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    checked = sum(p.checked for p in passes)
    print(f"== {workload}  seed {seed}  {'traced' if traced else 'untraced'}  "
          f"passes {len(passes)}  jobs {attempted}  failed {failed}  "
          f"checked against the reference {checked}, oracles only {attempted - failed - checked}")
    label, base = _baseline(workload)
    for name, (value, unit, n) in metrics.items():
        line = f"  {name:<44} {value:>12.6g} {unit:<6}"
        if n is not None:
            line += f" n={n}"
        b = base.get(name)
        if b and not traced:
            line += (f"   baseline ({label}): median {b['median']:.6g} "
                     f"[q1 {b['q1']:.6g}, q3 {b['q3']:.6g}] over {b['runs']} runs")
        print(line)
    for name, (value, unit, n) in raw.items():
        print(f"  {name:<44} {value:>12.6g} {unit:<6} n={n}   (not scaled)")
    for err in [e for p in passes for e in p.errors][:20]:
        print(f"  FAILED {err}")
    return attempted, failed


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float):
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(workload, seed, work)
        if traced:
            passes, metrics, raw = run_traced(run, deadline)
        else:
            passes, metrics, raw = run_untraced(run, seconds, deadline)
        attempted, failed = report(workload, seed, passes, metrics, raw, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return attempted, failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lieobstruct" / "cli.py").is_file():
        print(f"error: no lieobstruct sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    t0 = perf_counter()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for w in names:
        deadline = perf_counter() + CONFIG["hard_deadline_s"]
        a, f, m = run_workload(w, args.seed, args.seconds, bool(args.trace), deadline)
        attempted += a
        failed += f
        prefix = f"{w}." if len(names) > 1 else ""
        metrics.update({
            prefix + k: {"value": v, "unit": unit}
            for k, (v, unit, _) in m.items()
            if k != "failed_frac"
        })
    print(f"  (wall time of this run: {perf_counter() - t0:.1f} s)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
