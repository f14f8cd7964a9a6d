"""Tests of the benchmark itself: seeded inputs, load validation of the
generated cdgas, the outside-in tracer, the per-job time limit and the
oracles.

    python3 -m pytest perfbench/tests -q

test_predicted_layers_are_called runs one traced pass of every workload
(about half a minute).
"""

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from lieobstruct import data_path  # noqa: E402
from lieobstruct.cdga import load_cdga  # noqa: E402
from lieobstruct.fplie import load_presentation  # noqa: E402

RATIONALE = json.loads((BENCH / "config.json").read_text())["rationale"]


def _generate(seed, work: Path):
    work.mkdir()
    run.hopf_jobs(seed, work)
    run.tower_jobs(seed, work)
    run.sweep_steps(seed, work)
    return {p.name: p.read_bytes() for p in sorted(work.iterdir())}


def test_same_seed_gives_identical_inputs(tmp_path):
    a = _generate(7, tmp_path / "a")
    b = _generate(7, tmp_path / "b")
    c = _generate(8, tmp_path / "c")
    assert a == b
    assert a.keys() == c.keys() and a != c


@pytest.mark.parametrize("seed", range(6))
def test_generated_inputs_load(tmp_path, seed):
    files = _generate(seed, tmp_path / "w")
    for name in files:
        path = tmp_path / "w" / name
        if name.startswith("hopf_"):
            load_presentation(path)
        else:
            load_cdga(path)


def _run(argv):
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, env=run.child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [
    ["h2scan", data_path("pres_cubic.json"), "--deg", "6"],
    ["classify", data_path("heis.json"), "--stage", "4"],
    ["holonomy", data_path("noncarnot.json"), "--lcs", "4"],
])
def test_traced_report_equals_untraced(tmp_path, argv):
    spans = tmp_path / "job.spans"
    plain = _run(["-m", "lieobstruct.cli", *argv])
    traced = _run([str(BENCH / "tracer.py"), str(spans), "job", "--", *argv])
    assert traced == plain
    header = tracer.load_spans(spans)[0]
    assert header["count"] > 0
    # functions ce.py and cdga.py import by name are patched there too
    assert header["bindings"]["ratlin.kernel"] >= 3
    assert header["bindings"]["fplie.lcs_quotient"] >= 3


def test_self_time_subtracts_children(tmp_path):
    t = tracer.Tracer("unit")
    t.start.extend([0.0, 1.0, 2.0])
    t.end.extend([10.0, 1.5, 4.0])
    t.parent.extend([-1, 0, 0])
    t.name.extend([tracer.SPAN_NAMES.index(n) for n in
                   ("cli.main", "freelie.bracket", "fplie.h2_graded")])
    t.dump(tmp_path / "s.spans")
    m = tracer.summarize([tmp_path / "s.spans"])
    assert m["cli.main.self_s"][0] == pytest.approx(7.5)
    assert m["freelie.bracket.self_s"][0] == pytest.approx(0.5)
    assert m["cli.main.calls"][0] == 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_predicted_layers_are_called(tmp_path, workload):
    work = tmp_path / "w"
    spans = tmp_path / "spans"
    work.mkdir()
    spans.mkdir()
    r = run.Run(workload, 0, work)
    p = r.one_pass(perf_counter() + 170, spans)
    assert p.failed == 0, p.errors
    metrics = tracer.summarize(sorted(spans.glob("*.spans")))
    for name in RATIONALE[workload]["nonzero_calls"]:
        assert metrics[f"{name}.calls"][0] > 0, name
    for name in RATIONALE[workload].get("zero_calls", []):
        assert metrics[f"{name}.calls"][0] == 0, name


def test_time_limit_kills_the_job_and_the_pass_goes_on(tmp_path, monkeypatch):
    monkeypatch.setitem(run.CONFIG, "job_timeout_s", 0.5)
    cubic = Path(data_path("pres_cubic.json"))
    oracle = {"kind": "relators", "relator_degrees": [3], "low_rank": 1}
    jobs = [
        run.Job("h2scan:slow", ["h2scan", str(cubic), "--deg", "12"], [cubic], oracle),
        run.Job("h2scan:quick", ["h2scan", str(cubic), "--deg", "4"], [cubic], oracle),
    ]
    t0 = perf_counter()
    p = run.cli_pass(jobs, tmp_path, run.checks.Reference(tmp_path / "none.json"),
                     perf_counter() + 60, None)
    assert perf_counter() - t0 < 10
    assert (p.attempted, p.failed) == (2, 1)
    assert "time limit" in p.errors[0]
    assert "h2scan:quick" in p.outputs


def test_oracles_flag_wrong_results():
    oracle_errors = run.checks.oracle_errors
    relators = {"kind": "relators", "relator_degrees": [2, 4], "low_rank": 1}
    assert oracle_errors(relators, {"h2_dims": {"2": 1, "3": 0, "4": 1}}) == []
    assert oracle_errors(relators, {"h2_dims": {"2": 1, "3": 1, "4": 0}})
    assert oracle_errors(relators, {"h2_dims": {"2": 2, "3": 0, "4": 0}})
    tower = {"kind": "classify", "weights": run.checks.holonomy_weights(3, 2)}
    good = {
        "stages": {"3": {"dim": 4, "dims_by_weight": {"1": 3, "2": 1}}},
        "one_equivalence": {"2": {"h1_iso": True}},
        "stability": {}, "filtration": {"all_equal": True},
    }
    assert oracle_errors(tower, good) == []
    assert oracle_errors(tower, {**good, "filtration": {"all_equal": False}})
    bad = {**good, "stages": {"3": {"dim": 5, "dims_by_weight": {"1": 3, "2": 2}}}}
    assert oracle_errors(tower, bad)
    hall = {"kind": "weights", "weights": run.checks.free_weights(2, 6)}
    assert oracle_errors(hall, {"dims": {"1": 2, "2": 1, "3": 2, "4": 3, "5": 6, "6": 9}}) == []
    assert oracle_errors(hall, {"dims": {"1": 2, "2": 1, "3": 2, "4": 3, "5": 6, "6": 8}})


def test_each_oracle_checks_every_probe():
    each = {"kind": "each", "oracles": {
        "wedge2": {"kind": "verdict", "want": "nontrivial"},
        "cdga0": {"kind": "none"},
    }}
    good = {"wedge2": {"verdict": "nontrivial", "witness_dim": 1}, "cdga0": {"verdict": "x"}}
    assert run.checks.oracle_errors(each, good) == []
    bad = {**good, "wedge2": {"verdict": "no-witness-found"}}
    assert run.checks.oracle_errors(each, bad)


def test_calibration_scales_by_the_median_spawn():
    ref = run.calib.REFERENCE_S
    assert run.scale([ref, 2 * ref, 9.0]) == pytest.approx(0.5)
    assert run.scale([ref]) == 1.0


def test_calibration_kernel_is_fixed_and_independent_of_the_program():
    code = (
        "import runpy, sys\n"
        f"runpy.run_path({str(BENCH / 'calib.py')!r}, run_name='__main__')\n"
        "assert not any(m.startswith('lieobstruct') for m in sys.modules)\n"
    )
    _run(["-c", code])
    assert run.calib.eliminate(12) == run.calib.eliminate(12)
