"""The command line contract under random small inputs.

Whatever the arguments and input files, main() exits 0, 1 or 2, and a
nonzero exit leaves exactly one JSON error object on stderr: never a
traceback, never a second line.  Inputs stay small (at most three
generators, relator degree at most 5, caps at most 6), so every example
is fast; nothing here asserts a wall-clock bound.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from lieobstruct import data_path
from lieobstruct.cli import main

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert isinstance(json.loads(out), dict)
        assert err == ""
    else:
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        obj = json.loads(lines[0])
        assert set(obj) == {"error"}, obj
        assert set(obj["error"]) == {"type", "message"}, obj
        assert all(isinstance(v, str) for v in obj["error"].values()), obj
    return code


def run_on_file(text, argv_for):
    """Write text to a file and run main on the argv argv_for(path) builds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        return check_contract(argv_for(str(path)))


# ---------------------------------------------------------------------------
# arguments

small_int = st.integers(min_value=-2, max_value=6)
junk_token = st.sampled_from(["", "x", "1.5", "-", "--", "0x3", "1e2", " 2", "--deg"])
int_arg = st.one_of(small_int.map(str), junk_token)


@st.composite
def hall_argv(draw):
    argv = ["hall"]
    for flag in ("--gens", "--level", "--deg"):
        if draw(st.integers(0, 4)):  # mostly given, sometimes missing
            argv += [flag, draw(int_arg)]
    if draw(st.integers(0, 5)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(junk_token))
    return argv


@SETTINGS
@given(hall_argv())
def test_hall_arguments(argv):
    check_contract(argv)


@SETTINGS
@given(
    st.lists(
        st.one_of(
            st.sampled_from(
                ["hall", "h2scan", "holonomy", "resonance", "classify", "linearize",
                 "fixed", "--timings", "--deg", "--lcs", "--stage",
                 "--point", "--class", "--trials", "--seed", "--gens"]
            ),
            int_arg,
            st.just(data_path("pres_cubic.json")),
            st.just(data_path("heis.json")),
            st.just("/nonexistent/input.json"),
        ),
        max_size=6,
    )
)
def test_arbitrary_argv(argv):
    check_contract(argv)


# ---------------------------------------------------------------------------
# presentations

GEN_NAMES = ("x", "y", "z")


def bracket_text(names, max_degree):
    """Nested bracket expressions of total degree <= max_degree."""
    leaf = st.sampled_from(names)

    def extend(inner):
        return st.tuples(inner, inner).map(lambda ab: f"[{ab[0]},{ab[1]}]")

    exprs = st.recursive(leaf, extend, max_leaves=max_degree)
    coeff = st.sampled_from(["", "2*", "-1/2*", "3/4*", "0*", "1/0*"])
    term = st.tuples(coeff, exprs).map("".join)
    return st.lists(term, min_size=1, max_size=3).map(" + ".join)


@st.composite
def presentation_text(draw):
    n = draw(st.integers(1, 3))
    names = list(GEN_NAMES[:n])
    data = {"generators": names}
    kind = draw(st.sampled_from(["finite", "derived", "garbled"]))
    if kind == "finite":
        data["relators"] = draw(st.lists(bracket_text(names, 5), max_size=3))
    elif kind == "derived":
        data["scheme"] = {"derived": draw(st.one_of(st.integers(-1, 3), st.booleans()))}
    else:
        key = draw(st.sampled_from(["generators", "relators", "scheme", "extra"]))
        data[key] = draw(
            st.one_of(
                st.none(), st.integers(), st.text(max_size=4),
                st.lists(st.text("xyz[],+-*/0123 ", max_size=8), max_size=2),
                st.just({"derived": 2, "other": 1}), st.just(["x", "x"]),
            )
        )
    text = json.dumps(data)
    if draw(st.integers(0, 6)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


@SETTINGS
@given(presentation_text(), st.integers(-1, 6))
def test_h2scan_on_random_presentations(text, deg):
    run_on_file(text, lambda path: ["h2scan", path, "--deg", str(deg)])


@SETTINGS
@given(
    presentation_text(),
    st.one_of(st.none(), st.integers(-1, 5)),
    st.integers(-1, 6),
)
def test_linearize_on_random_presentations(text, deg, class_cap):
    def argv(path):
        out = ["linearize", path, "--class", str(class_cap)]
        return out if deg is None else out + ["--deg", str(deg)]

    run_on_file(text, argv)


# ---------------------------------------------------------------------------
# cdgas and actions, as mutations of the bundled files

def bundled(name):
    return json.loads(Path(data_path(name)).read_text())


CDGAS = {name: bundled(name) for name in ("torus.json", "heis.json", "wedge2.json")}
SWAP = bundled("swap_torus.json")
json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text("ab12*+- ", max_size=6)
)


@st.composite
def mutated(draw, base):
    """base with a few random edits at random places: a value replaced, a
    key dropped or added."""
    data = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(0, 2))):
        node = data
        while isinstance(node, dict) and node and draw(st.booleans()):
            child = node[draw(st.sampled_from(sorted(node)))]
            if not isinstance(child, dict):
                break
            node = child
        if not isinstance(node, dict):
            continue
        op = draw(st.sampled_from(["replace", "drop", "add"]))
        if op == "add" or not node:
            node[draw(st.sampled_from(["1", "2", "3", "0", "-1", "a1*a1", "x"]))] = draw(
                json_leaf
            )
        elif op == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node[draw(st.sampled_from(sorted(node)))] = draw(
                st.one_of(json_leaf, st.lists(json_leaf, max_size=2))
            )
    text = json.dumps(data)
    if draw(st.integers(0, 8)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


cdga_text = st.sampled_from(sorted(CDGAS)).flatmap(lambda k: mutated(CDGAS[k]))


@SETTINGS
@given(cdga_text, st.sampled_from(["holonomy", "classify", "resonance"]), st.integers(-1, 6))
def test_cdga_subcommands_on_mutated_inputs(text, command, cap):
    flag = {"holonomy": ["--lcs", str(cap)], "classify": ["--stage", str(cap)],
            "resonance": ["--trials", str(cap)]}[command]
    run_on_file(text, lambda path: [command, path, *flag])


@SETTINGS
@given(mutated(SWAP))
def test_fixed_on_mutated_actions(text):
    run_on_file(text, lambda path: ["fixed", data_path("torus.json"), path])


@SETTINGS
@given(st.text("a123*+-/ ", max_size=10))
def test_resonance_points(point):
    check_contract(["resonance", data_path("heis.json"), "--point", point])
