"""The CLI's process entry point and its one-subparser parse.

main builds only the subparser its first argument names, so every argv
must parse as the whole parser parses it: the same Namespace, or the same
exit code and the same JSON usage error.  A process enters through
process_main, which freezes the heap however main ends; main itself leaves
the collector alone.
"""

import ast
import contextlib
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lieobstruct
from lieobstruct import cli, data_path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("hall", "h2scan", "holonomy", "resonance", "classify", "linearize", "fixed")
FLAGS = ("--gens", "--level", "--deg", "--lcs", "--point", "--trials", "--seed",
         "--stage", "--class", "--out", "--timings", "-h", "--help", "--he", "--t")
VALUES = ("0", "1", "3", "-2", "x", "1.5", "", "--", "-", "a1 - 2*a2",
          data_path("heis.json"), data_path("pres_torus.json"), *COMMANDS)


def parse(parser, argv):
    """(vars of the Namespace or None, exit code or None, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns, code = vars(parser.parse_args(argv)), None
        except SystemExit as exc:
            ns, code = None, exc.code
    return ns, code, out.getvalue(), err.getvalue()


def random_argv(rng, command):
    argv = [command]
    for _ in range(rng.randrange(7)):
        argv.append(rng.choice(FLAGS) if rng.random() < 0.5 else rng.choice(VALUES))
    return argv


def valid_argv(rng, command):
    """An argv the parser accepts: the command's required arguments, in a
    random order with some of its optional ones."""
    n = str(rng.randrange(1, 6))
    path = data_path("pres_torus.json")
    required = {
        "hall": [["--gens", n], ["--deg", n]],
        "h2scan": [[path], ["--deg", n]],
        "holonomy": [[path]],
        "resonance": [[path]],
        "classify": [[path], ["--stage", n]],
        "linearize": [[path]],
        "fixed": [[path, path]],
    }[command]
    optional = {
        "hall": [["--level", n]],
        "holonomy": [["--lcs", n]],
        "resonance": [["--point", "a1"], ["--trials", n], ["--seed", n]],
        "linearize": [["--deg", n], ["--class", n]],
    }.get(command, []) + [["--timings"], ["--out", "report.json"]]
    groups = required + [g for g in optional if rng.random() < 0.5]
    rng.shuffle(groups)
    return [command] + [a for g in groups for a in g]


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subparser_parses_as_the_whole_parser(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    whole, one = cli.build_parser(), cli.build_parser(command)
    rng = random.Random(f"one-subparser:{command}")
    accepted = 0
    for i in range(240):
        argv = valid_argv(rng, command) if i % 3 == 0 else random_argv(rng, command)
        got, want = parse(one, argv), parse(whole, argv)
        assert got == want, argv
        ns, code, out, err = got
        if ns is not None:
            accepted += 1
            assert ns["command"] == command and ns["func"] is cli._COMMANDS[command][2]
        elif code == 2:
            assert out == "" and set(json.loads(err)["error"]) == {"type", "message"}
        else:
            assert code == 0 and out.startswith(f"usage: lieobstruct {command} ")
    assert accepted >= 80


def test_main_builds_one_subparser_for_a_known_command(monkeypatch, capsys):
    built = []

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", recording)
    for command, argv in [("hall", ["--gens", "2", "--deg", "3"]),
                          ("h2scan", [data_path("pres_torus.json"), "--deg", "3"])]:
        assert cli.main([command, *argv]) == 0
        (action,) = built.pop()._subparsers._group_actions
        assert list(action.choices) == [command]
    with pytest.raises(SystemExit):
        cli.main(["bogus"])
    (action,) = built.pop()._subparsers._group_actions
    assert list(action.choices) == list(COMMANDS)
    capsys.readouterr()


HELP = """\
usage: lieobstruct [-h]
                   {hall,h2scan,holonomy,resonance,classify,linearize,fixed}
                   ...

Batch command line front end.

positional arguments:
  {hall,h2scan,holonomy,resonance,classify,linearize,fixed}
    hall                free Lie algebra basis counts
    h2scan              degreewise H2 scan of a presentation
    holonomy            holonomy presentation of a cdga
    resonance           resonance dims or triviality probe
    classify            tower, classifying maps, stability
    linearize           rewrite relators into degrees <= 2
    fixed               fixed sub-cdga of a finite group action

options:
  -h, --help            show this help message and exit
"""


def usage_error(message):
    return json.dumps({"error": {"type": "usage", "message": message}}, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv, code, out, err", [
    ([], 2, "", usage_error("the following arguments are required: command")),
    (["-h"], 0, HELP, ""),
    (["--help", "hall"], 0, HELP, ""),
    (["bogus"], 2, "", usage_error(
        "argument command: invalid choice: 'bogus' (choose from 'hall', 'h2scan', "
        "'holonomy', 'resonance', 'classify', 'linearize', 'fixed')")),
    (["--timings", "hall"], 2, "", usage_error(
        "the following arguments are required: --gens, --deg")),
], ids=["none", "help", "help-before-command", "bogus", "option-first"])
def test_top_level_messages_are_unchanged(argv, code, out, err, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    assert capsys.readouterr() == (out, err)


# ---------------------------------------------------------------------------
# the process entry point

# registered before anything imports lieobstruct, so it runs after every
# exit hook the program registers
FREEZE_PROBE = """\
import atexit, gc, os

def _report_freeze_count():
    with open(os.environ["FREEZE_PROBE_OUT"], "w") as fh:
        fh.write(str(gc.get_freeze_count()))

atexit.register(_report_freeze_count)
"""

PROCESS_CASES = [
    (["hall", "--gens", "2", "--deg", "5"], 0),
    (["linearize", data_path("free_metabelian.json")], 1),
    (["hall", "--deg", "4"], 2),
]
PROCESS_IDS = ["report", "domain-error", "usage-error"]


@pytest.mark.parametrize("argv, code", PROCESS_CASES, ids=PROCESS_IDS)
def test_process_freezes_the_heap_and_prints_what_main_prints(argv, code, tmp_path, capsys):
    (tmp_path / "sitecustomize.py").write_text(FREEZE_PROBE)
    src = str(Path(lieobstruct.__file__).resolve().parents[1])
    paths = [str(tmp_path), src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               FREEZE_PROBE_OUT=str(tmp_path / "frozen"))
    proc = subprocess.run([sys.executable, "-m", "lieobstruct.cli", *argv],
                          capture_output=True, env=env, timeout=120)
    assert int((tmp_path / "frozen").read_text()) > 0
    try:
        want = cli.main(argv)
    except SystemExit as exc:
        want = exc.code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
    assert want == code


@pytest.mark.parametrize("argv", [argv for argv, _ in PROCESS_CASES], ids=PROCESS_IDS)
def test_main_leaves_the_collector_alone(argv, capsys):
    before = gc.get_freeze_count()
    with contextlib.suppress(SystemExit):
        cli.main(argv)
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_console_script_and_module_run_share_the_entry_point():
    text = (ROOT / "pyproject.toml").read_text()
    (target,) = re.findall(r'^lieobstruct = "lieobstruct\.cli:(\w+)"$', text, re.M)
    assert getattr(cli, target) is cli.process_main
    tree = ast.parse(Path(cli.__file__).read_text())
    (guard,) = [s for s in tree.body if isinstance(s, ast.If)
                and ast.unparse(s.test) == "__name__ == '__main__'"]
    called = {n.func.id for n in ast.walk(guard) if isinstance(n, ast.Call)
              and isinstance(n.func, ast.Name)}
    assert called == {"SystemExit", target}
