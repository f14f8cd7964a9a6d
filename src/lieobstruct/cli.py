"""Batch command line front end.

Each subcommand parses its input files, runs one library pipeline, and emits
a single JSON report on stdout (or to --out).  Reports are deterministic for
a fixed configuration: keys are sorted, list orders are fixed by the library,
and wall-clock timings appear only when --timings is passed.  Exit codes:
0 success, 1 domain error or failed internal invariant (InternalError), 2
usage error.  Errors are printed to stderr as a JSON object
{"error": {"type": ..., "message": ...}}.

A subcommand imports the cdga and ce modules only when it runs them; with
--timings that import is the phase "import".

A job is a short process, so its fixed costs are kept small.  main builds
only the subparser its first argument names; no command, an unknown one or
a top-level -h gets the whole parser, whose messages list every
subcommand.  `python -m lieobstruct.cli` and the lieobstruct console script
enter through process_main, which runs main and calls gc.freeze() however
it ends: the interpreter's closing collections skip frozen objects, and
would otherwise walk every module object of a heap the process is about to
drop, often for longer than the job's own work.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from time import perf_counter

from . import __version__
from .fplie import (
    finiteness_scan,
    lcs_graded_dims,
    lcs_quotient,
    linearize_presentation,
    load_presentation,
    presentation_to_dict,
    x2_slice,
)
from .freelie import hall_degree_counts
from .ratlin import LieobstructError, scalar_to_json

__all__ = ["main", "process_main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as JSON on stderr."""

    def error(self, message):
        _print_error("usage", message)
        raise SystemExit(2)


def _print_error(kind: str, message: str):
    sys.stderr.write(
        json.dumps({"error": {"type": kind, "message": message}}, sort_keys=True)
        + "\n"
    )


def _jsonify(x):
    if isinstance(x, dict):
        return {str(k): _jsonify(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonify(v) for v in x]
    if isinstance(x, Fraction):
        return scalar_to_json(x)
    if isinstance(x, bool) or x is None or isinstance(x, (int, float, str)):
        return x
    raise TypeError(f"cannot serialize {type(x).__name__}")


class _Phases:
    def __init__(self):
        self.items = []
        self._t0 = perf_counter()

    def mark(self, name: str):
        t1 = perf_counter()
        self.items.append((name, round(t1 - self._t0, 6)))
        self._t0 = t1


def _require(cond: bool, message: str):
    if not cond:
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# subcommands


def cmd_hall(args, phases: _Phases) -> dict:
    _require(args.gens >= 1, "--gens must be >= 1")
    _require(args.level >= 0, "--level must be >= 0")
    _require(args.deg >= 1, "--deg must be >= 1")
    counts = hall_degree_counts(args.gens, args.level, args.deg)
    phases.mark("enumerate")
    results = {
        "gens": args.gens,
        "level": args.level,
        "degree_cap": args.deg,
        "degree_counts": counts,
    }
    if args.gens == 2:
        # basis words of multidegree (2, b), counted in closed form
        results["x2_slice"] = x2_slice(args.level, args.deg)
        phases.mark("x2_slice")
    return results


def cmd_h2scan(args, phases: _Phases) -> dict:
    _require(args.deg >= 1, "--deg must be >= 1")
    p = load_presentation(args.path)
    phases.mark("load")
    scan = finiteness_scan(p, args.deg)
    phases.mark("scan")
    results = {
        "presentation": presentation_to_dict(p),
        "degree_cap": args.deg,
        "h2_dims": scan["dims"],
        "verdict": scan["verdict"],
        "window_start": scan["window_start"],
    }
    if "ideal_x2_dims" in scan:
        results["ideal_x2_dims"] = scan["ideal_x2_dims"]
    return results


def cmd_holonomy(args, phases: _Phases) -> dict:
    from .cdga import holonomy, load_cdga

    phases.mark("import")
    a = load_cdga(args.path)
    p = holonomy(a)
    phases.mark("holonomy")
    results = {
        "generators": list(p.generators),
        "relators": presentation_to_dict(p)["relators"],
        "convention": (
            "one relator per degree-2 basis element: the coefficient of x_i "
            "is the coefficient of that basis element in d(a_i), and the "
            "coefficient of [x_i,x_j] the one in a_i*a_j"
        ),
    }
    if args.lcs is not None:
        _require(args.lcs >= 1, "--lcs must be >= 1")
        g = lcs_quotient(p, args.lcs)
        dims = g.dims_by_weight()
        results["lcs_class"] = args.lcs
        results["lcs_dims"] = [dims[k] for k in range(1, args.lcs)]
        phases.mark("lcs")
    return results


def cmd_resonance(args, phases: _Phases) -> dict:
    from .cdga import (
        CdgaError,
        format_cdga_element,
        load_cdga,
        parse_cdga_element,
        resonance_dim,
        resonance_trivial_probe,
    )

    phases.mark("import")
    a = load_cdga(args.path)
    if args.point is not None:
        deg, vec = parse_cdga_element(a, args.point)
        if deg is None:
            deg, vec = 1, {}
        if deg != 1:
            raise CdgaError(f"resonance point must have degree 1, got {deg}")
        dims = {i: resonance_dim(a, vec, i) for i in range(a.top)}
        phases.mark("dims")
        return {
            "point": format_cdga_element(a, 1, vec) if vec else "0",
            "dims": dims,
        }
    _require(args.trials >= 1, "--trials must be >= 1")
    probe = resonance_trivial_probe(a, trials=args.trials, seed=args.seed)
    phases.mark("probe")
    return {"trials": args.trials, "seed": args.seed, "probe": probe}


def cmd_classify(args, phases: _Phases) -> dict:
    _require(args.stage >= 2, "--stage must be >= 2 (stages start at 2)")
    from .cdga import load_cdga
    from .ce import (
        canonical_filtration,
        check_stability,
        tower_from_cdga,
        verify_one_equivalence,
    )

    phases.mark("import")
    a = load_cdga(args.path)
    tower = tower_from_cdga(a, args.stage)
    phases.mark("tower")
    stages = {}
    for n, ce in sorted(tower.stages.items()):
        d1, pairs, m = ce.cdga.diff[1], ce.tuples[2], ce.algebra.dim
        # a row is reported by its pair's index among all pairs of the stage
        entries = sorted((i * (2 * m - i - 1) // 2 + j - i - 1, c, v)
                         for c in range(d1.cols) for r, v in d1.col(c).items()
                         for i, j in (pairs[r],))
        stages[n] = {
            "dim": ce.algebra.dim,
            "dims_by_weight": ce.algebra.dims_by_weight(),
            "d1": [[r, c, scalar_to_json(v)] for r, c, v in entries],
        }
    one_equiv = {}
    for n in range(2, args.stage + 1):
        one_equiv[n] = verify_one_equivalence(a, tower, n)
    phases.mark("one_equivalence")
    stability = {}
    for n in range(2, args.stage):
        stability[n] = {
            m: check_stability(tower, m, n)
            for m in range(n + 1, args.stage + 1)
        }
    phases.mark("stability")
    filtration = canonical_filtration(tower)
    phases.mark("filtration")
    return {
        "stage_cap": args.stage,
        "stages": stages,
        "one_equivalence": one_equiv,
        "stability": stability,
        "filtration": filtration,
    }


def cmd_linearize(args, phases: _Phases) -> dict:
    p = load_presentation(args.path)
    bound = args.deg
    if bound is None:
        relators = getattr(p.scheme, "relators", ())
        degrees = [d for r in relators for d in r.degrees()]
        bound = max(degrees, default=1)
    _require(bound >= 1, "--deg must be >= 1")
    _require(args.class_cap >= 2, "--class must be >= 2")
    q = linearize_presentation(p, bound)
    phases.mark("linearize")
    quadratic = all(max(r.degrees()) <= 2 for r in q.scheme.relators)
    dims_in = lcs_graded_dims(p, args.class_cap)
    dims_out = lcs_graded_dims(q, args.class_cap)
    phases.mark("dims")
    return {
        "degree_bound": bound,
        "class_cap": args.class_cap,
        "input": presentation_to_dict(p),
        "output": presentation_to_dict(q),
        "relators_linear_quadratic": quadratic,
        "dims_input": dims_in,
        "dims_output": dims_out,
        "dims_agree": dims_in == dims_out,
    }


def cmd_fixed(args, phases: _Phases) -> dict:
    from .cdga import cohomology, fixed_subcdga, load_action, load_cdga

    phases.mark("import")
    a = load_cdga(args.path)
    action = load_action(a, args.action)
    phases.mark("load")
    sub, _incl = fixed_subcdga(action)
    phases.mark("fixed")
    return {
        "elements": list(action.elements),
        "dims": [sub.dim(i) for i in range(sub.top + 1)],
        "names": [list(row) for row in sub.names[1:]],
        "betti": [cohomology(sub, i)[0] for i in range(sub.top + 1)],
    }


# ---------------------------------------------------------------------------
# wiring


def _hall_options(sp):
    sp.add_argument("--gens", type=int, required=True)
    sp.add_argument("--level", type=int, default=0)
    sp.add_argument("--deg", type=int, required=True)


def _h2scan_options(sp):
    sp.add_argument("path", help="presentation JSON file")
    sp.add_argument("--deg", type=int, required=True)


def _holonomy_options(sp):
    sp.add_argument("path", help="cdga JSON file")
    sp.add_argument("--lcs", type=int, help="also report quotient dims up to this class")


def _resonance_options(sp):
    sp.add_argument("path", help="cdga JSON file")
    sp.add_argument("--point", help="degree-1 element, e.g. 'a1 - 2*a2'")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)


def _classify_options(sp):
    sp.add_argument("path", help="cdga JSON file")
    sp.add_argument("--stage", type=int, required=True)


def _linearize_options(sp):
    sp.add_argument("path", help="presentation JSON file")
    sp.add_argument("--deg", type=int, help="ad-monomial length bound (default: max relator degree)")
    sp.add_argument("--class", dest="class_cap", type=int, default=6,
                    help="compare quotient dims through this class")


def _fixed_options(sp):
    sp.add_argument("path", help="cdga JSON file")
    sp.add_argument("action", help="action JSON file")


# subcommand -> (help line, its own options, the function it runs), in the
# order the top-level help lists them
_COMMANDS = {
    "hall": ("free Lie algebra basis counts", _hall_options, cmd_hall),
    "h2scan": ("degreewise H2 scan of a presentation", _h2scan_options, cmd_h2scan),
    "holonomy": ("holonomy presentation of a cdga", _holonomy_options, cmd_holonomy),
    "resonance": ("resonance dims or triviality probe", _resonance_options, cmd_resonance),
    "classify": ("tower, classifying maps, stability", _classify_options, cmd_classify),
    "linearize": ("rewrite relators into degrees <= 2", _linearize_options, cmd_linearize),
    "fixed": ("fixed sub-cdga of a finite group action", _fixed_options, cmd_fixed),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The argument parser: only the named subcommand's subparser when
    command is one, else all of them.

    A subparser's prog, options and messages do not depend on which others
    exist, and the top-level parser has no option but -h, so an argv whose
    first item is a known command parses the same, errors included, with
    that one subparser; any other argv needs the whole parser.
    """
    parser = _Parser(prog="lieobstruct", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    names = [command] if command in _COMMANDS else list(_COMMANDS)
    for name in names:
        help_line, options, func = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_line)
        options(sp)
        sp.add_argument("--out", help="write the report to this file")
        sp.add_argument(
            "--timings", action="store_true", help="include phase timings"
        )
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one subcommand on argv (default sys.argv[1:]) and return its exit
    code; a usage error raises SystemExit(2), as argparse does.  main does
    not touch the collector, so in-process callers are left as they were."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    phases = _Phases()
    try:
        results = args.func(args, phases)
    except _UsageError as exc:
        _print_error("usage", str(exc))
        return 2
    except LieobstructError as exc:
        _print_error(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _print_error("io", str(exc))
        return 1
    report = {
        "command": args.command,
        "version": __version__,
        "results": results,
    }
    if args.timings:
        report["timings"] = phases.items
    text = json.dumps(_jsonify(report), indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def process_main() -> int:
    """The entry point of a lieobstruct process, for `python -m
    lieobstruct.cli` and the console script: main on sys.argv[1:], then
    gc.freeze() on every way out, a return or a SystemExit alike.

    The process ends right after, and the interpreter's closing collections
    would walk every object alive, the imported modules' included, to find
    no garbage worth the time; frozen objects are skipped.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    raise SystemExit(process_main())
