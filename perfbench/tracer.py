"""Outside-in tracer: wraps public functions of lieobstruct and records spans.

Each wrapped call records one span: its name, start, end and the span that
was open when it began.  Spans are kept in memory in flat arrays and written
out once, at exit.  A layer's self time is a span's duration minus the time
its child spans cover.

The wrappers are installed at every binding that can call a function: a
module-level function is replaced in every lieobstruct module whose globals
hold it (ce.py imports ``kernel`` and ``rank`` by name, for instance), and a
method is replaced on its class.  The program itself is not modified.

Run a CLI job traced:

    python3 perfbench/tracer.py SPANS_FILE JOB_ID -- h2scan pres.json --deg 9

This installs the wrappers, calls ``lieobstruct.cli.main`` with the
arguments after ``--``, writes the spans to SPANS_FILE and exits with the
CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

# module -> public functions wrapped; a bare class name wraps its constructor
TARGETS = {
    "ratlin": (
        "EchelonForm.insert",
        "EchelonForm.reduce",
        "SparseMatrix.matvec",
        "kernel",
        "rank",
        "quotient_basis",
        "express_in_columns",
    ),
    "freelie": ("bracket", "hall_basis_derived", "tensor_expand", "parse_element"),
    "fplie": (
        "ideal_span",
        "h2_graded",
        "finiteness_scan",
        "lcs_quotient",
        "linearize_presentation",
        "load_presentation",
    ),
    "cdga": (
        "FiniteCdga",
        "load_cdga",
        "holonomy",
        "cohomology",
        "induced_cohomology_matrix",
        "resonance_dim",
        "resonance_trivial_probe",
        "fixed_subcdga",
    ),
    "ce": (
        "ce_cochain",
        "hirsch_tower",
        "verify_one_equivalence",
        "check_stability",
        "canonical_filtration",
    ),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{q}" for m, quals in TARGETS.items() for q in quals)
USEFUL = "ratlin.EchelonForm.insert"


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self, job_id: str = ""):
        self.job_id = job_id
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.stack = [-1]  # indices of the open spans, innermost last
        self.useful = 0  # EchelonForm.insert calls that raised the rank
        self.bindings: dict = {}  # span name -> number of bindings patched

    def wrap(self, name: str, fn):
        ix = SPAN_NAMES.index(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self.stack
        clock = perf_counter
        count_useful = name == USEFUL

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count_useful and out[0]:
                self.useful += 1
            return out

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every target.  Call once per process, before the work."""
        mods = {m: importlib.import_module(f"lieobstruct.{m}") for m in TARGETS}
        everything = list(mods.values()) + [importlib.import_module("lieobstruct")]
        for m, quals in TARGETS.items():
            mod = mods[m]
            for qual in quals:
                name = f"{m}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                    self.bindings[name] = 1
                    continue
                orig = getattr(mod, qual)
                if isinstance(orig, type):
                    orig.__init__ = self.wrap(name, orig.__init__)
                    self.bindings[name] = 1
                    continue
                wrapper = self.wrap(name, orig)
                hits = 0
                for other in everything:
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            setattr(other, key, wrapper)
                            hits += 1
                self.bindings[name] = hits

    def dump(self, path):
        """Write the spans: one JSON header line, then the four arrays."""
        header = {
            "job": self.job_id,
            "names": list(SPAN_NAMES),
            "count": len(self.start),
            "useful_inserts": self.useful,
            "bindings": self.bindings,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent):
                arr.tofile(fh)


def load_spans(path):
    """Read a span file back: (header, name, start, end, parent)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for code in ("H", "d", "d", "l"):
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return (header, *arrays)


def summarize(paths, passes: int = 1) -> dict:
    """Per-layer metrics over the span files of some passes, per pass:
    <span>.calls and <span>.self_s for every target, <module>.self_s, and
    the useful-insert ratio.  Calls repeat exactly from pass to pass."""
    calls = [0] * len(SPAN_NAMES)
    self_s = [0.0] * len(SPAN_NAMES)
    useful = 0
    for path in paths:
        header, name, start, end, parent = load_spans(path)
        if header["names"] != list(SPAN_NAMES):
            raise ValueError(f"{path}: span names differ from this tracer's")
        useful += header["useful_inserts"]
        covered = [0.0] * len(start)
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        for i in range(len(start)):
            k = name[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - covered[i]
    out: dict = {}
    for m in TARGETS:
        total = 0.0
        for k, span in enumerate(SPAN_NAMES):
            if span.startswith(m + "."):
                out[f"{span}.calls"] = (calls[k] // passes, "count")
                out[f"{span}.self_s"] = (self_s[k] / passes, "s")
                total += self_s[k] / passes
        out[f"{m}.self_s"] = (total, "s")
    inserts = calls[SPAN_NAMES.index(USEFUL)]
    out[f"{USEFUL}.useful_ratio"] = (useful / inserts if inserts else 0.0, "ratio")
    return out


def _cli_main(argv) -> int:
    spans_path, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE JOB_ID -- CLI_ARGS...")
    tracer = Tracer(job_id)
    tracer.install()
    from lieobstruct import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(_cli_main(sys.argv[1:]))
