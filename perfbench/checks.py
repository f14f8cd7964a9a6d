"""Correctness checks behind failed_frac.

Only basis-independent fields are compared: dimensions, dims by weight, H2
dims, verdicts and the one-equivalence, stability and filtration booleans.
Differential entries and basis labels are left out, since bases above
stage 5 may change.

Two kinds of check:
- independent oracles, written here without lieobstruct: the necklace
  formula, the support of Hopf H2 on the relator degrees, the weight-1 and
  weight-2 dims of a holonomy read off the product, and the paper's theorems
  that classifying maps are one-equivalences and the tower is stable;
- a reference of the same fields recorded from the seed commit, keyed by a
  hash of the job's command and input bytes.  A job with no reference entry
  is checked by its oracles only and counted as unchecked.
"""

from __future__ import annotations

import hashlib
import json
from math import comb
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")


def _mobius(m: int) -> int:
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def necklace(n: int, k: int) -> int:
    """Dimension of the degree-k part of the free Lie algebra on n letters."""
    return sum(_mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def normalize(obj):
    """JSON round trip, so int keys and tuples compare like parsed reports."""
    return json.loads(json.dumps(obj, sort_keys=True))


def job_key(argv, inputs) -> str:
    """Hash of the command with each input file replaced by its bytes."""
    h = hashlib.sha256()
    subst = {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}
    for a in argv:
        h.update(b"\0" + subst.get(str(a), str(a)).encode())
    return h.hexdigest()[:24]


def facts(command: str, results: dict) -> dict:
    """Basis-independent fields of a CLI report's results."""
    if command == "h2scan":
        return normalize({
            "h2_dims": results["h2_dims"],
            "verdict": results["verdict"],
            "window_start": results["window_start"],
            "ideal_x2_dims": results.get("ideal_x2_dims"),
        })
    if command == "holonomy":
        return normalize({
            "generators": len(results["generators"]),
            "relators": len(results["relators"]),
            "lcs_dims": results.get("lcs_dims"),
        })
    if command == "classify":
        return normalize({
            "stages": {
                n: {"dim": s["dim"], "dims_by_weight": s["dims_by_weight"]}
                for n, s in results["stages"].items()
            },
            "one_equivalence": results["one_equivalence"],
            "stability": results["stability"],
            "filtration": results["filtration"],
        })
    raise ValueError(f"no facts defined for command {command!r}")


# ---------------------------------------------------------------------------
# oracles; each returns a list of error strings


def holonomy_weights(gens: int, classes: int) -> dict:
    """Weight-1 and weight-2 dims of the holonomy of a cdga with d = 0:
    V, and the exterior square of V modulo the dual of the product."""
    return {1: gens, 2: comb(gens, 2) - classes}


def free_weights(gens: int, top: int) -> dict:
    return {k: necklace(gens, k) for k in range(1, top + 1)}


# holonomy dims by weight of the bundled cdgas: wedge2's holonomy is free on
# two letters, heis's is the three-dimensional Heisenberg algebra
BUNDLED_WEIGHTS = {
    "wedge2": free_weights(2, 12),
    "heis": {1: 2, 2: 1, **{k: 0 for k in range(3, 20)}},
    "noncarnot": {},
}


def _weights_errors(dims, known: dict, where: str) -> list:
    """dims is a list (weight k at index k-1) or a dict keyed by weight;
    weights missing from dims lie beyond the report's range."""
    if isinstance(dims, list):
        dims = dict(enumerate(dims, 1))
    dims = {int(k): v for k, v in dims.items()}
    return [
        f"{where}: weight {w} has dim {dims[w]}, want {want}"
        for w, want in known.items()
        if w in dims and dims[w] != want
    ]


def _all_true(obj, where: str) -> list:
    if isinstance(obj, dict):
        return [e for k, v in obj.items() for e in _all_true(v, f"{where}.{k}")]
    if isinstance(obj, bool):
        return [] if obj else [f"{where} is false"]
    return []


def oracle_errors(spec: dict, f: dict) -> list:
    kind = spec["kind"]
    if kind == "relators":
        dims = {int(k): v for k, v in f["h2_dims"].items()}
        degrees = spec["relator_degrees"]
        low = min(degrees)
        errs = []
        for k, v in dims.items():
            if k not in degrees and v != 0:
                errs.append(f"H2 in degree {k} is {v}, but no relator has that degree")
            elif k == low and v != spec["low_rank"]:
                errs.append(f"H2 in degree {k} is {v}, want rank {spec['low_rank']}")
            elif k in degrees and not 0 <= v <= degrees.count(k):
                errs.append(f"H2 in degree {k} is {v}, outside [0, {degrees.count(k)}]")
        return errs
    if kind == "holonomy":
        errs = []
        for field in ("generators", "relators"):
            if field in spec and f[field] != spec[field]:
                errs.append(f"{f[field]} holonomy {field}, want {spec[field]}")
        return errs + _weights_errors(f["lcs_dims"] or [], spec["weights"], "lcs_dims")
    if kind == "classify":
        errs = []
        for n, s in f["stages"].items():
            errs += _weights_errors(s["dims_by_weight"], spec["weights"], f"stage {n}")
        for field in ("one_equivalence", "stability", "filtration"):
            errs += _all_true(f[field], field)
        return errs
    if kind == "weights":
        return _weights_errors(f["dims"], spec["weights"], "dims")
    if kind == "verdict":
        errs = [] if f["verdict"] == spec["want"] else [f"verdict {f['verdict']}, want {spec['want']}"]
        if f["verdict"] == "nontrivial" and not f.get("witness_dim", 0) >= 1:
            errs.append(f"witness dim {f.get('witness_dim')} certifies nothing")
        return errs
    if kind == "equal":
        return [] if f == normalize(spec["want"]) else [f"got {f}, want {spec['want']}"]
    if kind == "each":
        return [
            f"{label}: {e}"
            for label, sub in spec["oracles"].items()
            for e in oracle_errors(sub, f[label])
        ]
    if kind == "none":
        return []
    raise ValueError(f"unknown oracle kind {kind!r}")


class Reference:
    """Recorded facts, keyed by job_key."""

    def __init__(self, path: Path = REFERENCE):
        self.path = path
        self.table = json.loads(path.read_text()) if path.is_file() else {}

    def check(self, key: str, f: dict):
        """(errors, checked): checked is False when there is no entry."""
        want = self.table.get(key)
        if want is None:
            return [], False
        if want != f:
            return [f"differs from the seed-commit reference: got {f}, want {want}"], True
        return [], True
