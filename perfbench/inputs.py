"""Seeded input generator for the benchmark.

Every random input is a function of (seed, workload, slot index) alone, so
the same seed writes byte-identical files.  The generator uses its own exact
arithmetic (tensor expansion of brackets, rank by Fraction elimination) and
never calls into lieobstruct, so a change to the program cannot change the
inputs it is measured on.

The size settings (generator counts, relator degrees, number of degree-2
classes, caps) come from config.json; the seed chooses only shapes and
coefficients.  That keeps each workload's cost and layer balance fixed from
seed to seed while the inputs themselves vary.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from checks import necklace

GEN_NAMES = ("x", "y", "z", "w")


def _rng(seed: int, *tags) -> random.Random:
    # a string seed is hashed deterministically (sha512), unlike hash()
    return random.Random(":".join(str(t) for t in (seed,) + tags))


# ---------------------------------------------------------------------------
# bracket expressions and their tensor expansion


def _random_tree(rng: random.Random, n_gens: int, degree: int):
    """A random bracket tree of the given degree: a leaf is a generator
    index, an inner node a pair (left, right)."""
    if degree == 1:
        return rng.randrange(n_gens)
    left = rng.randint(1, degree - 1)
    return (_random_tree(rng, n_gens, left), _random_tree(rng, n_gens, degree - left))


def _tree_str(tree) -> str:
    if isinstance(tree, int):
        return GEN_NAMES[tree]
    return f"[{_tree_str(tree[0])},{_tree_str(tree[1])}]"


def _tensor(tree) -> dict:
    """Expansion in the free associative algebra: [a,b] = ab - ba."""
    if isinstance(tree, int):
        return {(tree,): 1}
    a, b = _tensor(tree[0]), _tensor(tree[1])
    out: dict = {}
    for u, c in a.items():
        for v, e in b.items():
            for key, s in ((u + v, c * e), (v + u, -c * e)):
                x = out.get(key, 0) + s
                if x:
                    out[key] = x
                else:
                    out.pop(key)
    return out


def _add_scaled(acc: dict, vec: dict, c: int) -> dict:
    for k, v in vec.items():
        x = acc.get(k, 0) + c * v
        if x:
            acc[k] = x
        else:
            acc.pop(k, None)
    return acc


def rank(vectors) -> int:
    """Rank of sparse rational vectors (dicts), by plain elimination."""
    pivots: dict = {}
    r = 0
    for vec in vectors:
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        while vec:
            p = min(vec)
            row = pivots.get(p)
            if row is None:
                pivots[p] = vec
                r += 1
                break
            f = vec[p] / row[p]
            for k, v in row.items():
                x = vec.get(k, 0) - f * v
                if x:
                    vec[k] = x
                else:
                    vec.pop(k, None)
    return r


def _signed_sum(terms) -> str:
    """Text of a sum of (nonzero integer, name) terms, e.g. '2*a - b'."""
    out = ""
    for c, name in terms:
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        if not out:
            out = f"-{body}" if c < 0 else body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out


def _random_relator(rng: random.Random, n_gens: int, degree: int, coeff: int):
    """A nonzero homogeneous Lie element: one more random bracket of the
    degree than that degree's dimension, with nonzero integer coefficients
    in [-coeff, coeff].  A sum that long is generic with high probability,
    so the ideal it generates, and with it the job's cost, is the same from
    seed to seed; one to three brackets left the cost of a three-generator
    job varying threefold.  Returns the text and the tensor expansion (used
    by the H2 oracle)."""
    while True:
        terms = []
        tensor: dict = {}
        for _ in range(necklace(n_gens, degree) + 1):
            tree = _random_tree(rng, n_gens, degree)
            c = rng.choice([k for k in range(-coeff, coeff + 1) if k])
            terms.append((c, _tree_str(tree)))
            _add_scaled(tensor, _tensor(tree), c)
        if tensor:
            break
    return _signed_sum(terms), tensor


def random_presentation(seed: int, slot: int, spec: dict, coeff: int):
    """Presentation dict for one hopf slot, and the oracle data the file
    does not hold: the relator degrees and the rank of the relators of the
    lowest degree."""
    rng = _rng(seed, "hopf", slot)
    n = spec["gens"]
    relators, tensors = [], []
    for d in spec["relator_degrees"]:
        text, t = _random_relator(rng, n, d, coeff)
        relators.append(text)
        tensors.append((d, t))
    low = min(spec["relator_degrees"])
    low_rank = rank(t for d, t in tensors if d == low)
    return {
        "generators": list(GEN_NAMES[:n]),
        "relators": relators,
        "scheme": "finite",
    }, {"relator_degrees": list(spec["relator_degrees"]), "low_rank": low_rank}


def random_cdga(seed: int, slot: int, spec: dict, coeff: int) -> dict:
    """A cdga with d = 0 and top degree 2: degree 1 is V with gens basis
    names, degree 2 a random quotient of the exterior square of V with
    classes basis names.  The product V x V -> A^2 is a random integer
    matrix of full rank, so every such model passes load validation."""
    rng = _rng(seed, "tower", slot)
    n, m = spec["gens"], spec["classes"]
    pairs = list(combinations(range(n), 2))
    if not 1 <= m <= len(pairs):
        raise ValueError(f"classes must be in [1, {len(pairs)}], got {m}")
    while True:
        cols = [
            {k: rng.randint(-coeff, coeff) for k in range(m)} for _ in pairs
        ]
        if rank(cols) == m:
            break
    ones = [f"a{i + 1}" for i in range(n)]
    twos = [f"b{k + 1}" for k in range(m)]
    mu = {}
    for (i, j), col in zip(pairs, cols):
        terms = [(c, twos[k]) for k, c in sorted(col.items()) if c]
        if terms:
            mu[f"{ones[i]}*{ones[j]}"] = _signed_sum(terms)
    return {"degrees": {"1": ones, "2": twos}, "d": {}, "mu": mu}


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
