"""Finite connected commutative differential graded algebras in degrees <= 3.

A FiniteCdga is given by a named basis in each degree, a differential, and a
product.  The product is either a table, as loaded from JSON, or a
WedgeProduct: the exterior algebra on the degree-1 basis, computed by rule on
sorted index tuples, as in every Chevalley-Eilenberg stage.  Degrees above
the top are treated as zero (the quotient truncation), which keeps every
rule consistent.

Constructors check shapes; loaders check axioms.  The FiniteCdga and
CdgaMorphism constructors check names, matrix shapes, the unit and the
exterior dimensions, nothing that costs more.  check_cdga (d^2 = 0, graded
commutativity, the Leibniz rule, associativity) and check_morphism
(commuting with d, multiplicativity) run exhaustively on the finite bases,
and the loaders run them once on each cdga and each action map read from
JSON.  Everything the library derives from checked input is a cdga or a
cdga map by the rule that builds it, and is not checked again.

On top of that sit the operations this toolkit needs: cohomology with
explicit representatives, the holonomy Lie presentation dual to d and the
product on degree 1, read off the degree-2 part of the sub-cdga A[1] (the
span of d(A^1) and A^1*A^1) without building A[1], resonance dimensions for
twisted differentials d + omega.(-), probing for nontrivial degree-1
resonance, and fixed sub-cdgas of finite group actions via the averaging
projector, read off per-degree spans.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from itertools import combinations

from .ratlin import (
    ONE,
    ZERO,
    EchelonForm,
    InternalError,
    LieobstructError,
    SparseMatrix,
    Subspace,
    _cleared,
    _Frozen,
    _load_json,
    format_sum,
    kernel,
    rank,
    scal,
    scalar_to_json,
    scan_rational,
    vec_add,
)

__all__ = [
    "CdgaError",
    "CdgaMorphism",
    "FiniteCdga",
    "GroupAction",
    "WedgeProduct",
    "action_from_dict",
    "cdga_from_dict",
    "check_cdga",
    "check_morphism",
    "cohomology",
    "fixed_subcdga",
    "format_cdga_element",
    "holonomy",
    "identity_morphism",
    "induced_cohomology_matrix",
    "load_action",
    "load_cdga",
    "parse_cdga_element",
    "resonance_dim",
    "resonance_trivial_probe",
]


class CdgaError(LieobstructError, ValueError):
    pass


def _clean(vec: dict) -> dict:
    return {k: v for k, v in vec.items() if v}


def _merge_wedge(t1: tuple, t2: tuple):
    """Concatenate two strictly increasing index tuples into one, returning
    (sign, sorted tuple) or None when an index repeats."""
    merged = list(t1)
    sign = 1
    for x in t2:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > x:
            pos -= 1
        if pos > 0 and merged[pos - 1] == x:
            return None
        if (len(merged) - pos) % 2 == 1:
            sign = -sign
        merged.insert(pos, x)
    return sign, tuple(merged)


class WedgeProduct(_Frozen):
    """The product of the exterior algebra on gens degree-1 generators,
    through degree top, computed by rule instead of stored.  The degree-n
    basis is the strictly increasing index n-tuples in combinations order:
    basis element k of degree n is tuples[n][k], and positions[n] inverts
    tuples[n].

    With a cap, generator k has weight weights[k], weights never decrease,
    and only the tuples of weight <= cap are kept: the quotient by the ideal
    of the heavier ones, so a product that lands above the cap is 0."""

    _fields = ("gens", "top", "weights", "cap")
    __slots__ = _fields + ("tuples", "positions")

    def __init__(self, gens: int, top: int, weights: tuple = None, cap: int = None):
        # without a cap, every weight and the cap are 0
        w, limit = ((0,) * gens, 0) if cap is None else (weights, cap)
        tuples, level = [((),)], [((), 0)]
        for _ in range(top):
            level = [(t + (k,), s + w[k]) for t, s in level
                     for k in range(t[-1] + 1 if t else 0, bisect_right(w, limit - s))]
            tuples.append(tuple(t for t, _ in level))
        positions = tuple({t: k for k, t in enumerate(row)} for row in tuples)
        self._fill(gens, top, weights, cap, tuple(tuples), positions)

    def mul(self, i: int, u: dict, j: int, v: dict) -> dict:
        """Product of a degree-i and a degree-j element, 1 <= i, j and
        i + j <= top."""
        left, right, pos = self.tuples[i], self.tuples[j], self.positions[i + j]
        out: dict = {}
        for a, x in u.items():
            ta = left[a]
            for b, y in v.items():
                w = _merge_wedge(ta, right[b])
                if w is None:
                    continue
                sign, t = w
                k = pos.get(t)
                if k is None:
                    continue
                z = out.get(k, ZERO) + (x * y if sign > 0 else -x * y)
                if z:
                    out[k] = z
                else:
                    del out[k]
        return out


def _graded_mul(prod, top: int, i: int, u: dict, j: int, v: dict) -> dict:
    """Product of a degree-i and a degree-j element under the product prod,
    a table or a WedgeProduct, of a cdga with the given top degree."""
    if i == 0:
        c = u.get(0, ZERO)
        return _clean({k: c * x for k, x in v.items()})
    if j == 0:
        c = v.get(0, ZERO)
        return _clean({k: c * x for k, x in u.items()})
    if i + j > top:
        return {}
    if isinstance(prod, WedgeProduct):
        return prod.mul(i, u, j, v)
    table = prod.get((i, j), {})
    out: dict = {}
    for a, x in u.items():
        for b, y in v.items():
            for k, c in table.get((a, b), {}).items():
                z = out.get(k, ZERO) + x * y * c
                if z:
                    out[k] = z
                else:
                    del out[k]
    return out


class FiniteCdga(_Frozen):
    """names[i] is the basis of degree i (degree 0 is the unit alone);
    diff[i] is the matrix of d from degree i to i+1; prod is the product.

    A table prod has prod[(i, j)][(a, b)] the product of the a-th degree-i
    and b-th degree-j basis elements, stored complete for all ordered pairs
    of positive degrees with i + j <= top; absent entries are zero.  An
    exterior stage has a WedgeProduct prod, whose degree-n basis is the
    n-tuples of the degree-1 basis, those of weight <= its cap if it has one.

    The constructor checks shapes only: nonempty distinct names, top <= 3,
    one differential of the right shape per degree, a closed unit, and for
    a WedgeProduct the exterior dimensions.  The cdga axioms are check_cdga's,
    which cdga_from_dict runs on every loaded table.  An exterior stage
    satisfies them by construction: its product is a rule on sorted tuples,
    and ce_cochain builds d on degree 2 as the Leibniz extension of d on
    generators and checks d^2 = 0 there (the Jacobi identity).

    A cdga is immutable, so its cohomology data is built once per degree, on
    first use, and kept in a private memo that equality and repr ignore.
    """

    _fields = ("names", "diff", "prod")
    __slots__ = _fields + ("_cohomology",)

    def __init__(self, names: tuple, diff: tuple, prod):
        self._fill(names, diff, prod, {})
        if not self.names or len(self.names[0]) != 1:
            raise CdgaError("degree 0 must be the one-dimensional span of the unit")
        if self.top > 3:
            raise CdgaError(f"top degree {self.top} unsupported, need <= 3")
        seen = set()
        for i, row in enumerate(self.names):
            for nm in row:
                if not isinstance(nm, str) or not nm:
                    raise CdgaError("basis names must be nonempty strings")
                if nm in seen:
                    raise CdgaError(f"duplicate basis name {nm!r}")
                seen.add(nm)
        if len(self.diff) != self.top + 1:
            raise CdgaError("need one differential matrix per degree")
        for i, m in enumerate(self.diff):
            if (m.rows, m.cols) != (self.dim(i + 1), self.dim(i)):
                raise CdgaError(f"differential in degree {i} has the wrong shape")
        if not self.diff[0].is_zero():
            raise CdgaError("the unit must be closed")
        if isinstance(self.prod, WedgeProduct):
            self._check_wedge_dims()

    # -- shape helpers ----------------------------------------------------

    @property
    def top(self) -> int:
        return len(self.names) - 1

    def dim(self, i: int) -> int:
        if 0 <= i <= self.top:
            return len(self.names[i])
        return 0

    def d_apply(self, i: int, vec: dict) -> dict:
        if 0 <= i <= self.top:
            return self.diff[i].matvec(vec)
        return {}

    def mul(self, i: int, u: dict, j: int, v: dict) -> dict:
        """Product of a degree-i and a degree-j element."""
        return _graded_mul(self.prod, self.top, i, u, j, v)

    def _check_wedge_dims(self):
        if self.prod.top < self.top:
            raise CdgaError("exterior product stops below the top degree")
        for i in range(1, self.top + 1):
            if self.dim(i) != len(self.prod.tuples[i]):
                raise CdgaError(f"degree {i} is not the exterior power of degree 1")


def check_cdga(a: FiniteCdga):
    """Check d^2 = 0, graded commutativity, the Leibniz rule and
    associativity, in that order, on every tuple of basis elements; raise
    CdgaError naming the first failure."""
    top, dim, d, mul, names = a.top, a.dim, a.d_apply, a.mul, a.names
    for i in range(top):
        for k in range(dim(i)):
            if d(i + 1, d(i, {k: ONE})):
                raise CdgaError(f"d^2 != 0 on {names[i][k]!r}")
    for i in range(1, top):
        for j in range(i, top + 1 - i):
            sign = ONE if (i * j) % 2 == 0 else -ONE
            for x in range(dim(i)):
                for y in range(dim(j)):
                    lhs = mul(i, {x: ONE}, j, {y: ONE})
                    rhs = mul(j, {y: ONE}, i, {x: ONE})
                    if lhs != {k: sign * c for k, c in rhs.items()}:
                        raise CdgaError(
                            "graded commutativity fails on "
                            f"{names[i][x]!r} * {names[j][y]!r}"
                        )
    for i in range(1, top):
        for j in range(1, top + 1 - i):
            sign = ONE if i % 2 == 0 else -ONE
            for x in range(dim(i)):
                dx = d(i, {x: ONE})
                for y in range(dim(j)):
                    lhs = d(i + j, mul(i, {x: ONE}, j, {y: ONE}))
                    rhs = vec_add(
                        mul(i + 1, dx, j, {y: ONE}),
                        mul(i, {x: ONE}, j + 1, d(j, {y: ONE})),
                        sign,
                    )
                    if lhs != rhs:
                        raise CdgaError(
                            f"Leibniz rule fails on {names[i][x]!r} * {names[j][y]!r}"
                        )
    for i in range(1, top):
        for j in range(1, top + 1 - i):
            for k in range(1, top + 1 - i - j):
                for x in range(dim(i)):
                    for y in range(dim(j)):
                        xy = mul(i, {x: ONE}, j, {y: ONE})
                        for z in range(dim(k)):
                            yz = mul(j, {y: ONE}, k, {z: ONE})
                            if mul(i + j, xy, k, {z: ONE}) != mul(i, {x: ONE}, j + k, yz):
                                raise CdgaError(
                                    "associativity fails on "
                                    f"{names[i][x]!r}, {names[j][y]!r}, {names[k][z]!r}"
                                )


def format_cdga_element(a: FiniteCdga, i: int, vec: dict) -> str:
    return format_sum((a.names[i][k], vec[k]) for k in sorted(vec))


# ---------------------------------------------------------------------------
# morphisms

class CdgaMorphism(_Frozen):
    """Degreewise linear maps: maps[i] sends degree-i source coordinates to
    target ones; degrees above the source top are zero.

    The constructor checks shapes and that the unit goes to the unit.  That
    the maps commute with d and are multiplicative is check_morphism's,
    which action_from_dict runs on every loaded map.  The maps the library
    builds are cdga maps by construction: identities, inclusions of
    sub-cdgas, composites, and classifying maps, whose higher columns are
    products of their degree-1 images (a cdga map out of a free
    graded-commutative algebra is fixed by its degree-1 part,
    Felix-Halperin-Thomas GTM 205, section 12; ce.verify_one_equivalence
    checks the Maurer-Cartan equation, which is commuting with d there)."""

    __slots__ = _fields = ("source", "target", "maps")

    def __init__(self, source: FiniteCdga, target: FiniteCdga, maps: tuple):
        self._fill(source, target, maps)
        if len(self.maps) != self.source.top + 1:
            raise CdgaError("need one matrix per source degree")
        for i, m in enumerate(self.maps):
            if (m.rows, m.cols) != (self.target.dim(i), self.source.dim(i)):
                raise CdgaError(f"morphism matrix in degree {i} has the wrong shape")
        if self.apply(0, {0: ONE}) != {0: ONE}:
            raise CdgaError("morphism must send the unit to the unit")

    def apply(self, i: int, vec: dict) -> dict:
        if 0 <= i <= self.source.top:
            return self.maps[i].matvec(vec)
        return {}

    def compose(self, inner: "CdgaMorphism") -> "CdgaMorphism":
        """self after inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise CdgaError("composition needs matching middle cdga")
        mats = []
        for i in range(inner.source.top + 1):
            if i <= self.source.top:
                mats.append(self.maps[i].matmul(inner.maps[i]))
            else:
                mats.append(SparseMatrix(self.target.dim(i), inner.source.dim(i), {}))
        return CdgaMorphism(inner.source, self.target, tuple(mats))


def check_morphism(f: CdgaMorphism):
    """Check that f commutes with d and is multiplicative on every pair of
    basis elements, in that order; raise CdgaError naming the first failure.
    The top source degree is exempt from commuting with d: the source
    differential there is zero by truncation."""
    src, tgt = f.source, f.target
    for i in range(src.top):
        for k in range(src.dim(i)):
            fk = f.apply(i, {k: ONE})
            if f.apply(i + 1, src.d_apply(i, {k: ONE})) != tgt.d_apply(i, fk):
                raise CdgaError(f"morphism does not commute with d on {src.names[i][k]!r}")
    for i in range(1, src.top):
        for j in range(i, src.top + 1 - i):
            for a in range(src.dim(i)):
                fa = f.apply(i, {a: ONE})
                for b in range(src.dim(j)):
                    lhs = f.apply(i + j, src.mul(i, {a: ONE}, j, {b: ONE}))
                    if lhs != tgt.mul(i, fa, j, f.apply(j, {b: ONE})):
                        raise CdgaError(
                            "morphism is not multiplicative on "
                            f"{src.names[i][a]!r} * {src.names[j][b]!r}"
                        )


def identity_morphism(a: FiniteCdga) -> CdgaMorphism:
    return CdgaMorphism(
        a, a, tuple(SparseMatrix.identity(a.dim(i)) for i in range(a.top + 1))
    )


# ---------------------------------------------------------------------------
# cohomology

class _CohomologyData:
    """Cocycle representatives of H^i plus class coordinates of cocycles."""

    def __init__(self, a: FiniteCdga, i: int):
        self.ech = EchelonForm(track=True)
        self.rep_of_attempt = {}
        self.reps = []
        attempt = 0
        if i >= 1 and i - 1 <= a.top:
            for k in range(a.dim(i - 1)):
                self.ech.insert(a.d_apply(i - 1, {k: ONE}))
                attempt += 1
        if 0 <= i <= a.top:
            for vec in kernel(a.diff[i]).basis_rows:
                res, _ = self.ech.insert(vec)
                if res:
                    self.rep_of_attempt[attempt] = len(self.reps)
                    self.reps.append(dict(vec))
                attempt += 1

    @property
    def dim(self) -> int:
        return len(self.reps)

    def class_coords(self, vec: dict) -> dict:
        """Coordinates of a cocycle's class over the representative basis."""
        res, combo = self.ech.reduce(vec)
        if res:
            raise CdgaError("class coordinates demanded for a non-cocycle")
        out = {}
        for attempt, c in (combo or {}).items():
            r = self.rep_of_attempt.get(attempt)
            if r is not None and c:
                out[r] = c
        return out


def _cohomology_data(a: FiniteCdga, i: int) -> _CohomologyData:
    """a's cohomology data in degree i, from its memo."""
    data = a._cohomology.get(i)
    if data is None:
        data = a._cohomology[i] = _CohomologyData(a, i)
    return data


def cohomology(a: FiniteCdga, i: int):
    """(Betti number, cocycle representatives) in degree i."""
    if i < 0:
        raise CdgaError(f"degree must be >= 0, got {i}")
    if i > a.top:
        return 0, ()
    data = _cohomology_data(a, i)
    return data.dim, tuple(dict(rep) for rep in data.reps)


def induced_cohomology_matrix(f: CdgaMorphism, i: int) -> SparseMatrix:
    """Matrix of H^i(f) over the representative bases of source and target."""
    src = _cohomology_data(f.source, i) if i <= f.source.top else None
    tgt = _cohomology_data(f.target, i) if i <= f.target.top else None
    if src is None or tgt is None:
        return SparseMatrix(tgt.dim if tgt else 0, src.dim if src else 0)
    return SparseMatrix.from_columns(
        tgt.dim, [tgt.class_coords(f.apply(i, rep)) for rep in src.reps]
    )


# ---------------------------------------------------------------------------
# sub-cdgas

def _subcdga(a: FiniteCdga, subs, names):
    """The sub-cdga of a spanned in each degree i by the RREF rows of
    subs[i], with basis names[i], together with its inclusion into a.  Its
    differential, product and inclusion are read off those rows; every
    coordinate read is checked, so a span that d or the product leaves
    raises InternalError.  subs has one entry per degree of a."""

    def coords(i, vec):
        sub = subs[i]
        out = _clean({r: vec.get(p, ZERO) for r, p in enumerate(sub.pivots)})
        check: dict = dict(vec)
        for r, c in out.items():
            check = vec_add(check, sub.basis_rows[r], -c)
        if check:
            raise InternalError(f"degree-{i} vector lies outside the sub-cdga")
        return out

    top = a.top
    diff = [
        SparseMatrix.from_columns(
            subs[i + 1].dim, [coords(i + 1, a.d_apply(i, row)) for row in subs[i].basis_rows]
        )
        for i in range(top)
    ]
    diff.append(SparseMatrix(0, subs[top].dim))
    prod = {}
    for i in range(1, top):
        for j in range(1, top + 1 - i):
            table = {}
            for x, rx in enumerate(subs[i].basis_rows):
                for y, ry in enumerate(subs[j].basis_rows):
                    v = a.mul(i, rx, j, ry)
                    if v:
                        table[(x, y)] = coords(i + j, v)
            if table:
                prod[(i, j)] = table
    sub = FiniteCdga(tuple(names), tuple(diff), prod)
    mats = tuple(SparseMatrix.from_columns(a.dim(i), s.basis_rows) for i, s in enumerate(subs))
    return sub, CdgaMorphism(sub, a, mats)


# ---------------------------------------------------------------------------
# holonomy presentation

def holonomy(a: FiniteCdga):
    """The Lie presentation dual to (d, product) on A[1]: one generator per
    degree-1 basis element and one relator per basis row of the degree-2
    part of A[1], the span of the d(a_i) and the products a_i*a_j.  Relator
    r is the sum of the dual of d and the dual of the product at that span's
    r-th RREF pivot; when the span is all of A^2 this is the r-th basis
    element.  Each d(a_i), product a_i*a_j and nonzero product's bracket is
    formed once."""
    from .fplie import FiniteList, LiePresentation
    from .freelie import LieElement, bracket, gen_elt

    g = a.dim(1)
    gens = tuple(f"x{i + 1}" for i in range(g))
    parts = [(gen_elt(g, i), a.d_apply(1, {i: ONE})) for i in range(g)]
    for i, j in combinations(range(g), 2):
        prod = a.mul(1, {i: ONE}, 1, {j: ONE})
        if prod:
            parts.append((bracket(gen_elt(g, i), gen_elt(g, j)), prod))
    # a_j*a_i = -a_i*a_j and a_i*a_i = 0, so these span the degree-2 part
    pivots = Subspace.span([vec for _, vec in parts], a.dim(2)).pivots
    row = {p: r for r, p in enumerate(pivots)}
    terms = [{} for _ in pivots]
    # no word occurs twice in a relator: [x_i, x_j] is one basis word
    for e, vec in parts:
        for p, c in vec.items():
            if p in row:
                terms[row[p]].update((w, c * x) for w, x in e.terms.items())
    return LiePresentation(gens, FiniteList(tuple(LieElement(g, t) for t in terms if t)))


# ---------------------------------------------------------------------------
# resonance

def _twisted_matrix(a: FiniteCdga, omega: dict, q: int, i: int) -> SparseMatrix:
    """q*d + omega.(-) on degree i, for an integral omega and an int q."""
    return SparseMatrix.from_columns(
        a.dim(i + 1),
        [
            vec_add(a.mul(1, omega, i, {k: ONE}), a.d_apply(i, {k: ONE}), q)
            for k in range(a.dim(i))
        ],
    )


def _require_cocycle(a: FiniteCdga, omega: dict):
    omega = _clean({k: scal(c) for k, c in omega.items()})
    if any(k < 0 or k >= a.dim(1) for k in omega):
        raise CdgaError("resonance point is not a degree-1 vector")
    if a.d_apply(1, omega):
        raise CdgaError("resonance point must be a closed degree-1 element")
    return omega


def resonance_dim(a: FiniteCdga, omega: dict, i: int) -> int:
    """dim H^i of the complex twisted by a closed degree-1 element.

    Ranks are taken of q*d + omega'.(-), where omega = omega'/q with omega'
    integral and q > 0: that is q times d + omega.(-), so it has the same
    rank and holds no Fraction that d's own entries do not bring."""
    omega = _require_cocycle(a, omega)
    if not 0 <= i <= a.top - 1:
        raise CdgaError(f"degree {i} out of range for resonance (top {a.top})")
    omega, q = _cleared(omega)
    sq = _twisted_matrix(a, omega, q, i)
    # the twisted differential squares to zero because omega is closed and
    # degree-1 squares vanish; spot-check it before trusting the ranks
    if i + 1 <= a.top - 1:
        nxt = _twisted_matrix(a, omega, q, i + 1)
        if not nxt.matmul(sq).is_zero():
            raise InternalError("twisted differential does not square to zero")
    r_i = rank(sq)
    r_prev = rank(_twisted_matrix(a, omega, q, i - 1)) if i >= 1 else 0
    return a.dim(i) - r_i - r_prev


def resonance_trivial_probe(a: FiniteCdga, trials: int = 20, seed: int = 0) -> dict:
    """Look for a nonzero degree-1 cohomology class with nontrivial degree-1
    resonance: basis classes first, then pairwise sums, then seeded random
    rational combinations.  Finding none proves nothing and is reported so.
    """
    import random

    b1, reps = cohomology(a, 1)
    if b1 < 1:
        raise CdgaError("resonance probe needs first Betti number >= 1")
    candidates = [dict(rep) for rep in reps]
    for r in range(b1):
        for s in range(r + 1, b1):
            candidates.append(vec_add(reps[r], reps[s]))
    rng = random.Random(seed)
    for _ in range(max(trials, 0)):
        vec: dict = {}
        for rep in reps:
            c = scal(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            vec = vec_add(vec, rep, c)
        if vec:
            candidates.append(vec)
    tested = 0
    for omega in candidates:
        if not omega:
            continue
        tested += 1
        certified = resonance_dim(a, omega, 1)
        if certified >= 1:
            return {
                "verdict": "nontrivial",
                "witness": {
                    a.names[1][k]: scalar_to_json(c) for k, c in sorted(omega.items())
                },
                "witness_dim": certified,
            }
    return {"verdict": "no-witness-found", "points_tested": tested}


# ---------------------------------------------------------------------------
# group actions and fixed sub-cdgas

class GroupAction(_Frozen):
    """A finite group acting by cdga automorphisms: element names, the
    composition table (g, h) -> gh, and one morphism per element."""

    __slots__ = _fields = ("elements", "table", "morphisms")

    def __init__(self, elements: tuple, table: dict, morphisms: dict):
        self._fill(elements, table, morphisms)
        elts = self.elements
        if not elts:
            raise CdgaError("action needs at least the identity element")
        for g in elts:
            if g not in self.morphisms:
                raise CdgaError(f"no morphism for group element {g!r}")
        for g in elts:
            for h in elts:
                k = self.table.get((g, h))
                if k not in elts:
                    raise CdgaError(f"composition table incomplete at ({g!r}, {h!r})")
                got = self.morphisms[g].compose(self.morphisms[h])
                if got.maps != self.morphisms[k].maps:
                    raise CdgaError(
                        f"morphisms disagree with the table at ({g!r}, {h!r})"
                    )
        ident = None
        for e in elts:
            if all(self.table[(e, g)] == g and self.table[(g, e)] == g for g in elts):
                ident = e
                break
        if ident is None:
            raise CdgaError("composition table has no identity element")
        a = self.morphisms[ident].source
        if self.morphisms[ident].maps != identity_morphism(a).maps:
            raise CdgaError("identity element must act as the identity morphism")

    @property
    def cdga(self) -> FiniteCdga:
        return self.morphisms[self.elements[0]].source


def fixed_subcdga(action: GroupAction):
    """The sub-cdga of invariants, via the averaging projector, with its
    inclusion into the ambient cdga."""
    a, order = action.cdga, len(action.elements)
    projectors = []
    for i in range(a.top + 1):
        columns = []
        for j in range(a.dim(i)):
            total: dict = {}
            for g in action.elements:
                total = vec_add(total, action.morphisms[g].maps[i].col(j))
            columns.append({r: scal(Fraction(x, order)) for r, x in total.items()})
        p = SparseMatrix.from_columns(a.dim(i), columns)
        if p.matmul(p) != p:
            raise InternalError("averaging projector is not idempotent")
        projectors.append(p)
    for i in range(a.top):
        # the projector commutes with d because every group element does
        if a.diff[i].matmul(projectors[i]) != projectors[i + 1].matmul(a.diff[i]):
            raise InternalError("averaging projector does not commute with d")
    # the invariants are the column span of the projector
    subs = [Subspace.span(p.columns.values(), p.rows) for p in projectors]
    if subs[0].dim != 1:
        raise InternalError("the unit must be invariant")
    names = [("1",)]
    for i in range(1, a.top + 1):
        names.append(tuple(f"inv{i}_{r + 1}" for r in range(subs[i].dim)))
    return _subcdga(a, subs, names)


# ---------------------------------------------------------------------------
# file format

class _ExprParser:
    """Sums of rational multiples of basis names and binary products."""

    def __init__(self, text, lookup, cdga_mul):
        self.text = text.replace(" ", "").replace("\t", "")
        self.pos = 0
        self.lookup = lookup
        self.mul = cdga_mul

    def error(self, msg):
        raise CdgaError(f"bad expression {self.text!r} at position {self.pos}: {msg}")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        if self.text == "0":
            return None
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        degree, vec = self._term(sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
            d2, v2 = self._term(sign)
            if d2 != degree:
                self.error("mixed degrees in one expression")
            vec = vec_add(vec, v2)
        if self.pos != len(self.text):
            self.error("trailing input")
        return degree, _clean(vec)

    def _name(self):
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        nm = self.text[start:self.pos]
        if not nm:
            self.error("expected a basis name")
        if nm not in self.lookup:
            self.error(f"unknown basis name {nm!r}")
        return self.lookup[nm]

    def _term(self, sign):
        c = sign
        if self.peek().isdigit():
            try:
                x, self.pos = scan_rational(self.text, self.pos)
            except ValueError as exc:
                self.error(str(exc))
            c *= x
            if self.peek() != "*":
                self.error("a coefficient must be followed by '*'")
            self.pos += 1
        d1, k1 = self._name()
        vec = {k1: c}
        deg = d1
        while self.peek() == "*":
            self.pos += 1
            d2, k2 = self._name()
            vec = self.mul(deg, vec, d2, {k2: ONE})
            deg += d2
        return deg, vec


def _reject_unknown_keys(data: dict, known, what: str):
    for key in data:
        if key not in known:
            raise CdgaError(f"unknown key {key!r}; {what} has {', '.join(known)}")


def _name_lookup(names) -> dict:
    """{basis name: (degree, index)} over the rows of names, one per degree."""
    lookup = {}
    for i, row in enumerate(names):
        for k, nm in enumerate(row):
            if nm in lookup:
                raise CdgaError(f"duplicate basis name {nm!r}")
            lookup[nm] = (i, k)
    return lookup


def cdga_from_dict(data: dict) -> FiniteCdga:
    if not isinstance(data, dict):
        raise CdgaError("cdga file must hold a JSON object")
    _reject_unknown_keys(data, ("degrees", "d", "mu"), "a cdga")
    degrees = data.get("degrees")
    if not isinstance(degrees, dict) or not degrees:
        raise CdgaError('"degrees" must map degree strings to name lists')
    try:
        keys = sorted(int(k) for k in degrees)
    except ValueError as exc:
        raise CdgaError(f"bad degree key: {exc}") from exc
    for k in degrees:
        # rows are looked up by str(i) below, so any other spelling is lost
        if str(int(k)) != k:
            raise CdgaError(f"degree key {k!r} must be written {str(int(k))!r}")
    if any(k < 1 for k in keys):
        raise CdgaError("degrees start at 1; the unit is implicit")
    top = max(keys)
    if top > 3:
        # before any per-degree row is built: a huge key would cost its size
        raise CdgaError(f"top degree {top} unsupported, need <= 3")
    names = [("1",)]
    for i in range(1, top + 1):
        row = degrees.get(str(i), [])
        if not isinstance(row, list) or not all(isinstance(x, str) for x in row):
            raise CdgaError(f'"degrees"["{i}"] must be a list of names')
        names.append(tuple(row))
    lookup = _name_lookup(names)

    # products first: both the differential and later consumers need them
    mu_raw = data.get("mu", {})
    if not isinstance(mu_raw, dict):
        raise CdgaError('"mu" must be an object')
    prod: dict = {}

    def put(i, a, j, b, vec):
        table = prod.setdefault((i, j), {})
        if (a, b) in table and table[(a, b)] != vec:
            raise CdgaError(
                f"conflicting products for {names[i][a]!r} * {names[j][b]!r}"
            )
        table[(a, b)] = vec

    for key, val in sorted(mu_raw.items()):
        parts = key.replace(" ", "").split("*")
        if len(parts) != 2:
            raise CdgaError(f"product key must be 'name*name', got {key!r}")
        left, right = parts
        if left not in lookup or right not in lookup:
            raise CdgaError(f"product key {key!r} uses an unknown name")
        (i, ai), (j, bj) = lookup[left], lookup[right]
        if i > j:
            raise CdgaError(
                f"list products with the lower degree first: {key!r}"
            )
        if i + j > top:
            raise CdgaError(f"product {key!r} lands above the top degree")

        def no_products(*_args):
            raise CdgaError(
                f"product value for {key!r} must be linear in basis names"
            )

        out = _ExprParser(str(val), lookup, no_products).parse()
        if out is None:
            vec = {}
        else:
            deg, vec = out
            if deg != i + j:
                raise CdgaError(f"product {key!r} has degree {deg}, want {i + j}")
        if vec:
            put(i, ai, j, bj, vec)
            sign = ONE if (i * j) % 2 == 0 else -ONE
            if (j, bj) != (i, ai):
                put(j, bj, i, ai, {k: sign * c for k, c in vec.items()})
    # odd-degree squares are zero by omission; nonzero ones fail the
    # graded-commutativity check in check_cdga

    d_raw = data.get("d", {})
    if not isinstance(d_raw, dict):
        raise CdgaError('"d" must be an object')
    images = [[{} for _ in row] for row in names]
    mul = partial(_graded_mul, prod, top)
    for nm, val in sorted(d_raw.items()):
        if nm not in lookup:
            raise CdgaError(f'"d" key {nm!r} is not a basis name')
        i, k = lookup[nm]
        out = _ExprParser(str(val), lookup, mul).parse()
        if out is None:
            continue
        deg, vec = out
        if deg != i + 1:
            raise CdgaError(f"d({nm}) has degree {deg}, want {i + 1}")
        images[i][k] = vec
    diff = []
    for i in range(top + 1):
        rows = len(names[i + 1]) if i + 1 <= top else 0
        diff.append(SparseMatrix.from_columns(rows, images[i]))
    a = FiniteCdga(tuple(names), tuple(diff), prod)
    check_cdga(a)
    return a


def parse_cdga_element(a: FiniteCdga, text: str):
    """Parse a sum of rational multiples of basis names, with optional binary
    products, into (degree, vector).  Zero parses to (None, {})."""
    out = _ExprParser(str(text), _name_lookup(a.names), a.mul).parse()
    if out is None:
        return None, {}
    return out


def load_cdga(path) -> FiniteCdga:
    return _load_json(path, cdga_from_dict, CdgaError)


def action_from_dict(a: FiniteCdga, data: dict) -> GroupAction:
    if not isinstance(data, dict):
        raise CdgaError("action file must hold a JSON object")
    _reject_unknown_keys(data, ("elements", "table", "maps"), "an action")
    elements = data.get("elements")
    if not isinstance(elements, list) or not elements:
        raise CdgaError('"elements" must be a nonempty list')
    if not all(isinstance(g, str) for g in elements):
        raise CdgaError('"elements" must be a list of element names')
    table_raw = data.get("table", {})
    if not isinstance(table_raw, dict):
        raise CdgaError('"table" must be an object')
    table = {}
    for key, val in table_raw.items():
        parts = key.split(",")
        if len(parts) != 2:
            raise CdgaError(f"table key must be 'g,h', got {key!r}")
        if not isinstance(val, str):
            raise CdgaError(f"table value at {key!r} must be an element name")
        table[(parts[0], parts[1])] = val
    lookup = _name_lookup(a.names)
    maps_raw = data.get("maps", {})
    if not isinstance(maps_raw, dict):
        raise CdgaError('"maps" must be an object')
    morphisms = {}
    for g in elements:
        given = maps_raw.get(g, {})
        if not isinstance(given, dict):
            raise CdgaError(f'"maps"[{g!r}] must be an object')
        mats = [SparseMatrix.identity(1)]
        for i in range(1, a.top + 1):
            columns = []
            for nm in a.names[i]:
                out = _ExprParser(str(given.get(nm, nm)), lookup, a.mul).parse()
                if out is None:
                    columns.append({})
                    continue
                deg, vec = out
                if deg != i:
                    raise CdgaError(f"action image of {nm!r} has degree {deg}")
                columns.append(vec)
            mats.append(SparseMatrix.from_columns(a.dim(i), columns))
        morphisms[g] = CdgaMorphism(a, a, tuple(mats))
        check_morphism(morphisms[g])
    return GroupAction(tuple(elements), table, morphisms)


def load_action(a: FiniteCdga, path) -> GroupAction:
    return _load_json(path, partial(action_from_dict, a), CdgaError)
