"""Chevalley-Eilenberg complexes of nilpotent Lie algebras, flat connections,
classifying maps, and the stability checks on towers of nilpotent quotients.

The cochain complex of a finite-dimensional nilpotent Lie algebra is built as
a finite cdga on the exterior algebra of the dual space, with d = -beta* on
generators extended by the graded Leibniz rule.  It is an exterior stage: its
product is computed by rule (cdga.WedgeProduct) and never stored.  The Jacobi
identity is checked as d^2 = 0 on generators, to which it is equivalent
(Chevalley-Eilenberg 1948).  That is the one axiom check a stage gets: the
others hold by construction, and cdga's constructors check shapes only.  Lie
algebra homology by weight is read off the same stage, dual to its
cohomology.  On top of those sit Maurer-Cartan
connections (d omega + 1/2 [omega, omega] = 0), the cdga morphisms C(g) -> A
they induce (extended multiplicatively from degree 1, so they commute with d
iff the connection is flat, which verify_one_equivalence checks), the
canonical connections of the holonomy tower, and the finite-stage
1-equivalence, stability, and canonical-filtration checks.  A later tower
stage is a Hirsch extension of an earlier one, so the H^2 kernels those
checks compare are read off the new generators' d, with no stage map built.
When the tower's top is graded, d keeps weight and the cochains of weight
> n form a dg-ideal and a direct summand of stage n, which holds no H^1 or H^2
there (Hopf: the relators of h/Gamma_n have weight <= n).  So stage n is
built in weights <= n only, and H^1, H^2 and the maps on them read the same.

Exterior bases are tuples of strictly increasing basis indices; every sign
comes from counting transpositions, so results are bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import combinations

from .cdga import (
    CdgaMorphism,
    FiniteCdga,
    WedgeProduct,
    _cohomology_data,
    _merge_wedge,
    cohomology,
    holonomy,
    induced_cohomology_matrix,
)
from .fplie import NilpotentLieAlgebra, lcs_quotient
from .ratlin import (
    ONE,
    ZERO,
    EchelonForm,
    LieobstructError,
    SparseMatrix,
    Subspace,
    _Frozen,
    kernel,
    rank,
    scal,
    vec_add,
)

__all__ = [
    "CeComplex",
    "CeError",
    "HirschTower",
    "canonical_connection",
    "canonical_filtration",
    "ce_cochain",
    "check_stability",
    "hirsch_tower",
    "is_flat",
    "lie_homology_by_weight",
    "tower_from_cdga",
    "verify_one_equivalence",
]


class CeError(LieobstructError, ValueError):
    pass


class CeComplex(_Frozen):
    """Cochain cdga of a nilpotent Lie algebra through degree 3.  Its
    WedgeProduct holds the exterior index tuples backing each named basis
    element."""

    __slots__ = _fields = ("algebra", "cdga")

    def __init__(self, algebra: NilpotentLieAlgebra, cdga: FiniteCdga):
        self._fill(algebra, cdga)

    @property
    def tuples(self) -> tuple:
        return self.cdga.prod.tuples

    @property
    def positions(self) -> tuple:
        return self.cdga.prod.positions


def _d_on_generators(g: NilpotentLieAlgebra) -> list:
    """d(u_k) = -sum over i < j of c_ij^k u_i^u_j, as one {(i, j): coefficient}
    per basis index k."""
    d_gen = [{} for _ in range(g.dim)]
    for pair, table in g.brackets.items():
        for k, c in table.items():
            if c:
                d_gen[k][pair] = -c
    return d_gen


def ce_cochain(g: NilpotentLieAlgebra, cap: int = None) -> CeComplex:
    """The Chevalley-Eilenberg cochain cdga of g through degree 3, as an
    exterior stage.  d on degree 2 is built from d on generators by the
    Leibniz rule, and d^2 = 0 on generators is checked: it is equivalent to
    the Jacobi identity for the structure constants.  With a cap, for a
    graded g with no weight above it, only the weights <= cap are built: a
    direct summand as a complex, and the quotient by the rest as a cdga."""
    m = g.dim
    if cap is not None and not (_graded(g) and max(g.weights, default=0) <= cap):
        raise CeError("a weight cap needs graded structure constants under it")
    full = WedgeProduct(m, 3, g.weights, cap)
    tuples, positions = full.tuples, full.positions
    names = [("1",)]
    for n in range(1, 4):
        names.append(
            tuple("^".join(f"u{i + 1}" for i in t) for t in tuples[n])
        )

    d_gen = [{positions[2][t]: c for t, c in col.items()} for col in _d_on_generators(g)]

    def d_pair(i: int, j: int) -> dict:
        # d(u_i^u_j) = d(u_i)^u_j - u_i^d(u_j) = d(u_i)^u_j - d(u_j)^u_i
        acc: dict = {}
        for factor, other, sgn in ((i, j, 1), (j, i, -1)):
            for p, c in d_gen[factor].items():
                w = _merge_wedge(tuples[2][p], (other,))
                if w is None:
                    continue
                ws, wt = w
                pos = positions[3][wt]
                acc[pos] = acc.get(pos, ZERO) + sgn * ws * c
        return {pos: c for pos, c in acc.items() if c}

    d_pairs = [d_pair(i, j) for i, j in tuples[2]]
    d2 = SparseMatrix.from_columns(len(tuples[3]), d_pairs)
    if any(d2.matvec(v) for v in d_gen):
        raise CeError("structure constants fail the Jacobi identity")
    diff = (
        SparseMatrix(m, 1),
        SparseMatrix.from_columns(len(tuples[2]), d_gen),
        d2,
        SparseMatrix(0, len(tuples[3])),
    )
    return CeComplex(g, FiniteCdga(tuple(names), diff, full))


# ---------------------------------------------------------------------------
# homology by weight

def _graded(g: NilpotentLieAlgebra) -> bool:
    """Whether every nonzero c_ij^k has w_k = w_i + w_j."""
    w = g.weights
    return all(w[k] == w[i] + w[j] for (i, j), table in g.brackets.items()
               for k, c in table.items() if c)


def _require_graded(g: NilpotentLieAlgebra):
    if not _graded(g):
        raise CeError(
            "weight-split homology needs strictly graded structure constants"
        )


def lie_homology_by_weight(g: NilpotentLieAlgebra, n: int) -> dict:
    """dim of the weight-w piece of H_n(g), for a weight-graded g and
    0 <= n <= 2.  Over Q, H_n(g) is dual to H^n(g), and on a graded g the
    cochain differential keeps weight.  So the weight-w piece has dimension
    the number of n-tuples of weight w, less the ranks in weight w of d from
    degree n - 1 and from degree n, read off ce_cochain, which stops at
    degree 3."""
    if not 0 <= n <= 2:
        raise CeError(f"homology degree must be 0, 1 or 2, got {n}")
    _require_graded(g)
    ce = ce_cochain(g)

    def weight(t):
        return sum(g.weights[i] for i in t)

    dims = Counter(weight(t) for t in ce.tuples[n])
    for i in range(max(n - 1, 0), n + 1):
        d, echs = ce.cdga.diff[i], defaultdict(EchelonForm)
        for j, t in enumerate(ce.tuples[i]):
            if col := d.col(j):
                echs[weight(t)].insert(col)
        for w, ech in echs.items():
            dims[w] -= ech.rank
    return {w: c for w, c in sorted(dims.items()) if c}


# ---------------------------------------------------------------------------
# flat connections

def _connection_columns(a: FiniteCdga, g: NilpotentLieAlgebra, omega: dict):
    """omega as one A^1 column per Lie algebra basis index, validated."""
    cols: dict = {}
    for key, c in omega.items():
        try:
            i, k = key
        except (TypeError, ValueError):
            raise CeError("connection entries are keyed by (cdga index, g index)")
        if not 0 <= i < a.dim(1) or not 0 <= k < g.dim:
            raise CeError(f"connection entry {key} out of range")
        try:
            c = scal(c)
        except ValueError as exc:
            raise CeError(str(exc)) from exc
        if c:
            cols.setdefault(k, {})[i] = c
    return cols


def is_flat(a: FiniteCdga, g: NilpotentLieAlgebra, omega: dict) -> bool:
    """Whether d omega + 1/2 [omega, omega] = 0 in A^2 tensor g.  Its g
    component r is d of omega's column r plus, over pairs k < l of columns,
    c_kl^r times the product of columns k and l."""
    cols = _connection_columns(a, g, omega)
    defect = {k: a.d_apply(1, col) for k, col in cols.items()}
    for k, l in combinations(sorted(cols), 2):
        br = g.brackets.get((k, l))
        if not br:
            continue
        pair = a.mul(1, cols[k], 1, cols[l])
        if not pair:
            continue
        for r, c in br.items():
            defect[r] = vec_add(defect.get(r, {}), pair, c)
    return not any(defect.values())


def _morphism_from_connection(a, ce: CeComplex, omega: dict) -> CdgaMorphism:
    """The map C(g) -> a sending generator k to its omega column, extended
    multiplicatively.  It is multiplicative by construction and commutes
    with d iff omega is flat; neither is checked here."""
    g = ce.algebra
    cols = _connection_columns(a, g, omega)

    def image1(k):
        return cols.get(k, {})

    maps = [
        SparseMatrix.identity(1),
        SparseMatrix.from_columns(a.dim(1), [image1(k) for k in range(g.dim)]),
        SparseMatrix.from_columns(
            a.dim(2), [a.mul(1, image1(k), 1, image1(l)) for k, l in ce.tuples[2]]
        ),
    ]
    if a.dim(3) == 0:
        # nothing in degree 3 to land in, so no product is formed
        maps.append(SparseMatrix(0, len(ce.tuples[3])))
    else:
        maps.append(
            SparseMatrix.from_columns(
                a.dim(3),
                [
                    a.mul(1, image1(k), 2, maps[2].col(ce.positions[2][(l, r)]))
                    for k, l, r in ce.tuples[3]
                ],
            )
        )
    return CdgaMorphism(ce.cdga, a, tuple(maps))


# ---------------------------------------------------------------------------
# canonical connections and classifying maps

def canonical_connection(a: FiniteCdga, n: int):
    """(h(a)/Gamma_n, the canonical connection omega_n): each degree-1 basis
    element pairs with the class of its dual holonomy generator."""
    if n < 1:
        raise CeError(f"stage must be >= 1, got {n}")
    g = lcs_quotient(holonomy(a), n)
    return g, _canonical_omega(g)


def _canonical_omega(g: NilpotentLieAlgebra) -> dict:
    """The canonical connection read off the images of the holonomy
    generators in a quotient of the holonomy Lie algebra."""
    return {(i, k): c for i, img in enumerate(g.gen_images) for k, c in img.items()}


# ---------------------------------------------------------------------------
# towers

class HirschTower(_Frozen):
    """Chevalley-Eilenberg stages C(h/Gamma_n) for 2 <= n <= max_stage, cut
    from top = h/Gamma_(max_stage + 1).

    Stage n is top cut to weights < n, a prefix of its basis.  top respects
    the weight filtration (lcs_quotient checks it), so d of a weight-k
    generator uses only pairs of weight < k: stage m is a Hirsch extension
    of stage n < m by construction.  Stage max_stage + 1 is never built;
    the H^2 kernels into it read top's brackets alone (_h2_kernel).  top's d
    on generators and each H^2 kernel are kept in private memos, which
    equality and repr ignore.
    """

    _fields = ("max_stage", "stages", "top")
    __slots__ = _fields + ("_d_top", "_kernels")

    def __init__(self, max_stage: int, stages: dict, top: NilpotentLieAlgebra):
        self._fill(max_stage, stages, top, _d_on_generators(top), {})


def hirsch_tower(p, max_stage: int = 5) -> HirschTower:
    """Stages 2..max_stage of the tower of cochain cdgas of the nilpotent
    quotients of a finitely presented Lie algebra.  One quotient is built,
    for top; stage n is its cut to weights < n, which lcs_quotient(p, n)
    equals (see HirschTower)."""
    if max_stage < 2:
        raise CeError(f"tower needs max stage >= 2, got {max_stage}")
    return _tower(lcs_quotient(p, max_stage + 1), max_stage)


def _tower(top: NilpotentLieAlgebra, max_stage: int) -> HirschTower:
    """The stages cut from top, each capped at weight n when top is graded.
    top is generated in weight 1, as every lcs_quotient is, so Hopf's bound
    on the weights of H^2 holds."""
    graded = _graded(top)
    stages = {n: ce_cochain(top.truncate(n), n if graded else None)
              for n in range(2, max_stage + 1)}
    return HirschTower(max_stage, stages, top)


def tower_from_cdga(a: FiniteCdga, max_stage: int = 5) -> HirschTower:
    return hirsch_tower(holonomy(a), max_stage)


def _h2_kernel(tower: HirschTower, n: int, m: int) -> Subspace:
    """ker(H^2(stage n) -> H^2(stage m)) for n < m <= max_stage + 1, in stage
    n's H^2 class coordinates, computed once per tower."""
    ker = tower._kernels.get((n, m))
    if ker is None:
        ker = tower._kernels[n, m] = _killed_classes(tower, n, m)
    return ker


def _killed_classes(tower: HirschTower, n: int, m: int) -> Subspace:
    """Stage m is stage n with new generators v adjoined, so a class of
    stage n dies there iff it is [dv] for a combination v of them whose dv
    has no pair outside stage n.  On a capped stage, whose classes have
    weight <= n, only the weight-n generators can kill one, and each pair
    of their d lies in stage n."""
    ce_n = tower.stages[n]
    dim_n = ce_n.algebra.dim
    last = n + 1 if ce_n.cdga.prod.cap is not None else m
    dim_m = sum(1 for w in tower.top.weights if w < last)
    outside: dict = {}
    inner, outer = [], []
    for col in tower._d_top[dim_n:dim_m]:
        inner.append({ce_n.positions[2][t]: c for t, c in col.items() if t[1] < dim_n})
        outer.append(
            {outside.setdefault(t, len(outside)): c for t, c in col.items() if t[1] >= dim_n}
        )
    d_inner = SparseMatrix.from_columns(len(ce_n.tuples[2]), inner)
    combos = kernel(SparseMatrix.from_columns(len(outside), outer)).basis_rows
    h2 = _cohomology_data(ce_n.cdga, 2)
    return Subspace.span([h2.class_coords(d_inner.matvec(v)) for v in combos], h2.dim)


# ---------------------------------------------------------------------------
# stage checks

def verify_one_equivalence(a: FiniteCdga, tower: HirschTower, n: int) -> dict:
    """Finite-stage form of the classifying map being a 1-minimal model map:
    H^1(f_n) bijective, and every H^2 class of stage n killed by f_n already
    dies one stage up the tower.  The tower is the one of a's holonomy;
    stage max_stage + 1 is read off its top quotient."""
    if not 2 <= n <= tower.max_stage:
        raise CeError(f"need 2 <= n <= {tower.max_stage}, got n={n}")
    ce_n = tower.stages[n]
    g_n = ce_n.algebra
    omega = _canonical_omega(g_n)
    if not is_flat(a, g_n, omega):
        raise CeError("canonical connection failed the Maurer-Cartan check")
    f = _morphism_from_connection(a, ce_n, omega)
    h1 = induced_cohomology_matrix(f, 1)
    h1_iso = h1.rows == h1.cols and rank(h1) == h1.rows
    ker_f = kernel(induced_cohomology_matrix(f, 2))
    ker_q = _h2_kernel(tower, n, n + 1)
    # ker f lies in ker q iff adding its rows leaves ker q's span unchanged
    both = Subspace.span(ker_q.basis_rows + ker_f.basis_rows, ker_q.ambient)
    return {"h1_iso": h1_iso, "h2_kernel_inclusion": both == ker_q}


def check_stability(tower: HirschTower, m: int, n: int) -> dict:
    """Stability of the defining filtration between stages n < m: the H^1
    stage map is bijective (it is injective since d is zero in degree 0, so
    this is equal H^1 dimensions), and the H^2 kernel into stage m equals
    the H^2 kernel into stage n+1."""
    if not 2 <= n < m <= tower.max_stage:
        raise CeError(f"need 2 <= n < m <= {tower.max_stage}, got n={n} m={m}")
    prop_i = cohomology(tower.stages[n].cdga, 1)[0] == cohomology(tower.stages[m].cdga, 1)[0]
    prop_ii = _h2_kernel(tower, n, m) == _h2_kernel(tower, n, n + 1)
    return {"prop_i": prop_i, "prop_ii": prop_ii}


def canonical_filtration(tower: HirschTower) -> dict:
    """Run the W filtration recursion W^(n+1) = (d restricted to V)^(-1) of
    the second exterior power of W^n inside the top stage, and compare with
    the defining filtration V^n = dual of h/Gamma_n.

    W only grows: W^1 = 0, and W^(n-1) <= W^n gives the same of their
    exterior squares, hence W^n <= W^(n+1).  So one echelon holds the
    exterior square across stages.  A row of W^n that raises the rank of
    W's basis so far is added to it, with its products by the basis rows
    before it: new^old and new^new."""
    top = tower.stages[tower.max_stage]
    mdim = top.algebra.dim
    d1 = top.cdga.diff[1]
    pair_count = len(top.tuples[2])
    w_ech, ech, basis = EchelonForm(), EchelonForm(), []
    w = Subspace.span([], mdim)
    report = {}
    all_equal = True
    for stage in range(2, tower.max_stage + 1):
        for row in w.basis_rows:
            if w_ech.insert(row)[0]:
                for old in basis:
                    ech.insert(top.cdga.mul(1, old, 1, row))
                basis.append(row)
        w = kernel(
            SparseMatrix.from_columns(
                pair_count, [ech.reduce(d1.col(t))[0] for t in range(mdim)]
            )
        )
        v_dim = tower.stages[stage].algebra.dim
        expected = Subspace.span([{k: ONE} for k in range(v_dim)], mdim)
        equal = w == expected
        all_equal = all_equal and equal
        report[stage] = {"w_dim": w.dim, "v_dim": v_dim, "equal": equal}
    return {"stages": report, "all_equal": all_equal}
