"""Chevalley-Eilenberg complexes, flat connections, classifying maps, and
the tower stability checks.

The chain complex (ce_chain_boundary, the boundary on every exterior power,
read through bracket_vec) is the oracle for the cochain stage: its degree-2
boundary is the transpose of d on generators, homology_dim reads H_n off it,
and its weight split (chain_homology_by_weight) is the reference for
lie_homology_by_weight, which reads H_n by weight off ce_cochain by duality.
The Maurer-Cartan defect over every pair of connection columns, through
bracket_vec (mc_defect), is the reference for is_flat.  Exterior products by
rule are checked against a stored table (wedge_table_reference), H^2 kernels
read off the top quotient against composed stage inclusions
(reference_inclusions), and the degree-3 shortcut of the classifying map
against its product loop.  A tower whose stages are capped by weight is
checked against the same tower on full stages (full_tower), its H^2
classes read there through h2_to_full.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieobstruct import data_path
from lieobstruct.cdga import (
    CdgaError,
    CdgaMorphism,
    FiniteCdga,
    WedgeProduct,
    _CohomologyData,
    _cohomology_data,
    _merge_wedge,
    cdga_from_dict,
    check_cdga,
    check_morphism,
    cohomology,
    holonomy,
    identity_morphism,
    induced_cohomology_matrix,
    load_cdga,
)
from lieobstruct.ce import (
    CeError,
    HirschTower,
    _canonical_omega,
    _graded,
    _h2_kernel,
    _tower,
    _morphism_from_connection,
    canonical_connection,
    _connection_columns,
    _require_graded,
    canonical_filtration,
    ce_cochain,
    check_stability,
    hirsch_tower,
    is_flat,
    lie_homology_by_weight,
    tower_from_cdga,
    verify_one_equivalence,
)
from lieobstruct.fplie import (
    NilpotentLieAlgebra,
    finiteness_scan,
    h2_graded,
    lcs_quotient,
    load_presentation,
    presentation_from_dict,
)
from lieobstruct.freelie import format_element
from lieobstruct.ratlin import ZERO, EchelonForm, SparseMatrix, Subspace, kernel, rank, vec_add
from test_cdga import truncate
from test_fplie import check_jacobi, random_relator_list

ONE = Fraction(1)

FREE2 = presentation_from_dict({"generators": ["x", "y"], "relators": []})
HEIS_ALG = lcs_quotient(FREE2, 3)

HEIS = load_cdga(data_path("heis.json"))
NONCARNOT = load_cdga(data_path("noncarnot.json"))
TORUS = load_cdga(data_path("torus.json"))
WEDGE2 = load_cdga(data_path("wedge2.json"))
ALL_CDGAS = [HEIS, NONCARNOT, TORUS, WEDGE2]


def abelian(n):
    p = presentation_from_dict(
        {"generators": [f"g{i}" for i in range(n)], "relators": []}
    )
    return lcs_quotient(p, 2)


def random_cdga(seed, gens, classes):
    """A seeded cdga with d = 0 and top degree 2: each product of two
    degree-1 basis elements is a random integer combination of the
    degree-2 basis."""
    rng = random.Random(seed)
    ones = [f"a{i + 1}" for i in range(gens)]
    twos = [f"b{k + 1}" for k in range(classes)]
    mu = {}
    for i, j in combinations(range(gens), 2):
        terms = []
        for name in twos:
            c = rng.randint(-2, 2)
            if c:
                terms.append(f"{'-' if c < 0 else '+'}{abs(c)}*{name}")
        if terms:
            mu[f"{ones[i]}*{ones[j]}"] = "".join(terms)
    return cdga_from_dict({"degrees": {"1": ones, "2": twos}, "d": {}, "mu": mu})


RANDOM_CDGAS = [random_cdga(5, 3, 2), random_cdga(6, 4, 4)]


def ce_chain_boundary(g: NilpotentLieAlgebra, n: int) -> SparseMatrix:
    """The boundary matrix from the n-th to the (n-1)-st exterior power."""
    if n < 0:
        raise CeError(f"chain degree must be >= 0, got {n}")
    m = g.dim
    if n == 0:
        return SparseMatrix(0, 1, {})
    rows = {t: i for i, t in enumerate(combinations(range(m), n - 1))}
    columns = []
    for t in combinations(range(m), n):
        vec: dict = {}
        for a in range(n):
            for b in range(a + 1, n):
                br = g.bracket_vec({t[a]: ONE}, {t[b]: ONE})
                if not br:
                    continue
                rest = t[:a] + t[a + 1:b] + t[b + 1:]
                sign0 = 1 if (a + b) % 2 == 0 else -1
                for k, c in br.items():
                    w = _merge_wedge(rest, (k,))
                    if w is None:
                        continue
                    sgn, wt = w
                    key = rows[wt]
                    v = vec.get(key, ZERO) + sign0 * sgn * c
                    if v:
                        vec[key] = v
                    else:
                        del vec[key]
        columns.append(vec)
    return SparseMatrix.from_columns(len(rows), columns)


def chain_homology_by_weight(g, n):
    """dim of the weight-w piece of H_n(g), for a weight-graded g, from the
    chain complex: lie_homology_by_weight as it was before it read the
    cochain stage."""
    if n < 0:
        raise CeError(f"homology degree must be >= 0, got {n}")
    _require_graded(g)

    def tuple_weight(t):
        return sum(g.weights[i] for i in t)

    def ranks_by_weight(step):
        mat = ce_chain_boundary(g, step)
        cols = list(combinations(range(g.dim), step))
        echs: dict = {}
        for j, t in enumerate(cols):
            col = mat.col(j)
            if col:
                echs.setdefault(tuple_weight(t), EchelonForm()).insert(col)
        return {w: e.rank for w, e in echs.items()}

    counts: dict = {}
    for t in combinations(range(g.dim), n):
        w = tuple_weight(t)
        counts[w] = counts.get(w, 0) + 1
    r_n = ranks_by_weight(n) if n >= 1 else {}
    r_next = ranks_by_weight(n + 1)
    out = {}
    for w, c in sorted(counts.items()):
        d = c - r_n.get(w, 0) - r_next.get(w, 0)
        if d:
            out[w] = d
    return out


def mc_defect(a, g, omega):
    """d omega + 1/2 [omega, omega] as one A^2 vector per g basis index,
    with the bracket read through bracket_vec on unit vectors: is_flat as it
    was before it read the bracket table."""
    cols = _connection_columns(a, g, omega)
    defect = {}
    for k, col in cols.items():
        v: dict = {}
        for i, c in col.items():
            v = vec_add(v, a.d_apply(1, {i: ONE}), c)
        if v:
            defect[k] = v
    for k in sorted(cols):
        for l in sorted(cols):
            if l <= k:
                continue
            br = g.bracket_vec({k: ONE}, {l: ONE})
            if not br:
                continue
            pair = a.mul(1, cols[k], 1, cols[l])
            if not pair:
                continue
            for r, c in br.items():
                cur = vec_add(defect.get(r, {}), pair, c)
                if cur:
                    defect[r] = cur
                elif r in defect:
                    del defect[r]
    return {k: v for k, v in defect.items() if v}


def homology_dim(g, n):
    """dim H_n(g) = dim ker(del_n) - rank(del_(n+1))."""
    return comb(g.dim, n) - rank(ce_chain_boundary(g, n)) - rank(ce_chain_boundary(g, n + 1))


def classifying_map(a, n):
    """The stage-n classifying map C(h(a)/Gamma_n) -> a at the canonical
    connection."""
    g, omega = canonical_connection(a, n)
    assert is_flat(a, g, omega)
    return _morphism_from_connection(a, ce_cochain(g), omega)


def wedge_table_reference(ce):
    """The exterior stage with its product stored as a full table, built the
    way ce_cochain used to build it, a product that lands outside a capped
    stage's tuples left 0; check_cdga runs on it."""
    prod = {}
    top = ce.cdga.top
    for i in range(1, top):
        for j in range(1, top + 1 - i):
            table = {}
            for a, ta in enumerate(ce.tuples[i]):
                for b, tb in enumerate(ce.tuples[j]):
                    w = _merge_wedge(ta, tb)
                    if w is None:
                        continue
                    sgn, wt = w
                    if wt in ce.positions[i + j]:
                        table[(a, b)] = {ce.positions[i + j][wt]: Fraction(sgn)}
            if table:
                prod[(i, j)] = table
    ref = FiniteCdga(ce.cdga.names, ce.cdga.diff, prod)
    check_cdga(ref)
    return ref


def assert_same_products(a, b):
    assert a.names == b.names
    for i in range(a.top + 1):
        for j in range(a.top + 1 - i):
            for x in range(a.dim(i)):
                for y in range(a.dim(j)):
                    assert a.mul(i, {x: ONE}, j, {y: ONE}) == b.mul(i, {x: ONE}, j, {y: ONE})


# ---------------------------------------------------------------------------
# cochain cdga


def test_heisenberg_cochain_differential():
    ce = ce_cochain(HEIS_ALG)
    # d(u3) = -u1^u2, the other generators are closed
    assert ce.cdga.diff[1].columns == {2: {0: Fraction(-1)}}
    assert ce.cdga.names[1] == ("u1", "u2", "u3")
    assert ce.cdga.names[2] == ("u1^u2", "u1^u3", "u2^u3")


def test_heisenberg_cochain_betti():
    ce = ce_cochain(HEIS_ALG)
    assert [cohomology(ce.cdga, i)[0] for i in range(4)] == [1, 2, 2, 1]


def test_cochain_matches_presentation_quotient():
    """The bundled Heisenberg presentation and the free class-2 quotient
    carry identical structure constants."""
    g = lcs_quotient(load_presentation(data_path("pres_heis.json")), 3)
    assert g.dim == HEIS_ALG.dim
    assert g.brackets == HEIS_ALG.brackets
    ce = ce_cochain(g)
    assert [cohomology(ce.cdga, i)[0] for i in range(4)] == [1, 2, 2, 1]


def test_abelian_cochain_is_closed():
    ce = ce_cochain(abelian(4))
    for n in range(1, 4):
        assert ce.cdga.diff[n].is_zero()


def jacobi_failure():
    return NilpotentLieAlgebra(
        class_bound=3,
        gen_names=("e1", "e2", "e3", "e4"),
        labels=("e1", "e2", "e3", "e4"),
        weights=(1, 1, 2, 1),
        brackets={(0, 1): {2: ONE}, (2, 3): {0: ONE}},
        gen_images=({0: ONE}, {1: ONE}, {2: ONE}, {3: ONE}),
    )


def test_cochain_rejects_jacobi_failure():
    bad = jacobi_failure()
    assert not check_jacobi(bad)
    with pytest.raises(CeError, match="Jacobi"):
        ce_cochain(bad)


def test_cochain_is_an_exterior_stage():
    ce = ce_cochain(HEIS_ALG)
    assert isinstance(ce.cdga.prod, WedgeProduct)
    # u1 * (u2^u3) is the top class, u2 * (u1^u3) its negative
    assert ce.cdga.mul(1, {0: ONE}, 2, {2: ONE}) == {0: ONE}
    assert ce.cdga.mul(1, {1: ONE}, 2, {1: ONE}) == {0: -ONE}
    assert ce.cdga.mul(1, {1: ONE}, 1, {1: ONE}) == {}


def test_exterior_products_match_table_reference():
    """The product by rule equals the old stored table on every basis pair,
    and the table-backed reference passes check_cdga, for stages 2-5 of
    every bundled model and two seeded random cdgas."""
    for a in ALL_CDGAS + RANDOM_CDGAS:
        for ce in tower_from_cdga(a, 5).stages.values():
            assert_same_products(ce.cdga, wedge_table_reference(ce))


def test_derived_objects_pass_the_axiom_checks():
    """The oracle for the checks no constructor runs: every tower stage
    passes check_cdga as built, the classifying maps at stages 2-5 pass
    check_morphism, and so do A[1] and its inclusion."""
    for a in ALL_CDGAS + RANDOM_CDGAS:
        for ce in tower_from_cdga(a, 5).stages.values():
            check_cdga(ce.cdga)
        for n in range(2, 6):
            check_morphism(classifying_map(a, n))
        a1, incl = truncate(a, 1)
        check_cdga(a1)
        check_morphism(incl)


def test_exterior_stage_checks_dimensions():
    ce = ce_cochain(HEIS_ALG)
    with pytest.raises(CdgaError, match="exterior"):
        FiniteCdga(ce.cdga.names, ce.cdga.diff, WedgeProduct(4, 3))
    with pytest.raises(CdgaError, match="stops below"):
        FiniteCdga(ce.cdga.names, ce.cdga.diff, WedgeProduct(3, 2))


def test_exterior_stage_rejects_leibniz_sign_flip():
    """A sign flip in one d(u_i^u_j) column that d^2 = 0 cannot see."""
    ce = ce_cochain(lcs_quotient(FREE2, 4))
    d1, d2 = ce.cdga.diff[1], ce.cdga.diff[2]
    hit = {p for k in range(d1.cols) for p in d1.col(k)}
    p = next(p for p in range(d2.cols) if d2.col(p) and p not in hit)
    cols = [d2.col(q) for q in range(d2.cols)]
    cols[p] = {r: -c for r, c in cols[p].items()}
    diff = list(ce.cdga.diff)
    diff[2] = SparseMatrix.from_columns(d2.rows, cols)
    with pytest.raises(CdgaError, match="Leibniz"):
        check_cdga(FiniteCdga(ce.cdga.names, tuple(diff), ce.cdga.prod))
    ref = wedge_table_reference(ce)
    with pytest.raises(CdgaError, match="Leibniz"):
        check_cdga(FiniteCdga(ref.names, tuple(diff), ref.prod))


def test_truncate_and_holonomy_match_table_reference():
    for a in ALL_CDGAS + RANDOM_CDGAS:
        for ce in tower_from_cdga(a, 4).stages.values():
            ref = wedge_table_reference(ce)
            for q in (1, 2):
                got, incl = truncate(ce.cdga, q)
                want, want_incl = truncate(ref, q)
                assert got.diff == want.diff
                assert_same_products(got, want)
                assert incl.maps == want_incl.maps
            p, want = holonomy(ce.cdga), holonomy(ref)
            assert p.generators == want.generators
            assert [format_element(r, p.generators) for r in p.scheme.relators] == [
                format_element(r, p.generators) for r in want.scheme.relators
            ]


# ---------------------------------------------------------------------------
# chain complex and homology


def test_boundary_shapes_and_low_degrees():
    g = HEIS_ALG
    assert ce_chain_boundary(g, 0).rows == 0
    assert ce_chain_boundary(g, 0).cols == 1
    d1 = ce_chain_boundary(g, 1)
    assert (d1.rows, d1.cols) == (1, 3)
    assert d1.is_zero()
    with pytest.raises(CeError):
        ce_chain_boundary(g, -1)


def test_heisenberg_boundary_two():
    # x1^x2 goes to -x3, the pairs containing x3 are killed
    d2 = ce_chain_boundary(HEIS_ALG, 2)
    assert d2.columns == {0: {2: Fraction(-1)}}


def test_heisenberg_boundary_three_vanishes():
    d3 = ce_chain_boundary(HEIS_ALG, 3)
    assert d3.is_zero()


def test_cochain_is_transpose_of_boundary():
    """The degree-one cochain differential is the plain transpose of the
    second boundary map; both pin c_ij^k with the same sign."""
    for g in (HEIS_ALG, lcs_quotient(FREE2, 4), lcs_quotient(FREE2, 5)):
        ce = ce_cochain(g)
        d2 = ce_chain_boundary(g, 2)
        d1 = ce.cdga.diff[1]
        assert (d1.rows, d1.cols) == (d2.cols, d2.rows)
        for k in range(d1.cols):
            assert d1.col(k) == {p: d2.col(p)[k] for p in range(d2.cols) if k in d2.col(p)}


def test_heisenberg_homology():
    assert [homology_dim(HEIS_ALG, n) for n in range(4)] == [1, 2, 2, 1]


def test_abelian_homology_is_binomial():
    g = abelian(4)
    for n in range(5):
        assert homology_dim(g, n) == comb(4, n)


def test_homology_by_weight_heisenberg():
    assert lie_homology_by_weight(HEIS_ALG, 2) == {3: 2}
    # the weight-2 class is a boundary, so H_1 sees only the generators
    assert lie_homology_by_weight(HEIS_ALG, 1) == {1: 2}


def test_homology_by_weight_needs_graded_input():
    ungraded = NilpotentLieAlgebra(
        class_bound=2,
        gen_names=("e1", "e2"),
        labels=("e1", "e2"),
        weights=(1, 1),
        brackets={(0, 1): {0: ONE}},
        gen_images=({0: ONE}, {1: ONE}),
    )
    with pytest.raises(CeError):
        lie_homology_by_weight(ungraded, 2)


def test_homology_by_weight_stops_at_degree_two():
    """The cochain stage stops at degree 3, so H_n by weight is read for
    0 <= n <= 2 only."""
    for n in (-1, 3):
        with pytest.raises(CeError, match="homology degree"):
            lie_homology_by_weight(HEIS_ALG, n)


def test_homology_by_weight_matches_the_chain_reference():
    """lie_homology_by_weight, read off the cochain stage, equals the chain
    complex's weight split for n = 0, 1, 2: on the nilpotent quotients of
    the bundled holonomies and presentations at classes 2-7, of the free
    algebra on two letters at classes 2-6, and of seeded homogeneous relator
    lists on 2-3 letters.  A quotient that is not graded (noncarnot's)
    raises CeError on both."""
    rng = random.Random(20261120)
    cases = [(holonomy(a), c) for a in ALL_CDGAS for c in range(2, 8)]
    cases += [(FREE2, c) for c in range(2, 7)]
    cases += [
        (load_presentation(data_path(name + ".json")), c)
        for name in ("pres_cubic", "pres_heis", "pres_noncarnot", "pres_torus", "free_metabelian")
        for c in range(2, 8)
    ]
    for n, top in ((2, 4), (3, 3)):
        for _ in range(8):
            p = random_relator_list(rng, n, top, rng.randint(1, 2), False, rng.random() < 0.5)
            cases += [(p, c) for c in range(2, 9 - n)]
    graded = Counter()
    for p, c in cases:
        g = lcs_quotient(p, c)
        try:
            want = [chain_homology_by_weight(g, n) for n in range(3)]
        except CeError:
            graded[False] += 1
            with pytest.raises(CeError, match="graded"):
                lie_homology_by_weight(g, 2)
            continue
        graded[True] += 1
        assert [lie_homology_by_weight(g, n) for n in range(3)] == want, (g.labels, c)
    assert graded[True] and graded[False]


def test_graded_h2_matches_hopf_formula():
    """Degreewise second homology of the class-(k+1) quotient agrees with
    the Hopf formula dimensions in every degree k up to six."""
    for name in ("pres_cubic", "pres_torus", "free_metabelian"):
        p = load_presentation(data_path(name + ".json"))
        fp = h2_graded(p, 6)
        for k in range(2, 7):
            g = lcs_quotient(p, k + 1)
            assert lie_homology_by_weight(g, 2).get(k, 0) == fp.get(k, 0)


def test_hopf_h2_with_degree_one_relators():
    """On homogeneous presentations with a degree-1 relator, h2_graded equals
    the weight-k part of H2 of the class-(k+1) quotient in every degree k,
    degree 1 included: there [L,L] is zero, so a relator like x in
    <x, y | x> kills a generator and is no second-homology class."""
    cases = [
        (["x", "y"], ["x"]),
        (["x", "y"], ["2*x - y"]),
        (["x", "y", "z"], ["x - 2*y", "[x,z]"]),
        (["x", "y", "z"], ["z", "[x,[x,y]]"]),
        (["x", "y", "z"], ["x + y + z", "[y,z]", "[x,[x,y]]"]),
        (["x", "y", "z", "w"], ["w - z", "[x,y] + [z,w]"]),
    ]
    for gens, relators in cases:
        p = presentation_from_dict({"generators": gens, "relators": relators})
        fp = h2_graded(p, 5)
        assert fp[1] == 0
        for k in range(1, 6):
            g = lcs_quotient(p, k + 1)
            assert lie_homology_by_weight(g, 2).get(k, 0) == fp[k], (relators, k)
    p = presentation_from_dict({"generators": ["x", "y"], "relators": ["x"]})
    assert h2_graded(p, 1) == {1: 0}
    assert finiteness_scan(p, 1)["verdict"] == "bounded-so-far"


def test_truncation_h2_dimension_formula():
    """dim H2 of the class-n quotient splits as the low-degree Hopf dims
    plus the top-weight correction dim L_n - dim J_n."""
    from lieobstruct.freelie import hall_basis_derived
    from lieobstruct.fplie import ideal_span

    for name in ("pres_cubic", "pres_torus"):
        p = load_presentation(data_path(name + ".json"))
        fp = h2_graded(p, 6)
        for n in (3, 4, 5):
            g = lcs_quotient(p, n)
            witt_n = sum(
                1 for w in hall_basis_derived(len(p.generators), 0, n)
                if w.degree == n
            )
            j_n = ideal_span(p, n).dim - ideal_span(p, n - 1).dim
            expected = sum(fp.get(k, 0) for k in range(2, n + 1)) + witt_n - j_n
            assert homology_dim(g, 2) == expected


# ---------------------------------------------------------------------------
# flat connections


def test_is_flat_matches_the_defect_reference():
    """is_flat equals an empty mc_defect on the canonical connections of the
    four bundled cdgas at stages 2-5 and on seeded perturbations of them:
    scaled, one entry shifted, or one entry set, flat and not flat."""
    rng = random.Random(20261121)
    flat = Counter()
    for a in ALL_CDGAS:
        for n in range(2, 6):
            g, omega = canonical_connection(a, n)
            cases = [omega]
            for _ in range(12):
                pert, kind = dict(omega), rng.randrange(3)
                if kind == 0:
                    c = Fraction(rng.choice((-2, -1, 2, 3)), rng.randint(1, 2))
                    pert = {key: c * v for key, v in pert.items()}
                elif kind == 1:
                    key = rng.choice(sorted(pert))
                    pert[key] += rng.choice((-1, 1))
                else:
                    key = (rng.randrange(a.dim(1)), rng.randrange(g.dim))
                    pert[key] = Fraction(rng.randint(-2, 2))
                cases.append(pert)
            for w in cases:
                got = is_flat(a, g, w)
                assert got == (not mc_defect(a, g, w)), (a.names, n, w)
                flat[got] += 1
    assert flat[True] > 20 and flat[False] > 20


def test_zero_connection_is_flat():
    assert is_flat(HEIS, HEIS_ALG, {})


def test_canonical_connections_are_flat():
    for a in ALL_CDGAS:
        for n in range(2, 6):
            g, omega = canonical_connection(a, n)
            assert is_flat(a, g, omega)


def test_nonflat_connection_detected():
    g = lcs_quotient(FREE2, 3)
    omega = {(0, 0): ONE, (1, 1): ONE}
    # on the torus algebra a1.a2 is the top class, so the bracket term of
    # the Maurer-Cartan equation cannot cancel
    assert not is_flat(TORUS, g, omega)
    # so the induced degreewise maps do not commute with d
    f = _morphism_from_connection(TORUS, ce_cochain(g), omega)
    with pytest.raises(CdgaError, match="commute with d"):
        check_morphism(f)


def test_connection_entries_validated():
    with pytest.raises(CeError):
        is_flat(HEIS, HEIS_ALG, {(7, 0): ONE})
    with pytest.raises(CeError):
        is_flat(HEIS, HEIS_ALG, {(0, 9): ONE})
    with pytest.raises(CeError):
        is_flat(HEIS, HEIS_ALG, {(0, 0): 0.5})


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1)),
        st.fractions(min_value=-3, max_value=3),
        max_size=4,
    )
)
def test_abelian_target_makes_everything_flat(omega):
    """With zero differential and an abelian target both Maurer-Cartan
    terms vanish identically."""
    g = abelian(2)
    omega = {k: v for k, v in omega.items() if v}
    assert is_flat(WEDGE2, g, omega)


def test_flat_morphism_recovers_connection():
    g, omega = canonical_connection(HEIS, 3)
    f = _morphism_from_connection(HEIS, ce_cochain(g), omega)
    assert {(i, k): c for k in range(g.dim) for i, c in f.maps[1].col(k).items()} == omega
    # u3 is sent to -a3
    assert f.apply(1, {2: ONE}) == {2: Fraction(-1)}
    # multiplicativity forces u1^u2 to a12
    assert f.apply(2, {0: ONE}) == {0: ONE}


def test_zero_connection_morphism_kills_positive_degrees():
    f = _morphism_from_connection(HEIS, ce_cochain(HEIS_ALG), {})
    for i in range(1, 4):
        assert f.maps[i].is_zero()


def test_degree3_shortcut_matches_the_product_loop():
    """A target with nothing in degree 3 gets the zero degree-3 map the
    product loop over exterior triples would build."""
    triples = 0
    for a in (WEDGE2, TORUS):
        assert a.dim(3) == 0
        for n in range(3, 7):
            g, omega = canonical_connection(a, n)
            ce = ce_cochain(g)
            f = _morphism_from_connection(a, ce, omega)
            loop = SparseMatrix.from_columns(
                a.dim(3),
                [
                    a.mul(1, f.maps[1].col(k), 2, f.maps[2].col(ce.positions[2][(l, r)]))
                    for k, l, r in ce.tuples[3]
                ],
            )
            assert f.maps[3] == loop
            triples += len(ce.tuples[3])
    assert triples


# ---------------------------------------------------------------------------
# classifying maps


def test_classifying_stage_two():
    f = classifying_map(HEIS, 2)
    # the class-2 quotient is the 2-dimensional abelianization
    assert f.source.dim(1) == 2
    assert f.maps[1].columns == {0: {0: ONE}, 1: {1: ONE}}


def test_classifying_stage_three_gains_a_weight_two_class():
    f = classifying_map(HEIS, 3)
    assert f.source.dim(1) == 3
    assert f.apply(1, {2: ONE}) == {2: Fraction(-1)}


def test_classifying_stages_are_tower_compatible():
    """On the full reference of the (capped) heis tower; the capped stage's
    classifying map is the full one's restriction."""
    tower = full_tower(tower_from_cdga(HEIS, 3))
    f2 = classifying_map(HEIS, 2)
    f3 = classifying_map(HEIS, 3)
    composed = f3.compose(_stage_inclusion(tower.stages[2], tower.stages[3]))
    assert composed.maps == f2.maps
    capped = tower_from_cdga(HEIS, 3).stages[3]
    g = capped.algebra
    f = _morphism_from_connection(HEIS, capped, _canonical_omega(g))
    for deg in (1, 2, 3):
        for t, k in capped.positions[deg].items():
            assert f.maps[deg].col(k) == f3.maps[deg].col(tower.stages[3].positions[deg][t])


def with_column(f, degree, k, vec):
    maps = list(f.maps)
    m = maps[degree]
    cols = [m.col(c) for c in range(m.cols)]
    cols[k] = vec
    maps[degree] = SparseMatrix.from_columns(m.rows, cols)
    return tuple(maps)


def test_classifying_map_wrong_degree_two_column_rejected():
    # the torus has d = 0, so only multiplicativity sees u1^u2 -> 2 a1.a2
    f = classifying_map(TORUS, 3)
    col = f.maps[2].col(0)
    assert col
    maps = with_column(f, 2, 0, {r: 2 * c for r, c in col.items()})
    with pytest.raises(CdgaError, match="not multiplicative"):
        check_morphism(CdgaMorphism(f.source, f.target, maps))


def test_classifying_map_wrong_degree_three_column_rejected():
    # d vanishes on the degree-2 cochains of the Heisenberg algebra, so only
    # multiplicativity sees a wrong image of u1^u2^u3
    f = classifying_map(HEIS, 3)
    assert f.source.diff[2].is_zero()
    col = f.maps[3].col(0)
    assert col
    maps = with_column(f, 3, 0, {r: 2 * c for r, c in col.items()})
    with pytest.raises(CdgaError, match="not multiplicative"):
        check_morphism(CdgaMorphism(f.source, f.target, maps))


# ---------------------------------------------------------------------------
# finite-stage one-equivalence


def test_one_equivalence_all_examples():
    for a in ALL_CDGAS:
        tower = tower_from_cdga(a, 5)
        for n in (2, 3, 4):
            out = verify_one_equivalence(a, tower, n)
            assert out == {"h1_iso": True, "h2_kernel_inclusion": True}


def test_one_equivalence_sees_a_surviving_kernel():
    """wedge2 against the torus tower: H^1 still matches, but f kills the
    class of u1^u2 in stage 2, which stage 3 of the abelian tower keeps."""
    out = verify_one_equivalence(WEDGE2, tower_from_cdga(TORUS, 3), 2)
    assert out == {"h1_iso": True, "h2_kernel_inclusion": False}


def test_one_equivalence_needs_stage_two():
    with pytest.raises(CeError):
        verify_one_equivalence(HEIS, tower_from_cdga(HEIS, 3), 1)


def test_one_equivalence_needs_the_next_stage():
    """The top stage is checked against the tower's top quotient, one class
    above it; nothing above that is known to the tower."""
    tower = tower_from_cdga(HEIS, 3)
    assert verify_one_equivalence(HEIS, tower, tower.max_stage) == {
        "h1_iso": True,
        "h2_kernel_inclusion": True,
    }
    with pytest.raises(CeError):
        verify_one_equivalence(HEIS, tower, tower.max_stage + 1)


# ---------------------------------------------------------------------------
# towers


def _stage_inclusion(small, big):
    """The inclusion of a tower stage into a later one: each exterior index
    tuple goes to the same tuple, and check_morphism runs on it."""
    ds = small.algebra.dim
    maps = [
        SparseMatrix.identity(1),
        SparseMatrix.from_columns(big.algebra.dim, [{k: ONE} for k in range(ds)]),
    ]
    for deg in (2, 3):
        maps.append(
            SparseMatrix.from_columns(
                len(big.tuples[deg]),
                [{big.positions[deg][t]: ONE} for t in small.tuples[deg]],
            )
        )
    incl = CdgaMorphism(small.cdga, big.cdga, tuple(maps))
    check_morphism(incl)
    return incl


def reference_inclusions(t):
    """The adjacent stage inclusions n -> n + 1 of a tower, through stage
    max_stage + 1, the cochain cdga of its top quotient."""
    stages = {**t.stages, t.max_stage + 1: ce_cochain(t.top)}
    return {
        n: _stage_inclusion(stages[n], stages[n + 1]) for n in range(2, t.max_stage + 1)
    }


def _stage_map(inclusions, n, m, i):
    """H^i of the inclusion of stage n into stage m > n.  Cohomology is a
    functor and that inclusion is the composite of the adjacent ones, so its
    matrix is the product of theirs."""
    mat = induced_cohomology_matrix(inclusions[n], i)
    for k in range(n + 1, m):
        mat = induced_cohomology_matrix(inclusions[k], i).matmul(mat)
    return mat


def hand_tower(weights, brackets, max_stage):
    """The tower of a nilpotent Lie algebra given by its weights and bracket
    table, with stage n the cochain cdga of its cut to weights < n, capped
    at weight n when the table is graded (the capped stages are checked
    against full ones wherever they are used, since a hand-built algebra
    need not be generated in weight 1)."""
    labels = tuple(f"e{k + 1}" for k in range(len(weights)))
    g = NilpotentLieAlgebra(
        class_bound=max_stage + 1,
        gen_names=labels[:2],
        labels=labels,
        weights=tuple(weights),
        brackets=brackets,
        gen_images=({0: ONE}, {1: ONE}),
    )
    return _tower(g, max_stage)


def full_tower(t):
    """t with every stage built in all weights: the reference for a capped
    tower, and t itself when it is not capped."""
    stages = {n: ce_cochain(c.algebra) for n, c in t.stages.items()}
    return HirschTower(t.max_stage, stages, t.top)


def h2_to_full(capped, full):
    """The matrix taking H^2 class coordinates of a capped stage to those of
    the full stage of the same algebra: each capped representative is a
    cocycle of weight <= cap, read in the full stage."""
    src, tgt = _cohomology_data(capped.cdga, 2), _cohomology_data(full.cdga, 2)
    tuples, positions = capped.tuples[2], full.positions[2]
    return SparseMatrix.from_columns(tgt.dim, [
        tgt.class_coords({positions[tuples[p]]: c for p, c in rep.items()})
        for rep in src.reps
    ])


def kernel_in_full(capped, full, ker):
    """A subspace of the capped stage's H^2, in the full stage's classes."""
    to_full = h2_to_full(capped, full)
    return Subspace.span([to_full.matvec(r) for r in ker.basis_rows], to_full.rows)


def test_tower_stage_dims():
    t = tower_from_cdga(HEIS, 5)
    assert {n: c.algebra.dim for n, c in t.stages.items()} == {2: 2, 3: 3, 4: 3, 5: 3}
    t = tower_from_cdga(WEDGE2, 5)
    # free Lie algebra on two generators: 2, 1, 2, 3 new classes per weight
    assert {n: c.algebra.dim for n, c in t.stages.items()} == {2: 2, 3: 3, 4: 5, 5: 8}


def test_tower_inclusions_are_hirsch_extensions():
    for a in ALL_CDGAS:
        t = tower_from_cdga(a, 5)
        for n in range(2, 5):
            small = t.stages[n]
            big = t.stages[n + 1]
            ds = small.algebra.dim
            d1 = big.cdga.diff[1]
            for col in range(ds, d1.cols):
                for row in d1.col(col):
                    i, j = big.tuples[2][row]
                    assert i < ds and j < ds


def test_tower_stages_match_per_stage_quotients():
    """Each stage of a tower, cut from its top quotient, is the stage built
    from its own quotient: lcs_quotient(p, n) and its cochain cdga, capped
    at weight n when the quotient is graded.  noncarnot and pres_noncarnot
    are filtered, not graded."""
    inputs = [holonomy(a) for a in ALL_CDGAS + RANDOM_CDGAS]
    inputs += [
        load_presentation(data_path(name))
        for name in ("free_metabelian.json", "pres_noncarnot.json")
    ]
    ungraded = (inputs[ALL_CDGAS.index(NONCARNOT)], inputs[-1])
    for p in inputs:
        t = hirsch_tower(p, 5)
        assert t.top == lcs_quotient(p, 6)
        graded = _graded(t.top)
        assert graded == (p not in ungraded)
        for n in range(2, 6):
            own = lcs_quotient(p, n)
            assert t.stages[n].algebra == own
            assert t.stages[n].cdga == ce_cochain(own, n if graded else None).cdga


def test_h2_kernels_match_the_inclusion_reference():
    """_h2_kernel, read off the top quotient's bracket table, equals the
    kernel of H^2 of the composed stage inclusions, which pass
    check_morphism, for every 2 <= n < m <= max_stage + 1.  The inclusions
    are of the full stages; a capped stage's kernel is read in the full
    stage's classes."""
    inputs = [holonomy(a) for a in ALL_CDGAS + RANDOM_CDGAS]
    inputs += [
        holonomy(random_cdga(*args))
        for args in ((7, 3, 2), (8, 3, 1), (9, 4, 4), (10, 4, 5))
    ]
    inputs += [
        load_presentation(data_path(name))
        for name in ("free_metabelian.json", "pres_noncarnot.json")
    ]
    towers = [hirsch_tower(p, 5) for p in inputs] + [tower_from_cdga(WEDGE2, 6)]
    towers += [
        hand_tower((1, 1, 3), {(0, 1): {2: ONE}}, 4),
        hand_tower((1, 1, 2), {}, 3),
    ]
    for t in towers:
        full = full_tower(t)
        inclusions = reference_inclusions(full)
        for n in range(2, t.max_stage + 1):
            for m in range(n + 1, t.max_stage + 2):
                expected = kernel(_stage_map(inclusions, n, m, 2))
                got = kernel_in_full(t.stages[n], full.stages[n], _h2_kernel(t, n, m))
                assert got == expected, (t.top.labels, n, m)


CAPPED_CASES = [(a, 8) for a in (WEDGE2, TORUS, HEIS)] + [
    (random_cdga(*args), top) for args, top in (
        ((11, 3, 1), 5), ((12, 3, 2), 5), ((13, 4, 3), 5), ((14, 4, 5), 5),
        ((15, 5, 6), 4), ((16, 4, 4), 5))
]


def test_capped_stages_match_full_stages():
    """On graded towers (wedge2, torus and heis through stage 8, seeded d = 0
    cdgas through stage 4 or 5) every stage n is capped at weight n, and against
    the same stages built in all weights: H^1 and H^2 have the same
    dimensions, the capped H^2 classes map isomorphically onto the full
    ones, every H^2 kernel between stages agrees, n < m <= max + 1, and so
    does every one-equivalence, stability and filtration result."""
    for a, top in CAPPED_CASES:
        t = tower_from_cdga(a, top)
        full = full_tower(t)
        assert _graded(t.top)
        for n in range(2, top + 1):
            capped, ref = t.stages[n], full.stages[n]
            assert capped.cdga.prod.cap == n and ref.cdga.prod.cap is None
            for i in (1, 2):
                assert cohomology(capped.cdga, i)[0] == cohomology(ref.cdga, i)[0]
            to_full = h2_to_full(capped, ref)
            assert to_full.rows == to_full.cols == rank(to_full)
            for m in range(n + 1, top + 2):
                got = kernel_in_full(capped, ref, _h2_kernel(t, n, m))
                assert got == _h2_kernel(full, n, m), (a, n, m)
            assert verify_one_equivalence(a, t, n) == verify_one_equivalence(a, full, n)
            for m in range(n + 1, top + 1):
                assert check_stability(t, m, n) == check_stability(full, m, n)
        assert canonical_filtration(t) == canonical_filtration(full)


def test_ungraded_towers_keep_full_stages():
    """noncarnot's holonomy and a hand-built tower with a weight gap are not
    graded, so their stages are built in all weights; a graded hand-built
    tower is capped.  A cap on an ungraded algebra, or below one of its
    weights, is refused."""
    for t in (tower_from_cdga(NONCARNOT, 5), hand_tower((1, 1, 3), {(0, 1): {2: ONE}}, 4)):
        assert not _graded(t.top)
        assert all(c.cdga.prod.cap is None for c in t.stages.values())
    t = hand_tower((1, 1, 2), {}, 3)
    assert [c.cdga.prod.cap for c in t.stages.values()] == [2, 3]
    with pytest.raises(CeError, match="cap"):
        ce_cochain(tower_from_cdga(NONCARNOT, 3).top, 4)
    with pytest.raises(CeError, match="cap"):
        ce_cochain(HEIS_ALG, 1)


def test_h2_kernels_are_computed_once_per_tower(monkeypatch, capsys):
    """A stage-6 classify asks for 25 H^2 kernels over 11 distinct stage
    pairs; each pair is computed once.  The top's d on generators is read
    once per tower, and once per stage by ce_cochain."""
    from lieobstruct import ce as ce_module
    from lieobstruct.cli import main

    pairs, d_calls = Counter(), []
    killed, d_on = ce_module._killed_classes, ce_module._d_on_generators
    monkeypatch.setattr(ce_module, "_killed_classes",
                        lambda t, n, m: pairs.update([(n, m)]) or killed(t, n, m))
    monkeypatch.setattr(ce_module, "_d_on_generators", lambda g: d_calls.append(g) or d_on(g))
    assert main(["classify", data_path("wedge2.json"), "--stage", "6"]) == 0
    capsys.readouterr()
    assert len(pairs) == 11 and set(pairs.values()) == {1}
    assert len(d_calls) == 6


def test_tower_h1_is_stable():
    t = tower_from_cdga(NONCARNOT, 5)
    for n in range(2, 6):
        assert cohomology(t.stages[n].cdga, 1)[0] == 3


def test_tower_needs_stage_two():
    with pytest.raises(CeError):
        hirsch_tower(FREE2, 1)


def test_tower_from_presentation():
    t = hirsch_tower(load_presentation(data_path("free_metabelian.json")), 4)
    assert {n: c.algebra.dim for n, c in t.stages.items()} == {2: 2, 3: 3, 4: 5}


# ---------------------------------------------------------------------------
# stability and the canonical filtration


def test_stability_all_stage_pairs():
    for a in ALL_CDGAS:
        t = tower_from_cdga(a, 5)
        for n in range(2, 5):
            for m in range(n + 1, 6):
                assert check_stability(t, m, n) == {"prop_i": True, "prop_ii": True}


def test_stability_validates_stage_order():
    t = tower_from_cdga(TORUS, 3)
    with pytest.raises(CeError):
        check_stability(t, 2, 2)
    with pytest.raises(CeError):
        check_stability(t, 4, 2)


def test_stage_maps_compose_to_the_direct_inclusion():
    """The reference: H^1 and H^2 of stage n -> m, read as the product of the
    adjacent inclusions' matrices, equal those of the inclusion built
    directly, on full stages."""
    for a in ALL_CDGAS + RANDOM_CDGAS:
        t = full_tower(tower_from_cdga(a, 5))
        inclusions = reference_inclusions(t)
        for n in range(2, 5):
            for m in range(n + 1, 6):
                direct = _stage_inclusion(t.stages[n], t.stages[m])
                for i in (1, 2):
                    assert _stage_map(inclusions, n, m, i) == induced_cohomology_matrix(direct, i)


def test_stability_fails_on_a_gap_in_the_weights():
    """Weights (1, 1, 3) with [x, y] = z: stage 3 adds nothing to stage 2, so
    the class of x^y survives into stage 3 and dies in stage 4."""
    t = hand_tower((1, 1, 3), {(0, 1): {2: ONE}}, 4)
    assert check_stability(t, 4, 2) == {"prop_i": True, "prop_ii": False}
    assert check_stability(t, 3, 2) == {"prop_i": True, "prop_ii": True}
    assert check_stability(t, 4, 3) == {"prop_i": True, "prop_ii": True}
    assert not canonical_filtration(t)["all_equal"]


def test_stability_fails_on_a_closed_new_generator():
    """Weights (1, 1, 2) with no brackets: stage 3 adds a closed generator,
    so H^1 grows from stage 2 to stage 3."""
    t = hand_tower((1, 1, 2), {}, 3)
    assert not check_stability(t, 3, 2)["prop_i"]


def test_memoised_cohomology_matches_a_fresh_build():
    for a in ALL_CDGAS + RANDOM_CDGAS:
        t = tower_from_cdga(a, 4)
        for c in [a] + [ce.cdga for ce in t.stages.values()]:
            for i in range(c.top + 1):
                memo = _cohomology_data(c, i)
                assert _cohomology_data(c, i) is memo
                fresh = _CohomologyData(c, i)
                assert memo.dim == fresh.dim
                assert memo.reps == fresh.reps
                for v in kernel(c.diff[i]).basis_rows:
                    assert memo.class_coords(v) == fresh.class_coords(v)


def test_cohomology_hands_out_copies_of_the_memo():
    a = load_cdga(data_path("heis.json"))
    _, reps = cohomology(a, 1)
    reps[0][1] = ONE
    assert cohomology(a, 1)[1] == ({0: ONE}, {1: ONE})


def test_warm_memo_keeps_equality_and_composition():
    warm = load_cdga(data_path("noncarnot.json"))
    for i in range(warm.top + 1):
        cohomology(warm, i)
    fresh = load_cdga(data_path("noncarnot.json"))
    assert warm._cohomology and not fresh._cohomology
    assert warm == fresh and repr(warm) == repr(fresh)
    f = identity_morphism(warm).compose(identity_morphism(fresh))
    assert f.source is fresh and f.target is warm
    for i in range(warm.top + 1):
        m = induced_cohomology_matrix(f, i)
        assert m == SparseMatrix.identity(cohomology(warm, i)[0])


def test_canonical_filtration_matches_defining_filtration():
    for a in ALL_CDGAS:
        report = canonical_filtration(tower_from_cdga(a, 5))
        assert report["all_equal"]
        for stage, row in report["stages"].items():
            assert row["w_dim"] == row["v_dim"]


def scratch_canonical_filtration(tower: HirschTower) -> dict:
    """canonical_filtration as it was when it rebuilt the exterior square
    of W from scratch at every stage."""
    top = tower.stages[tower.max_stage]
    mdim = top.algebra.dim
    d1 = top.cdga.diff[1]
    pair_count = len(top.tuples[2])

    def wedge_square(w: Subspace) -> EchelonForm:
        ech = EchelonForm()
        rows = w.basis_rows
        for r in range(len(rows)):
            for s in range(r + 1, len(rows)):
                ech.insert(top.cdga.mul(1, rows[r], 1, rows[s]))
        return ech

    w = Subspace.span([], mdim)
    report = {}
    all_equal = True
    for stage in range(2, tower.max_stage + 1):
        ech = wedge_square(w)
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


def test_canonical_filtration_matches_the_scratch_rebuild():
    """canonical_filtration, which keeps one echelon of the exterior square
    of W across stages, reports what the stage-by-stage rebuild reports: on
    wedge2 at stages 3-10, heis and noncarnot, seeded d = 0 cdgas, and the
    tower with a weight gap, where W and V part."""
    towers = [tower_from_cdga(WEDGE2, top) for top in range(3, 11)]
    towers += [tower_from_cdga(a, top) for a in (HEIS, NONCARNOT) for top in (3, 5, 7)]
    towers += [tower_from_cdga(a, top) for a, top in CAPPED_CASES[3:]]
    towers += [tower_from_cdga(a, 5) for a in RANDOM_CDGAS]
    towers.append(hand_tower((1, 1, 3), {(0, 1): {2: ONE}}, 4))
    for t in towers:
        assert canonical_filtration(t) == scratch_canonical_filtration(t), t.top.labels


def test_filtration_starts_at_closed_generators():
    """W^2 is the kernel of d on degree-one generators."""
    t = tower_from_cdga(NONCARNOT, 5)
    report = canonical_filtration(t)
    top = t.stages[5].cdga
    closed = sum(
        1 for k in range(top.dim(1)) if not top.d_apply(1, {k: ONE})
    )
    assert report["stages"][2]["w_dim"] == closed
