"""Tests for finite cdgas: loading, truncation, cohomology, holonomy,
resonance, and fixed subalgebras of group actions."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from lieobstruct import data_path
from lieobstruct.cdga import (
    CdgaError,
    FiniteCdga,
    WedgeProduct,
    _subcdga,
    action_from_dict,
    cdga_from_dict,
    check_cdga,
    check_morphism,
    cohomology,
    fixed_subcdga,
    holonomy,
    identity_morphism,
    induced_cohomology_matrix,
    load_action,
    load_cdga,
    resonance_dim,
    resonance_trivial_probe,
)
from lieobstruct.fplie import FiniteList, LiePresentation, lcs_graded_dims, lcs_quotient
from lieobstruct.freelie import LieElement, bracket, format_element, gen_elt
from lieobstruct.ratlin import ONE, InternalError, SparseMatrix, Subspace, rank, vec_add


HEIS = load_cdga(data_path("heis.json"))
NONCARNOT = load_cdga(data_path("noncarnot.json"))
TORUS = load_cdga(data_path("torus.json"))
WEDGE2 = load_cdga(data_path("wedge2.json"))


def relator_strings(p):
    return [format_element(r, p.generators) for r in p.scheme.relators]


def is_q_equivalence(f, q):
    """H^i(f) bijective for i <= q and injective for i = q + 1."""
    for i in range(q + 2):
        m = induced_cohomology_matrix(f, i)
        r = rank(m)
        if r != m.cols or (i <= q and r != m.rows):
            return False
    return True


# -- loading and validation -------------------------------------------------

def test_bundled_shapes():
    assert [HEIS.dim(i) for i in range(4)] == [1, 3, 3, 1]
    assert [NONCARNOT.dim(i) for i in range(3)] == [1, 5, 10]
    assert [TORUS.dim(i) for i in range(3)] == [1, 2, 1]
    assert [WEDGE2.dim(i) for i in range(3)] == [1, 2, 0]


def test_commutativity_completion():
    # a2 * a1 was not in the file; the loader fills it in with the sign flipped
    assert HEIS.mul(1, {1: ONE}, 1, {0: ONE}) == {0: -ONE}
    # degree 1 times degree 2 commutes without a sign
    assert HEIS.mul(2, {2: ONE}, 1, {0: ONE}) == HEIS.mul(1, {0: ONE}, 2, {2: ONE})


def test_triple_product_signs():
    a123 = {0: ONE}
    assert HEIS.mul(1, {0: ONE}, 2, {2: ONE}) == a123
    assert HEIS.mul(1, {1: ONE}, 2, {1: ONE}) == {0: -ONE}
    assert HEIS.mul(1, {2: ONE}, 2, {0: ONE}) == a123


def test_d_squared_rejected():
    bad = {
        "degrees": {"1": ["a"], "2": ["b"], "3": ["c"]},
        "d": {"a": "b", "b": "c"},
        "mu": {},
    }
    with pytest.raises(CdgaError, match="d\\^2"):
        cdga_from_dict(bad)


def test_leibniz_rejected():
    bad = {
        "degrees": {"1": ["a1", "a2"], "2": ["b"], "3": ["c"]},
        "d": {"a2": "b"},
        "mu": {"a1*a2": "b", "a1*b": "c"},
    }
    with pytest.raises(CdgaError, match="Leibniz"):
        cdga_from_dict(bad)


def test_loader_errors():
    with pytest.raises(CdgaError, match="unknown"):
        cdga_from_dict({"degrees": {"1": ["a"]}, "d": {"a": "zz"}, "mu": {}})
    with pytest.raises(CdgaError, match="degree"):
        cdga_from_dict({"degrees": {"1": ["a", "b"]}, "d": {"a": "b"}, "mu": {}})
    with pytest.raises(CdgaError, match="lower degree first"):
        cdga_from_dict(
            {
                "degrees": {"1": ["a"], "2": ["b"], "3": ["c"]},
                "d": {},
                "mu": {"b*a": "c"},
            }
        )
    with pytest.raises(CdgaError):
        cdga_from_dict({"degrees": {}})


def test_cdga_rejects_unknown_keys():
    with pytest.raises(CdgaError, match="'dd'"):
        cdga_from_dict({"degrees": {"1": ["a"], "2": ["b"]}, "dd": {"b": "a"}})


def test_action_rejects_unknown_keys():
    with pytest.raises(CdgaError, match="'map'"):
        action_from_dict(
            TORUS,
            {
                "elements": ["e", "s"],
                "table": {"e,e": "e", "e,s": "s", "s,e": "s", "s,s": "e"},
                "map": {"s": {"a1": "a2", "a2": "a1", "b": "-b"}},
            },
        )


# -- cohomology -------------------------------------------------------------

def test_betti_numbers():
    assert cohomology(HEIS, 0)[0] == 1
    assert cohomology(HEIS, 1)[0] == 2
    assert cohomology(HEIS, 2)[0] == 2
    assert cohomology(HEIS, 3)[0] == 1
    assert cohomology(TORUS, 1)[0] == 2
    assert cohomology(TORUS, 2)[0] == 1
    assert cohomology(WEDGE2, 1)[0] == 2
    assert cohomology(WEDGE2, 2)[0] == 0
    assert cohomology(NONCARNOT, 1)[0] == 3
    assert cohomology(NONCARNOT, 2)[0] == 8


def test_heis_h1_representatives():
    _, reps = cohomology(HEIS, 1)
    assert list(reps) == [{0: ONE}, {1: ONE}]


def test_identity_induces_identity():
    f = identity_morphism(HEIS)
    for i in range(3):
        m = induced_cohomology_matrix(f, i)
        assert m.rows == m.cols == cohomology(HEIS, i)[0]
        assert rank(m) == m.rows


# -- truncation -------------------------------------------------------------
# _degree_drop and truncate are the library's A[q] builders as they stood
# before holonomy read A[1]'s degree-2 span directly; they stay here as the
# A[q] oracle.

def _degree_drop(a: FiniteCdga, new_top: int) -> FiniteCdga:
    """Quotient by everything above new_top."""
    if new_top >= a.top:
        return a
    names = a.names[: new_top + 1]
    diff = list(a.diff[:new_top])
    diff.append(SparseMatrix(0, len(names[new_top])))
    if isinstance(a.prod, WedgeProduct):
        prod = a.prod  # mul is zero above the new top by itself
    else:
        prod = {(i, j): t for (i, j), t in a.prod.items() if i + j <= new_top}
    return FiniteCdga(names, tuple(diff), prod)


def truncate(a: FiniteCdga, q: int):
    """The sub-cdga A[q] of the quotient A/(degrees > q+1), together with its
    inclusion: degrees <= q kept whole, degree q+1 cut down to
    d(A^q) + sum of products from positive degrees."""
    if q < 1:
        raise CdgaError(f"truncation level must be >= 1, got {q}")
    quot = _degree_drop(a, q + 1)
    top_dim = quot.dim(q + 1)
    span_vecs = [quot.d_apply(q, {k: ONE}) for k in range(quot.dim(q))]
    for i in range(1, q + 1):
        for x in range(quot.dim(i)):
            for y in range(quot.dim(q + 1 - i)):
                span_vecs.append(quot.mul(i, {x: ONE}, q + 1 - i, {y: ONE}))
    cut = Subspace.span(span_vecs, top_dim)
    if cut.dim == top_dim:
        return quot, identity_morphism(quot)
    whole = [
        Subspace(n, tuple({k: ONE} for k in range(n)), tuple(range(n)))
        for n in map(quot.dim, range(q + 1))
    ]
    names = (*quot.names[: q + 1], tuple(f"t{q + 1}_{r + 1}" for r in range(cut.dim)))
    return _subcdga(quot, whole + [cut], names)


def test_truncate_drops_top():
    a1, incl = truncate(HEIS, 1)
    assert a1.top == 2
    assert [a1.dim(i) for i in range(3)] == [1, 3, 3]
    assert incl.source is a1
    assert is_q_equivalence(incl, 1)


def test_truncate_cuts_degree_two():
    a = cdga_from_dict({"degrees": {"1": ["a"], "2": ["b"]}, "d": {}, "mu": {}})
    a1, incl = truncate(a, 1)
    assert [a1.dim(i) for i in range(3)] == [1, 1, 0]
    assert incl.target.dim(2) == 1
    assert is_q_equivalence(incl, 1)


def test_truncate_idempotent():
    a1, _ = truncate(HEIS, 1)
    again, incl = truncate(a1, 1)
    assert again is a1
    assert incl.maps == identity_morphism(a1).maps


def test_truncate_keeps_partial_products():
    # degree 2 is cut to d(A^1) + products; the kept part still multiplies
    a = cdga_from_dict(
        {
            "degrees": {"1": ["a1", "a2"], "2": ["b", "c"]},
            "d": {},
            "mu": {"a1*a2": "b"},
        }
    )
    a1, incl = truncate(a, 1)
    assert [a1.dim(i) for i in range(3)] == [1, 2, 1]
    assert a1.mul(1, {0: ONE}, 1, {1: ONE}) == {0: ONE}
    assert incl.apply(2, {0: ONE}) == {0: ONE}
    assert is_q_equivalence(incl, 1)


def test_truncate_level_error():
    with pytest.raises(CdgaError, match=">= 1"):
        truncate(HEIS, 0)


def test_truncate_q_equivalence_on_bundled():
    for a in (HEIS, NONCARNOT, TORUS, WEDGE2):
        _, incl = truncate(a, 1)
        assert is_q_equivalence(incl, 1)


def test_subcdga_checks_every_coordinate():
    whole = [
        Subspace.span([{k: ONE} for k in range(HEIS.dim(i))], HEIS.dim(i))
        for i in range(4)
    ]
    sub, incl = _subcdga(HEIS, whole, HEIS.names)
    assert [sub.dim(i) for i in range(4)] == [1, 3, 3, 1]
    assert incl.maps == identity_morphism(HEIS).maps
    # d(a3) = a12, but this degree-2 span holds only a13 and a23
    cut = Subspace.span([{1: ONE}, {2: ONE}], 3)
    names = HEIS.names[:2] + (("b13", "b23"),) + HEIS.names[3:]
    with pytest.raises(InternalError, match="outside the sub-cdga"):
        _subcdga(HEIS, [whole[0], whole[1], cut, whole[3]], names)


# -- holonomy ---------------------------------------------------------------

def test_holonomy_heis():
    p = holonomy(HEIS)
    assert p.generators == ("x1", "x2", "x3")
    assert relator_strings(p) == ["x3 + [x1,x2]", "[x1,x3]", "[x2,x3]"]


def test_holonomy_heis_lcs_dims():
    p = holonomy(HEIS)
    assert lcs_graded_dims(p, 5) == {1: 2, 2: 1, 3: 0, 4: 0}


def test_holonomy_noncarnot():
    p = holonomy(NONCARNOT)
    assert p.generators == ("x1", "x2", "x3", "x4", "x5")
    assert relator_strings(p) == [
        "[x1,x2]",
        "x4 + [x1,x3]",
        "x5 + [x1,x4]",
        "[x1,x5]",
        "x5 + [x2,x3]",
        "[x2,x4]",
        "[x2,x5]",
        "[x3,x4]",
        "[x3,x5]",
        "[x4,x5]",
    ]
    assert lcs_graded_dims(p, 6) == {1: 3, 2: 1, 3: 1, 4: 0, 5: 0}
    assert lcs_quotient(p, 6).dim == 5


def test_holonomy_torus_and_wedge():
    p = holonomy(TORUS)
    assert relator_strings(p) == ["[x1,x2]"]
    q = holonomy(WEDGE2)
    assert q.scheme.relators == ()


def test_holonomy_only_sees_low_degrees():
    for a in (HEIS, NONCARNOT, TORUS, WEDGE2):
        a1, _ = truncate(a, 1)
        assert relator_strings(holonomy(a1)) == relator_strings(holonomy(a))


def test_holonomy_quadratic_span_matches_product_rank():
    # with d = 0 every relator is quadratic and their span has the rank of mu
    full = cdga_from_dict(
        {
            "degrees": {"1": ["a1", "a2", "a3"], "2": ["b12", "b13", "b23"]},
            "d": {},
            "mu": {"a1*a2": "b12", "a1*a3": "b13", "a2*a3": "b23"},
        }
    )
    p = holonomy(full)
    assert relator_strings(p) == ["[x1,x2]", "[x1,x3]", "[x2,x3]"]


def per_relator_holonomy(a):
    """holonomy as first built: each relator summed one LieElement at a
    time, with every d(a_i), product a_i*a_j and bracket [x_i, x_j] formed
    again for each degree-2 basis element."""
    a1, _ = truncate(a, 1)
    g = a1.dim(1)
    relators = []
    for k in range(a1.dim(2)):
        rel = LieElement(g, {})
        for i in range(g):
            c = a1.d_apply(1, {i: ONE}).get(k, 0)
            if c:
                rel = rel + c * gen_elt(g, i)
        for i, j in combinations(range(g), 2):
            c = a1.mul(1, {i: ONE}, 1, {j: ONE}).get(k, 0)
            if c:
                rel = rel + c * bracket(gen_elt(g, i), gen_elt(g, j))
        if not rel.is_zero():
            relators.append(rel)
    return LiePresentation(tuple(f"x{i + 1}" for i in range(g)), FiniteList(tuple(relators)))


def random_top2_cdga(rng, gens, classes, with_d):
    """A seeded cdga in degrees <= 2: random rational products a_i*a_j and,
    with with_d, a random d on some degree-1 elements.  With nothing in
    degree 3, d^2 = 0 and the Leibniz rule hold for any d."""

    def combo():
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(classes)]
        return "".join(f"{'-' if c < 0 else '+'}{abs(c)}*b{k + 1}"
                       for k, c in enumerate(coeffs) if c) or None

    mu = {f"a{i + 1}*a{j + 1}": combo() for i, j in combinations(range(gens), 2)}
    d = {f"a{i + 1}": combo() for i in range(gens) if with_d and rng.random() < 0.5}
    mu, d = ({k: v for k, v in m.items() if v} for m in (mu, d))
    degrees = {"1": [f"a{i + 1}" for i in range(gens)], "2": [f"b{k + 1}" for k in range(classes)]}
    return cdga_from_dict({"degrees": degrees, "d": d, "mu": mu})


def test_holonomy_matches_per_relator_reference():
    """The relators, computed from each d(a_i) and product once, equal the
    per-relator construction, term order included, on the bundled cdgas and
    on seeded cdgas with d = 0 and with d != 0."""
    rng = random.Random(20261026)
    cdgas = [HEIS, NONCARNOT, TORUS, WEDGE2]
    cdgas += [random_top2_cdga(rng, rng.randint(2, 6), rng.randint(1, 8), with_d)
              for with_d in (False, True) for _ in range(15)]
    assert all(a.diff[1].is_zero() for a in cdgas[4:19])
    assert sum(not a.diff[1].is_zero() for a in cdgas[19:]) >= 10
    for a in cdgas:
        got, want = holonomy(a), per_relator_holonomy(a)
        assert got == want
        assert [list(r.terms) for r in got.scheme.relators] == [
            list(r.terms) for r in want.scheme.relators]


# -- resonance --------------------------------------------------------------

def test_resonance_torus_trivial():
    assert resonance_dim(TORUS, {0: ONE}, 1) == 0
    assert resonance_dim(TORUS, {0: ONE, 1: Fraction(7, 3)}, 1) == 0
    assert resonance_dim(TORUS, {1: ONE}, 1) < 1


def test_resonance_wedge_nontrivial():
    assert resonance_dim(WEDGE2, {0: ONE}, 1) == 1
    assert resonance_dim(WEDGE2, {0: ONE, 1: -ONE}, 1) >= 1


def test_resonance_requires_cocycle():
    with pytest.raises(CdgaError, match="closed"):
        resonance_dim(HEIS, {2: ONE}, 1)


def test_resonance_degree_range():
    with pytest.raises(CdgaError, match="out of range"):
        resonance_dim(WEDGE2, {0: ONE}, 2)


def test_resonance_scale_invariance():
    import random

    rng = random.Random(20260818)
    for a in (TORUS, WEDGE2, HEIS):
        for _ in range(20):
            omega = {}
            for k in (0, 1):
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if c:
                    omega[k] = c
            if not omega:
                omega = {0: ONE}
            lam = Fraction(rng.choice([1, 2, 3, 5, -1, -2, 7]), rng.randint(1, 4))
            scaled = {k: lam * c for k, c in omega.items()}
            assert resonance_dim(a, omega, 1) == resonance_dim(a, scaled, 1)


def fraction_twisted_matrix(a, omega, i):
    """d + omega.(-) on degree i, with omega's Fraction entries as given:
    the twisted matrix as resonance_dim built it before it cleared omega's
    denominators."""
    return SparseMatrix.from_columns(
        a.dim(i + 1),
        [vec_add(a.d_apply(i, {k: ONE}), a.mul(1, omega, i, {k: ONE}))
         for k in range(a.dim(i))],
    )


def fraction_resonance_dim(a, omega, i):
    r_prev = rank(fraction_twisted_matrix(a, omega, i - 1)) if i >= 1 else 0
    return a.dim(i) - rank(fraction_twisted_matrix(a, omega, i)) - r_prev


def jump_cdga(lam):
    """Degree 1 spanned by a and c, degree 2 by e, with d(c) = e and
    a*c = lam*e.  At omega = t*a the twisted map sends c to (1 + lam*t)*e,
    so degree-1 resonance jumps to 1 at t = -1/lam alone: not a cone, so
    scaling omega without scaling d moves it."""
    return cdga_from_dict({"degrees": {"1": ["a", "c"], "2": ["e"]},
                           "d": {"c": "e"}, "mu": {"a*c": f"{lam}*e"}})


def test_resonance_matches_fraction_twisted_ranks():
    """resonance_dim, which ranks q*d + omega'.(-) for omega = omega'/q with
    omega' integral, equals the ranks of d + omega.(-) itself: on the four
    bundled cdgas (d != 0 on heis and noncarnot) in every degree, on seeded
    top-2 cdgas with d != 0, at closed omega whose coefficients have
    denominators 2 and 3, and on jump_cdga at and off its jump."""
    rng = random.Random(20261029)
    cases = [(a, a.top) for a in (HEIS, NONCARNOT, TORUS, WEDGE2)]
    cases += [(random_top2_cdga(rng, rng.randint(2, 5), rng.randint(1, 6), True), 2)
              for _ in range(25)]
    assert not HEIS.diff[1].is_zero() and not NONCARNOT.diff[1].is_zero()
    checked = scaled = 0
    for a, top in cases:
        _, reps = cohomology(a, 1)
        for _ in range(6):
            omega: dict = {}
            for rep in reps:
                omega = vec_add(omega, rep, Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
            if not omega:
                continue
            scaled += any(type(c) is Fraction and c.denominator > 1 for c in omega.values())
            for i in range(top):
                assert resonance_dim(a, omega, i) == fraction_resonance_dim(a, omega, i)
                checked += 1
    assert checked >= 200 and scaled >= 50
    for lam in (2, 3, "3/2", "2/3", 6):
        a = jump_cdga(lam)
        jump = -1 / Fraction(lam)
        for t in (jump, 2 * jump, -jump, jump / 2, jump / 3):
            omega = {0: t}
            want = 1 if t == jump else 0
            assert resonance_dim(a, omega, 1) == fraction_resonance_dim(a, omega, 1) == want


def test_probe_torus_finds_nothing():
    report = resonance_trivial_probe(TORUS, trials=20, seed=0)
    assert report["verdict"] == "no-witness-found"
    assert report["points_tested"] >= 3


def test_probe_wedge_finds_witness():
    report = resonance_trivial_probe(WEDGE2, trials=5, seed=0)
    assert report["verdict"] == "nontrivial"
    assert report["witness"] == {"a1": 1}
    assert report["witness_dim"] >= 1


def test_probe_is_deterministic():
    a = resonance_trivial_probe(TORUS, trials=7, seed=3)
    b = resonance_trivial_probe(TORUS, trials=7, seed=3)
    assert a == b


def test_probe_needs_positive_b1():
    point = cdga_from_dict({"degrees": {"1": [], "2": []}, "d": {}, "mu": {}})
    with pytest.raises(CdgaError, match="Betti"):
        resonance_trivial_probe(point)


# -- group actions ----------------------------------------------------------

def test_trivial_action_fixes_everything():
    action = action_from_dict(
        HEIS, {"elements": ["e"], "table": {"e,e": "e"}, "maps": {"e": {}}}
    )
    fixed, incl = fixed_subcdga(action)
    assert [fixed.dim(i) for i in range(4)] == [1, 3, 3, 1]
    for i in range(4):
        assert incl.maps[i] == identity_morphism(HEIS).maps[i]


def test_swap_action_on_torus():
    action = action_from_dict(
        TORUS,
        {
            "elements": ["e", "s"],
            "table": {"e,e": "e", "e,s": "s", "s,e": "s", "s,s": "e"},
            "maps": {"e": {}, "s": {"a1": "a2", "a2": "a1", "b": "-b"}},
        },
    )
    fixed, incl = fixed_subcdga(action)
    assert [fixed.dim(i) for i in range(3)] == [1, 1, 0]
    # the invariant line is spanned by a1 + a2
    assert incl.apply(1, {0: ONE}) == {0: ONE, 1: ONE}


def test_sign_action_leaves_ground_field():
    action = action_from_dict(
        WEDGE2,
        {
            "elements": ["e", "s"],
            "table": {"e,e": "e", "e,s": "s", "s,e": "s", "s,s": "e"},
            "maps": {"e": {}, "s": {"a1": "-a1", "a2": "-a2"}},
        },
    )
    fixed, _ = fixed_subcdga(action)
    assert [fixed.dim(i) for i in range(3)] == [1, 0, 0]


def test_action_table_must_match_morphisms():
    with pytest.raises(CdgaError, match="table"):
        action_from_dict(
            TORUS,
            {
                "elements": ["e", "s"],
                "table": {"e,e": "e", "e,s": "s", "s,e": "s", "s,s": "s"},
                "maps": {"e": {}, "s": {"a1": "a2", "a2": "a1", "b": "-b"}},
            },
        )


def test_swap_must_flip_the_top_class():
    # sending b to b is not multiplicative for the swap
    with pytest.raises(CdgaError, match="multiplicative"):
        action_from_dict(
            TORUS,
            {
                "elements": ["e", "s"],
                "table": {"e,e": "e", "e,s": "s", "s,e": "s", "s,s": "e"},
                "maps": {"e": {}, "s": {"a1": "a2", "a2": "a1"}},
            },
        )


# -- where the axioms are checked -------------------------------------------

def test_sub_cdgas_pass_the_axiom_checks():
    """Fixed sub-cdgas are built without re-checking the axioms; they, A[2]
    as the truncate oracle builds it on _subcdga, and their inclusions pass
    check_cdga and check_morphism."""
    built = [fixed_subcdga(load_action(TORUS, data_path("swap_torus.json")))]
    built += [truncate(a, 2) for a in (HEIS, NONCARNOT, TORUS, WEDGE2)]
    for sub, incl in built:
        check_cdga(sub)
        check_morphism(incl)


def test_loaders_check_each_input_once(monkeypatch):
    """Loading checks the cdga once and each action map once; nothing built
    from them afterwards, tower stages and classifying maps included, is
    checked again."""
    from lieobstruct import cdga
    from lieobstruct.ce import tower_from_cdga, verify_one_equivalence

    calls = []
    for name in ("check_cdga", "check_morphism"):
        real = getattr(cdga, name)

        def counted(x, name=name, real=real):
            calls.append(name)
            real(x)

        monkeypatch.setattr(cdga, name, counted)
    a = load_cdga(data_path("torus.json"))
    action = load_action(a, data_path("swap_torus.json"))
    assert calls == ["check_cdga", "check_morphism", "check_morphism"]
    fixed_subcdga(action)
    holonomy(a)
    identity_morphism(a).compose(identity_morphism(a))
    tower = tower_from_cdga(a, 3)
    for n in (2, 3):
        verify_one_equivalence(a, tower, n)
    assert len(calls) == 3
