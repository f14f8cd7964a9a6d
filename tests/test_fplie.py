"""Presentations, ideal spans, nilpotent quotients, and the Hopf H2 scan.

The independent oracle for ideal_span is a brute-force closure that brackets
with every basis word, not just generators; the two must agree degreewise.
The Hall-coordinate ideal closure (hall_ideal_span) is the whole-row
reference for ideal_span, which closes in tensor coordinates, and the
Hall-coordinate Hopf H2 built on it is the reference for h2_graded.  So is
the two-echelon count (two_echelon_h2), which ranks [L, J] in a second
echelon over the eager closure's basis, for the relators h2_graded counts
inside the closure, at every cap and with the relator list permuted.  The
free-Lie Hopf H2 (_h2_free_lie) is the reference for the Chen-module path
that h2_graded takes on the second derived ideal, and ideal_span's pivots
for the closed-form x2 slice.  Quotient structure constants are validated
through the Jacobi and filtration checks plus hand-computed small examples,
and whole quotients against hall_lcs_quotient, which eliminates linear
generators in Hall coordinates (hall_eliminate_linear, the oracle for the
tensor substitution of _eliminate_linear) and projects onto the non-pivot
words of hall_ideal_span.  Neither Hall-coordinate oracle uses the fill
degree at which _ideal_basis stops its closure.  The first tensor forms of
two quotient stages are kept as oracles too: renumbering_eliminate_linear
for _eliminate_linear and fifo_ideal_basis for the lazy closure, and the
closure that forms every bracket's tensor (formed_ideal_basis) checks the
brackets _ideal_basis reads straight onto Lyndon columns; the
full tensor commutator checks the split-read _lyndon_bracket, and a word's
full tensor image checks _split_lyndon, the split the scan reads every
bracket word off.  The scan modulo a derived ideal's own word vectors
(word_vector_lcs_quotient) checks the derived quotients that now go
through the closure.  The solver
write-back of the closure (writeback_ideal_span) checks the ideal_span
rows read off the quotient scan, the tracked scan over J's tensor basis
(tracked_quotient_scan) the scan modulo J's RREF, the quotient's weights
lcs_graded_dims's pivot counts, and the Fraction elimination
(fraction_eliminate_linear) the integer one.  check_jacobi
is the Jacobi identity on every triple of a quotient's basis vectors.
"""

import random
from bisect import bisect_right
from collections import Counter, deque
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, count, product

import pytest

from lieobstruct import data_path, fplie, freelie
from lieobstruct.cdga import cdga_from_dict, holonomy, load_cdga
from lieobstruct.freelie import (
    HallWord,
    LieElement,
    _is_lyndon,
    _lyndon,
    _lyndon_columns,
    _nonzero,
    _solver,
    _substitution,
    _tensor_commutator,
    bracket,
    gen_elt,
    generator,
    hall_basis_derived,
    hall_words_of_degree,
    lie_tensor,
    multidegree,
    parse_element,
    tensor_expand,
    witt_dim,
    word_str,
    zero,
)
from lieobstruct.fplie import (
    DerivedIdeal,
    FiniteList,
    LiePresentation,
    NilpotentLieAlgebra,
    PresentationError,
    _digits,
    _eliminate_linear,
    _h2_free_lie,
    _ideal_basis,
    _integral,
    _lyndon_bracket,
    _quotient_scan,
    _relator_tensors,
    _split_lyndon,
    finiteness_scan,
    h2_graded,
    ideal_span,
    lcs_graded_dims,
    lcs_quotient,
    linearize_presentation,
    load_presentation,
    presentation_from_dict,
    presentation_to_dict,
    x2_slice,
)
from lieobstruct.ratlin import ONE, EchelonForm, InternalError, Subspace, quotient_basis


def _coords(e, max_degree):
    """e over the basis words of degree <= max_degree, by index."""
    idx = {w: i for i, w in enumerate(hall_basis_derived(e.n_gens, 0, max_degree))}
    return {idx[w]: c for w, c in e.terms.items()}


def check_jacobi(alg):
    """Whether the structure constants of a NilpotentLieAlgebra satisfy the
    Jacobi identity on every triple of basis vectors."""
    n = alg.dim
    for i, j, k in combinations(range(n), 3):
        ei, ej, ek = {i: ONE}, {j: ONE}, {k: ONE}
        total: dict = {}
        for a, b, c in ((ei, ej, ek), (ej, ek, ei), (ek, ei, ej)):
            for t, v in alg.bracket_vec(a, alg.bracket_vec(b, c)).items():
                total[t] = total.get(t, 0) + v
        if any(total.values()):
            return False
    return True


def pres(gens, relator_strings, scheme=None):
    if scheme is not None:
        return LiePresentation(tuple(gens), scheme)
    rel = tuple(parse_element(s, tuple(gens)) for s in relator_strings)
    return LiePresentation(tuple(gens), FiniteList(rel))


HEIS = pres(("x1", "x2", "x3"), ("x3 + [x1,x2]", "[x1,x3]", "[x2,x3]"))
FREE2 = pres(("x", "y"), ())
XXY = pres(("x", "y"), ("[x,[x,y]]",))
METAB = pres(("x", "y"), (), scheme=DerivedIdeal(2))


def test_presentation_validation():
    with pytest.raises(PresentationError):
        pres(("x", "x"), ())
    with pytest.raises(PresentationError):
        LiePresentation(("x", "y"), FiniteList((LieElement(2, {}),)))
    with pytest.raises(PresentationError):
        LiePresentation(("x",), "finite")
    with pytest.raises(PresentationError):
        DerivedIdeal(0)
    with pytest.raises(PresentationError):
        LiePresentation(("x",), FiniteList((gen_elt(2, 0),)))


def test_ideal_span_no_relators():
    s = ideal_span(FREE2, 4)
    assert s.dim == 0


def test_ideal_span_quadratic_relator():
    s = ideal_span(pres(("x", "y"), ("[x,y]",)), 3)
    assert s.dim == 3
    # ambient is 2 + 1 + 2 basis words; the quotient is the abelian algebra
    assert s.ambient - s.dim == 2


def test_ideal_span_derived_slice():
    words = hall_basis_derived(2, 0, 5)
    s = ideal_span(METAB, 5)
    piv_words = [words[i] for i in s.pivots]
    slice_23 = [w for w in piv_words if w.gen_counts() == {0: 2, 1: 3}]
    assert len(slice_23) == 1


def brute_ideal_pivots(p, cap):
    """Close under bracketing with every basis word, not just generators."""
    n = p.n_gens
    words = hall_basis_derived(n, 0, cap)
    elts = [LieElement(n, {w: ONE}) for w in words]
    start = [r.truncate(cap) for r in p.scheme.relators]
    ech = EchelonForm()
    pool = deque(e for e in start if not e.is_zero())
    while pool:
        e = pool.popleft()
        res, _ = ech.insert(_coords(e, cap))
        if res:
            for b in elts:
                z = bracket(b, e).truncate(cap)
                if not z.is_zero():
                    pool.append(z)
    return tuple(ech.pivots)


def random_presentation(rng, n_gens, max_degree):
    pool = list(hall_basis_derived(n_gens, 0, max_degree))
    relators = []
    for _ in range(rng.randint(1, 2)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            w = rng.choice(pool)
            terms[w] = Fraction(rng.randint(-2, 2))
        e = LieElement(n_gens, terms)
        if not e.is_zero():
            relators.append(e)
    if not relators:
        relators.append(gen_elt(n_gens, 0))
    return LiePresentation(
        tuple(f"x{i+1}" for i in range(n_gens)), FiniteList(tuple(relators))
    )


def test_ideal_span_matches_brute_force():
    rng = random.Random(20260818)
    cases = []
    for _ in range(7):
        cases.append((random_presentation(rng, 2, 3), 6))
    for _ in range(3):
        cases.append((random_presentation(rng, 3, 2), 4))
    for p, cap in cases:
        assert ideal_span(p, cap).pivots == brute_ideal_pivots(p, cap)


def test_h2_free_is_zero():
    assert h2_graded(FREE2, 6) == {k: 0 for k in range(1, 7)}


def test_h2_single_quadratic_relator():
    dims = h2_graded(pres(("x", "y"), ("[x,y]",)), 6)
    assert dims == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}


def test_h2_first_derived():
    p = pres(("x", "y"), (), scheme=DerivedIdeal(1))
    dims = h2_graded(p, 6)
    assert dims == {1: 0, 2: 1, 3: 0, 4: 0, 5: 0, 6: 0}


def test_h2_metabelian_small_degrees():
    dims = h2_graded(METAB, 8)
    assert dims[5] > 0 and dims[7] > 0
    assert dims[1] == dims[2] == dims[3] == dims[4] == 0


def hall_ideal_span(p, cap):
    """The ideal through degree cap, closed in Hall coordinates: the
    relators, or a derived ideal's basis words, bracketed with generators by
    freelie.bracket until the span stops growing."""
    n = p.n_gens
    if isinstance(p.scheme, DerivedIdeal):
        start = [LieElement(n, {w: ONE}) for w in hall_basis_derived(n, p.scheme.level, cap)]
    else:
        start = [r.truncate(cap) for r in p.scheme.relators]
    gens = [gen_elt(n, i) for i in range(n)]
    ech = EchelonForm()
    pool = deque(start)
    while pool:
        e = pool.popleft()
        if ech.insert(_coords(e, cap))[0]:
            pool.extend(bracket(g, e).truncate(cap) for g in gens)
    ambient = len(hall_basis_derived(n, 0, cap))
    return Subspace(ambient, tuple(ech.backsubstitute()), tuple(ech.pivots))


def test_ideal_span_matches_hall_closure():
    """Whole RREF rows, not just pivots, since lcs_quotient projects with
    them: inhomogeneous random relators, pres_noncarnot with its linear
    generators eliminated, the holonomy of the bundled and two seeded random
    cdgas, and two derived ideals, which ideal_span reads off unclosed."""
    rng = random.Random(20260818)
    cases = [(random_presentation(rng, 2, 3), 7) for _ in range(7)]
    cases += [(random_presentation(rng, 3, 2), 5) for _ in range(3)]
    noncarnot = load_presentation(data_path("pres_noncarnot.json"))
    cases.append((hall_eliminate_linear(noncarnot, 5)[0], 5))
    holonomies = [holonomy(load_cdga(data_path(f"{name}.json")))
                  for name in ("heis", "noncarnot", "torus", "wedge2")]
    holonomies += [random_cdga_holonomy(5, 3, 2), random_cdga_holonomy(6, 4, 4)]
    cases += [(h, {2: 9, 3: 6, 4: 4, 5: 3}[h.n_gens]) for h in holonomies]
    cases += [(METAB, 8), (pres(("x", "y", "z"), (), scheme=DerivedIdeal(1)), 4)]
    for p, cap in cases:
        assert ideal_span(p, cap) == hall_ideal_span(p, cap), presentation_to_dict(p)


def hall_h2_reference(p, cap):
    """Hopf H2 in Hall coordinates, (J meet [L,L])/[L,J]: rank the generator
    brackets of the RREF rows of hall_ideal_span, which are homogeneous for
    a graded ideal; pivot degrees give the dimensions.  [L,L] starts in
    degree 2, so J's degree-1 pivots do not count."""
    n = p.n_gens
    words = hall_basis_derived(n, 0, cap)
    span = hall_ideal_span(p, cap)
    j_dims = Counter(words[piv].degree for piv in span.pivots if words[piv].degree > 1)
    ech = EchelonForm()
    ad_dims = Counter()
    for row in span.basis_rows:
        e = LieElement(n, {words[i]: c for i, c in row.items()})
        for g in range(n):
            piv = ech.insert(_coords(bracket(gen_elt(n, g), e).truncate(cap), cap))[1]
            if piv is not None:
                ad_dims[words[piv].degree] += 1
    return {k: j_dims[k] - ad_dims[k] for k in range(1, cap + 1)}


def random_homogeneous_presentation(rng, n_gens, cap):
    """One or two homogeneous relators with Fraction coefficients, each
    summing basis words from one or two multidegrees of its degree; half the
    time one more relator, a multiple of a generator bracket of the first,
    which H2 must not count."""
    relators = []
    for _ in range(1 if n_gens == 1 else rng.randint(1, 2)):
        d = 1 if n_gens == 1 else rng.randint(2, min(cap, 4))
        groups = list(hall_words_of_degree(n_gens, d).values())
        terms = {}
        for ws in rng.sample(groups, min(len(groups), rng.randint(1, 2))):
            terms[rng.choice(ws)] = Fraction(
                rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)
            )
        relators.append(LieElement(n_gens, terms))
    g = gen_elt(n_gens, rng.randrange(n_gens))
    consequence = Fraction(rng.randint(1, 3), 2) * bracket(g, relators[0])
    if rng.random() < 0.5 and not consequence.truncate(cap).is_zero():
        relators.append(consequence)
    names = tuple(f"x{i + 1}" for i in range(n_gens))
    return LiePresentation(names, FiniteList(tuple(relators)))


def test_h2_metabelian_fast_path_against_hall_coordinates():
    for n, level, cap in ((2, 2, 8), (2, 1, 7), (2, 3, 10), (3, 1, 5), (3, 2, 6)):
        p = LiePresentation(tuple(f"x{i + 1}" for i in range(n)), DerivedIdeal(level))
        assert h2_graded(p, cap) == hall_h2_reference(p, cap)


@pytest.mark.parametrize("n, cap", [(1, 8), (2, 12), (3, 9), (4, 8)])
def test_h2_chen_module_matches_free_lie_path(n, cap):
    """The second derived ideal's H2, read in the Chen module, equals the
    free-Lie ranks of its basis words' generator brackets."""
    p = LiePresentation(tuple(f"x{i + 1}" for i in range(n)), DerivedIdeal(2))
    dims = h2_graded(p, cap)
    assert dims == _h2_free_lie(p, cap)
    if n == 1:
        assert not any(dims.values())


def test_x2_slice_matches_ideal_span_pivots():
    """The closed-form count of a derived ideal's basis words of multidegree
    (2, b) equals ideal_span's pivot count there, on two letters through
    degree 12."""
    words = hall_basis_derived(2, 0, 12)
    for level in (1, 2, 3):
        counts = {b: 0 for b in range(1, 11)}
        for i in ideal_span(pres(("x", "y"), (), scheme=DerivedIdeal(level)), 12).pivots:
            md = words[i].gen_counts()
            if md.get(0, 0) == 2:
                counts[md.get(1, 0)] += 1
        assert x2_slice(level, 10) == counts, level


def test_h2_matches_hall_coordinate_reference():
    rng = random.Random(20261018)
    cases = [(1, 4)] + [(2, cap) for cap in (5, 6, 6, 7, 7, 7) + (8,) * 8]
    cases += [(3, cap) for cap in (4, 4, 4, 5, 5, 5)]
    for n, cap in cases:
        p = random_homogeneous_presentation(rng, n, cap)
        assert h2_graded(p, cap) == hall_h2_reference(p, cap), presentation_to_dict(p)


def test_presentation_rejects_unknown_keys():
    """A misspelt key must not load as the free Lie algebra."""
    with pytest.raises(PresentationError, match="'relator'"):
        presentation_from_dict({"generators": ["x", "y"], "relator": ["[x,y]"]})
    with pytest.raises(PresentationError, match="'name'"):
        presentation_from_dict({"generators": ["x"], "scheme": "finite", "name": "p"})


def test_h2_rejects_inhomogeneous():
    with pytest.raises(PresentationError):
        h2_graded(HEIS, 4)


def test_finiteness_scan_verdicts():
    report = finiteness_scan(METAB, 9)
    assert report["verdict"] == "growing"
    assert report["dims"][5] > 0 and report["dims"][7] > 0 and report["dims"][9] > 0
    report2 = finiteness_scan(pres(("x", "y"), ("[x,y]",)), 6)
    assert report2["verdict"] == "bounded-so-far"
    assert report2["dims"][2] == 1


def test_finiteness_scan_x2_slice():
    # the ideal's x-degree-2 bidegree dims follow the odd/even pattern
    report = finiteness_scan(METAB, 12)
    assert report["ideal_x2_dims"] == {
        3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 4
    }
    assert report["dims"] == {
        1: 0, 2: 0, 3: 0, 4: 0, 5: 2, 6: 0, 7: 4, 8: 0,
        9: 6, 10: 0, 11: 8, 12: 0,
    }


def test_free_nilpotent_quotient():
    q = lcs_quotient(FREE2, 4)
    assert q.dims_by_weight() == {1: 2, 2: 1, 3: 2}
    assert q.dim == 5
    assert check_jacobi(q)
    assert q.check_filtration()
    # [x, y] is the third basis vector
    assert q.bracket_vec({0: ONE}, {1: ONE}) == {2: ONE}


def test_heisenberg_quotient():
    q = lcs_quotient(HEIS, 5)
    assert q.dims_by_weight() == {1: 2, 2: 1, 3: 0, 4: 0}
    assert q.labels == ("x1", "x2", "[x1,x2]")
    assert check_jacobi(q)
    # the eliminated generator maps to minus the surviving bracket word
    assert q.gen_images[0] == {0: ONE}
    assert q.gen_images[1] == {1: ONE}
    assert q.gen_images[2] == {2: Fraction(-1)}
    assert lcs_graded_dims(HEIS, 5) == {1: 2, 2: 1, 3: 0, 4: 0}


def test_abelian_quotient():
    p = pres(("a", "b", "c"), ("[a,b]", "[a,c]", "[b,c]"))
    q = lcs_quotient(p, 4)
    assert q.dims_by_weight() == {1: 3, 2: 0, 3: 0}
    assert q.brackets == {}


def test_chained_elimination():
    p = pres(("x", "y", "z", "w"), ("w - [x,z]", "z - [x,y]"))
    q = lcs_quotient(p, 5)
    assert q.dims_by_weight() == {1: 2, 2: 1, 3: 2, 4: 3}
    # w = [x,[x,y]] = -[[x,y],x], which is basis vector 3
    assert q.gen_images[3] == {3: Fraction(-1)}
    assert q.gen_images[2] == {2: ONE}


def test_elimination_with_higher_degree_occurrences():
    # z appears linearly and inside a bracket in the same relator
    p = pres(("x", "y", "z"), ("z - [x,y] - [x,z]",))
    q = lcs_quotient(p, 4)
    free = lcs_quotient(FREE2, 4)
    assert q.dims_by_weight() == free.dims_by_weight()
    assert check_jacobi(q)
    # z = [x,y] + [x,[x,y]] + [x,[x,[x,y]]] + ... truncated at weight 3
    img = q.gen_images[2]
    assert img[2] == ONE
    assert img[3] == Fraction(-1)


def random_cdga_holonomy(seed, gens, classes):
    """Holonomy of a seeded cdga with d = 0 and top degree 2, each product of
    two degree-1 basis elements a random integer combination of the degree-2
    basis (the recipe of random_cdga in test_ce.py)."""
    rng = random.Random(seed)
    mu = {}
    for i, j in combinations(range(gens), 2):
        coeffs = [rng.randint(-2, 2) for _ in range(classes)]
        terms = "".join(f"{c:+d}*b{k + 1}" for k, c in enumerate(coeffs) if c)
        if terms:
            mu[f"a{i + 1}*a{j + 1}"] = terms
    degrees = {"1": [f"a{i + 1}" for i in range(gens)], "2": [f"b{k + 1}" for k in range(classes)]}
    return holonomy(cdga_from_dict({"degrees": degrees, "d": {}, "mu": mu}))


def test_quotient_tower_compatibility():
    """lcs_quotient(p, n) is lcs_quotient(p, 6) cut to weights < n, as a
    whole: class bound, generator names, labels, weights, generator images
    and brackets.  The weights < n come first in the big basis, so the cut
    keeps a prefix.  pres_noncarnot has linear parts, so its quotients are
    filtered, not graded."""
    top = 6
    inputs = [HEIS, XXY, METAB, load_presentation(data_path("pres_noncarnot.json"))]
    for name in ("heis", "noncarnot", "torus", "wedge2"):
        inputs.append(holonomy(load_cdga(data_path(name + ".json"))))
    inputs += [random_cdga_holonomy(5, 3, 2), random_cdga_holonomy(6, 4, 4)]
    for p in inputs:
        big = lcs_quotient(p, top)
        for n in range(2, top):
            small = lcs_quotient(p, n)
            k = small.dim
            assert all(w < n for w in big.weights[:k])
            assert all(w >= n for w in big.weights[k:])
            assert big.truncate(n) == small


def hall_morphism(e, images, n_out, max_degree):
    """Push e through the Lie morphism sending generator g to images[g], a
    LieElement on n_out letters, bracket by bracket with freelie.bracket,
    truncating every intermediate result above max_degree."""
    memo = {}

    def push(w):
        if w not in memo:
            if w.level == 0:
                memo[w] = images[w.gen]
            else:
                out = push(w.children[0])
                for c in w.children[1:]:
                    out = bracket(out, push(c)).truncate(max_degree)
                memo[w] = out
        return memo[w]

    acc = zero(n_out)
    for w, c in e.terms.items():
        acc = acc + c * push(w)
    return acc.truncate(max_degree)


def hall_eliminate_linear(p, cap):
    """_eliminate_linear in Hall coordinates: (reduced presentation, generator
    images, kept names), every substitution made by hall_morphism."""
    cap = max(cap, 1)
    names = list(p.generators)
    rel = [r.truncate(cap) for r in p.scheme.relators]
    rel = [r for r in rel if not r.is_zero()]
    m = len(names)
    imgs = [gen_elt(m, i) for i in range(m)]
    while True:
        pick = next(((i, r) for i, r in enumerate(rel)
                     if any(w.degree == 1 for w in r.terms)), None)
        if pick is None:
            break
        ridx, r = pick
        lin = {w.gen: c for w, c in r.terms.items() if w.degree == 1}
        z = max(lin)
        c = lin[z]
        expr = Fraction(-1, c) * (r - c * gen_elt(m, z))
        for _ in range(cap + 1):
            if all(w.gen_counts().get(z, 0) == 0 for w in expr.terms):
                break
            subs = [expr if j == z else gen_elt(m, j) for j in range(m)]
            expr = hall_morphism(expr, subs, m, cap)
        else:
            raise AssertionError("generator elimination did not converge")
        mm = m - 1
        shifted = [zero(mm) if j == z else gen_elt(mm, j - (j > z)) for j in range(m)]
        shifted[z] = hall_morphism(expr, shifted, mm, cap)
        rel = [hall_morphism(rr, shifted, mm, cap) for k, rr in enumerate(rel) if k != ridx]
        rel = [rr for rr in rel if not rr.is_zero()]
        imgs = [hall_morphism(e, shifted, mm, cap) for e in imgs]
        del names[z]
        m = mm
    return LiePresentation(tuple(names), FiniteList(tuple(rel))), imgs, tuple(names)


def hall_lcs_quotient(p, class_bound):
    """lcs_quotient in Hall coordinates: generators that occur linearly are
    eliminated by hall_eliminate_linear, the representatives are the
    non-pivot words of hall_ideal_span's RREF rows, and quotient_basis
    projects onto them the generator images and the brackets that
    freelie.bracket normalises."""
    cap = class_bound - 1
    if isinstance(p.scheme, DerivedIdeal):
        reduced, kept = p, p.generators
        imgs = [gen_elt(p.n_gens, i) for i in range(p.n_gens)]
    else:
        reduced, imgs, kept = hall_eliminate_linear(p, cap)
    m = len(kept)
    if cap == 0 or m == 0:
        return NilpotentLieAlgebra(
            class_bound, p.generators, (), (), {}, tuple({} for _ in p.generators)
        )
    words = hall_basis_derived(m, 0, cap)
    qb = quotient_basis(hall_ideal_span(reduced, cap))
    reps = [words[r] for r in qb.reps]
    brackets = {}
    for a, wa in enumerate(reps):
        for b in range(a + 1, len(reps)):
            wb = reps[b]
            if wa.degree + wb.degree <= cap:
                z = bracket(LieElement(m, {wa: ONE}), LieElement(m, {wb: ONE}))
                table = qb.proj.matvec(_coords(z.truncate(cap), cap))
                if table:
                    brackets[(a, b)] = table
    return NilpotentLieAlgebra(
        class_bound=class_bound,
        gen_names=p.generators,
        labels=tuple(word_str(w, kept) for w in reps),
        weights=tuple(w.degree for w in reps),
        brackets=brackets,
        gen_images=tuple(qb.proj.matvec(_coords(img.truncate(cap), cap)) for img in imgs),
    )


def random_element(rng, n_gens, max_degree):
    """A seeded inhomogeneous rational combination of basis words."""
    pool = hall_basis_derived(n_gens, 0, max_degree)
    return LieElement(n_gens, {rng.choice(pool): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                               for _ in range(rng.randint(1, 4))})


def test_substitution_commutes_with_lie_tensor():
    """freelie._substitution on tensor images equals the tensor image of the
    Hall-coordinate morphism, for seeded inhomogeneous elements and
    generator images on 1-3 letters, at caps 1-6."""
    rng = random.Random(20261021)
    for _ in range(60):
        n, n_out = rng.randint(1, 3), rng.randint(1, 3)
        cap = rng.randint(1, 6 if max(n, n_out) < 3 else 4)
        e = random_element(rng, n, cap)
        images = [random_element(rng, n_out, cap) for _ in range(n)]
        want = lie_tensor(hall_morphism(e, images, n_out, cap))
        push = _substitution([lie_tensor(x) for x in images], n_out, cap)
        assert push({d: v for d, v in lie_tensor(e).items() if d <= cap}) == want


def linear_presentation(rng, n_gens, max_degree):
    """random_presentation with a random linear combination of generators
    added to each relator, so that elimination has work to do."""
    p = random_presentation(rng, n_gens, max_degree)
    relators = []
    for r in p.scheme.relators:
        lin = {generator(g): Fraction(rng.choice((-2, -1, 1, 2, 3)))
               for g in rng.sample(range(n_gens), rng.randint(1, n_gens))}
        s = r + LieElement(n_gens, lin)
        relators.append(s if not s.is_zero() else r)
    return LiePresentation(p.generators, FiniteList(tuple(relators)))


def test_tensor_elimination_matches_hall_oracle():
    """_eliminate_linear's tensor relators, images and kept names are the
    tensor images of hall_eliminate_linear's, at caps 1-6: the bundled
    presentations with linear parts, chained and self-referencing
    eliminations, and seeded relators with linear terms on 2-4 letters."""
    rng = random.Random(20261022)
    inputs = [load_presentation(data_path(f"{name}.json")) for name in (
        "pres_heis", "pres_noncarnot", "pres_cubic")]
    inputs += [pres(("x", "y", "z", "w"), ("w - [x,z]", "z - [x,y]")),
               pres(("x", "y", "z"), ("z - [x,y] - [x,z]",)),
               pres(("x", "y"), ("x + 2*y + [x,[x,y]]",)),
               pres(("x", "y"), ("x", "y"))]
    inputs += [linear_presentation(rng, n, 3 if n < 4 else 2) for n in (2, 3, 4) for _ in range(8)]
    for p in inputs:
        for cap in range(1, 7 if p.n_gens < 4 else 5):
            reduced, imgs, kept = hall_eliminate_linear(p, cap)
            got = _eliminate_linear(p, cap)
            want = [lie_tensor(r) for r in reduced.scheme.relators], [lie_tensor(e) for e in imgs]
            assert got == (*want, kept), (presentation_to_dict(p), cap)


def renumbering_eliminate_linear(p, cap):
    """_eliminate_linear as first built on tensor images: every step pushes
    every relator and image through the substitution and renumbers the
    letters past the eliminated one."""
    cap = max(cap, 1)
    names = list(p.generators)
    rel = _relator_tensors(p, cap)
    m = len(names)
    imgs = [{1: {g: ONE}} for g in range(m)]
    while (ridx := next((i for i, r in enumerate(rel) if 1 in r), None)) is not None:
        r = rel.pop(ridx)
        z = max(r[1])
        c = r[1][z]
        expr = _nonzero({d: {k: Fraction(-x, c) for k, x in v.items() if d > 1 or k != z}
                         for d, v in r.items()})
        for _ in range(cap + 2):
            subs = [expr if j == z else {1: {j: ONE}} for j in range(m)]
            expr, last = _substitution(subs, m, cap)(expr), expr
            if expr == last:
                break
        else:
            raise AssertionError("generator elimination did not converge")
        full = [{} if j == z else {1: {j - (j > z): ONE}} for j in range(m)]
        full[z] = _substitution(full, m - 1, cap)(expr)
        push = _substitution(full, m - 1, cap)
        rel = [t for t in map(push, rel) if t]
        imgs = [push(e) for e in imgs]
        del names[z]
        m -= 1
    return rel, imgs, tuple(names)


def test_elimination_matches_step_by_step_renumbering():
    """_eliminate_linear, which renumbers the kept letters once at the end
    and substitutes only into what holds the eliminated letter, equals the
    elimination that rewrites and renumbers everything at every step: on
    the linearized pres_noncarnot (155 generators, 152 eliminated) at caps
    3-6, and on seeded relators with linear terms on 2-4 letters."""
    linear = linearize_presentation(load_presentation(data_path("pres_noncarnot.json")), 3)
    for cap in range(3, 7):
        assert _eliminate_linear(linear, cap) == renumbering_eliminate_linear(linear, cap), cap
    rng = random.Random(20261023)
    for n in (2, 3, 4):
        for _ in range(10):
            p = linear_presentation(rng, n, 3 if n < 4 else 2)
            for cap in range(1, 6):
                got = _eliminate_linear(p, cap)
                assert got == renumbering_eliminate_linear(p, cap), (presentation_to_dict(p), cap)


def fraction_eliminate_linear(p, cap):
    """_eliminate_linear as it was before it ran in ints: the relators as
    _relator_tensors gives them, each expression divided out in Fractions."""
    cap = max(cap, 1)
    n = p.n_gens
    rel = [(t, {g for d, v in t.items() for k in v for g in _digits(k, d, n)})
           for t in _relator_tensors(p, cap)]
    imgs = [({1: {g: ONE}}, {g}) for g in range(n)]
    kept = list(range(n))
    while (ridx := next((i for i, (r, _) in enumerate(rel) if 1 in r), None)) is not None:
        r, used = rel.pop(ridx)
        z = max(r[1])
        c = r[1][z]
        expr = _nonzero({d: {k: Fraction(-x, c) for k, x in v.items() if d > 1 or k != z}
                         for d, v in r.items()})
        for _ in range(cap + 2):
            push = _substitution([expr if j == z else {1: {j: ONE}} for j in range(n)], n, cap)
            expr, last = push(expr), expr
            if expr == last:
                break
        else:
            raise AssertionError("generator elimination did not converge")
        rel = [(push(t), u | used) if z in u else (t, u) for t, u in rel]
        imgs = [(push(t), u | used) if z in u else (t, u) for t, u in imgs]
        kept.remove(z)
    rel, imgs = [t for t, _ in rel if t], [t for t, _ in imgs]
    if len(kept) < n:
        pos, m = {g: i for i, g in enumerate(kept)}, len(kept)

        def renumber(t):
            return {d: {sum(pos[g] * m ** i for i, g in enumerate(_digits(k, d, n))): c
                        for k, c in v.items()} for d, v in t.items()}

        rel, imgs = list(map(renumber, rel)), list(map(renumber, imgs))
    return rel, imgs, tuple(p.generators[g] for g in kept)


def test_integer_elimination_matches_fraction_elimination():
    """_eliminate_linear, which scales each relator by _integral and divides
    exactly where the pivot coefficient divides its relator, gives the
    images and kept names of the Fraction elimination, and each relator a
    positive multiple of its relator there: on the bundled presentations,
    the linearized pres_noncarnot, seeded relators with linear terms of
    coefficient -2 to 3 on 2-4 letters, seeded relators with halves, and
    one relator whose pivot coefficient 2 divides it and one it does not."""
    rng = random.Random(20261027)
    inputs = [load_presentation(data_path(f"{name}.json")) for name in (
        "pres_heis", "pres_noncarnot", "pres_cubic", "pres_torus")]
    inputs.append(linearize_presentation(inputs[1], 3))
    inputs += [pres(("x1", "x2", "x3"), ("2*x3 - 2*[x1,x2] + 4*[x1,[x1,x2]]",)),
               pres(("x1", "x2", "x3"), ("2*x3 - [x1,x2]",)),
               pres(("x1", "x2", "x3"), ("2*x3 - [x1,x2]", "x1 - 3*[x2,x3]"))]
    inputs += [linear_presentation(rng, n, 3 if n < 4 else 2) for n in (2, 3, 4) for _ in range(10)]
    for n in (2, 3):
        for _ in range(10):
            lin = LieElement(n, {generator(rng.randrange(n)): Fraction(rng.choice((2, 3)))})
            inputs.append(LiePresentation(tuple(f"x{i + 1}" for i in range(n)), FiniteList(
                tuple(e for e in (random_element(rng, n, 3) + lin, random_element(rng, n, 3))
                      if not e.is_zero()))))
    for p in inputs:
        for cap in range(1, 6 if p.n_gens < 4 else 4):
            rel, imgs, kept = _eliminate_linear(p, cap)
            want_rel, want_imgs, want_kept = fraction_eliminate_linear(p, cap)
            assert (imgs, kept) == (want_imgs, want_kept), (presentation_to_dict(p), cap)
            assert len(rel) == len(want_rel)
            for t, u in zip(rel, want_rel):
                d = min(u)
                k = min(u[d])
                scale = Fraction(t[d][k]) / u[d][k]
                assert scale > 0 and t == {e: {k: scale * x for k, x in v.items()}
                                           for e, v in u.items()}, (presentation_to_dict(p), cap)
    # 2 divides 2*x3 - 2*[x1,x2], so x3's image stays in ints; it does not
    # divide 2*x3 - [x1,x2], whose image has halves
    imgs = _eliminate_linear(inputs[5], 3)[1]
    assert all(type(x) is int for v in imgs[2].values() for x in v.values())
    imgs = _eliminate_linear(inputs[6], 3)[1]
    assert {x for v in imgs[2].values() for x in v.values()} == {Fraction(1, 2), Fraction(-1, 2)}


def test_quotient_matches_hall_coordinate_reference():
    """lcs_quotient, read in tensor coordinates on Lyndon-word columns,
    equals the Hall-coordinate quotient as a whole at classes 1-6: the
    bundled presentations, the holonomy of the bundled and two seeded random
    cdgas, 32 seeded inhomogeneous presentations, two whose eliminated
    generator has coefficient 2, so its image has halves (x3 = [x1,x2]/2),
    and derived ideals of levels 1 and 2."""
    rng = random.Random(20261019)
    inputs = [load_presentation(data_path(f"{name}.json")) for name in (
        "free_metabelian", "pres_cubic", "pres_heis", "pres_noncarnot", "pres_torus")]
    inputs += [holonomy(load_cdga(data_path(f"{name}.json")))
               for name in ("heis", "noncarnot", "torus", "wedge2")]
    inputs += [random_cdga_holonomy(5, 3, 2), random_cdga_holonomy(6, 4, 4)]
    inputs += [random_presentation(rng, 2, 3) for _ in range(22)]
    inputs += [random_presentation(rng, 3, 2) for _ in range(10)]
    inputs += [pres(("x1", "x2", "x3"), ("2*x3 - [x1,x2]", "[x1,[x1,x2]]")),
               pres(("x", "y"), ("x + 2*y + [x,[x,y]]",))]
    inputs += [pres(("x", "y", "z"), (), scheme=DerivedIdeal(1)), METAB,
               pres(("x", "y"), (), scheme=DerivedIdeal(1))]
    for p in inputs:
        for n in range(1, 7):
            assert lcs_quotient(p, n) == hall_lcs_quotient(p, n), (presentation_to_dict(p), n)


def random_filling_presentation(rng, n_gens, fill, homogeneous, late):
    """Relators whose parts of degree fill span all of L_fill, through a
    random integer matrix of full rank; when not homogeneous, each carries
    random terms of the two degrees above.  With late, a random relator one
    degree above the fill comes first, so the closure stores it, and closes
    it, before the fill degree is found."""
    words = {d: [w for w in hall_basis_derived(n_gens, 0, d) if w.degree == d]
             for d in (fill, fill + 1, fill + 2)}
    k = len(words[fill])
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        ech = EchelonForm()
        for row in rows:
            ech.insert({j: c for j, c in enumerate(row) if c})
        if ech.rank == k:
            break

    def junk(d, count):
        return {w: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                for w in rng.sample(words[d], min(count, len(words[d])))}

    relators = []
    if late:
        relators.append(LieElement(n_gens, junk(fill + 1, 3)))
    for row in rows:
        terms = {w: Fraction(c) for w, c in zip(words[fill], row) if c}
        if not homogeneous:
            terms.update(junk(fill + 1, 2))
            terms.update(junk(fill + 2, 1))
        relators.append(LieElement(n_gens, terms))
    return LiePresentation(tuple(f"x{i + 1}" for i in range(n_gens)), FiniteList(tuple(relators)))


def filling_cases():
    """(presentation, fill degree): the holonomy of heis, noncarnot and
    torus; pres_heis and pres_noncarnot, whose linear parts put the filling
    pivots above the lowest degree of their relators; a homogeneous ideal
    filled only by its closure (x1 central, x2 and x3 spanning a Heisenberg
    algebra); and seeded relators filling degree 2 on two and three letters
    and degree 3 on two, homogeneous or not, with or without a relator of
    the degree above listed first."""
    rng = random.Random(20261020)
    cases = [(holonomy(load_cdga(data_path(f"{name}.json"))), fill)
             for name, fill in (("heis", 3), ("noncarnot", 4), ("torus", 2))]
    cases += [(load_presentation(data_path(f"{name}.json")), fill)
              for name, fill in (("pres_heis", 3), ("pres_noncarnot", 4))]
    cases.append((pres(("x1", "x2", "x3"),
                       ("[x1,x2]", "[x1,x3]", "[x2,[x2,x3]]", "[x3,[x2,x3]]")), 3))
    for n, fill in ((2, 2), (2, 3), (3, 2)):
        for homogeneous in (True, False):
            for late in (False, True):
                p = random_filling_presentation(rng, n, fill, homogeneous, late)
                cases.append((p, fill))
    return cases


FILLING = filling_cases()


def test_ideal_basis_fill_degree():
    """_ideal_basis reports the first degree whose Lyndon columns fill, or
    cap + 1 when none does below the cap, also for ideals that never fill;
    its rows lie on the Lyndon columns below the fill degree and are
    independent there, in echelon form, and pivots counts their pivots,
    their lowest columns, by degree below the fill."""
    for p, fill in FILLING:
        for cap in range(1, fill + 3):
            basis, got, _, pivots = _ideal_basis(_relator_tensors(p, cap), p.n_gens, cap)
            assert got == min(fill, cap + 1), (presentation_to_dict(p), cap)
            low = sum(witt_dim(p.n_gens, d) for d in range(1, got))
            ech = EchelonForm()
            for row in basis:
                assert row and max(row) < low
                ech.insert(row)
            assert ech.rank == len(basis), (presentation_to_dict(p), cap)
            assert len({min(row) for row in basis}) == len(basis)
            tops = list(accumulate(witt_dim(p.n_gens, d) for d in range(1, cap + 1)))
            degrees = Counter(bisect_right(tops, min(row)) + 1 for row in basis)
            assert all(pivots[k] == degrees[k] for k in range(1, got)), (presentation_to_dict(p), cap)
    never = [load_presentation(data_path("pres_cubic.json")),
             holonomy(load_cdga(data_path("wedge2.json"))), XXY]
    for p in never:
        assert _ideal_basis(_relator_tensors(p, 7), p.n_gens, 7)[1] == 8


def test_ideal_basis_inserts_no_empty_vector(monkeypatch):
    """A generator bracket that vanishes below the fill is not queued, and
    an element emptied by a later fill is not inserted: the closure's
    echelon sees only nonzero vectors, on ideals that fill and ideals that
    never do."""
    cases = FILLING + [(load_presentation(data_path("pres_cubic.json")), None),
                       (random_cdga_holonomy(5, 3, 2), None)]
    inserted = []
    insert = EchelonForm.insert
    monkeypatch.setattr(EchelonForm, "insert",
                        lambda self, v: inserted.append(v) or insert(self, v))
    for p, _ in cases:
        for cap in range(1, 7):
            _ideal_basis(_relator_tensors(p, cap), p.n_gens, cap)
    assert len(inserted) > 100 and all(inserted)


def test_only_relators_taken_below_the_fill_are_scaled(monkeypatch):
    """_ideal_basis cuts a relator at the fill of the moment it is taken,
    and only then scales what is left by _integral.  In a derived level-1
    quotient only the degree-2 words, which fill degree 2, get a copy; the
    words above it are cut to nothing and copied never."""
    calls = []
    integral = fplie._integral
    monkeypatch.setattr(fplie, "_integral", lambda e: calls.append(e) or integral(e))
    for names, c in ((("x", "y"), 9), (("x", "y", "z"), 6)):
        calls.clear()
        n = len(names)
        q = lcs_quotient(pres(names, (), scheme=DerivedIdeal(1)), c)
        assert {k: v for k, v in q.dims_by_weight().items() if v} == {1: n}
        words = hall_basis_derived(n, 1, c)
        assert len(calls) == sum(w.degree == 2 for w in words) == witt_dim(n, 2) < len(words)
        assert all(set(e) == {2} for e in calls)


def fifo_ideal_basis(relators, n, cap):
    """_ideal_basis as first built: a first-in first-out pool, every
    generator bracket formed as soon as its element is stored, cut at the
    fill degree of that moment."""
    tops = list(accumulate(witt_dim(n, d) for d in range(1, cap + 1)))
    fill = cap + 1
    pivots = Counter()
    ech = EchelonForm()
    basis = []
    pool = deque(_integral(r) for r in relators)
    while pool:
        e = {d: v for d, v in pool.popleft().items() if d < fill}
        lead = ech.insert(_lyndon(e, n))[1] if e else None
        if lead is None:
            continue
        k = bisect_right(tops, lead) + 1
        if k >= fill:
            continue
        pivots[k] += 1
        if pivots[k] == witt_dim(n, k):
            fill = k
            continue
        basis.append((k, e))
        for g in range(n):
            b = _nonzero({d + 1: _tensor_commutator({g: 1}, v, n, n ** d)
                          for d, v in e.items() if d + 1 < fill})
            if b:
                pool.append(b)
    return [{d: v for d, v in e.items() if d < fill} for k, e in basis if k < fill], fill


def test_lazy_closure_matches_fifo_closure():
    """_ideal_basis, which forms each generator bracket only when it takes
    it from a lowest-degree-first pool, finds the fill degree and the span
    below it (as RREF rows on Lyndon columns) of the eager first-in
    first-out closure: on FILLING, on ideals that never fill, and on seeded
    inhomogeneous presentations with their linear generators eliminated."""

    def span(rows):
        ech = EchelonForm()
        for row in rows:
            ech.insert(row)
        return ech.backsubstitute()

    rng = random.Random(20261024)
    cases = [p for p, _ in FILLING]
    cases += [load_presentation(data_path("pres_cubic.json")), XXY, FREE2,
              holonomy(load_cdga(data_path("wedge2.json"))), random_cdga_holonomy(5, 3, 2)]
    cases += [random_presentation(rng, n, 3 if n < 4 else 2) for n in (2, 3, 4) for _ in range(6)]
    cases += [linear_presentation(rng, n, 3) for n in (2, 3) for _ in range(6)]
    for p in cases:
        for cap in range(1, {2: 10, 3: 7}.get(p.n_gens, 6)):
            relators, _, kept = _eliminate_linear(p, cap)
            n = len(kept)
            if n == 0:
                continue
            got, fill, _, _ = _ideal_basis(relators, n, cap)
            want, want_fill = fifo_ideal_basis(relators, n, cap)
            assert fill == want_fill, (presentation_to_dict(p), cap)
            assert span(got) == span(_lyndon(e, n) for e in want), (presentation_to_dict(p), cap)


def formed_ideal_basis(relators, n, cap):
    """_ideal_basis as it was before it read brackets onto the Lyndon
    columns: every generator bracket's tensor is formed, cut at the fill of
    the moment, and then cut to its Lyndon columns."""
    tops = list(accumulate(witt_dim(n, d) for d in range(1, cap + 1)))
    fill = cap + 1
    pivots, new = Counter(), Counter()
    ech = EchelonForm()
    queued = count()
    pool = [(min(r), True, next(queued), None, r) for r in relators]
    heapify(pool)
    while pool:
        _, _, _, g, e = heappop(pool)
        if g is None:
            e = {d: v for d, v in e.items() if d < fill}
            if e:
                e = _integral(e)
        else:
            e = _nonzero({d + 1: _tensor_commutator({g: 1}, v, n, n ** d)
                          for d, v in e.items() if d + 1 < fill})
        lead = ech.insert(_lyndon(e, n))[1] if e else None
        if lead is None:
            continue
        k = bisect_right(tops, lead) + 1
        if k >= fill:
            continue
        pivots[k] += 1
        if g is None:
            new[k] += 1
        if pivots[k] == witt_dim(n, k):
            fill = k
            continue
        if min(e) + 1 < fill:
            for g in range(n):
                heappush(pool, (min(e) + 1, False, next(queued), g, e))
    low = tops[fill - 2] if fill > 1 else 0
    rows = [{c: x for c, x in row.items() if c < low}
            for lead, row in ech.pivot_rows.items() if lead < low]
    return rows, fill, new, pivots


def test_brackets_read_onto_lyndon_columns_match_formed_brackets(monkeypatch):
    """_ideal_basis, which reads a bracket taken one degree below the fill
    straight onto its Lyndon columns, returns the rows, in order, the fill,
    new and pivots of the closure that forms every bracket's tensor: on
    FILLING, on ideals that never fill, and on seeded homogeneous relator
    lists and inhomogeneous presentations, their linear generators
    eliminated."""
    read = []
    bracket_read = fplie._generator_bracket
    monkeypatch.setattr(fplie, "_generator_bracket",
                        lambda *a: read.append(a) or bracket_read(*a))
    rng = random.Random(20261021)
    cases = [p for p, _ in FILLING]
    cases += [load_presentation(data_path("pres_cubic.json")), XXY,
              holonomy(load_cdga(data_path("wedge2.json"))), random_cdga_holonomy(7, 3, 2)]
    cases += [random_relator_list(rng, n, 5 if n == 2 else 3, 2, rng.random() < 0.5,
                                  rng.random() < 0.5) for n in (2, 3) for _ in range(8)]
    cases += [random_presentation(rng, n, 3) for n in (2, 3) for _ in range(6)]
    cases += [linear_presentation(rng, n, 3) for n in (2, 3) for _ in range(6)]
    for p in cases:
        for cap in range(1, {2: 9, 3: 7}.get(p.n_gens, 6)):
            relators, _, kept = _eliminate_linear(p, cap)
            if kept:
                got = _ideal_basis(relators, len(kept), cap)
                assert got == formed_ideal_basis(relators, len(kept), cap), (presentation_to_dict(p), cap)
    assert len(read) > 1000


def two_echelon_h2(p, cap):
    """h2_graded on a relator list as it was before the closure counted
    relators: J from the eager closure (fifo_ideal_basis) and [L, J] =
    [A, J] ranked in a second echelon over the generator brackets of J's
    basis; from the fill degree on J_k = L_k, and [L, J]_k = L_k above it."""
    n = p.n_gens
    basis, fill = fifo_ideal_basis(_relator_tensors(p, cap), n, cap)
    j_dims = Counter(d for e in basis for d in e)
    j_dims.update({k: witt_dim(n, k) for k in range(fill, cap + 1)})
    ad_dims = Counter({k: witt_dim(n, k) for k in range(fill + 1, cap + 1)})
    ech = EchelonForm()
    for e in basis:
        for d, v in e.items():
            if d < cap:
                for g in range(n):
                    if ech.insert(_lyndon({d + 1: _tensor_commutator({g: 1}, v, n, n ** d)}, n))[0]:
                        ad_dims[d + 1] += 1
    return {k: j_dims[k] - ad_dims[k] if k > 1 else 0 for k in range(1, cap + 1)}


def random_relator_list(rng, n_gens, top, low, duplicate, consequence):
    """One to three homogeneous relators of degrees low to top + 1, each one
    to three basis words with Fraction coefficients, so some lie above the
    caps below top + 1; with duplicate, a scalar multiple of one of them
    follows, and with consequence, a generator bracket of one."""
    words = {d: [w for w in hall_basis_derived(n_gens, 0, d) if w.degree == d]
             for d in range(low, top + 2)}
    words = {d: ws for d, ws in words.items() if ws}
    relators = []
    for _ in range(rng.randint(1, 3)):
        d = rng.choice(sorted(words))
        relators.append(LieElement(n_gens, {
            w: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
            for w in rng.sample(words[d], min(len(words[d]), rng.randint(1, 3)))}))
    if duplicate:
        relators.append(Fraction(rng.choice((-2, 3)), rng.randint(1, 2)) * rng.choice(relators))
    if consequence:
        r = bracket(gen_elt(n_gens, rng.randrange(n_gens)), rng.choice(relators))
        if not r.is_zero():
            relators.append(Fraction(rng.randint(1, 3), 2) * r)
    rng.shuffle(relators)
    return LiePresentation(tuple(f"x{i + 1}" for i in range(n_gens)), FiniteList(tuple(relators)))


def test_h2_matches_two_echelon_count():
    """h2_graded, which counts the relators that raise the closure's rank
    past their degree's generator brackets, equals the two-echelon count
    at every cap from 1 to each case's top, and does not change when the
    relator list is permuted: seeded relator lists on 1-4 letters, with
    and without degree-1 relators, scalar duplicates and generator-bracket
    consequences, and the homogeneous FILLING cases past their fill degree."""
    rng = random.Random(20261101)
    cases = []
    for n, top, count in ((1, 4, 3), (2, 8, 6), (3, 6, 5), (4, 4, 3)):
        for low in range(1, min(n, 2) + 1):
            for duplicate in (False, True):
                for consequence in (False, True):
                    cases += [(random_relator_list(rng, n, top, low, duplicate, consequence), top)
                              for _ in range(count)]
    cases += [(p, fill + 3) for p, fill in FILLING
              if all(r.is_homogeneous() for r in p.scheme.relators)]
    for p, top in cases:
        relators = list(p.scheme.relators)
        rng.shuffle(relators)
        shuffled = LiePresentation(p.generators, FiniteList(tuple(relators)))
        for cap in range(1, top + 1):
            want = two_echelon_h2(p, cap)
            assert h2_graded(p, cap) == want, (presentation_to_dict(p), cap)
            assert h2_graded(shuffled, cap) == want, (presentation_to_dict(shuffled), cap)


def test_h2_of_a_relator_list_builds_one_echelon(monkeypatch):
    """h2_graded on a relator list runs one elimination, the closure's: the
    relators it counts are H2, so no second echelon ranks [L, J]."""
    built = []
    init = EchelonForm.__init__
    monkeypatch.setattr(EchelonForm, "__init__",
                        lambda self, *a, **k: built.append(self) or init(self, *a, **k))
    cases = [(load_presentation(data_path("pres_cubic.json")), 12), (XXY, 9),
             (pres(("x", "y"), ("[x,y]",)), 6), (FREE2, 5)]
    for p, cap in cases:
        built.clear()
        h2_graded(p, cap)
        assert len(built) == 1, presentation_to_dict(p)


def test_h2_closes_only_through_the_top_relator_degree(monkeypatch):
    """h2_graded on a relator list closes J only through its top relator
    degree: pres_cubic's relator has degree 3, so at cap 13 the closure
    gets cap 3, and the H2 dims above it are still reported, as 0."""
    caps = []
    monkeypatch.setattr("lieobstruct.fplie._ideal_basis",
                        lambda rels, n, cap: caps.append(cap) or _ideal_basis(rels, n, cap))
    dims = h2_graded(load_presentation(data_path("pres_cubic.json")), 13)
    assert caps == [3]
    assert dims == {k: int(k == 3) for k in range(1, 14)}


def test_h2_above_the_top_relator_degree_matches_two_echelon_count():
    """At caps 1-3 above a relator list's top degree, where h2_graded's
    closure stops below the cap, it equals the two-echelon count, whose
    closure runs through the cap: seeded relator lists on 1-4 letters."""
    rng = random.Random(20261120)
    for n, top, count in ((1, 3, 3), (2, 6, 8), (3, 4, 6), (4, 3, 3)):
        for _ in range(count):
            p = random_relator_list(rng, n, top, rng.randint(1, min(n, 2)), rng.random() < 0.5,
                                    rng.random() < 0.5)
            high = max(d for r in p.scheme.relators for d in r.degrees())
            for cap in range(high + 1, high + 4):
                assert h2_graded(p, cap) == two_echelon_h2(p, cap), (presentation_to_dict(p), cap)


def test_lyndon_bracket_matches_full_commutator():
    """The Lyndon coordinates of [w_a, w_b] read off one split per Lyndon
    word equal those of the full tensor commutator, on seeded pairs of
    Hall words on 2-4 letters, equal pairs included."""
    rng = random.Random(20261025)
    for n, top in ((2, 12), (3, 8), (4, 6)):
        words = {d: [w for w in hall_basis_derived(n, 0, d) if w.degree == d] for d in range(1, top)}
        for _ in range(100):
            da = rng.randint(1, top - 1)
            wa, wb = rng.choice(words[da]), rng.choice(words[rng.randint(1, top - da)])
            ta, tb = tensor_expand(wa, n), tensor_expand(wb, n)
            letters = tuple(g for g, c in enumerate(multidegree(wa, n)) for _ in range(c))
            letters += tuple(g for g, c in enumerate(multidegree(wb, n)) for _ in range(c))
            got = _lyndon_bracket(ta, tb, wa.degree, wb.degree, letters, n)
            full = _tensor_commutator(ta, tb, n ** wa.degree, n ** wb.degree)
            assert got == _lyndon({wa.degree + wb.degree: full}, n), (n, wa, wb)


def test_split_lyndon_matches_the_full_image(monkeypatch):
    """The Lyndon coordinates of a bracket word read off its one split
    [prefix, last child], and of a letter read as its own column, equal
    those of its full tensor image, for every word on 2 letters through
    degree 12, 3 through 8 and 4 through 6.  The images go to an emptied
    memo, which drops each top one."""
    monkeypatch.setattr(freelie, "_EXPAND", {})
    for n, top in ((2, 12), (3, 8), (4, 6)):
        for w in hall_basis_derived(n, 0, top):
            full = _lyndon({w.degree: tensor_expand(w, n)}, n)
            assert _split_lyndon(w, n) == full, (n, w)
            if w.degree == top:
                del freelie._EXPAND[w, n]


def test_quotient_builds_no_top_degree_image(monkeypatch):
    """On an emptied tensor_expand memo, lcs_quotient of the free
    2-generator algebra at class c memoises words of degree c - 2 and none
    of degree c - 1: the scan reads every bracket word off one split
    and the bracket table needs no top-weight image."""
    p = holonomy(load_cdga(data_path("wedge2.json")))
    for c in range(3, 11):
        monkeypatch.setattr(freelie, "_EXPAND", {})
        assert lcs_quotient(p, c).dims_by_weight()[c - 1] == witt_dim(2, c - 1)
        assert max(w.degree for w, _ in freelie._EXPAND) == c - 2, c


def test_scan_memoises_only_the_images_its_splits_read(monkeypatch):
    """On an emptied tensor_expand memo, the representative scan over every
    word on 2 letters through degree 10, and on 3 through 6, memoises the
    prefix and last child of each bracket word and the words tensor_expand
    builds their images from, and no other word: no word's image is built
    for its own vector."""
    for n, cap in ((2, 10), (3, 6)):
        monkeypatch.setattr(freelie, "_EXPAND", {})
        words = hall_basis_derived(n, 0, cap)
        _quotient_scan([], n, words)
        todo = [w[2] if len(w) == 4 else HallWord(w.level, children=w[2:-1])
                for w in words if w[0]]
        todo += [w[-1] for w in words if w[0]]
        need = set()
        while todo:
            w = todo.pop()
            if w not in need:
                need.add(w)
                todo.extend(w[2:] if w[0] else ())
        assert {w for w, _ in freelie._EXPAND} == need, (n, cap)
        assert len(need) < len(words) // 2


def test_quotients_past_the_fill_degree():
    """Past the fill degree, lcs_quotient equals the Hall-coordinate
    quotient, whose closure runs through the whole cap, and a quotient at a
    class well beyond the fill truncates to each smaller one."""
    for p, fill in FILLING:
        top = {2: 8, 3: 6}.get(p.n_gens, 5)
        for n in range(fill, top + 1):
            assert lcs_quotient(p, n) == hall_lcs_quotient(p, n), (presentation_to_dict(p), n)
        big = lcs_quotient(p, fill + 8)
        for n in range(1, fill + 8):
            assert big.truncate(n) == lcs_quotient(p, n), (presentation_to_dict(p), n)


def test_ideal_span_and_h2_past_the_fill_degree():
    """Past the fill degree, ideal_span equals the Hall-coordinate closure
    as a subspace and the brute-force closure in its pivots, and on
    homogeneous relators h2_graded equals the Hall-coordinate Hopf count."""
    for p, fill in FILLING:
        cap = {2: 7, 3: 5}.get(p.n_gens, 4)
        span = ideal_span(p, cap)
        assert span == hall_ideal_span(p, cap), presentation_to_dict(p)
        if p.n_gens <= 3:
            small = cap - 2 if p.n_gens == 2 else cap - 1
            assert ideal_span(p, small).pivots == brute_ideal_pivots(p, small)
        if all(r.is_homogeneous() for r in p.scheme.relators):
            assert h2_graded(p, cap + 1) == hall_h2_reference(p, cap + 1), presentation_to_dict(p)


def writeback_ideal_span(p, cap):
    """ideal_span as it was before it read the quotient scan: the tensor
    closure's basis (here the eager one of fifo_ideal_basis) written back
    over the basis words one multidegree at a time by
    _solver(n, md).solve, the words at or above the fill degree added
    as unit rows, and the whole reduced by Subspace.span."""
    n = p.n_gens
    idx = {w: i for i, w in enumerate(hall_basis_derived(n, 0, cap))}
    basis, fill = fifo_ideal_basis(_relator_tensors(p, cap), n, cap)
    rows = []
    for e in basis:
        parts = {}
        for d, v in e.items():
            for k, c in v.items():
                counts = Counter(_digits(k, d, n))
                parts.setdefault(tuple(counts[g] for g in range(n)), {})[k] = c
        rows.append({idx[w]: c for md, t in parts.items()
                     for w, c in _solver(n, md).solve(t).items()})
    rows += [{i: ONE} for w, i in idx.items() if w.degree >= fill]
    return Subspace.span(rows, len(idx))


def random_graded_presentation(rng, n_gens, low, homogeneous):
    """One or two relators, each an integer combination of basis words of
    degree low, or when not homogeneous of degrees low and low + 1."""
    degrees = (low,) if homogeneous else (low, low + 1)
    pool = [w for w in hall_basis_derived(n_gens, 0, max(degrees)) if w.degree in degrees]
    relators, count = [], rng.randint(1, 2)
    while len(relators) < count:
        e = LieElement(n_gens, {w: Fraction(rng.choice((-2, -1, 1, 3)))
                                for w in rng.sample(pool, min(len(pool), rng.randint(1, 3)))})
        if e.is_homogeneous() == homogeneous:
            relators.append(e)
    return LiePresentation(tuple(f"x{i + 1}" for i in range(n_gens)), FiniteList(tuple(relators)))


def test_ideal_span_matches_writeback():
    """ideal_span, whose rows are read off the quotient scan's cosets,
    equals the solver write-back of the closure as a subspace, and its rows
    are canonical already (Subspace.span leaves them as they are): seeded
    homogeneous and inhomogeneous presentations on two letters at caps 9-11
    and on three at cap 6, the holonomies of the bundled cdgas, and FILLING
    past the fill degree."""
    rng = random.Random(20261026)
    cases = []
    for n, caps, low in ((2, (9, 10, 11), 3), (3, (6,), 2)):
        for homogeneous in (True, False, True, False):
            p = random_graded_presentation(rng, n, low, homogeneous)
            cases += [(p, cap) for cap in caps]
    cases += [(holonomy(load_cdga(data_path(f"{name}.json"))), cap)
              for name, cap in (("heis", 5), ("noncarnot", 6), ("torus", 4), ("wedge2", 9))]
    cases += [(p, {2: 7, 3: 5}.get(p.n_gens, 4)) for p, _ in FILLING]
    for p, cap in cases:
        s = ideal_span(p, cap)
        assert s == writeback_ideal_span(p, cap), (presentation_to_dict(p), cap)
        assert Subspace.span(s.basis_rows, s.ambient) == s, (presentation_to_dict(p), cap)


def tracked_quotient_scan(ideal, m, words):
    """_quotient_scan as it was before it reduced modulo J's RREF: one
    tracked echelon takes J's tensor basis, then the words from last to
    first, and keeps those that raise its rank."""
    ech = EchelonForm(track=True)
    for e in ideal:
        ech.insert(_lyndon(e, m))
    found = []
    for j, w in zip(range(len(words) - 1, -1, -1), reversed(words)):
        if ech.insert(_lyndon({w.degree: tensor_expand(w, m)}, m))[0]:
            found.append((ech.n_inserted - 1, j))
    reps = [j for _, j in reversed(found)]
    slot = {i: len(reps) - 1 - a for a, (i, _) in enumerate(found)}

    def coset(vec):
        res, combo = ech.reduce(vec)
        assert not res
        return {slot[i]: c for i, c in combo.items() if i in slot}

    return reps, coset


def test_quotient_scan_matches_the_tracked_scan():
    """_quotient_scan, which reduces modulo the RREF of the closure's rows
    and tracks only the words' residuals, keeps the words the tracked scan
    over J's eager tensor basis keeps, and gives every word, every bracket
    of two kept words and every generator image the same coset; each word
    it does not keep, read off its split, has that coset too, over later
    representatives only.  On the bundled presentations, FILLING, seeded
    homogeneous, inhomogeneous and linear relator lists, seeded cdga
    holonomies, and derived schemes of levels 1-3."""
    rng = random.Random(20261028)
    cases = [load_presentation(data_path(f"{name}.json")) for name in (
        "pres_heis", "pres_noncarnot", "pres_cubic", "pres_torus", "free_metabelian")]
    cases += [p for p, _ in FILLING] + [XXY, FREE2, HEIS, METAB]
    cases += [random_graded_presentation(rng, n, low, homogeneous)
              for n, low in ((2, 2), (2, 3), (3, 2)) for homogeneous in (True, False)]
    cases += [linear_presentation(rng, n, 3) for n in (2, 3) for _ in range(3)]
    cases += [random_cdga_holonomy(seed, 3, 2) for seed in (1, 2)]
    cases += [pres(("x", "y"), (), DerivedIdeal(k)) for k in (1, 3)]
    cases += [pres(("x", "y", "z"), (), DerivedIdeal(k)) for k in (1, 2)]
    checked = 0
    for p in cases:
        for cap in range(1, {2: 10, 3: 6}.get(p.n_gens, 4)):
            if isinstance(p.scheme, DerivedIdeal):
                m, imgs = p.n_gens, [{1: {g: 1}} for g in range(p.n_gens)]
                old = [{w.degree: tensor_expand(w, m)}
                       for w in hall_basis_derived(m, p.scheme.level, cap)]
                new = [_lyndon(e, m) for e in old]
            else:
                relators, imgs, kept = _eliminate_linear(p, cap)
                m = len(kept)
                if m == 0:
                    continue
                new, fill, _, _ = _ideal_basis(relators, m, cap)
                old = fifo_ideal_basis(relators, m, cap)[0]
                cap = min(cap, fill - 1)
            words = hall_basis_derived(m, 0, cap)
            want_reps, want = tracked_quotient_scan(old, m, words)
            reps, coset = _quotient_scan(new, m, words)
            assert reps == want_reps, (presentation_to_dict(p), cap)
            vecs = [_lyndon({w.degree: tensor_expand(w, m)}, m) for w in words]
            vecs += [_lyndon({d: v for d, v in img.items() if d <= cap}, m) for img in imgs]
            for a, b in combinations(reps, 2):
                da, db = words[a].degree, words[b].degree
                if da + db <= cap:
                    vecs.append(_lyndon({da + db: _tensor_commutator(
                        tensor_expand(words[a], m), tensor_expand(words[b], m), m ** da, m ** db)}, m))
            for v in vecs:
                assert coset(v) == want(v), (presentation_to_dict(p), cap)
            for j in set(range(len(words))) - set(reps):
                c = coset(_split_lyndon(words[j], m))
                assert c == want(vecs[j]) and all(reps[a] > j for a in c)
            checked += len(vecs)
    assert checked > 5000


def test_scan_stops_each_degree_at_its_rank(monkeypatch):
    """On three letters with two generic quadratic relators (the shape of a
    random d = 0 cdga's holonomy), lcs_quotient at class 7 builds the
    vectors of exactly the words from the last one of each degree down to
    that degree's first representative, fewer than the bracket words
    alone; a degree holding one word more than its rank modulo J ends
    short of it, an InternalError."""
    p = pres(("x", "y", "z"), ("[x,y] + 2*[x,z] - 3*[y,z]", "2*[x,y] - [x,z] + [y,z]"))
    built, split = [], fplie._split_lyndon
    monkeypatch.setattr(fplie, "_split_lyndon", lambda w, m: built.append(w) or split(w, m))
    q = lcs_quotient(p, 7)
    words = hall_basis_derived(3, 0, 6)
    first = {}
    for i, w in enumerate(words):
        if word_str(w, p.generators) in q.labels:
            first.setdefault(w.degree, i)
    index = {w: i for i, w in enumerate(words)}
    assert sorted(index[w] for w in built) == [
        i for i, w in enumerate(words) if i >= first.get(w.degree, len(words))]
    assert len(built) < sum(1 for w in words if w[0])
    ideal, fill, _, _ = _ideal_basis(_relator_tensors(p, 6), 3, 6)
    assert fill == 7
    assert _quotient_scan(ideal, 3, words)[0] == [index[w] for w in words
                                                  if word_str(w, p.generators) in q.labels]
    with pytest.raises(InternalError, match="rank"):
        _quotient_scan(ideal, 3, (*words, words[-1]))


def test_lcs_graded_dims_match_the_quotient():
    """lcs_graded_dims, read off the closure's pivot counts, equals
    lcs_quotient(p, c).dims_by_weight() at every class through a cap: on
    the bundled holonomies and presentations, seeded homogeneous,
    inhomogeneous and linear relator lists, seeded cdga holonomies, derived
    levels 1-3, and alphabets of 0 and 1 letters.  Both raise the same
    errors on a class below 1 and on a guarded derived level."""
    rng = random.Random(20261029)
    cases = [holonomy(load_cdga(data_path(f"{name}.json")))
             for name in ("heis", "noncarnot", "torus", "wedge2")]
    cases += [load_presentation(data_path(f"{name}.json")) for name in (
        "pres_heis", "pres_noncarnot", "pres_cubic", "pres_torus", "free_metabelian")]
    cases += [random_graded_presentation(rng, n, low, homogeneous)
              for n, low in ((2, 2), (2, 3), (3, 2)) for homogeneous in (True, False)]
    cases += [linear_presentation(rng, n, 3) for n in (2, 3) for _ in range(3)]
    cases += [random_cdga_holonomy(seed, 3, 2) for seed in range(3)]
    cases += [pres(("x", "y"), (), DerivedIdeal(k)) for k in (1, 2, 3)]
    cases += [pres(("x", "y", "z"), (), DerivedIdeal(1)), pres((), ()), pres(("x",), ()),
              pres(("x",), ("x",)), pres(("x", "y"), ("x - [x,y]",))]
    for p in cases:
        for c in range(1, {0: 6, 1: 6, 2: 9, 3: 7}.get(p.n_gens, 5)):
            assert lcs_graded_dims(p, c) == lcs_quotient(p, c).dims_by_weight(), (
                presentation_to_dict(p), c)
    for p, c in ((FREE2, 0), (pres(("a", "b", "c"), (), DerivedIdeal(2)), 4), (METAB, 9)):
        messages = set()
        for f in (lcs_graded_dims, lcs_quotient):
            with pytest.raises(PresentationError) as err:
                f(p, c)
            messages.add(str(err.value))
        assert len(messages) == 1, (presentation_to_dict(p), c)


def test_ideal_span_non_pivots_are_the_quotient_representatives():
    """Without linear generators, the words that are not pivots of
    ideal_span(p, c) are the representatives of lcs_quotient(p, c + 1), in
    order: pres_cubic, the FILLING cases with no linear part, past their
    fill degree,
    the holonomies of the bundled cdgas, seeded homogeneous presentations
    and derived ideals, at several caps."""
    rng = random.Random(20261027)
    inputs = [load_presentation(data_path("pres_cubic.json")), XXY, FREE2, METAB,
              pres(("x", "y", "z"), (), scheme=DerivedIdeal(1))]
    inputs += [p for p, _ in FILLING if all(min(lie_tensor(r)) > 1 for r in p.scheme.relators)]
    inputs += [holonomy(load_cdga(data_path(f"{name}.json")))
               for name in ("heis", "noncarnot", "torus", "wedge2")]
    inputs += [random_homogeneous_presentation(rng, n, 4) for n in (2, 3) for _ in range(4)]
    for p in inputs:
        for cap in range(1, {2: 8, 3: 6}.get(p.n_gens, 4)):
            words = hall_basis_derived(p.n_gens, 0, cap)
            pivots = set(ideal_span(p, cap).pivots)
            labels = tuple(word_str(w, p.generators)
                           for i, w in enumerate(words) if i not in pivots)
            assert labels == lcs_quotient(p, cap + 1).labels, (presentation_to_dict(p), cap)


def test_lyndon_columns_are_the_lyndon_words():
    """The columns of degree d are the Lyndon words of length d, the words
    strictly smaller than each of their proper rotations, witt_dim of them,
    numbered in lexicographic order after the columns of every lower
    degree; _is_lyndon, the solver's key test, picks the same words."""
    from itertools import product

    for n, top in ((2, 9), (3, 6), (4, 4)):
        base = 0
        for d in range(1, top + 1):
            lyndon = {
                sum(g * n ** (d - 1 - i) for i, g in enumerate(u))
                for u in product(range(n), repeat=d)
                if all(u < u[r:] + u[:r] for r in range(1, d))
            }
            cols = _lyndon_columns(n, d)
            assert set(cols) == lyndon and len(lyndon) == witt_dim(n, d)
            assert {k for k in range(n ** d) if _is_lyndon(k, d, n)} == lyndon
            assert [cols[k] for k in sorted(cols)] == list(range(base, base + len(lyndon)))
            base += len(lyndon)


def test_metabelian_quotient_dims():
    q = lcs_quotient(METAB, 6)
    assert q.dims_by_weight() == {1: 2, 2: 1, 3: 2, 4: 3, 5: 4}
    assert check_jacobi(q)
    assert q.check_filtration()


def test_derived_quotient_guard():
    """Derived schemes of level >= 2 stop at two generators and class 8:
    pinned on both sides until the guard gives way to an ambient budget."""
    limited = "limited to two generators and class bound <= 8"
    with pytest.raises(PresentationError, match=limited):
        lcs_quotient(
            LiePresentation(("a", "b", "c"), DerivedIdeal(2)), 4
        )
    with pytest.raises(PresentationError, match=limited):
        lcs_quotient(METAB, 9)
    q = lcs_quotient(METAB, 8)
    assert q.dims_by_weight() == {1: 2, 2: 1, 3: 2, 4: 3, 5: 4, 6: 5, 7: 6}
    # level 1 has no such restriction
    q = lcs_quotient(LiePresentation(("a", "b", "c"), DerivedIdeal(1)), 4)
    assert q.dims_by_weight() == {1: 3, 2: 0, 3: 0}


def word_vector_lcs_quotient(p, class_bound):
    """lcs_quotient of a derived ideal as it was before the ideal went
    through the closure: the basis words' vectors go straight into
    _quotient_scan, uncut at the fill degree, each generator's image is
    its own letter, and each bracket is read off the full tensor
    commutator of the two representatives."""
    cap, m = class_bound - 1, p.n_gens
    if cap == 0 or m == 0:
        return NilpotentLieAlgebra(class_bound, p.generators, (), (), {}, tuple({} for _ in range(m)))
    ideal = [_lyndon({w.degree: tensor_expand(w, m)}, m)
             for w in hall_basis_derived(m, p.scheme.level, cap)]
    words = hall_basis_derived(m, 0, cap)
    reps, coset = _quotient_scan(ideal, m, words)
    reps = [words[j] for j in reps]
    weights = [w.degree for w in reps]
    brackets = {}
    for a, b in combinations(range(len(reps)), 2):
        da, db = weights[a], weights[b]
        if da + db <= cap:
            full = _tensor_commutator(tensor_expand(reps[a], m), tensor_expand(reps[b], m),
                                      m ** da, m ** db)
            table = coset(_lyndon({da + db: full}, m))
            if table:
                brackets[(a, b)] = table
    return NilpotentLieAlgebra(
        class_bound, p.generators, tuple(word_str(w, p.generators) for w in reps),
        tuple(weights), brackets, tuple(coset({g: 1}) for g in range(m)))


def test_derived_quotient_matches_the_word_vector_scan():
    """A derived ideal's quotient, whose basis words now go through
    _eliminate_linear and the closure like any relator list, equals the
    quotient that scanned modulo the words' own vectors: labels, weights,
    brackets and generator images, on levels 1-3 and 2-4 letters at every
    class the guard allows, up to 8."""
    for level in (1, 2, 3):
        for n in (2, 3, 4) if level == 1 else (2,):
            p = LiePresentation(tuple(f"x{i + 1}" for i in range(n)), DerivedIdeal(level))
            for c in range(1, 9):
                assert lcs_quotient(p, c) == word_vector_lcs_quotient(p, c), (level, n, c)


def test_derived_ideal_builds_images_only_through_its_full_degree(monkeypatch):
    """A derived ideal's basis words go to the closure only through the
    first degree they fill, degree 2 for level 1, so a level-1 quotient
    builds the tensor images of the letters and of the degree-2 words
    alone: 3 on two letters at class 14 and 6 on three at class 10, where
    the image of every basis word through the cap was built before (1,377
    and 3,502).  The second derived ideal never fills a degree, and all its
    words through the cap go in.  The quotients equal the word-vector
    scan's."""
    for n, c in ((2, 14), (3, 10)):
        p = LiePresentation(tuple(f"x{i + 1}" for i in range(n)), DerivedIdeal(1))
        monkeypatch.setattr(freelie, "_EXPAND", {})
        q = lcs_quotient(p, c)
        assert len(freelie._EXPAND) == n + witt_dim(n, 2), (n, c)
        assert {k: v for k, v in q.dims_by_weight().items() if v} == {1: n}
        assert [set(t) for t in _relator_tensors(p, c - 1)] == [{2}] * witt_dim(n, 2)
    p = LiePresentation(("x1", "x2"), DerivedIdeal(2))
    assert len(_relator_tensors(p, 9)) == len(hall_basis_derived(2, 2, 9))
    for level, n, c in ((1, 2, 12), (1, 3, 9), (1, 4, 8)):
        p = LiePresentation(tuple(f"x{i + 1}" for i in range(n)), DerivedIdeal(level))
        assert lcs_quotient(p, c) == word_vector_lcs_quotient(p, c), (level, n, c)


def test_zero_letter_derived_quotients_are_empty():
    """With no letters, a derived scheme still gives the empty algebra,
    at class 1 and past it, though no basis word can be enumerated."""
    for level in (1, 2, 3):
        p = LiePresentation((), DerivedIdeal(level))
        for c in (1, 3):
            assert lcs_quotient(p, c) == NilpotentLieAlgebra(c, (), (), (), {}, ()), (level, c)


def test_elimination_returns_a_list_without_linear_parts_unchanged(monkeypatch):
    """When no relator has a degree-1 part, _eliminate_linear returns the
    relators as _relator_tensors gives them, halves unscaled, with the
    identity images and every name, and makes no _integral copy."""
    def no_copy(_t):
        raise AssertionError("_integral called with nothing to eliminate")

    monkeypatch.setattr(fplie, "_integral", no_copy)
    cases = [load_presentation(data_path(f"{name}.json")) for name in ("pres_cubic", "pres_torus")]
    cases += [XXY, FREE2, METAB, pres(("x", "y", "z"), ("[x,[x,y]] + 1/2*[z,[x,y]]", "1/3*[y,z]")),
              holonomy(load_cdga(data_path("wedge2.json")))]
    for p in cases:
        for cap in range(0, 6):
            rel, imgs, kept = _eliminate_linear(p, cap)
            assert rel == _relator_tensors(p, max(cap, 1)), (presentation_to_dict(p), cap)
            assert imgs == [{1: {g: 1}} for g in range(p.n_gens)] and kept == p.generators
    halves = _eliminate_linear(cases[-2], 3)[0]
    assert {x for t in halves for v in t.values() for x in v.values()} >= {Fraction(1, 2)}


def test_trivial_class_bounds():
    q = lcs_quotient(HEIS, 1)
    assert q.dim == 0
    q2 = lcs_quotient(HEIS, 2)
    assert q2.dims_by_weight() == {1: 2}
    with pytest.raises(PresentationError):
        lcs_quotient(HEIS, 0)
    top = lcs_quotient(HEIS, 4)
    assert top.truncate(1) == q
    assert top.truncate(4) == top
    for bad in (0, 5):
        with pytest.raises(PresentationError):
            top.truncate(bad)


def test_linearize_heisenberg():
    out = linearize_presentation(HEIS, 2)
    assert len(out.generators) == 12
    assert out.generators[:3] == ("y1", "y2", "y3")
    for r in out.scheme.relators:
        assert set(r.degrees()) <= {1, 2}
    assert lcs_graded_dims(out, 6) == lcs_graded_dims(HEIS, 6)


def test_linearize_cubic_relator():
    out = linearize_presentation(XXY, 3)
    assert len(out.generators) == 2 + 4 + 8
    nn = len(out.generators)
    target = gen_elt(nn, out.generators.index("y112"))
    assert any(r == target for r in out.scheme.relators)
    assert lcs_graded_dims(out, 6) == lcs_graded_dims(XXY, 6)


def test_linearize_free_presentation():
    out = linearize_presentation(FREE2, 2)
    dims = lcs_graded_dims(out, 6)
    assert dims == {k: witt_dim(2, k) for k in range(1, 6)}


class _AdBasis:
    """Tracked echelon over the degree-d right-normed ad monomials
    [x_{i1}, [x_{i2}, [... x_{ik}]]], in lexicographic order, for writing
    homogeneous elements as monomial combinations with free coordinates set
    to zero.  Rows are tensor images over _word_int columns: the set of
    independent monomials and the expression over them do not depend on the
    coordinates."""

    def __init__(self, n_gens, degree):
        from itertools import product

        self.degree = degree
        self.ech = EchelonForm(track=True)
        # combo indices count every insert attempt, so keep them all
        self.attempts = list(product(range(n_gens), repeat=degree))
        for J in self.attempts:
            vec = {J[-1]: 1}
            for d, i in enumerate(reversed(J[:-1]), 1):
                vec = _tensor_commutator({i: 1}, vec, n_gens, n_gens ** d)
            self.ech.insert(vec)

    def express(self, e: LieElement) -> dict:
        """A nonzero element of this degree over the ad monomials."""
        res, combo = self.ech.reduce(lie_tensor(e)[self.degree])
        if res:
            raise InternalError("ad monomials failed to span a graded piece")
        return {self.attempts[i]: c for i, c in (combo or {}).items()}


@lru_cache(maxsize=None)
def _ad_basis(n_gens, degree):
    return _AdBasis(n_gens, degree)


def ad_basis_relators(p, bound):
    """linearize_presentation's rewritten relators as _AdBasis gave them:
    one echelon over all n**d ad monomials of each degree d, on full tensor
    columns."""
    n = p.n_gens
    tuples = [J for length in range(1, bound + 1) for J in product(range(n), repeat=length)]
    pos = {J: i for i, J in enumerate(tuples)}
    out = []
    for r in p.scheme.relators:
        acc = zero(len(tuples))
        for d in r.degrees():
            for J, c in sorted(_ad_basis(n, d).express(r.component(d)).items()):
                acc = acc + c * gen_elt(len(tuples), pos[J])
        out.append(acc)
    return out


def test_linearize_matches_the_ad_basis_echelon():
    """linearize_presentation solves each relator one letter multiset at a
    time over Lyndon columns; its rewritten relators, terms in order, equal
    _AdBasis's, on the four bundled pres_* at their top relator degree and
    one above, and on 40 seeded relator lists on 2-3 letters of degree 3-6,
    38 of them with a letter repeated in some word and 6 on 3 letters
    reaching degree 6."""
    cases = []
    for name in ("cubic", "heis", "noncarnot", "torus"):
        p = load_presentation(data_path(f"pres_{name}.json"))
        top = max(d for r in p.scheme.relators for d in r.degrees())
        cases += [(p, top), (p, top + 1)]
    rng = random.Random(20261028)
    repeated = deep = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        rels = tuple(random_element(rng, n, rng.randint(3, 6)) for _ in range(rng.randint(1, 2)))
        rels = tuple(r for r in rels if not r.is_zero())
        if not rels:
            continue
        p = LiePresentation(("x", "y", "z")[:n], FiniteList(rels))
        cases.append((p, max(d for r in rels for d in r.degrees())))
        repeated += any(max(w.gen_counts().values()) > 1 for r in rels for w in r.terms)
        deep += cases[-1] == (p, 6) and n == 3
    assert (len(cases), repeated, deep) == (48, 38, 6)
    for p, bound in cases:
        q = linearize_presentation(p, bound)
        want = ad_basis_relators(p, bound)
        got = q.scheme.relators[len(q.scheme.relators) - len(want):]
        assert [list(r.terms.items()) for r in got] == [list(r.terms.items()) for r in want], (
            presentation_to_dict(p), bound)


def test_linearize_degree_bound_error():
    with pytest.raises(PresentationError):
        linearize_presentation(XXY, 2)
    with pytest.raises(PresentationError):
        linearize_presentation(METAB, 2)


def test_presentation_json_round_trip(tmp_path):
    d = presentation_to_dict(HEIS)
    assert d["scheme"] == "finite"
    assert presentation_from_dict(d) == HEIS
    d2 = presentation_to_dict(METAB)
    assert presentation_from_dict(d2) == METAB
    path = tmp_path / "p.json"
    path.write_text('{"generators": ["x", "y"], "relators": ["[x,y]"]}')
    p = load_presentation(path)
    assert p.n_gens == 2


def test_presentation_json_errors(tmp_path):
    with pytest.raises(PresentationError):
        presentation_from_dict({"generators": ["x"], "relators": ["[x,q]"]})
    with pytest.raises(PresentationError):
        presentation_from_dict({"generators": "xy"})
    with pytest.raises(PresentationError):
        presentation_from_dict(
            {"generators": ["x"], "scheme": {"derived": 1}, "relators": ["x"]}
        )
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(PresentationError, match="bad.json"):
        load_presentation(bad)


def test_quotient_shape():
    q = lcs_quotient(HEIS, 4)
    assert q.labels == ("x1", "x2", "[x1,x2]")
    assert q.weights == (1, 1, 2)
    assert {pair: t for pair, t in q.brackets.items() if t} == {(0, 1): {2: 1}}
    assert dict(zip(q.gen_names, q.gen_images))["x3"] == {2: -1}
