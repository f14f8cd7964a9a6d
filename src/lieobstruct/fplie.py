"""Finitely presented graded Lie algebras and their nilpotent quotients.

A presentation is a generator list plus either a finite relator list or the
symbolic k-th derived subalgebra of the ambient free Lie algebra.  Everything
here is degree-truncated: ideal spans live inside the free Lie algebra in
degrees <= D, lower-central-series quotients live in the free nilpotent
algebra of the matching class.

The ideal span and the Hopf formula use the fact that for an ideal J
generated by a set R, the subspace [L, J] equals [A, J] where A is the
generator alphabet, so closing R under bracketing with generators alone
already spans the ideal degreewise.  That closure runs once, in
tensor-algebra coordinates, where the bracket with a generator g is
g*t - t*g and needs no rewriting into the basis.  It stops at the first
degree the ideal fills: L is generated in degree 1, so an ideal holding
all of L_d holds every higher degree too; a bracket is formed only when
taken, lowest degree first, cut at the fill known then, and one taken a
degree below the fill is read straight onto its Lyndon columns.  A Lie
polynomial is determined by its coefficients on Lyndon words (Chen-Fox-Lyndon;
Reutenauer, Free Lie Algebras, Thm 5.1), so every rank and combination of
Lie elements is taken on those columns alone; lcs_graded_dims reads the
quotient's layer dimensions off the closure's pivot counts.  ideal_span does
not close J: it reads J through the cap as the kernel of the map sending a
basis word to its class in the quotient nilquot builds, and one scan, from
the last basis word to the first, keeps the words whose classes raise its
rank and reads each other word's row off its class.
H2 of L = free/J is (J meet [L, L])/[L, J] (Hopf's formula): 0 in degree
1, J_k/[A, J_(k-1)]_k above for a graded J.
For homogeneous relators the closure counts it, as the degree-k relators
that still raise its rank after that degree's brackets, so it runs only
through the top relator degree; a derived ideal ranks its words' brackets,
and the second derived ideal is read in the Chen module L'/L'' instead.

Lower-central-series quotients accept inhomogeneous relators (a relator like
x3 + [x1,x2] mixes filtration degrees).  A derived ideal enters them as a
law that nilquot imposes, none of its words expanded.  Generators that
appear linearly in some relator are eliminated by substitution before any
quotient is formed; this keeps the ambient free nilpotent algebra as small
as the presentation really is, which is what makes the rewritten presentations produced by
linearize_presentation tractable.  It maps the relators' tensor images
by the algebra map sending each letter to its image, only those that hold
the letter, and renumbers the kept letters once at the end.
lcs_quotient hands what is left to nilquot, imported on first use, which
builds each weight layer from the layers below, with no closure of J.  Its
representatives are the basis words that are not pivots of J under the
degree-major echelon pivot rule, the words ideal_span's scan keeps, so
representatives chosen at different class bounds agree wherever both exist.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations_with_replacement, count, product
from math import lcm

from .freelie import (
    HallWord,
    LieElement,
    LieError,
    _MultidegreeSolver,
    _check_enum_args,
    _lyndon,
    _lyndon_columns,
    _nonzero,
    _substitution,
    _tensor_commutator,
    bracket,
    gen_elt,
    hall_basis_derived,
    lie_tensor,
    parse_element,
    format_element,
    tensor_expand,
    witt_dim,
    word_str,
    zero,
)
from .ratlin import (
    ONE,
    ZERO,
    EchelonForm,
    InternalError,
    LieobstructError,
    Subspace,
    _Frozen,
    _load_json,
)

__all__ = [
    "DerivedIdeal",
    "FiniteList",
    "LiePresentation",
    "NilpotentLieAlgebra",
    "PresentationError",
    "finiteness_scan",
    "h2_graded",
    "ideal_span",
    "lcs_graded_dims",
    "lcs_quotient",
    "linearize_presentation",
    "load_presentation",
    "presentation_from_dict",
    "presentation_to_dict",
    "x2_slice",
]


class PresentationError(LieobstructError, ValueError):
    pass


class FiniteList(_Frozen):
    __slots__ = _fields = ("relators",)

    def __init__(self, relators: tuple):
        self._fill(relators)
        for r in relators:
            if not isinstance(r, LieElement):
                raise PresentationError("relators must be Lie elements")
            if r.is_zero():
                raise PresentationError("zero relator not allowed")


class DerivedIdeal(_Frozen):
    __slots__ = _fields = ("level",)

    def __init__(self, level: int):
        self._fill(level)
        if level < 1:
            raise PresentationError(f"derived ideal level must be >= 1, got {level}")


class LiePresentation(_Frozen):
    __slots__ = _fields = ("generators", "scheme")

    def __init__(self, generators, scheme):
        names = tuple(generators)
        self._fill(names, scheme)
        if len(set(names)) != len(names):
            raise PresentationError("generator names must be distinct")
        for nm in names:
            if not isinstance(nm, str) or not nm:
                raise PresentationError("generator names must be nonempty strings")
        if isinstance(self.scheme, FiniteList):
            for r in self.scheme.relators:
                if r.n_gens != len(names):
                    raise PresentationError(
                        "relator alphabet does not match the generator list"
                    )
        elif not isinstance(self.scheme, DerivedIdeal):
            raise PresentationError("scheme must be FiniteList or DerivedIdeal")

    @property
    def n_gens(self) -> int:
        return len(self.generators)


# ---------------------------------------------------------------------------
# coordinates in the degree-truncated free Lie algebra

def ideal_span(p: LiePresentation, degree_cap: int) -> Subspace:
    """The degree <= cap part of the ideal generated by the relator scheme,
    as a subspace of the free Lie algebra in the basis-word coordinates.

    A derived ideal is spanned by its basis words already, each a unit row.
    A finite relator list goes through _eliminate_linear to
    nilquot.nilpotent_quotient, imported on first use, which builds
    Q = L/(J + L_(>cap)) layer by layer.  A basis word's class in Q is its
    letter's generator image, or the bracket of its split's classes (_split),
    and J through the cap is the kernel of w -> class.  One tracked scan
    takes the words from last to first and keeps a word when its class
    raises the rank; the kept words are the non-pivot columns of the
    kernel's RREF, so each other word is a pivot, its row the word less its
    class's combination of the kept classes, all later words.  Words of
    degree k span the weights >= k of Q, so degree k keeps as many words as
    Q has weight-k representatives, and its other words are only reduced.  A
    zero layer ends Q, whose graded algebra is generated in degree 1, so
    every word above Q's top weight maps to 0: a unit row, with no class
    built.
    """
    if degree_cap < 1:
        raise PresentationError(f"degree cap must be >= 1, got {degree_cap}")
    n = p.n_gens
    if n == 0:
        return Subspace(0, (), ())
    words = hall_basis_derived(n, 0, degree_cap)
    if isinstance(p.scheme, DerivedIdeal):
        pivots = [i for i, w in enumerate(words) if w.level >= p.scheme.level]
        return Subspace(len(words), tuple({i: ONE} for i in pivots), tuple(pivots))
    from .nilquot import nilpotent_quotient

    relators, imgs, kept = _eliminate_linear(p, degree_cap)
    reps, brackets, gen_images = nilpotent_quotient(relators, imgs, len(kept), degree_cap)
    quota = Counter(w.degree for w in reps)
    low = sum(witt_dim(n, d) for d in quota)  # the words of degree <= Q's top weight
    classes = {}
    for w in words[:low]:  # a split's parts are words of lower degree
        classes[w] = _bracket(brackets, *map(classes.get, _split(w))) if w[0] else gen_images[w[2]]
    scan, slot, rows = EchelonForm(track=True), {}, []
    for j in range(low - 1, -1, -1):
        v, d = classes[words[j]], words[j].degree
        if quota[d] and scan.insert(v)[1] is not None:
            slot[scan.n_inserted - 1] = j
            quota[d] -= 1
            continue
        res, combo = scan.reduce(v)
        if res:
            raise InternalError("the kept words' classes fail to span the quotient")
        rows.append({j: ONE, **{slot[i]: -c for i, c in combo.items()}})
    if any(quota.values()):
        raise InternalError("the kept words miss a weight's rank of the quotient")
    rows = rows[::-1] + [{i: ONE} for i in range(low, len(words))]
    # each row's pivot is its own word, the first it holds
    return Subspace(len(words), tuple(rows), tuple(next(iter(row)) for row in rows))


def _digits(k: int, d: int, n: int):
    """The letters of the word of d letters keyed k, last letter first."""
    for _ in range(d):
        k, g = divmod(k, n)
        yield g


def _split(w: HallWord) -> tuple:
    """A bracket word's standard factorisation (prefix, last child): the
    prefix is the first child of a two-child word, else w without its last
    child, a basis word of w's level; either way w = [prefix, last child]."""
    last = w[-1]
    if len(w) == 4:
        return w[2], last
    return tuple.__new__(HallWord, (w[0], w[1] - last[1], *w[2:-1])), last


# ---------------------------------------------------------------------------
# the relator ideal and Hopf-formula second homology, in tensor coordinates

def _require_homogeneous(p: LiePresentation):
    if isinstance(p.scheme, FiniteList):
        for r in p.scheme.relators:
            if not r.is_homogeneous():
                raise PresentationError(
                    "graded Hopf formula requires homogeneous relators; "
                    f"offending relator: {format_element(r, p.generators)}"
                )


def _integral(e: dict) -> dict:
    """A tensor polynomial {degree: vector} times the lcm of all its
    denominators, one factor for every degree, with int entries."""
    den = lcm(*(x.denominator for v in e.values() for x in v.values()))
    return {
        d: {k: x.numerator * (den // x.denominator) for k, x in v.items()}
        for d, v in e.items()
    }


def _relator_tensors(p: LiePresentation, cap: int) -> list:
    """The lie_tensor images of a relator list's relators, cut above the cap,
    those left nonzero.  A derived ideal has none: a quotient imposes it as a
    law (_lcs_ideal)."""
    cut = ({d: v for d, v in lie_tensor(r).items() if d <= cap} for r in p.scheme.relators)
    return [t for t in cut if t]


def _ideal_basis(relators, n: int, cap: int) -> tuple:
    """(rows, fill, new, pivots) for the degree <= cap part of the ideal J
    generated by relators, tensor polynomials on n letters cut above the
    cap: rows are the closure's echelon rows, integer vectors over the
    Lyndon-word columns of every degree, cut below fill.

    J is spanned by the relators closed under the generator brackets, which
    here are g*t - t*g degree by degree.  A bracket is queued as a pending
    (g, element) pair and formed when taken, lowest degree first and, within
    a degree, before every relator, cut at the fill degree of that moment;
    one that vanishes is not inserted.  A bracket that is taken one degree
    below the fill is cut to that degree, and none of its own brackets can
    be queued, so it is read straight onto that degree's Lyndon columns
    (_generator_bracket) and its tensor is never formed.  A relator is cut
    at the fill when taken, and what is left is scaled by one integer for
    all its degrees, so no relator past the fill is copied.  One echelon ranks every degree
    on its own Lyndon-word columns, so an inhomogeneous relator stays one
    vector.
    Elements already in the span are not closed further; linearity of ad
    makes that sound.  J below the fill and the fill degree do not depend
    on the order of the pool; the basis does.

    fill is the first degree d whose Lyndon columns all hold pivots, so
    that J contains L_d modulo higher degrees, or cap + 1 if none does.
    Then J contains every degree from d on, since L is generated in degree
    1: L_(k+1) = [L_1, L_k].  So the closure works modulo degrees >= fill,
    and rows are a basis of J cut below fill, in echelon form; for
    homogeneous relators, J_k = L_k for k >= fill.

    pivots[k] counts the rows with a pivot in degree k, for k < fill, and
    new[k] the relators that raised the rank with a pivot in degree k.
    Each degree's brackets go in before its relators, so for homogeneous
    relators new[k] = dim J_k - dim [A, J_(k-1)]_k, 0 above fill.
    """
    tops = list(accumulate(witt_dim(n, d) for d in range(1, cap + 1)))
    fill = cap + 1
    pivots, new = Counter(), Counter()
    ech = EchelonForm()
    # (lowest degree, is a relator, queueing number, generator or None, element)
    queued = count()
    pool = [(min(r), True, next(queued), None, r) for r in relators]
    heapify(pool)
    while pool:
        low, _, _, g, e = heappop(pool)
        if low >= fill:
            continue  # fill came down to its degrees after it was queued
        if g is None:
            e = _integral({d: v for d, v in e.items() if d < fill})
            vec = _lyndon(e, n)
        elif low + 1 < fill:
            e = _nonzero({d + 1: _tensor_commutator({g: 1}, v, n, n ** d)
                          for d, v in e.items() if d + 1 < fill})
            vec = _lyndon(e, n)
        else:
            # cut to its lowest degree, and none of its brackets can be
            # queued, since fill only comes down: only its vector is needed
            vec, e = _generator_bracket(g, e[low - 1], low - 1, n), None
        lead = ech.insert(vec)[1] if vec else None
        if lead is None:
            continue
        # the pivot is the lowest column left, so its degree is the lowest
        # degree of J's new part; at or above fill it adds nothing mod J
        k = bisect_right(tops, lead) + 1
        if k >= fill:
            continue
        pivots[k] += 1
        if g is None:
            new[k] += 1
        if pivots[k] == witt_dim(n, k):
            fill = k  # e itself lies in degrees >= k
            continue
        if e is not None and min(e) + 1 < fill:
            for g in range(n):
                heappush(pool, (min(e) + 1, False, next(queued), g, e))
    # a row whose pivot lies at or above the final fill is a combination of
    # earlier ones modulo those degrees; the others keep their pivots when cut
    low = tops[fill - 2] if fill > 1 else 0
    rows = [{c: x for c, x in row.items() if c < low}
            for lead, row in ech.pivot_rows.items() if lead < low]
    return rows, fill, new, pivots


def _generator_bracket(g: int, v: dict, d: int, n: int) -> dict:
    """_lyndon of [g, v] = g*v - v*g for a tensor v of degree d on n letters,
    read off the Lyndon columns of degree d + 1 with no commutator formed:
    the word g.u has the key g * n**d + u, and u.g the key u * n + g.  A
    Lyndon word of two or more letters never starts and ends with the same
    letter, so no column is reached both ways."""
    cols, head, vec = _lyndon_columns(n, d + 1), g * n ** d, {}
    for u, x in v.items():
        c = cols.get(head + u)
        if c is not None:
            vec[c] = x
        c = cols.get(u * n + g)
        if c is not None:
            vec[c] = -x
    return vec


def h2_graded(p: LiePresentation, degree_cap: int) -> dict:
    """dim H2_k for 1 <= k <= cap via Hopf's formula: 0 for k = 1, dim (J/[L,J])_k above.

    The second derived ideal is read in the Chen module (_h2_chen); any other
    scheme in the free Lie algebra, a relator list by its closure (_h2_free_lie).
    """
    if degree_cap < 1:
        raise PresentationError(f"degree cap must be >= 1, got {degree_cap}")
    _require_homogeneous(p)
    if isinstance(p.scheme, DerivedIdeal) and p.scheme.level == 2:
        return _h2_chen(p.n_gens, degree_cap)
    return _h2_free_lie(p, degree_cap)


def _h2_free_lie(p: LiePresentation, degree_cap: int) -> dict:
    """Hopf H2 in the tensor algebra, where the bracket with a generator g
    is g*t - t*g.  A finite relator list's H2_k is the count _ideal_basis
    keeps of its degree-k relators that raise J's rank past [A, J_(k-1)],
    0 above the top relator degree, through which alone J is closed.
    A derived ideal's basis words of level >= k span J, and their generator
    brackets span [L,J] = [A,J], ranked in one echelon over the Lyndon-word
    columns of every degree.
    """
    n = p.n_gens
    if isinstance(p.scheme, FiniteList):
        # an empty list still closes degree 1, where witt_dim checks the alphabet
        relators = _relator_tensors(p, degree_cap)
        dims = _ideal_basis(relators, n, max(map(max, relators), default=1))[2]
    else:
        words = hall_basis_derived(n, p.scheme.level, degree_cap)
        dims = Counter(w.degree for w in words)
        ech = EchelonForm()
        for d, t in ((w.degree, tensor_expand(w, n)) for w in words if w.degree < degree_cap):
            for g in range(n):
                if ech.insert(_lyndon({d + 1: _tensor_commutator({g: 1}, t, n, n ** d)}, n))[0]:
                    dims[d + 1] -= 1
    # Hopf: H2 = (J meet [F,F])/[F,J], and [F,F] starts in degree 2
    return {k: dims[k] if k > 1 else 0 for k in range(1, degree_cap + 1)}


def _h2_chen(n: int, cap: int) -> dict:
    """Hopf H2 of the free metabelian algebra L/L'' on n letters, in degrees
    1 <= k <= cap, read in its Chen module W = L'/L''.

    L' is free on W (Shirshov-Witt), so L''/[L',L''] is the exterior square
    of W, and H2 = L''/[L,L''] is its quotient by the images of V acting as
    a derivation.  W is the image of the Koszul map x_i^x_j (x) f ->
    x_i (x) x_j f - x_j (x) x_i f into V (x) S(V), on which x_g multiplies
    f.  Its basis is the images e(i, j, m) of x_i^x_j times a monomial m in
    x_j, ..., x_n, i > j (the left-normed words [x_i, x_j, m...]).  For
    g < j, x_g*e(i, j, m) = e(i, g, x_j m) - e(j, g, x_i m) by the Koszul
    relation.  The images are integer vectors over pairs of basis
    elements, ranked one multidegree at a time.
    """
    _check_enum_args(n, 2, cap)  # hall_basis_derived's check: no letters is a LieError
    base = cap + 1  # a multidegree is the sum of base**g over its letters
    index, elts, mdeg, layers = {}, [], [], []
    for k in range(2, cap - 1):
        start = len(elts)
        for j in range(n):
            for m in combinations_with_replacement(range(j, n), k - 2):
                for i in range(j + 1, n):
                    index[i, j, m] = len(elts)
                    elts.append((i, j, m))
                    mdeg.append(base ** i + base ** j + sum(base ** g for g in m))
        layers.append(range(start, len(elts)))

    def times(g, e):
        i, j, m = elts[e]
        if g >= j:
            return ((index[i, j, tuple(sorted(m + (g,)))], 1),)
        return ((index[i, g, tuple(sorted(m + (j,)))], 1),
                (index[j, g, tuple(sorted(m + (i,)))], -1))

    # the top layer is never acted on: its pairs lie in degrees >= cap
    acted = layers[-1].start if layers else 0
    act = [[times(g, e) for e in range(acted)] for g in range(n)]
    size = len(elts)
    w = [0, 0] + [len(r) for r in layers]
    dims = {}
    for d in range(1, cap + 1):
        half = 0 if d % 2 else w[d // 2]
        ext = half * (half - 1) // 2 + sum(w[a] * w[d - a] for a in range(2, (d + 1) // 2))
        echs = defaultdict(EchelonForm)
        for a in range(2, (d + 1) // 2):
            r = layers[d - 3 - a]
            for p in layers[a - 2]:
                for q in range(max(p + 1, r.start), r.stop):
                    # x_g (p^q) = (x_g p)^q + p^(x_g q), with s^t for s < t
                    # in column t*size + s, which fills in less than
                    # s*size + t; p precedes every term of x_g q
                    for g in range(n):
                        v = {u * size + p: c for u, c in act[g][q]}
                        for u, c in act[g][p]:
                            if u < q:
                                v[q * size + u] = c
                            elif u > q:
                                v[u * size + q] = -c
                        echs[mdeg[p] + mdeg[q] + base ** g].insert(v)
        dims[d] = ext - sum(e.rank for e in echs.values())
    return dims


def finiteness_scan(p: LiePresentation, degree_cap: int) -> dict:
    """Degreewise Hopf H2 plus a growth verdict.

    The verdict is a bounded heuristic, never a proof: "growing" when some
    dimension in the top third of [1, cap] is nonzero, "bounded-so-far"
    otherwise.
    """
    dims = h2_graded(p, degree_cap)
    window_start = (2 * degree_cap) // 3 + 1
    growing = any(
        dims.get(k, 0) for k in range(window_start, degree_cap + 1)
    )
    report = {
        "dims": dims,
        "verdict": "growing" if growing else "bounded-so-far",
        "window_start": window_start,
    }
    if p.n_gens == 2:
        # bigraded dimensions of the relator ideal itself in the x-degree-2
        # slice, a small exactly-known table worth echoing alongside H2; a
        # derived ideal is spanned by its basis words, counted in closed form
        if isinstance(p.scheme, DerivedIdeal):
            x2 = x2_slice(p.scheme.level, degree_cap - 2)
            x2 = {b: c for b, c in x2.items() if c}
        else:
            words = hall_basis_derived(2, 0, degree_cap)
            x2 = {}
            for i in ideal_span(p, degree_cap).pivots:
                counts = words[i].gen_counts()
                if counts.get(0, 0) == 2:
                    i = counts.get(1, 0)
                    x2[i] = x2.get(i, 0) + 1
        report["ideal_x2_dims"] = x2
    return report


def x2_slice(level: int, max_b: int) -> dict:
    """{b: count} of the two-letter basis words of derived level >= level
    and multidegree (2, b), 1 <= b <= max_b, in closed form.

    Level <= 1 holds every word of the multidegree, and the Witt count
    (1/(b+2)) sum over d | gcd(2, b) of mu(d) binom((b+2)/d, 2/d) is
    (b+1)/2 for odd b and b/2 for even b.  A level-2 word of x-degree 2 has
    two level-1 children of x-degree 1, [x,y^k] < [x,y^l] with k != l and
    k + l = b: (b-1)//2 pairs.  A level-3 word has at least two level-2
    children, so its x-degree is at least 4.
    """
    shift = {0: 1, 1: 1, 2: -1}.get(level)
    return {b: (b + shift) // 2 if shift else 0 for b in range(1, max_b + 1)}


# ---------------------------------------------------------------------------
# generator elimination and nilpotent quotients

def _eliminate_linear(p: LiePresentation, cap: int):
    """Substitute away every generator that occurs linearly in a relator of
    a relator list, on the _relator_tensors images.  Returns (relators,
    images, kept names): the nonzero reduced relators and the image of each
    original generator, tensor polynomials on the kept generators cut above
    the cap.  When no relator has a degree-1 part, as for a holonomy with
    d = 0, the relators come back as they are, unscaled (_ideal_basis
    scales them), with the identity images and every name.  Degree-1
    data drives every choice, so the kept set and the substitution order do
    not depend on the cap.  Letters keep their numbers until the last step,
    so a step rewrites only what may hold its letter (each item carries a
    superset of its letters), and the kept ones are renumbered once.  Each
    relator is scaled by _integral, so the arithmetic stays in ints unless a
    pivot coefficient fails to divide its relator."""
    n = p.n_gens
    relators = _relator_tensors(p, max(cap, 1))
    ident = [{1: {g: 1}} for g in range(n)]
    if not any(1 in t for t in relators):
        return relators, ident, p.generators
    rel = [(t, {g for d, v in t.items() for k in v for g in _digits(k, d, n)})
           for t in map(_integral, relators)]
    imgs = [(t, {g}) for g, t in enumerate(ident)]
    kept = list(range(n))
    while (ridx := next((i for i, (r, _) in enumerate(rel) if 1 in r), None)) is not None:
        r, used = rel.pop(ridx)
        z = max(r[1])
        c = r[1][z]
        # z = expr modulo r
        exact = all(type(x) is int and x % c == 0 for v in r.values() for x in v.values())
        expr = _nonzero({d: {k: -x // c if exact else Fraction(-x, c)
                             for k, x in v.items() if d > 1 or k != z}
                         for d, v in r.items()})
        # expr may mention z inside brackets; substituting it into itself
        # raises the total degree of every z-term, so this terminates, at
        # the first expr that is its own image: the first without z
        for _ in range(cap + 2):
            images = ident.copy()
            images[z] = expr
            push = _substitution(images, n, cap)
            expr, last = push(expr), expr
            if expr == last:
                break
        else:
            raise InternalError("generator elimination did not converge")
        # push sends z to expr, within r's letters; no step seeks a gone one
        rel = [(push(t), u | used) if z in u else (t, u) for t, u in rel]
        imgs = [(push(t), u | used) if z in u else (t, u) for t, u in imgs]
        kept.remove(z)
    rel, imgs = [t for t, _ in rel if t], [t for t, _ in imgs]
    if len(kept) < n:
        pos, m = {g: i for i, g in enumerate(kept)}, len(kept)

        def renumber(t):  # each word re-keyed by its digits, no arithmetic
            return {d: {sum(pos[g] * m ** i for i, g in enumerate(_digits(k, d, n))): c
                        for k, c in v.items()} for d, v in t.items()}

        rel, imgs = list(map(renumber, rel)), list(map(renumber, imgs))
    return rel, imgs, tuple(p.generators[g] for g in kept)


def _bracket(table: dict, u: dict, v: dict, out: dict | None = None) -> dict:
    """Add [u, v] into out (a new dict when None) and return it, for vectors
    u, v over a basis whose brackets table gives as {(i, j): vector}, i < j,
    a missing pair bracketing to zero; zero entries are dropped."""
    out = {} if out is None else out
    for i, a in u.items():
        for j, b in v.items():
            if i < j:
                table_ij, c = table.get((i, j)), a * b
            elif j < i:
                table_ij, c = table.get((j, i)), -a * b
            else:
                continue
            for k, s in (table_ij or {}).items():
                y = out.get(k, ZERO) + c * s
                if y:
                    out[k] = y
                else:
                    del out[k]
    return out


class NilpotentLieAlgebra(_Frozen):
    """L modulo the class_bound-th lower central series term, on a weighted
    basis with exact structure constants.

    brackets[(i, j)] for i < j maps basis index k to the coefficient of the
    k-th basis vector in [b_i, b_j]; missing pairs bracket to zero.
    gen_images[g] gives the class of the g-th presentation generator.
    """

    __slots__ = _fields = (
        "class_bound", "gen_names", "labels", "weights", "brackets", "gen_images"
    )

    def __init__(self, class_bound, gen_names, labels, weights, brackets, gen_images):
        self._fill(class_bound, gen_names, labels, weights, brackets, gen_images)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def truncate(self, class_bound: int) -> "NilpotentLieAlgebra":
        """The quotient by the weights >= class_bound, for a class_bound no
        larger than this one's.  Weights never decrease along the basis, so
        the kept basis is a prefix; a bracket entry is kept when both its
        indices are and its cut table is nonzero."""
        if not 1 <= class_bound <= self.class_bound:
            raise PresentationError(
                f"need 1 <= class bound <= {self.class_bound}, got {class_bound}"
            )
        k = sum(1 for w in self.weights if w < class_bound)

        def cut(vec):
            return {m: c for m, c in vec.items() if m < k}

        brackets = {ij: small for ij, table in self.brackets.items()
                    if ij[1] < k and (small := cut(table))}
        return NilpotentLieAlgebra(
            class_bound=class_bound,
            gen_names=self.gen_names,
            labels=self.labels[:k],
            weights=self.weights[:k],
            brackets=brackets,
            gen_images=tuple(cut(v) for v in self.gen_images),
        )

    def dims_by_weight(self) -> dict:
        out = {k: 0 for k in range(1, max(self.class_bound, 1))}
        for w in self.weights:
            out[w] += 1
        return out

    def bracket_vec(self, u: dict, v: dict) -> dict:
        return _bracket(self.brackets, u, v)

    def check_filtration(self) -> bool:
        for (i, j), table in self.brackets.items():
            for k, c in table.items():
                if c and self.weights[k] < self.weights[i] + self.weights[j]:
                    return False
        return True


def _lcs_ideal(p: LiePresentation, class_bound: int) -> tuple:
    """The guards of lcs_quotient and lcs_graded_dims, then (relators,
    images, kept names, cap, level) at cap = class_bound - 1: a relator
    list's from _eliminate_linear, with level 0; a derived scheme's as no
    relators and the level nilquot imposes as a law, 0 past level 2, whose
    guard keeps L^(level), from degree 2**level on, above the cap."""
    if class_bound < 1:
        raise PresentationError(f"class bound must be >= 1, got {class_bound}")
    cap = class_bound - 1
    if isinstance(p.scheme, FiniteList):
        return (*_eliminate_linear(p, cap), cap, 0)
    level = p.scheme.level
    if level >= 3 and (p.n_gens > 2 or class_bound > 8):
        raise PresentationError(
            "derived-ideal quotients of level >= 3 are limited to two "
            "generators and class bound <= 8"
        )
    ident = [{1: {g: 1}} for g in range(p.n_gens)]
    return [], ident, p.generators, cap, level if level <= 2 else 0


def lcs_quotient(p: LiePresentation, class_bound: int) -> NilpotentLieAlgebra:
    """Structure constants of L/Gamma_n for n = class_bound.

    Every scheme takes one path: _lcs_ideal (the guards, then
    _eliminate_linear for a relator list), then nilquot.nilpotent_quotient,
    imported on first use, which builds the quotient layer by layer from its
    own lower layers, graded or filtered, or with a derived law, so the cost
    follows the quotient, not J.  The basis is the Hall words the scan keeps
    modulo J; weights are word degrees, non-decreasing along it.
    Quotients at different class bounds agree across classes:
    lcs_quotient(p, n) equals lcs_quotient(p, N).truncate(n) for n <= N,
    and ce.hirsch_tower builds every lower stage that way from one quotient.
    """
    from .nilquot import nilpotent_quotient

    relators, imgs, kept, cap, level = _lcs_ideal(p, class_bound)
    reps, brackets, gen_images = nilpotent_quotient(relators, imgs, len(kept), cap, level)
    alg = NilpotentLieAlgebra(
        class_bound=class_bound,
        gen_names=p.generators,
        labels=tuple(word_str(w, kept) for w in reps),
        weights=tuple(w.degree for w in reps),
        brackets=brackets,
        gen_images=tuple(gen_images),
    )
    if not alg.check_filtration():
        raise InternalError("quotient brackets break the weight filtration")
    return alg


def lcs_graded_dims(p: LiePresentation, class_bound: int) -> dict:
    """Dimensions of the lower-central-series layers Gamma_k/Gamma_(k+1) for
    k < class_bound, lcs_quotient(p, class_bound).dims_by_weight(), read
    off it for a derived scheme.  A relator list needs no quotient: below
    the fill degree, layer k is witt_dim(m, k) less J's pivots there in the
    closure's degree-major echelon, and from it on 0."""
    if isinstance(p.scheme, DerivedIdeal):
        return lcs_quotient(p, class_bound).dims_by_weight()
    relators, _, kept, cap, _ = _lcs_ideal(p, class_bound)
    m = len(kept)
    fill, _, pivots = _ideal_basis(relators, m, cap)[1:] if cap and m else (1, 0, Counter())
    return {k: witt_dim(m, k) - pivots[k] if k < fill else 0 for k in range(1, class_bound)}


# ---------------------------------------------------------------------------
# linear-plus-quadratic rewriting

def _arrangements(letters: tuple) -> list:
    """The distinct words on a sorted tuple of letters, in lexicographic order."""
    if not letters:
        return [()]
    return [(g, *rest) for i, g in enumerate(letters) if i == 0 or g != letters[i - 1]
            for rest in _arrangements(letters[:i] + letters[i + 1:])]


@lru_cache(maxsize=None)
def _ad_solver(n_gens: int, letters: tuple) -> _MultidegreeSolver:
    """The solver over the right-normed ad monomials
    [x_{i1}, [x_{i2}, [... x_{ik}]]] on a sorted tuple of letters, labelled
    by their index tuples in lexicographic order.  Multidegrees are
    independent blocks, so the monomials it keeps and the combinations it
    gives are those of one echelon over every monomial of the degree."""
    monomials = _arrangements(letters)
    rows = []
    for J in monomials:
        vec = {J[-1]: 1}
        for d, i in enumerate(reversed(J[:-1]), 1):
            vec = _tensor_commutator({i: 1}, vec, n_gens, n_gens ** d)
        rows.append(vec)
    return _MultidegreeSolver(monomials, rows, n_gens, len(letters))


def _tuple_name(J):
    return "y" + "".join(str(i + 1) for i in J)


def linearize_presentation(p: LiePresentation, max_relator_degree: int) -> LiePresentation:
    """Re-present L with one generator per ad monomial of length <= N so that
    every relator has filtration degree 1 or 2.

    New generators y_J for index tuples J with 1 <= |J| <= N; defining
    relators y_J - [y_{J_1}, y_{J'}] express each long monomial by a bracket
    of shorter ones, and each original relator becomes a linear combination
    of the y_J: over the ad monomials independent of those before them in
    lexicographic order, solved one multidegree at a time.
    """
    if not isinstance(p.scheme, FiniteList):
        raise PresentationError("linearization needs a finite relator list")
    N = max_relator_degree
    if N < 1:
        raise PresentationError(f"max relator degree must be >= 1, got {N}")
    n = p.n_gens
    tuples = [J for length in range(1, N + 1) for J in product(range(n), repeat=length)]
    pos = {J: i for i, J in enumerate(tuples)}
    names = tuple(_tuple_name(J) for J in tuples)
    nn = len(tuples)
    relators = []
    for J in tuples:
        if len(J) < 2:
            continue
        yj = gen_elt(nn, pos[J])
        head = gen_elt(nn, pos[(J[0],)])
        tail = gen_elt(nn, pos[J[1:]])
        relators.append(yj - bracket(head, tail))
    for r in p.scheme.relators:
        acc = zero(nn)
        for d in r.degrees():
            comp = r.component(d)
            if d > N:
                raise PresentationError(
                    "relator component exceeds the degree bound: "
                    f"{format_element(comp, p.generators)}"
                )
            blocks = defaultdict(dict)
            for k, c in lie_tensor(comp)[d].items():
                blocks[tuple(sorted(_digits(k, d, n)))][k] = c
            combo = {}
            for letters, vec in blocks.items():
                combo.update(_ad_solver(n, letters).solve(vec))
            for J, c in sorted(combo.items()):
                acc = acc + c * gen_elt(nn, pos[J])
        if acc.is_zero():
            raise InternalError("relator vanished during rewriting")
        relators.append(acc)
    return LiePresentation(names, FiniteList(tuple(relators)))


# ---------------------------------------------------------------------------
# file format

def presentation_from_dict(data: dict) -> LiePresentation:
    if not isinstance(data, dict):
        raise PresentationError("presentation file must hold a JSON object")
    for key in data:
        if key not in ("generators", "relators", "scheme"):
            raise PresentationError(
                f"unknown key {key!r}; a presentation has generators, relators, scheme"
            )
    gens = data.get("generators")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise PresentationError('"generators" must be a list of names')
    scheme = data.get("scheme", "finite")
    relators = data.get("relators", [])
    if isinstance(scheme, dict) and set(scheme) == {"derived"}:
        if relators:
            raise PresentationError("a derived-ideal scheme takes no relator list")
        level = scheme["derived"]
        if isinstance(level, bool) or not isinstance(level, int):
            raise PresentationError("derived level must be an integer")
        return LiePresentation(tuple(gens), DerivedIdeal(level))
    if scheme != "finite":
        raise PresentationError(
            '"scheme" must be "finite" or {"derived": k}, got ' + repr(scheme)
        )
    if not isinstance(relators, list) or not all(isinstance(r, str) for r in relators):
        raise PresentationError('"relators" must be a list of strings')
    parsed = []
    for r in relators:
        try:
            parsed.append(parse_element(r, tuple(gens)))
        except LieError as exc:
            raise PresentationError(f"bad relator {r!r}: {exc}") from exc
    return LiePresentation(tuple(gens), FiniteList(tuple(parsed)))


def presentation_to_dict(p: LiePresentation) -> dict:
    if isinstance(p.scheme, DerivedIdeal):
        return {
            "generators": list(p.generators),
            "scheme": {"derived": p.scheme.level},
        }
    return {
        "generators": list(p.generators),
        "relators": [format_element(r, p.generators) for r in p.scheme.relators],
        "scheme": "finite",
    }


def load_presentation(path) -> LiePresentation:
    return _load_json(path, presentation_from_dict, PresentationError)
