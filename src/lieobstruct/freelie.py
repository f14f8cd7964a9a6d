"""Hall bases of free Lie algebras stratified by derived series level.

Basis words are iterated left-normed brackets [h1,...,hk], shorthand for
[...[[h1,h2],h3],...,hk], where all hj come from the previous level and
h1 < h2 >= h3 >= ... >= hk in a fixed total order.  Level 0 is the
generators; the words of level >= l, taken together, give a basis of the
l-th derived subalgebra, which is an ideal, so enumerating by level answers
derived-series questions by counting.

The fixed total order compares level first (a word of LOWER level is
GREATER than any word of higher level), then total degree, then child
sequences lexicographically.  Only same-level comparisons matter for the
chain condition above; the cross-level rule fixes one global order so that
listings and pivot choices are reproducible.  A word is a tuple that is
its own key in this order, (-level, degree, *children), or (0, 1, gen)
for a generator, so comparing, hashing and testing words for equality
are tuple operations.

The basis is built degree by degree, once per alphabet and level in a
process: each layer of one level and one degree is made from lower layers,
already in the fixed order, so nothing is sorted (_layer says why the
order holds), and a degree cap reads a prefix of the layers already built.
A word made there is one tuple over the words it extends, unchecked;
HallWord(level, children=...) validates first and then builds the same tuple.
The words form a DAG, every child built before its parent, so none can be
cyclic garbage, yet each new word is a container the cyclic collector
would walk again and again.  A layer build therefore pauses the collector
and restores the caller's setting, and an exit hook empties the layer
cache, so refcounting frees the words before the interpreter's closing
collections would walk them.  The lieobstruct command freezes its heap
before it exits (cli.process_main), so its closing collections skip the
words anyway; library hosts, such as scripts, test runs or a program that
calls cli.main, do not freeze and still need the hook.

Arbitrary brackets are rewritten into the basis by expanding both sides in
the tensor algebra (the free Lie algebra sits inside it, multidegree by
multidegree) and solving the resulting exact linear system over the basis
words of the same multidegree, on Lyndon-word columns (_lyndon numbers
them for whole degrees); the same solver, over a multidegree's
right-normed monomials, writes fplie.linearize_presentation's relators.  A
tensor is a dict from integer word keys to coefficients: a word of d
letters over n is the base-n number of its letters (_word_int), and each
vector here holds one degree, so the product uv has the key u * n**d(v) + v
and a commutator needs no letter tuples.
Two shortcut cases avoid the solve: a bracket of two distinct same-level
words is itself a basis word, and appending a small enough previous-level
word to a left-normed bracket just extends it.  The solve is fraction-free
inside the echelon, and its reported coefficients are ints where integral
and Fractions only where not; no floats.  A substitution of generators is
the algebra map on tensor polynomials sending each letter to its image
(_substitution).
"""

from __future__ import annotations

import atexit
import gc
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter

from .ratlin import (
    ONE,
    ZERO,
    EchelonForm,
    InternalError,
    LieobstructError,
    format_sum,
    scal,
    scan_rational,
)

__all__ = [
    "HallWord",
    "LieElement",
    "LieError",
    "bigraded_dims",
    "bracket",
    "default_names",
    "format_element",
    "gen_elt",
    "generator",
    "hall_basis_derived",
    "hall_degree_counts",
    "hall_level",
    "hall_words_of_degree",
    "lie_tensor",
    "multidegree",
    "parse_element",
    "tensor_expand",
    "witt_dim",
    "word_str",
    "zero",
]


class LieError(LieobstructError, ValueError):
    pass


class HallWord(tuple):
    """One basis word: a generator, or a left-normed bracket of words one
    level down.  The word is its own sort key, a tuple: (0, 1, gen) for a
    generator and (-level, degree, *children) for a bracket.  Tuple order
    is the fixed total order of the module docstring: it compares like the
    nested (-level, degree, children), since level and degree decide
    between words of different level or degree, and two distinct words of
    one level and degree never have one child sequence a prefix of the
    other.  Order, equality and hash are the tuple's, structural and in C,
    so a word also compares with plain tuples as its flat key would."""

    __slots__ = ()

    def __new__(cls, level, gen=None, children=None):
        if level == 0:
            if children is not None or gen is None or gen < 0:
                raise LieError("level-0 word must be a bare generator index")
            return tuple.__new__(cls, (0, 1, gen))
        if not children or len(children) < 2:
            raise LieError("bracket word needs at least two children")
        if any(c.level != level - 1 for c in children):
            raise LieError("children must all sit one level down")
        if not children[0] < children[1]:
            raise LieError("first child must be smaller than second")
        for a, b in zip(children[1:], children[2:]):
            if a < b:
                raise LieError("children after the second must be weakly decreasing")
        return tuple.__new__(cls, (-level, sum(c[1] for c in children), *children))

    # item 1, read by a C-level getter: enumeration callers read it per word
    degree = namedtuple("_Head", ("top", "degree")).degree
    level = property(lambda w: -w[0])
    gen = property(lambda w: None if w[0] else w[2])
    children = property(lambda w: w[2:] if w[0] else None)
    key = property(lambda w: w)

    def __reduce__(self):
        # rebuilt from its items unchecked, as the enumeration builds it
        return tuple.__new__, (HallWord, tuple(self))

    def __repr__(self):
        return f"HallWord({word_str(self, None)})"

    def gen_counts(self) -> dict:
        return _tally(self)

    def max_gen(self) -> int:
        return max(_tally(self))


def _tally(w: HallWord) -> dict:
    """{generator: occurrences} over the letters of w."""
    counts: dict = {}
    stack = [w]
    while stack:
        w = stack.pop()
        if w[0]:
            stack += w[2:]
        else:
            counts[w[2]] = counts.get(w[2], 0) + 1
    return counts


_GENERATORS: dict[int, HallWord] = {}


def generator(g: int) -> HallWord:
    w = _GENERATORS.get(g)
    if w is None:
        if g < 0:
            raise LieError(f"generator index must be >= 0, got {g}")
        w = HallWord(0, gen=g)
        _GENERATORS[g] = w
    return w


def multidegree(w: HallWord, n_gens: int):
    md = [0] * n_gens
    for g, m in _tally(w).items():
        if g >= n_gens:
            raise LieError(f"word uses generator {g} outside alphabet of size {n_gens}")
        md[g] = m
    return tuple(md)


def _multidegree(w: HallWord, n_gens: int, memo: dict) -> tuple:
    """multidegree(w, n_gens), summed from its children's.  memo keeps the
    children's, so a pass that shares it walks each word once and stores
    nothing for the words it is asked about."""
    if not w[0]:
        return multidegree(w, n_gens)
    parts = []
    for c in w[2:]:
        v = memo.get(c)
        if v is None:
            v = memo[c] = _multidegree(c, n_gens, memo)
        parts.append(v)
    return tuple(map(sum, zip(*parts)))


def _max_letter(w: HallWord, memo: dict) -> int:
    """w.max_gen(), from its children's, which memo keeps as _multidegree's."""
    if not w[0]:
        return w[2]
    top = -1
    for c in w[2:]:
        g = memo.get(c)
        if g is None:
            g = memo[c] = _max_letter(c, memo)
        top = max(top, g)
    return top


def word_str(w: HallWord, names) -> str:
    """Render as nested binary brackets, e.g. [[x,y],y]."""

    if not w[0]:
        return f"x{w[2] + 1}" if names is None else names[w[2]]
    acc = word_str(w[2], names)
    for c in w[3:]:
        acc = f"[{acc},{word_str(c, names)}]"
    return acc


# ---------------------------------------------------------------------------
# enumeration

def _check_enum_args(n_gens, level, max_degree):
    if n_gens < 1:
        raise LieError(f"alphabet size must be >= 1, got {n_gens}")
    if level < 0:
        raise LieError(f"level must be >= 0, got {level}")
    if max_degree < 0:
        raise LieError(f"degree cap must be >= 0, got {max_degree}")


# (n_gens, level) -> [words of degree 0, of degree 1, ...], grown on demand;
# emptied at exit for library hosts, whose heap is not frozen (see above)
_LAYERS: dict = {}
atexit.register(_LAYERS.clear)


def _layer(n_gens: int, level: int, d: int):
    """The basis words of exactly this level and degree, in the fixed order.

    A level-l word has degree >= 2**l, which d.bit_length() decides without
    forming the power, and one letter has no word above level 0.  Each
    layer is built once, from lower layers, and emitted in its final order:
    nothing is sorted.  A level-l word of degree m is (c1, c2, t1, ..., tk)
    over level-(l-1) words, c1 < c2 >= t1 >= ... >= tk, and the layer is
    ordered by that child sequence, in which children compare by degree,
    then by position in their own layer.  So the build takes c1 ascending,
    then c2 > c1 ascending (degree e2 from e1 to m - e1), then the tails
    (t1, ..., tk) of degree r = m - e1 - e2 with t1 <= c2, in tail order:
    a prefix of all tails of degree r, or all of them when e2 > r.

    A tail is a weakly decreasing sequence of level-(l-1) words.  With cmin
    the smallest of those, of degree b, the one tail that starts with cmin
    is (cmin,) * (r / b), when b divides r; one that starts with t1 > cmin
    is w[3:] for the word w = (cmin, t1, ...) of this level and degree
    b + r.  Those words are that layer's first block, the one cmin leads,
    and already in tail order; b + r <= m - b, so the layer is built.  The
    tails of each degree are collected once per call and dropped with it.
    Every child has degree >= b, so only the layers one level down through
    degree d - b are read or built.  The cyclic collector is paused while
    layers grow; a recursive call finds it paused and leaves it so.
    """
    if level == 0:
        return tuple(generator(g) for g in range(n_gens)) if d == 1 else ()
    if n_gens == 1 or d.bit_length() <= level:
        return ()
    layers = _LAYERS.setdefault((n_gens, level), [])
    if len(layers) > d:
        return layers[d]
    new, top, below = tuple.__new__, -level, level - 1
    tails: dict = {}  # r -> the tails of degree r, in order; this call's own
    enabled = gc.isenabled()
    gc.disable()
    try:
        # b, the degree of the smallest word one level down (d if none lies
        # below d): every child has degree >= b, so none has more than d - b
        b = next((e for e in range(1, d) if _layer(n_gens, below, e)), d)
        lower = [_layer(n_gens, below, e) for e in range(d - b + 1)]
        while len(layers) <= d:
            m = len(layers)
            out = []
            for e1 in range(b, m // 2 + 1):
                for i, c1 in enumerate(lower[e1]):
                    for e2 in range(e1, m - e1 + 1):
                        high = lower[e2][i + 1:] if e2 == e1 else lower[e2]
                        r = m - e1 - e2
                        if not r:
                            out += [new(HallWord, (top, m, c1, c2)) for c2 in high]
                            continue
                        ts = tails.get(r)
                        if ts is None:
                            cmin, block = lower[b][0], layers[b + r]
                            ts = tails[r] = [(cmin,) * (r // b)] if r % b == 0 else []
                            end = bisect_right(block, cmin, key=itemgetter(2))
                            ts += [w[3:] for w in block[:end]]
                        if not ts:
                            continue
                        for c2 in high:
                            head = (top, m, c1, c2)
                            fit = ts if e2 > r else ts[:bisect_right(ts, c2, key=itemgetter(0))]
                            out += [new(HallWord, head + t) for t in fit]
            layers.append(tuple(out))
    finally:
        if enabled:
            gc.enable()
    return layers[d]


def hall_level(n_gens: int, level: int, max_degree: int):
    """All basis words of exactly this level with total degree <= max_degree,
    in the fixed total order: the layers of degrees 1..max_degree."""
    _check_enum_args(n_gens, level, max_degree)
    return tuple(w for d in range(1, max_degree + 1) for w in _layer(n_gens, level, d))


def hall_basis_derived(n_gens: int, derived_level: int, max_degree: int):
    """Union of hall_level over levels >= derived_level, degree <= cap.

    Sorted degree-major, then by the fixed total order within a degree
    (higher level first); this is also the pivot column order used
    everywhere downstream.
    """
    _check_enum_args(n_gens, derived_level, max_degree)
    top = max_degree if n_gens > 1 else min(max_degree, 1)  # one letter: x alone
    words = []
    for d in range(1, top + 1):
        for level in range(d.bit_length() - 1, derived_level - 1, -1):
            words.extend(_layer(n_gens, level, d))
    return tuple(words)


def hall_degree_counts(n_gens: int, derived_level: int, max_degree: int) -> dict:
    """{d: how many of hall_basis_derived's words have degree d} for
    1 <= d <= max_degree, summed over layer lengths, so no word is walked
    or gathered."""
    _check_enum_args(n_gens, derived_level, max_degree)
    return {
        d: sum(len(_layer(n_gens, level, d)) for level in range(derived_level, d.bit_length()))
        for d in range(1, max_degree + 1)
    }


@lru_cache(maxsize=None)
def hall_words_of_degree(n_gens: int, degree: int):
    """Basis words of exact total degree, grouped by multidegree."""
    _check_enum_args(n_gens, 0, degree)
    grouped, memo = {}, {}
    for level in range(degree.bit_length() - 1, -1, -1):
        for w in _layer(n_gens, level, degree):
            grouped.setdefault(_multidegree(w, n_gens, memo), []).append(w)
    return {md: tuple(ws) for md, ws in grouped.items()}


def _divisors(k):
    out = [d for d in range(1, k + 1) if k % d == 0]
    return out


def _mobius(k):
    out = 1
    p = 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            out = -out
        else:
            p += 1
    if k > 1:
        out = -out
    return out


def witt_dim(n_gens: int, degree: int) -> int:
    """Dimension of the degree-d part of the free Lie algebra (necklace count)."""
    if degree < 1:
        raise LieError(f"degree must be >= 1, got {degree}")
    if n_gens < 1:
        raise LieError(f"alphabet size must be >= 1, got {n_gens}")
    total = sum(_mobius(d) * n_gens ** (degree // d) for d in _divisors(degree))
    q, r = divmod(total, degree)
    if r:
        raise InternalError(f"necklace count {total} is not divisible by {degree}")
    return q


def bigraded_dims(derived_level: int, max_degree: int) -> dict:
    """Multidegree counts for the two-letter alphabet.

    Returns {(i, j): count} over the derived-level basis with x-degree i and
    y-degree j, i + j <= max_degree.
    """
    out, memo = {}, {}
    for w in hall_basis_derived(2, derived_level, max_degree):
        md = _multidegree(w, 2, memo)
        out[md] = out.get(md, 0) + 1
    return out


# ---------------------------------------------------------------------------
# tensor expansion and bracket normalization

# (word, n_gens) -> tensor_expand image, shared by every caller in a process
_EXPAND: dict = {}


def tensor_expand(w: HallWord, n_gens: int) -> dict:
    """Image of a basis word in the tensor algebra on n_gens letters, as
    {_word_int key: int}; every key has w.degree letters."""
    key = (w, n_gens)
    t = _EXPAND.get(key)
    if t is not None:
        return t
    if not w[0]:
        if w[2] >= n_gens:
            raise LieError(f"word uses generator {w[2]} outside alphabet of size {n_gens}")
        t = {w[2]: 1}
    else:
        head = w[2]
        t = tensor_expand(head, n_gens)
        shift = n_gens ** head[1]
        for c in w[3:]:
            s = n_gens ** c[1]
            t = _tensor_commutator(t, tensor_expand(c, n_gens), shift, s)
            shift *= s
    _EXPAND[key] = t
    return t


def _tensor_commutator(a: dict, b: dict, shift_a: int, shift_b: int) -> dict:
    """ab - ba for homogeneous a, b over _word_int keys, where shift_a and
    shift_b are n_gens to the power of their degrees: the word uv has the
    key u * n_gens**len(v) + v, and distinct pairs give distinct keys."""
    out = {u * shift_b + v: x * y for u, x in a.items() for v, y in b.items()}
    for v, y in b.items():
        v *= shift_a
        for u, x in a.items():
            k = v + u
            z = out.get(k, 0) - x * y
            if z:
                out[k] = z
            else:
                del out[k]
    return out


def _word_int(letters, n_gens):
    """The key of a word: its letters as base-n_gens digits, first letter
    most significant, so keys of one length order like the words."""
    k = 0
    for g in letters:
        k = k * n_gens + g
    return k


@lru_cache(maxsize=None)
def _lyndon_columns(n_gens: int, d: int) -> dict:
    """{_word_int key: column} for the Lyndon words of length d, listed by
    Duval's algorithm in lexicographic order and numbered after the
    witt_dim columns of every lower degree."""
    cols: dict = {}
    base = sum(witt_dim(n_gens, e) for e in range(1, d))
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == d:
            cols[_word_int(w, n_gens)] = base + len(cols)
        m = len(w)
        while len(w) < d:
            w.append(w[-m])
        while w and w[-1] == n_gens - 1:
            w.pop()
    return cols


def _lyndon(e: dict, n_gens: int) -> dict:
    """A tensor polynomial {degree: vector over _word_int keys}, as from
    lie_tensor or tensor_expand, cut to the Lyndon-word columns of each
    degree and numbered into one vector.  This does not commute with ad,
    so a bracket is formed on full tensors first, except where the
    commutator's Lyndon coefficients are read off one split of each Lyndon
    word (fplie._lyndon_bracket): for every bracket word of the
    representative scan."""
    out = {}
    for d, v in e.items():
        cols = _lyndon_columns(n_gens, d)
        for k, c in v.items():
            j = cols.get(k)
            if j is not None:
                out[j] = c
    return out


@lru_cache(maxsize=None)
def _is_lyndon(k: int, d: int, n_gens: int) -> bool:
    """Whether the word of d letters keyed k is a Lyndon word: smaller than
    each proper rotation (k mod n**e) * n**(d-e) + k // n**e, 0 < e < d."""
    return all(k < k % n_gens ** e * n_gens ** (d - e) + k // n_gens ** e for e in range(1, d))


def _relabel(w: HallWord, letters) -> HallWord:
    """w with each generator g renamed letters[g].  For increasing letters
    the renaming preserves the order of words, so a basis word stays one."""
    if not w[0]:
        return generator(letters[w[2]])
    return tuple.__new__(HallWord, (w[0], w[1], *[_relabel(c, letters) for c in w[2:]]))


class _MultidegreeSolver:
    """Expresses Lie polynomials of one multidegree over a family of them.

    The family is given as labels and their rows, tensor images over the
    _word_int keys of words of degree letters on n_gens letters.  Each row
    is cut to its Lyndon-word columns, tested key by key rather than listed
    for the alphabet; the cut is injective on Lie polynomials.  A tracked
    echelon keeps each row that is independent of the rows before it, so
    solve() gives the unique combination over those, with the dependent
    labels' coefficients zero.  Integral rows stay integral, and the
    echelon makes a Fraction only for a reported coefficient that is not
    an integer.
    """

    def __init__(self, labels, rows, n_gens, degree):
        self.labels, self.n_gens, self.degree = labels, n_gens, degree
        self.ech = EchelonForm(track=True)
        for row in rows:
            self.ech.insert(self._lyndon_part(row))

    def _lyndon_part(self, vec: dict) -> dict:
        return {k: c for k, c in vec.items() if _is_lyndon(k, self.degree, self.n_gens)}

    def solve(self, vec: dict) -> dict:
        """The label combination of a Lie polynomial of this multidegree,
        given as a vector over _word_int keys.  A Lyndon word outside the
        family's span leaves a residual; a vector that is not a Lie
        polynomial goes unnoticed."""
        res, combo = self.ech.reduce(self._lyndon_part(vec))
        if res:
            raise InternalError("vector leaves the solver's multidegree")
        return {self.labels[i]: c for i, c in combo.items()}


_SOLVERS: dict = {}


def _solver(n_gens, md) -> _MultidegreeSolver:
    """The solver over the basis words of multidegree md, which must expand
    independently.  The words are enumerated over the letters of md's
    support alone and relabelled, so the cost follows the support, not the
    alphabet; Hall words are a Z-basis, so the rows are their integral
    tensor_expand images."""
    key = (n_gens, md)
    s = _SOLVERS.get(key)
    if s is None:
        support = tuple(g for g, m in enumerate(md) if m)
        words = hall_words_of_degree(len(support), sum(md)).get(
            tuple(md[g] for g in support), ()
        )
        if support[-1] != len(support) - 1:
            # skipped for the identity relabel, so the words stay the
            # enumerated objects, which dict lookups match by identity first
            words = tuple(_relabel(w, support) for w in words)
        s = _MultidegreeSolver(words, [tensor_expand(w, n_gens) for w in words], n_gens, sum(md))
        if s.ech.rank != len(words):
            raise InternalError("basis words must expand independently")
        _SOLVERS[key] = s
    return s


def _basis_bracket(a: HallWord, b: HallWord):
    """[a, b] for basis words a < b when it is itself a basis word, else
    None: a bracket of two distinct same-level words, or a left-normed
    bracket extended by a previous-level word no larger than its last."""
    if a[0] == b[0]:
        return tuple.__new__(HallWord, (a[0] - 1, a[1] + b[1], a, b))
    if b[0] == a[0] + 1 and b <= a[-1]:
        return tuple.__new__(HallWord, (a[0], a[1] + b[1], *a[2:], b))
    return None


def _normalize_pair(n_gens, a: HallWord, b: HallWord) -> dict:
    """[a, b] as a combination of basis words, for basis words a, b."""
    if a is b or a == b:
        return {}
    if b < a:
        return {w: -c for w, c in _normalize_pair(n_gens, b, a).items()}
    w = _basis_bracket(a, b)
    if w is not None:
        return {w: ONE}
    md = tuple(
        x + y
        for x, y in zip(multidegree(a, n_gens), multidegree(b, n_gens))
    )
    t = _tensor_commutator(
        tensor_expand(a, n_gens),
        tensor_expand(b, n_gens),
        n_gens ** a[1],
        n_gens ** b[1],
    )
    return _solver(n_gens, md).solve(t)


class LieElement:
    """A finite rational combination of basis words on a fixed alphabet.

    Coefficients are canonical scalars (ratlin.scal): ints where integral,
    else Fractions."""

    __slots__ = ("n_gens", "terms")

    def __init__(self, n_gens: int, terms: dict):
        self.n_gens = n_gens
        clean, memo = {}, {}
        for w, c in terms.items():
            c = scal(c)
            if c:
                if _max_letter(w, memo) >= n_gens:
                    raise LieError(
                        f"word {word_str(w, None)} uses a generator outside alphabet size {n_gens}"
                    )
                clean[w] = c
        self.terms = clean

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, LieElement):
            return NotImplemented
        return self.n_gens == other.n_gens and self.terms == other.terms

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            y = terms.get(w, ZERO) + c
            if y:
                terms[w] = y
            else:
                del terms[w]
        return LieElement(self.n_gens, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LieElement(self.n_gens, {w: -c for w, c in self.terms.items()})

    def __rmul__(self, c):
        c = scal(c)
        return LieElement(self.n_gens, {w: c * x for w, x in self.terms.items()})

    def __repr__(self):
        return f"LieElement({format_element(self)})"

    def _check(self, other):
        if not isinstance(other, LieElement):
            raise LieError(f"expected LieElement, got {type(other).__name__}")
        if other.n_gens != self.n_gens:
            raise LieError("alphabet size mismatch")

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self):
        return sorted({w.degree for w in self.terms})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def component(self, degree: int) -> "LieElement":
        return LieElement(
            self.n_gens, {w: c for w, c in self.terms.items() if w.degree == degree}
        )

    def truncate(self, max_degree: int) -> "LieElement":
        return LieElement(
            self.n_gens,
            {w: c for w, c in self.terms.items() if w.degree <= max_degree},
        )

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: (wc[0].degree, wc[0]))


def zero(n_gens: int) -> LieElement:
    return LieElement(n_gens, {})


def gen_elt(n_gens: int, g: int) -> LieElement:
    if not 0 <= g < n_gens:
        raise LieError(f"generator index {g} outside alphabet of size {n_gens}")
    return LieElement(n_gens, {generator(g): ONE})


def bracket(u: LieElement, v: LieElement) -> LieElement:
    """The Lie bracket [u, v], rewritten into the basis."""
    u._check(v)
    n = u.n_gens
    acc: dict = {}
    for wa, ca in u.terms.items():
        for wb, cb in v.terms.items():
            c = ca * cb
            for w, k in _normalize_pair(n, wa, wb).items():
                y = acc.get(w, ZERO) + c * k
                if y:
                    acc[w] = y
                else:
                    del acc[w]
    return LieElement(n, acc)


def _nonzero(t: dict) -> dict:
    """A tensor polynomial without its zero entries and empty vectors."""
    t = {d: {k: x for k, x in v.items() if x} for d, v in t.items()}
    return {d: v for d, v in t.items() if v}


def _add_product(out: dict, a: dict, b: dict, n_gens: int, cap: int) -> dict:
    """Add ab cut above degree cap into out, for tensor polynomials on
    n_gens letters, leaving zeros; a scalar c is {0: {0: c}}.  Returns out."""
    for da, va in a.items():
        for db, vb in b.items():
            if da + db <= cap:
                acc, shift = out.setdefault(da + db, {}), n_gens ** db
                for u, x in va.items():
                    for v, y in vb.items():
                        acc[u * shift + v] = acc.get(u * shift + v, 0) + x * y
    return out


def lie_tensor(e: LieElement) -> dict:
    """Image of an element in the tensor algebra, one vector per degree:
    {degree: {_word_int key: scalar}}, with no empty vector."""
    out: dict = {}
    for w, c in e.terms.items():
        _add_product(out, {0: {0: c}}, {w.degree: tensor_expand(w, e.n_gens)}, e.n_gens, w.degree)
    return _nonzero(out)


def _substitution(images, n_out: int, cap: int):
    """The algebra map from tensor polynomials over len(images) letters to
    those over n_out sending letter g to images[g], which lies in degrees
    1 to cap, cut above the cap; on Lie polynomials, the Lie morphism with
    those generator images.  A word's image, its prefix's times its last
    letter's, is memoised."""
    n_in = len(images)
    memo: dict = {}

    def word(d, k):
        if d == 1:
            return images[k]
        if (d, k) not in memo:
            head, g = divmod(k, n_in)
            memo[d, k] = _nonzero(_add_product({}, word(d - 1, head), images[g], n_out, cap))
        return memo[d, k]

    def push(t: dict) -> dict:
        out: dict = {}
        for d, v in t.items():
            for k, c in v.items():
                for e, w in word(d, k).items():
                    acc = out.setdefault(e, {})
                    for u, x in w.items():
                        acc[u] = acc.get(u, 0) + c * x
        return _nonzero(out)

    return push


# ---------------------------------------------------------------------------
# parsing and printing

def default_names(n_gens: int):
    if n_gens <= 3:
        return tuple("xyz"[:n_gens])
    return tuple(f"x{i + 1}" for i in range(n_gens))


def format_element(e: LieElement, names=None) -> str:
    if names is None:
        names = default_names(e.n_gens)
    return format_sum((word_str(w, names), c) for w, c in e.sorted_terms())


class _Parser:
    def __init__(self, text, names):
        self.text = text.replace(" ", "").replace("\t", "")
        self.pos = 0
        self.names = list(names)

    def error(self, msg):
        raise LieError(f"parse error at position {self.pos}: {msg} (in {self.text!r})")

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> LieElement:
        e = self.parse_sum()
        if self.pos != len(self.text):
            self.error("trailing input")
        return e

    def parse_sum(self) -> LieElement:
        n = len(self.names)
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        acc = sign * self.parse_term()
        while self.peek() in ("+", "-"):
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
            acc = acc + sign * self.parse_term()
        if acc.n_gens != n:
            raise InternalError("parsed sum left the generator alphabet")
        return acc

    def parse_term(self) -> LieElement:
        c = ONE
        if self.peek().isdigit():
            try:
                c, self.pos = scan_rational(self.text, self.pos)
            except ValueError as exc:
                self.error(str(exc))
            if self.peek() == "*":
                self.pos += 1
            else:
                self.error("a coefficient must be followed by '*' and a bracket or generator")
        return c * self.parse_monomial()

    def parse_monomial(self) -> LieElement:
        n = len(self.names)
        if self.peek() == "[":
            self.pos += 1
            left = self.parse_sum()
            self.expect(",")
            right = self.parse_sum()
            self.expect("]")
            return bracket(left, right)
        start = self.pos
        while self.peek().isalnum() or self.peek() == "_":
            self.pos += 1
        name = self.text[start:self.pos]
        if not name:
            self.error("expected a generator name or '['")
        if name not in self.names:
            self.error(f"unknown generator {name!r}")
        return gen_elt(n, self.names.index(name))


def parse_element(text: str, names) -> LieElement:
    """Parse nested bracket expressions like '[x,[x,y]] - 2*[y,[x,y]]'."""
    try:
        return _Parser(text, names).parse()
    except RecursionError:
        raise LieError("brackets nest too deeply to parse") from None
