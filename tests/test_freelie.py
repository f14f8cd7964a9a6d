"""Hall basis enumeration and bracket normalization against independent oracles.

The necklace (Witt) formula and direct tensor-algebra commutators are the
oracles here; enumeration counts and normalized brackets must reproduce them
exactly.  Layers are also checked against two earlier enumerators: the
recursive one (hall_level_reference) and the build-then-sort one
(sorted_layer_reference).
"""

import gc
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from lieobstruct import freelie
from lieobstruct.freelie import (
    HallWord,
    LieElement,
    LieError,
    _solver,
    _substitution,
    _word_int,
    bigraded_dims,
    bracket,
    format_element,
    gen_elt,
    generator,
    hall_basis_derived,
    hall_degree_counts,
    hall_level,
    hall_words_of_degree,
    lie_tensor,
    multidegree,
    parse_element,
    tensor_expand,
    witt_dim,
    word_str,
    zero,
)
from lieobstruct.ratlin import InternalError

# dimensions of the free Lie algebra per degree, from the necklace formula,
# computed by hand: (1/k) sum_{d|k} mu(d) n^(k/d)
WITT_2 = (2, 1, 2, 3, 6, 9, 18, 30)
WITT_3 = (3, 3, 8, 18, 48, 116, 312, 810)

X = generator(0)
Y = generator(1)
XY = HallWord(1, children=(X, Y))


def counts_by_degree(words, top):
    out = [0] * (top + 1)
    for w in words:
        out[w.degree] += 1
    return out[1:]


def test_witt_dim_formula():
    assert [witt_dim(2, d) for d in range(1, 9)] == list(WITT_2)
    assert [witt_dim(3, d) for d in range(1, 9)] == list(WITT_3)
    assert witt_dim(1, 1) == 1
    assert witt_dim(1, 5) == 0


def test_hall_counts_match_witt():
    for n, table in ((2, WITT_2), (3, WITT_3)):
        words = hall_basis_derived(n, 0, 8)
        assert counts_by_degree(words, 8) == list(table)


def test_level_one_words_degree_three():
    words = hall_level(2, 1, 3)
    xyx = HallWord(1, children=(X, Y, X))
    xyy = HallWord(1, children=(X, Y, Y))
    assert set(words) == {XY, xyx, xyy}
    assert words[0] == XY
    assert hall_level(2, 0, 1) == (X, Y)
    assert hall_level(2, 2, 3) == ()
    assert hall_level(1, 1, 6) == ()
    assert hall_basis_derived(1, 1, 6) == ()


def test_lowest_second_derived_words():
    # a level-2 word needs two distinct level-1 children, so degree 5 is
    # the first possible total degree and there is nothing in degree 4
    assert hall_basis_derived(2, 2, 4) == ()
    words = hall_basis_derived(2, 2, 5)
    assert len(words) == 2
    mds = {multidegree(w, 2) for w in words}
    assert mds == {(2, 3), (3, 2)}


def test_second_derived_degree_counts():
    # Witt(2, d) minus the d-1 level-one words of degree d
    words = hall_basis_derived(2, 2, 12)
    expected = [0, 0, 0, 0, 2, 4, 12, 23, 48, 90, 176, 324]
    assert counts_by_degree(words, 12) == expected


def test_parity_of_x_degree_two_slice():
    dims = bigraded_dims(2, 14)
    expected = {3: 1, 4: 1, 5: 2, 6: 2, 7: 3, 8: 3, 9: 4, 10: 4, 11: 5, 12: 5}
    for i, d in expected.items():
        assert dims.get((2, i), 0) == d
    assert (2, 2) not in dims
    assert bigraded_dims(1, 2) == {(1, 1): 1}


def test_multidegree_grouping_matches_the_letter_walk():
    """hall_words_of_degree, which sums each word's multidegree from its
    children's, groups every word of a degree as multidegree's walk over
    its letters does, in basis order, on 1-4 letters.  LieElement's
    alphabet check, which reads each word's largest letter the same way,
    rejects exactly the words past the alphabet."""
    for n, top in ((1, 3), (2, 12), (3, 8), (4, 6)):
        words = hall_basis_derived(n, 0, top)
        for d in range(1, top + 1):
            want = {}
            for w in words:
                if w.degree == d:
                    want.setdefault(multidegree(w, n), []).append(w)
            got = hall_words_of_degree.__wrapped__(n, d)
            assert got == {md: tuple(ws) for md, ws in want.items()}, (n, d)
            assert list(got) == list(want), (n, d)
        assert LieElement(n, dict.fromkeys(words, 1)).terms == dict.fromkeys(words, 1)
        for w in words:
            top_letter = max(g for g, c in enumerate(multidegree(w, n)) if c)
            with pytest.raises(LieError, match="outside alphabet"):
                LieElement(top_letter, {generator(0): 1, w: 1})
    words = hall_basis_derived(2, 0, 10)
    assert bigraded_dims(0, 10) == Counter(multidegree(w, 2) for w in words)


def test_x_degree_lower_bound_per_level():
    for level in (1, 2, 3):
        for w in hall_level(2, level, 12):
            assert w.gen_counts().get(0, 0) >= 2 ** (level - 1)


def test_basis_order_is_degree_major():
    words = hall_basis_derived(2, 0, 6)
    degs = [w.degree for w in words]
    assert degs == sorted(degs)
    keys = [w.key for w in words]
    for a, b in zip(words, words[1:]):
        if a.degree == b.degree:
            assert a.key < b.key
    assert len(set(keys)) == len(keys)


def hall_level_reference(n_gens, level, max_degree):
    """The recursive enumerator the degree layers replaced: every chain
    h1 < h2 >= ... >= hk over the previous level within the cap, sorted."""
    if level == 0:
        return tuple(generator(g) for g in range(n_gens)) if max_degree >= 1 else ()
    if 2 ** level > max_degree:
        return ()
    prev = hall_level_reference(n_gens, level - 1, max_degree - 2 ** (level - 1))
    out = []

    def extend(indices, total):
        if len(indices) >= 2:
            out.append(HallWord(level, children=tuple(prev[i] for i in indices)))
        for nxt in range(indices[-1] + 1):
            d = total + prev[nxt].degree
            if d <= max_degree:
                extend(indices + (nxt,), d)

    for i in range(len(prev)):
        for j in range(i + 1, len(prev)):
            d = prev[i].degree + prev[j].degree
            if d <= max_degree:
                extend((i, j), d)
    out.sort(key=lambda w: w.key)
    return tuple(out)


def test_layers_match_the_recursive_reference(monkeypatch):
    """Caps requested in shuffled order on an empty layer cache, so both
    prefix reads of built layers and growth to new degrees are checked."""
    monkeypatch.setattr(freelie, "_LAYERS", {})
    top = {1: 12, 2: 12, 3: 8, 4: 6}
    cases = [(n, lv, c) for n in top for lv in range(4) for c in range(top[n] + 1)]
    random.Random(11).shuffle(cases)
    for n, level, cap in cases:
        want = hall_level_reference(n, level, cap)
        assert hall_level(n, level, cap) == want
        union = [w for lv in range(level, 4) for w in hall_level_reference(n, lv, cap)]
        union.sort(key=lambda w: (w.degree, w.key))
        assert hall_basis_derived(n, level, cap) == tuple(union)


# (n_gens, level) -> reference layers, built by sorted_layer_reference alone
REFERENCE_LAYERS: dict = {}


def sorted_layer_reference(n_gens: int, level: int, d: int):
    """freelie._layer as it stood before layers were built in order: every
    pair h1 < h2 one level down, and every shorter word of this level with
    one more child h <= its last child, then the layer sorted.  Verbatim
    but for its name and its own cache."""
    if level == 0:
        return tuple(generator(g) for g in range(n_gens)) if d == 1 else ()
    if n_gens == 1 or d.bit_length() <= level:
        return ()
    layers = REFERENCE_LAYERS.setdefault((n_gens, level), [])
    if len(layers) > d:
        return layers[d]
    new, top = tuple.__new__, -level
    enabled = gc.isenabled()
    gc.disable()
    try:
        while len(layers) <= d:
            m = len(layers)
            out = []
            for e in range(1, m // 2 + 1):
                low = sorted_layer_reference(n_gens, level - 1, e)
                high = sorted_layer_reference(n_gens, level - 1, m - e)
                for i, h1 in enumerate(low):
                    for h2 in high[i + 1:] if 2 * e == m else high:
                        out.append(new(HallWord, (top, m, h1, h2)))
                for w in layers[m - e]:
                    head, last = (top, m, *w[2:]), w[-1]
                    for h in low:
                        if last < h:
                            break
                        out.append(new(HallWord, head + (h,)))
            out.sort()
            layers.append(tuple(out))
    finally:
        if enabled:
            gc.enable()
    return layers[d]


def test_layers_match_the_sorted_reference(monkeypatch):
    """Every layer of every level, built in its final order with no sort,
    is the sorted build's tuple.  Degrees are requested in shuffled order
    on an empty layer cache, so a request reads a built layer or grows the
    level through several degrees at once."""
    monkeypatch.setattr(freelie, "_LAYERS", {})
    top = {1: 5, 2: 18, 3: 11, 4: 8, 5: 6}
    cases = [(n, level, d) for n, cap in top.items()
             for level in range(cap.bit_length()) for d in range(cap + 1)]
    random.Random(32).shuffle(cases)
    for n, level, d in cases:
        assert freelie._layer(n, level, d) == sorted_layer_reference(n, level, d), (n, level, d)
    for n, cap in top.items():
        built = sum(len(freelie._layer(n, level, d)) for level in range(cap.bit_length())
                    for d in range(cap + 1))
        assert built == sum(witt_dim(n, d) for d in range(1, cap + 1)), n


def test_a_level_builds_the_level_below_only_as_far_as_its_children_reach(monkeypatch):
    """On two letters the smallest level-2 words, [[x,y],[[x,y],x]] and
    [[x,y],[[x,y],y]], have degree 5, so a level-3 word of degree <= 16 has
    children of degree <= 11."""
    monkeypatch.setattr(freelie, "_LAYERS", {})
    assert hall_level(2, 3, 16) == hall_level_reference(2, 3, 16)
    assert [len(layer) for layer in freelie._LAYERS[2, 2]][:6] == [0, 0, 0, 0, 0, 2]
    assert len(freelie._LAYERS[2, 2]) == 16 - 5 + 1


def test_degree_counts_are_the_basis_counts():
    for n in range(1, 5):
        for level in range(4):
            for cap in (0, 1, 5, 9):
                want = Counter(w.degree for w in hall_basis_derived(n, level, cap))
                assert hall_degree_counts(n, level, cap) == {
                    d: want[d] for d in range(1, cap + 1)
                }, (n, level, cap)
    assert hall_degree_counts(3, 10**8, 50) == dict.fromkeys(range(1, 51), 0)
    with pytest.raises(LieError):
        hall_degree_counts(0, 0, 3)


def test_hall_counts_match_witt_through_degree_14():
    words = hall_basis_derived(2, 0, 14)
    assert counts_by_degree(words, 14) == [witt_dim(2, d) for d in range(1, 15)]


def test_huge_level_is_empty_without_work():
    t0 = time.perf_counter()
    assert hall_level(2, 10**8, 20) == ()
    assert hall_basis_derived(3, 10**8, 1000) == ()
    assert time.perf_counter() - t0 < 0.5


def test_enumeration_argument_errors():
    with pytest.raises(LieError):
        hall_level(0, 0, 3)
    with pytest.raises(LieError):
        hall_level(2, -1, 3)
    with pytest.raises(LieError):
        hall_basis_derived(2, 0, -1)
    with pytest.raises(LieError):
        witt_dim(2, 0)


def test_bracket_basic_identities():
    x = gen_elt(2, 0)
    y = gen_elt(2, 1)
    xy = bracket(x, y)
    assert xy == LieElement(2, {XY: Fraction(1)})
    assert bracket(xy, xy).is_zero()
    # [y,[x,y]] = -[[x,y],y]
    assert bracket(y, xy) == LieElement(2, {HallWord(1, children=(X, Y, Y)): Fraction(-1)})
    assert bracket(x, xy) == LieElement(2, {HallWord(1, children=(X, Y, X)): Fraction(-1)})


def test_bracket_multidegrees_add():
    u = bracket(gen_elt(2, 0), bracket(gen_elt(2, 0), gen_elt(2, 1)))
    for w in u.terms:
        assert multidegree(w, 2) == (2, 1)


def test_solver_words_are_the_multidegree_slice():
    """The solver enumerates over its support letters only and relabels;
    its words, in order, must be the full alphabet's words of that
    multidegree, so pivots and coefficients cannot move."""
    for n in range(1, 5):
        for d in range(1, 7):
            words = hall_words_of_degree(n, d)
            for md in product(range(d + 1), repeat=n):
                if sum(md) == d:
                    assert _solver(n, md).labels == words.get(md, ())


def tensor_commutator(a, b):
    out = {}
    for u, s in a.items():
        for v, t in b.items():
            out[u + v] = out.get(u + v, 0) + s * t
            out[v + u] = out.get(v + u, 0) - s * t
    return {k: v for k, v in out.items() if v}


def letter_expand(w):
    """The tensor image of a basis word over letter tuples, {tuple: int},
    by plain concatenation commutators."""
    if w.level == 0:
        return {(w.gen,): 1}
    t = letter_expand(w.children[0])
    for c in w.children[1:]:
        t = tensor_commutator(t, letter_expand(c))
    return t


def encode(t, n_gens):
    """A letter-tuple tensor on the integer word keys of the library."""
    return {_word_int(u, n_gens): c for u, c in t.items()}


def test_normalization_against_tensor_oracle():
    """Every normalized pair bracket must re-expand to the plain commutator."""
    for n in (2, 3):
        pool = hall_basis_derived(n, 0, 4)
        for a in pool:
            for b in pool:
                if a.degree + b.degree > 5:
                    continue
                got = bracket(
                    LieElement(n, {a: Fraction(1)}), LieElement(n, {b: Fraction(1)})
                )
                want = tensor_commutator(letter_expand(a), letter_expand(b))
                assert lie_tensor(got) == (
                    {a.degree + b.degree: {k: Fraction(c) for k, c in encode(want, n).items()}}
                    if want else {}
                )


def test_tensor_expand_against_letter_oracle():
    """Integer-keyed expansion equals the letter-tuple expansion, encoded:
    every word over 2 letters through degree 9 and over 3 through degree
    6, and the relabelled words of the multidegree solvers."""
    cases = [(n, w) for n, top in ((2, 9), (3, 6)) for w in hall_basis_derived(n, 0, top)]
    for n in (3, 4):
        for d in range(2, 6):
            for md in product(range(d + 1), repeat=n):
                if sum(md) == d:
                    cases.extend((n, w) for w in _solver(n, md).labels)
    for n, w in cases:
        want = letter_expand(w)
        assert {len(u) for u in want} == {w.degree}
        assert tensor_expand(w, n) == encode(want, n)


def test_tensor_expand_rejects_letters_outside_the_alphabet():
    with pytest.raises(LieError):
        tensor_expand(XY, 1)


def test_lie_tensor_splits_degrees():
    x, y = gen_elt(2, 0), gen_elt(2, 1)
    e = Fraction(1, 2) * x + bracket(x, y) - bracket(x, bracket(x, y))
    assert lie_tensor(e) == {
        1: {0: Fraction(1, 2)},
        2: {0b01: 1, 0b10: -1},
        # -(xxy - 2xyx + yxx)
        3: {0b001: -1, 0b010: 2, 0b100: -1},
    }
    assert lie_tensor(zero(2)) == {}


def rebuilt(w):
    """w built again through the validating constructor, from fresh children."""
    if w.level == 0:
        return generator(w.gen)
    return HallWord(w.level, children=tuple(rebuilt(c) for c in w.children))


def nested_key(w):
    if w.level == 0:
        return (0, 1, w.gen)
    return (-w.level, w.degree, tuple(nested_key(c) for c in w.children))


def flat_key(w):
    """The documented key: one flat tuple over the children's keys."""
    if w.level == 0:
        return (0, 1, w.gen)
    return (-w.level, w.degree, *(flat_key(c) for c in w.children))


def test_enumerated_words_match_validated_rebuilds():
    """The unchecked construction of the enumeration gives the same words,
    hashes and order as the validated one, and distinct words hash apart."""
    for n, top in ((2, 10), (3, 7)):
        words = hall_basis_derived(n, 0, top)
        for w in words:
            r = rebuilt(w)
            assert r is not w or w.level == 0
            assert r == w and hash(r) == hash(w)
            assert r.key == w.key == flat_key(w)
            assert r <= w and w <= r and not r < w and not w < r
        assert len({hash(w) for w in words}) == len(words)


def test_flat_keys_of_relabelled_words():
    for md in ((0, 2, 1), (3, 0, 2), (0, 0, 4, 2), (2, 0, 1, 2)):
        words = _solver(len(md), md).labels
        assert words and any(w.max_gen() == len(md) - 1 for w in words)
        for w in words:
            assert w.key == flat_key(w) == rebuilt(w).key
        assert list(words) == sorted(words, key=nested_key)


def test_enumeration_order_is_the_nested_key_order():
    """Level and degree lead the flat key, so it orders words like the
    nested key that wraps the child keys in one more tuple."""
    for n, top in ((2, 14), (3, 8), (4, 6)):
        words = hall_basis_derived(n, 0, top)
        assert list(words) == sorted(words, key=lambda w: (w.degree, nested_key(w)))
        for level in range(4):
            got = hall_level(n, level, top)
            assert list(got) == sorted(got, key=nested_key)


def test_words_are_their_own_keys():
    """Sorting words plainly, by the flat key and by the nested key agree;
    words hash, and distinct words hash apart."""
    for n, top in ((2, 12), (3, 8), (4, 6)):
        words = list(hall_basis_derived(n, 0, top))
        random.Random(n).shuffle(words)
        assert sorted(words) == sorted(words, key=flat_key) == sorted(words, key=nested_key)
        assert len({hash(w) for w in words}) == len(words)
        assert all(w.key is w for w in words)
        w = min(words)  # a bracket of the top level
        u = pickle.loads(pickle.dumps(w))
        assert u == w and type(u) is type(u[2]) is HallWord


def test_word_footprint(monkeypatch):
    """A word is one tuple with no instance dict: a whole basis through
    degree 16, layers and all, costs at most 150 bytes a word."""
    monkeypatch.setattr(freelie, "_LAYERS", {})
    assert HallWord.__slots__ == ()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        words = hall_basis_derived(2, 0, 16)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert used <= 150 * len(words), used / len(words)
    assert not any(hasattr(w, "__dict__") for w in words)


def test_word_order_rejects_non_words():
    """A word compares with a plain tuple as its flat key does, and with
    nothing else."""
    for w in hall_basis_derived(3, 0, 4):
        for k in ((0, 1, 0), (0, 1, 2), (-1, 3), (-1, 3, (0, 1, 0)), flat_key(w)):
            assert (w < k) == (flat_key(w) < k) and (w == k) == (flat_key(w) == k)
            assert (k <= w) == (k <= flat_key(w))
    assert X.__lt__(1) is NotImplemented and X.__le__("x") is NotImplemented
    for bad in (1, "x", None):
        with pytest.raises(TypeError):
            X < bad
        with pytest.raises(TypeError):
            X <= bad
        with pytest.raises(TypeError):
            bad > X


def small_elements(n_gens, max_degree=3):
    pool = list(hall_basis_derived(n_gens, 0, max_degree))
    coeff = st.integers(min_value=-3, max_value=3)
    return st.lists(
        st.tuples(st.sampled_from(pool), coeff), min_size=0, max_size=4
    ).map(
        lambda pairs: LieElement(
            n_gens,
            {
                w: sum(Fraction(c) for ww, c in pairs if ww == w)
                for w, _ in pairs
            },
        )
    )


@settings(max_examples=60, deadline=None)
@given(small_elements(2), small_elements(2))
def test_antisymmetry(u, v):
    assert bracket(u, v) == -bracket(v, u)


@settings(max_examples=40, deadline=None)
@given(small_elements(3, 2), small_elements(3, 2), small_elements(3, 2))
def test_jacobi(a, b, c):
    lhs = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
    assert lhs.is_zero()


def test_parse_matches_api():
    e = parse_element("[x,[x,y]] - 2*[y,[x,y]]", ("x", "y"))
    x = gen_elt(2, 0)
    y = gen_elt(2, 1)
    xy = bracket(x, y)
    assert e == bracket(x, xy) - Fraction(2) * bracket(y, xy)
    assert parse_element(" [ x , y ]\t+ 1/2 * x", ("x", "y")) == bracket(
        x, y
    ) + Fraction(1, 2) * x


def test_parse_errors():
    with pytest.raises(LieError):
        parse_element("[x,y", ("x", "y"))
    with pytest.raises(LieError):
        parse_element("[x,z]", ("x", "y"))
    with pytest.raises(LieError):
        parse_element("2[x,y]", ("x", "y"))
    with pytest.raises(LieError):
        parse_element("[x,y]]", ("x", "y"))
    with pytest.raises(LieError):
        parse_element("", ("x", "y"))


@settings(max_examples=60, deadline=None)
@given(small_elements(2))
def test_format_parse_round_trip(e):
    assert parse_element(format_element(e) if not e.is_zero() else "x", ("x", "y")) == (
        e if not e.is_zero() else gen_elt(2, 0)
    )


def test_word_str_left_normed():
    assert word_str(HallWord(1, children=(X, Y, Y)), ("x", "y")) == "[[x,y],y]"
    assert word_str(HallWord(2, children=(XY, HallWord(1, children=(X, Y, Y)))), ("x", "y")) == (
        "[[x,y],[[x,y],y]]"
    )


def test_tensor_substitution():
    """The algebra map on tensor images: x -> x, y -> [x,y] turns [x,y]
    into [x,[x,y]], which the cap 2 cuts away; zero maps to zero; letters
    mapped to themselves, or to letters of a smaller alphabet, relabel."""
    x = gen_elt(2, 0)
    y = gen_elt(2, 1)
    e = lie_tensor(bracket(x, y))
    images = [lie_tensor(x), lie_tensor(bracket(x, y))]
    assert _substitution(images, 2, 3)(e) == lie_tensor(bracket(x, bracket(x, y)))
    assert _substitution(images, 2, 2)(e) == {}
    assert _substitution(images, 2, 3)({}) == {}
    assert _substitution([{1: {0: 1}}, {1: {1: 1}}], 2, 3)(e) == e
    # x -> the second letter of three, y -> the first: [x,y] -> -[z1,z2]
    got = _substitution([{1: {1: 1}}, {1: {0: 1}}], 3, 3)(e)
    assert got == lie_tensor(-bracket(gen_elt(3, 0), gen_elt(3, 1)))


def random_lie_polynomial(rng, n_gens, md):
    """A seeded rational combination of the commutators of random letter
    sequences of multidegree md, as {_word_int key: Fraction}: a Lie
    polynomial that need not be a single basis word."""
    letters = [g for g, m in enumerate(md) for _ in range(m)]
    out = {}
    for _ in range(rng.randint(1, 3)):
        rng.shuffle(letters)
        t = {(letters[0],): 1}
        for g in letters[1:]:
            t = tensor_commutator(t, {(g,): 1})
        c = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        for k, v in encode(t, n_gens).items():
            y = out.get(k, 0) + c * v
            if y:
                out[k] = y
            else:
                del out[k]
    return out


def test_solver_solves_seeded_lie_polynomials():
    """The Hall combination the solver reads off the Lyndon-word columns
    re-expands to the Lie polynomial it was given: 83 seeded polynomials on
    2-4 letters, 22 of them on supports that skip letters, so the words
    are relabelled.  A vector with a Lyndon word of another multidegree is
    refused."""
    rng = random.Random(20261019)
    cases = 0
    for n in (2, 3, 4):
        for _ in range(40):
            d = rng.randint(2, 7 if n == 2 else 5)
            support = sorted(rng.sample(range(n), rng.randint(1 if n > 2 else 2, n)))
            md = [0] * n
            for g in support:
                md[g] += 1
            for _ in range(d - len(support)):
                md[rng.choice(support)] += 1
            md = tuple(md)
            if len(support) < 2 or sum(md) < 2:
                continue
            vec = random_lie_polynomial(rng, n, md)
            if not vec:
                continue
            combo = _solver(n, md).solve(vec)
            got = lie_tensor(LieElement(n, combo))
            assert got == {sum(md): vec}, (n, md)
            cases += 1
    assert cases == 83
    # [x,y] plus xz, a Lyndon word of multidegree (1,0,1), on three letters
    with pytest.raises(InternalError, match="multidegree"):
        _solver(3, (1, 1, 0)).solve({1: 1, 3: -1, 2: 1})


def test_element_validation():
    with pytest.raises(LieError):
        LieElement(1, {XY: Fraction(1)})
    with pytest.raises(LieError):
        gen_elt(2, 5)
    u = LieElement(2, {XY: Fraction(0)})
    assert u.is_zero()


@pytest.mark.parametrize("enabled", (True, False))
def test_layer_build_restores_the_callers_gc_setting(monkeypatch, enabled):
    monkeypatch.setattr(freelie, "_LAYERS", {})
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        words = hall_basis_derived(3, 0, 7)
        assert gc.isenabled() is enabled
        assert hall_basis_derived(3, 0, 7) == words
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


class Unreadable(tuple):
    """A layer whose words cannot be read."""

    def __iter__(self):
        raise RuntimeError("build interrupted in degree 6")


def test_failed_layer_build_caches_nothing_and_retries_whole(monkeypatch):
    """With level 1 built, its degree-4 layer on three letters is first
    read by the level-2 degree-6 build, for c2 after each c1 of degree 2."""
    monkeypatch.setattr(freelie, "_LAYERS", {})
    lower = freelie._LAYERS.setdefault((3, 1), [])
    hall_level(3, 1, 7)
    whole = lower[4]
    lower[4] = Unreadable(whole)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="degree 6"):
        hall_level(3, 2, 8)
    assert gc.isenabled()
    assert len(freelie._LAYERS[(3, 2)]) == 6  # degrees 0 to 5, whole
    assert hall_level(3, 2, 5) == hall_level_reference(3, 2, 5)
    lower[4] = whole
    assert hall_level(3, 2, 8) == hall_level_reference(3, 2, 8)


@pytest.mark.parametrize("n, level, top", ((4, 0, 8), (3, 2, 10)))
def test_paused_build_strands_no_cyclic_garbage(monkeypatch, n, level, top):
    monkeypatch.setattr(freelie, "_LAYERS", {})
    gc.collect()
    assert hall_basis_derived(n, level, top)
    assert gc.collect() == 0


def test_exit_hook_empties_the_layer_cache():
    """A handler registered before freelie is imported runs after its hook."""
    code = (
        "import atexit\n"
        "def check():\n"
        "    from lieobstruct import freelie\n"
        "    print(len(freelie._LAYERS))\n"
        "    assert not freelie._LAYERS\n"
        "atexit.register(check)\n"
        "from lieobstruct import freelie\n"
        "assert freelie.hall_basis_derived(3, 0, 6) and freelie._LAYERS\n"
    )
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout == "0\n"
