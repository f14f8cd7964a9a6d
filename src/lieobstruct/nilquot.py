"""Graded nilpotent quotients, built one weight layer at a time.

When every relator is homogeneous, L = free/J is graded, and
fplie.lcs_quotient builds L/Gamma_n here with no closure of J in the free
Lie algebra: the extension step of the nilpotent quotient algorithm
(Havas, Newman and Vaughan-Lee, J. Symbolic Comput. 9, 1990; Schneider,
DMTCS 1997).  With g = L_1 + ... + L_(k-1) known, on a basis of
representatives with its bracket table, layer k is the span T of one tail
t(a, b) per pair a < b of representatives whose weights sum to k, modulo
  - the Jacobi identity [x,[b,c]] + [b,[c,x]] + [c,[x,b]] on each triple of
    weight k holding a letter x, its inner brackets read in g;
  - the relators of degree k, each read by Dynkin-Specht-Wever: a Lie
    polynomial sum c_u u of degree k is (1/k) sum c_u [u1,[u2,...,uk]], and
    each right-normed bracket is [u1, that of its suffix], memoised.

Why it is exact.  Let R be those relations and M = g + T/R.  Triples holding
a letter suffice for M to be a Lie algebra: the Jacobiator J of an
antisymmetric bracket satisfies dJ = 0, which at total weight k, where J
vanishes below k and on triples holding a letter, reads J([x,a],b,c) =
J([x,b],a,c) - J([x,c],a,b); g is generated by its letters, so induction on
the smallest weight of an entry ends at a letter.  So M is a graded Lie
algebra generated in degree 1 in which the relators vanish, a quotient of
L/J; and (L/J)_k is spanned by the tails and satisfies R, so it is a
quotient of T/R.  Hence M_k = (L/J)_k, and a layer that is zero ends the
quotient.

The representatives are the Hall words fplie's scan keeps: from the last
word of degree k to the first, a word is kept when its image, its split
[prefix, last child] bracketed as tails, raises the rank modulo R.  A word
whose prefix and last child are both representatives has one tail for its
image, its defining tail.  Those tails are the last columns, in word order,
so R's RREF rows pivot on the other tails and read each in the words kept.
A layer whose words are all such and all kept, as in a free algebra, needs
no scan: its table is read off those rows alone.  The relations go into
the echelon sparsest first, which keeps its integers short; with no
relator at all the algebra is free, and once the rank leaves witt_dim
columns free the other relations are left out.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

from .fplie import _bracket, _split
from .freelie import _basis_bracket, _layer, witt_dim
from .ratlin import EchelonForm, InternalError, scal, vec_add

__all__ = ["graded_quotient"]


def graded_quotient(relators: list, images: list, m: int, cap: int) -> tuple:
    """(reps, brackets, gen_images) of L/Gamma_(cap+1) for homogeneous
    relators, tensors on m >= 1 letters cut above cap >= 1, and the tensor
    images of the presentation's generators, as fplie's closure route
    gives them: the kept Hall words by weight, their bracket table and each
    generator's class, every scalar canonical."""
    reps = list(_layer(m, 0, 1))
    starts = [0, 0, m]  # weight d holds the representatives starts[d]:starts[d+1]
    brackets: dict = {}
    img = {w: {i: 1} for i, w in enumerate(reps)}
    memo: dict = {}
    by_degree = defaultdict(list)
    for t in relators:
        (d, v), = t.items()
        by_degree[d].append(v)

    def image(w):  # the class of a basis word below the current layer
        v = img.get(w)
        if v is None:
            p, last = _split(w)
            v = img[w] = _bracket(brackets, image(p), image(last))
        return v

    def rho(d, u):  # the right-normed bracket of the word keyed u, d letters
        v = memo.get((d, u)) if d > 1 else {u: 1}
        if v is None:
            g, s = divmod(u, m ** (d - 1))
            v = memo[d, u] = _bracket(brackets, {g: 1}, rho(d - 1, s))
        return v

    for k in range(2, cap + 1):
        pairs = [(a, b) for e in range(1, k // 2 + 1)
                 for a in range(starts[e], starts[e + 1])
                 for b in range(max(a + 1, starts[k - e]), starts[k - e + 1])]
        defining = []
        for a, b in pairs:  # [reps[a], reps[b]] = s * w, for w a basis word
            u, v, s = (reps[a], reps[b], 1) if reps[a] < reps[b] else (reps[b], reps[a], -1)
            if w := _basis_bracket(u, v):
                defining.append((w, (a, b), s))
        defining.sort()
        defined = {ab for _, ab, _ in defining}
        order = [ab for ab in pairs if ab not in defined] + [ab for _, ab, _ in defining]
        tails = {ab: {c: 1} for c, ab in enumerate(order)}
        ech, rows = EchelonForm(), []
        for e in range(1, (k - 1) // 2 + 1):
            for b in range(starts[e], starts[e + 1]):
                for c in range(max(b + 1, starts[k - 1 - e]), starts[k - e]):
                    bc = brackets.get((b, c), {})
                    for x in range(min(b, m)):
                        row = _bracket(tails, {x: 1}, bc)
                        _bracket(tails, {b: -1}, brackets.get((x, c), {}), row)
                        rows.append(_bracket(tails, {c: 1}, brackets.get((x, b), {}), row))
        for v in by_degree[k]:
            heads: dict = {}
            for u, c in v.items():
                g, s = divmod(u, m ** (k - 1))
                heads[g] = vec_add(heads.get(g, {}), rho(k - 1, s), c)
            row: dict = {}
            for g, h in heads.items():
                _bracket(tails, {g: 1}, h, row)
            rows.append(row)
        target = None if relators else len(order) - witt_dim(m, k)
        for row in sorted(rows, key=len):  # sparsest first: shorter integers, less fill
            if ech.rank == target:
                break
            ech.insert(row)
        rref = dict(zip(ech.pivots, ech.backsubstitute()))
        quota = len(order) - len(rref)
        if not quota:
            break
        layer = [w for level in range(1, k.bit_length()) for w in reversed(_layer(m, level, k))]
        if quota == len(defining) == len(layer):  # every word kept, its tail a column
            new = [w for w, _, _ in defining]
            unit = {len(order) - quota + i: {len(reps) + i: s}
                    for i, (_, _, s) in enumerate(defining)}
        else:
            scan, found = EchelonForm(track=True), []
            for w in layer:
                v = _bracket(tails, *map(image, _split(w)))
                for p in [p for p in v if p in rref]:
                    v = vec_add(v, rref[p], -v[p])
                if scan.insert(v)[1] is not None:
                    found.append((w, scan.n_inserted - 1))
                    if len(found) == quota:
                        break
            else:
                raise InternalError("the representatives miss a layer's rank")
            found.sort()
            new = [w for w, _ in found]
            slot = {i: len(reps) + a for a, (_, i) in enumerate(found)}
            unit = {q: {slot[i]: c for i, c in scan.reduce({q: 1})[1].items()}
                    for q in range(len(order)) if q not in rref}
        for w in new:
            img[w] = {len(reps): 1}
            reps.append(w)
        starts.append(len(reps))
        for q, ab in enumerate(order):
            table = dict(unit.get(q, ()))
            for r, x in rref.get(q, {}).items():
                for i, y in unit[r].items() if r != q else ():
                    table[i] = table.get(i, 0) - x * y
            if table := {i: scal(y) for i, y in table.items() if y}:
                brackets[ab] = table
    gen_images = []
    for t in images:
        out: dict = {}
        for d, v in t.items():
            if d < len(starts) - 1:  # the weights built
                acc: dict = {}
                for u, c in v.items():
                    acc = vec_add(acc, rho(d, u), c)
                out.update((i, scal(Fraction(x, d))) for i, x in acc.items())
        gen_images.append(out)
    return reps, brackets, gen_images
