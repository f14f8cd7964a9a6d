"""Nilpotent quotients, built one weight layer at a time.

fplie.lcs_quotient builds Q_k = L/Gamma_(k+1), L = free/J, here, with no
closure of J in the free Lie algebra: the extension step of the nilpotent
quotient algorithm (Havas, Newman and Vaughan-Lee, J. Symbolic Comput. 9,
1990; Schneider, DMTCS 1997).  With Q_(k-1) known, on a basis B of
representatives with its bracket table, let M = B + T, where T has one
central tail t(a, b) per pair a < b of representatives whose weights sum
to at most k, and [a, b] = table(a, b) + t(a, b), 0 for a larger sum; a
pair that is the split [prefix, last child] of a representative c
brackets to c and has no tail.
Layer k is T modulo the relations R:
  - the Jacobi identity [x,[b,c]] + [b,[c,x]] + [c,[x,b]] on each triple
    of weight at most k holding a letter x;
  - each relator, read by Dynkin-Specht-Wever: a Lie polynomial sum c_u u
    of degree d is (1/d) sum c_u [u1,[u2,...,ud]], and each right-normed
    bracket is [u1, that of its suffix], memoised;
  - for each representative c whose split is not two representatives, the
    bracket of its split's classes less c.
Each is read on T alone: its part in B vanishes, since Q_(k-1) is a Lie
algebra in which the relators vanish.

Why it is exact.  M/R is a Lie algebra: the Jacobiator J of an
antisymmetric bracket satisfies dJ = 0.  On M, J takes values in T and
vanishes when an entry lies in T, holds a letter or the weights pass k, so
dJ = 0 reads J([x,a],b,c) = J([x,b],a,c) - J([x,c],a,b) for a letter x.
Each a of weight >= 2 is a sum of such [x,a'], a' of weights >= w(a) - 1,
and each triple on the right has a larger weight sum, or the same sum and
a smaller least weight; so induction ends at a letter or past k.  Sending
each representative to its Hall word's class in Q_k, and each tail to the
difference of the two sides, respects the bracket, so it kills R; it is
onto, since layer k of Q_k is spanned by brackets of lower classes.  The
last relations make each representative the bracket of its split's classes,
so the letters generate M/R, in which the relators and weights past k
vanish: a quotient of free/(J + free_(>k)) = Q_k, so M/R = Q_k.  When every
relator is homogeneous, Q_k is graded: a pair of smaller sum has no term of
weight k, so only pairs, triples and relators of weight k are taken, and
the last relations are empty.  Otherwise each class below gains terms of
weight k, so classes are memoised for one layer only.  A zero layer ends
the quotient, since the graded algebra of Q is generated in degree 1.

The representatives are the Hall words that are not pivots of J's RREF,
the words fplie.ideal_span's scan keeps: from the last word of degree k to
the first, a word is kept when its class, its split bracketed in M, raises
the rank modulo R.  A word whose prefix and last child are both
representatives has one tail for its class, its defining tail.  Those
tails are the last columns, in word order, so R's RREF rows pivot on the
other tails and read each in the words kept.  A layer whose words are all
such and all kept, as in a free algebra, needs no scan: its table is read
off those rows alone.
The relations go into the echelon sparsest first, which keeps its integers
short; with no relator at all the algebra is free, and once the rank leaves
witt_dim columns free the other relations are left out.

A derived scheme of level l <= 2 comes with no relators and is imposed as a
law, Q_k = L/(L^(l) + Gamma_(k+1)).  A Lie algebra generated in degree 1
has g' = g_(>=2), so g^(l) is spanned by the brackets of two elements of
weight >= 2**(l-1), and R gains the row t(a, b) for each pair of
representatives of those weights: it holds in Q_k, and with it M/R
satisfies the law (such brackets of smaller weight sum vanish in Q_(k-1)),
so the argument above runs with L^(l) added to J.  The words of level >= l
span L^(l): the scan takes only the words below, and only they have
defining tails (a pair bracketing to a word of level >= l has a plain tail,
which the law kills), so a layer of such words all kept needs no scan.  The
free algebra's early stop is off.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import lcm

from .fplie import _bracket, _split
from .freelie import _basis_bracket, _layer, witt_dim
from .ratlin import EchelonForm, InternalError, scal, vec_add

__all__ = ["nilpotent_quotient"]


def nilpotent_quotient(relators: list, images: list, m: int, cap: int, level: int = 0) -> tuple:
    """(reps, brackets, gen_images) of L/Gamma_(cap+1) for relators, tensor
    polynomials on m letters cut above cap, and the tensor images of the
    presentation's generators: the kept Hall words by weight, their bracket
    table and each generator's class, every scalar canonical.  A level of 1
    or 2 builds L/(L^(level) + Gamma_(cap+1)) by the derived law, for a
    derived scheme with no relators; 0 takes relators alone.  With no
    letter or no class left the quotient is 0."""
    if not (m and cap):
        return [], {}, [{} for _ in images]
    filtered = any(len(t) > 1 for t in relators)
    reps = list(_layer(m, 0, 1))
    starts = [0, 0, m]  # weight d holds the representatives starts[d]:starts[d+1]
    index = {w: i for i, w in enumerate(reps)}
    loose = []  # the split of each representative whose parts are not both ones
    brackets: dict = {}
    img = {w: {i: 1} for w, i in index.items()}
    memo: dict = {}
    by_degree = defaultdict(list)
    for t in relators:
        by_degree[min(t)].append(t)

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
        low = 2 if filtered else k  # the least weight sum that takes a tail
        bound = level or k.bit_length()  # scanned and defining words lie below this level
        pairs = [(a, b) for e in range(1, k // 2 + 1)
                 for a in range(starts[e], starts[e + 1])
                 for b in range(max(a + 1, starts[max(e, low - e)]), starts[k - e + 1])]
        plain, defining = [], []
        for a, b in pairs:  # [reps[a], reps[b]] = s * w, for w a basis word
            u, v, s = (reps[a], reps[b], 1) if reps[a] < reps[b] else (reps[b], reps[a], -1)
            if (w := _basis_bracket(u, v)) in index:
                continue  # a representative's split brackets to it: no tail
            if w and w[1] == k and -w[0] < bound:
                defining.append((w, (a, b), s))
            else:
                plain.append((a, b))
        defining.sort()
        order = plain + [ab for _, ab, _ in defining]
        tails = {ab: {c: 1} for c, ab in enumerate(order)}
        ech, rows = EchelonForm(), []
        if level:  # the law: two representatives of weights >= 2**(level-1) commute
            rows = [{c: 1} for c, (a, _) in enumerate(order) if reps[a].degree >= 1 << (level - 1)]
        for e in range(1, (k - 1) // 2 + 1):
            for b in range(starts[e], starts[e + 1]):
                for c in range(max(b + 1, starts[max(e, low - 1 - e)]), starts[k - e]):
                    bc = brackets.get((b, c), {})
                    for x in range(min(b, m)):
                        row = _bracket(tails, {x: 1}, bc)
                        _bracket(tails, {b: -1}, brackets.get((x, c), {}), row)
                        rows.append(_bracket(tails, {c: 1}, brackets.get((x, b), {}), row))
        for t in relators if filtered else by_degree[k]:
            heads: dict = {}
            top = lcm(*(d for d in t if d <= k))
            for d, v in t.items():
                for u, c in v.items() if d <= k else ():
                    g, s = divmod(u, m ** (d - 1))
                    heads[g] = vec_add(heads.get(g, {}), rho(d - 1, s), c * (top // d))
            row: dict = {}
            for g, h in heads.items():
                _bracket(tails, {g: 1}, h, row)
            rows.append(row)
        rows += [_bracket(tails, image(p), image(last)) for p, last in loose]
        target = None if relators or level else len(order) - witt_dim(m, k)
        for row in sorted(rows, key=len):  # sparsest first: shorter integers, less fill
            if ech.rank == target:
                break
            ech.insert(row)
        rref = dict(zip(ech.pivots, ech.backsubstitute()))
        quota = len(order) - len(rref)
        if not quota:
            break
        layer = [w for lv in range(1, bound) for w in reversed(_layer(m, lv, k))]
        if quota == len(defining) == len(layer):  # every word kept, its tail a column
            new = [w for w, _, _ in defining]
            unit = {len(order) - quota + i: {len(reps) + i: s}
                    for i, (_, _, s) in enumerate(defining)}
        else:
            scan, found = EchelonForm(track=True), []
            for w in layer:
                v = ech.reduce(_bracket(tails, *map(image, _split(w))))[0]
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
            index[w] = len(reps)
            reps.append(w)
        if filtered:
            loose += [ab for ab in map(_split, new) if not all(h in index for h in ab)]
        starts.append(len(reps))
        for q, ab in enumerate(order):
            table = dict(unit.get(q, ()))
            for r, x in rref.get(q, {}).items():
                for i, y in unit[r].items() if r != q else ():
                    table[i] = table.get(i, 0) - x * y
            if table := {i: scal(y) for i, y in table.items() if y}:
                brackets.setdefault(ab, {}).update(table)
        if filtered:  # the classes below gain terms of weight k
            img = {w: {i: 1} for w, i in index.items()}
            memo.clear()
    gen_images = []
    for t in images:
        out: dict = {}
        for d, v in t.items():
            if d < len(starts) - 1:  # the weights built
                acc: dict = {}
                for u, c in v.items():
                    acc = vec_add(acc, rho(d, u), c)
                out = vec_add(out, acc, Fraction(1, d))
        gen_images.append({i: scal(x) for i, x in out.items()})
    return reps, brackets, gen_images
