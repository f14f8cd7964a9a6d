"""Exact sparse linear algebra over the rationals.

Everything downstream (free Lie algebra normal forms, nilpotent quotients,
cohomology of finite cdgas) reduces to row reduction of sparse matrices with
rational entries, so this module stays small and boring.  Sparse vectors
are dicts keyed by coordinate index, elimination follows a fixed pivot rule
(first nonzero column, lowest row index), and there is no floating point
anywhere.

A scalar is a Python int when it is an integer and a Fraction only when it
is not (the canonical form that scal returns); the two compare, hash and
print alike, and int arithmetic is far cheaper.  No code here divides with
'/', which would turn two ints into a float.

SparseMatrix stores its nonzero columns, {col: {row: scalar}}, and nothing
else: callers build it from the column vectors they compute, matvec touches
only the columns in its vector's support, and col(j) is a lookup.  rank and
kernel transpose once into rows for the echelon engine.

EchelonForm is the one elimination engine.  It is fraction-free inside: each
input has its denominators cleared once, stored rows are primitive integer
vectors, and its boundary values (residuals, combinations and RREF rows)
are canonical scalars: ints where integral, else Fractions.

The dense Gaussian elimination oracle used to certify this module lives in
the test suite, not here.  What every module shares sits here too: the
error base, the immutable value base and the JSON file loader.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

# an exact rational: an int when integral, else a Fraction (denominator > 1)
Scalar = int | Fraction

ZERO = 0
ONE = 1


class LieobstructError(Exception):
    """Base of every error the library raises on purpose: bad input, an
    unsupported case, or a failed invariant.  The CLI reports each as exit 1
    under its own type name."""


class LinAlgError(LieobstructError, ValueError):
    """Raised on shape mismatches and malformed inputs."""


class InternalError(LieobstructError, RuntimeError):
    """A runtime invariant of the library failed: a bug, not bad input."""


def _load_json(path, parse, error):
    """parse(data) for the JSON value in the file at path.  Invalid JSON,
    and an error of the given type that parse raises, are raised as that
    type with the path in front."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(data)
    except error as exc:
        raise error(f"{path}: {exc}") from exc


class _Frozen:
    """Base of the library's immutable value classes.

    A subclass names its fields in __slots__ and sets them once, in its
    __init__, through _fill, which takes the values in __slots__ order;
    assigning an attribute afterwards raises AttributeError.  ==, hash and
    repr read the fields listed in _fields, and == holds only between
    instances of one class.  A field left out of _fields (a memo, or data
    derived from the others) is ignored by all three.
    """

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


def scal(x) -> Scalar:
    """Coerce ints, strings like '3/4', and Fractions to a canonical scalar:
    an int when the value is integral ('4/2' gives 2), else a Fraction.

    Floats and bools are rejected on purpose: this library is exact or
    nothing, and True is not a coefficient.
    """
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int) and not isinstance(x, bool):
        return int(x)
    raise LinAlgError(f"not an exact scalar: {x!r} of type {type(x).__name__}")


def _ratio(x: int, den: int) -> Scalar:
    """The canonical scalar x/den, for ints x and den != 0."""
    q, r = divmod(x, den)
    return Fraction(x, den) if r else q


_RATIONAL = re.compile(r"(\d+)(/(\d*))?")


def scan_rational(text: str, pos: int) -> tuple[Scalar, int]:
    """Read a coefficient 'n' or 'n/m' in decimal digits at text[pos:].

    Returns the value, canonical as scal makes it ('4/2' gives the int 2),
    and the position just past it.  A malformed coefficient or a missing or
    zero denominator raises ValueError, which each expression parser
    re-raises as its own error.
    """
    m = _RATIONAL.match(text, pos)
    if m is None:
        raise ValueError("expected a coefficient")
    num, slash, den = m.groups()
    if slash is None:
        return int(num), m.end()
    if not den:
        raise ValueError("missing denominator")
    if not int(den):
        raise ValueError("zero denominator")
    return _ratio(int(num), int(den)), m.end()


def scalar_to_json(x):
    """Render a scalar for JSON reports: plain int when integral, else 'p/q'."""
    x = scal(x)
    if type(x) is int:
        return x
    return f"{x.numerator}/{x.denominator}"


def format_sum(terms) -> str:
    """Nonzero (name, scalar) terms as one signed sum: "0" when there are
    none, a bare "-" on a negative first term, "+ " or "- " before each
    later one, and an abs(c)* prefix only when |c| != 1."""
    parts = []
    for name, c in terms:
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        sign = ("" if c > 0 else "-") if not parts else ("+ " if c > 0 else "- ")
        parts.append(sign + body)
    return " ".join(parts) or "0"


def vec_add(u: dict, v: dict, c: Scalar = ONE) -> dict:
    """Return u + c*v as a new sparse vector (zero entries dropped)."""
    out = dict(u)
    for k, x in v.items():
        y = out.get(k, ZERO) + c * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


class SparseMatrix(_Frozen):
    """Immutable sparse matrix with exact entries, stored by columns.

    columns maps col -> {row: nonzero scalar}, each entry of type exactly
    int or a Fraction (floats and bools are rejected); a column with no
    nonzero entry is absent.  Rows and cols may be zero; an empty matrix of
    a given shape is fine.  Matrices here are built from, and applied to, basis
    vectors, so column storage makes both a lookup per basis vector.
    """

    __slots__ = _fields = ("rows", "cols", "columns")

    def __init__(self, rows: int, cols: int, columns: dict | None = None):
        self._fill(rows, cols, {} if columns is None else columns)
        for j, col in self.columns.items():
            if not 0 <= j < self.cols:
                raise LinAlgError(f"column {j} outside {self.rows}x{self.cols}")
            if not col:
                raise LinAlgError(f"empty column {j} stored")
            for i, x in col.items():
                if not 0 <= i < self.rows:
                    raise LinAlgError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
                if type(x) is not int and not isinstance(x, Fraction):
                    raise LinAlgError(f"entry ({i},{j}) is not an exact scalar: {x!r}")
                if x == 0:
                    raise LinAlgError(f"explicit zero stored at ({i},{j})")

    @classmethod
    def from_columns(cls, rows: int, vectors: list) -> "SparseMatrix":
        """The rows x len(vectors) matrix whose j-th column is vectors[j]."""
        return cls(rows, len(vectors), {j: dict(v) for j, v in enumerate(vectors) if v})

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {i: {i: ONE} for i in range(n)})

    def col(self, j: int) -> dict:
        return dict(self.columns.get(j, ()))

    def matvec(self, v: dict) -> dict:
        """Apply to a sparse column vector keyed by column index."""
        out: dict = {}
        columns = self.columns
        for j, c in v.items():
            col = columns.get(j)
            if col is None or not c:
                continue
            for i, x in col.items():
                y = out.get(i, ZERO) + x * c
                if y:
                    out[i] = y
                else:
                    del out[i]
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        columns = {}
        for j, col in other.columns.items():
            v = self.matvec(col)
            if v:
                columns[j] = v
        return SparseMatrix(self.rows, other.cols, columns)

    def is_zero(self) -> bool:
        return not self.columns


def _cleared(vec: dict) -> tuple[dict, int]:
    """vec times the lcm of its denominators, as an integer dict, and the lcm."""
    den = 1
    for x in vec.values():
        d = x.denominator
        if d != 1:
            den = lcm(den, d)
    if den == 1:
        return {k: x.numerator for k, x in vec.items() if x}, 1
    return {k: x.numerator * (den // x.denominator) for k, x in vec.items() if x}, den


def _content(vec: dict) -> int:
    """gcd of the entries, 0 for the zero vector."""
    g = 0
    for x in vec.values():
        g = gcd(g, x)
        if g == 1:
            break
    return g


class EchelonForm:
    """Incrementally built row echelon form over arbitrary integer columns,
    fraction-free inside.

    Rows are kept forward-reduced only: each stored row's first nonzero column
    is its pivot, and no two rows share a pivot.  That is enough for rank,
    membership and combination tracking, and it avoids rewriting old rows on
    every insert.  Column order is plain int order.

    Inputs may hold ints or Fractions; each one has its denominators cleared
    once, by their lcm.  Stored rows are primitive integer vectors with a
    positive lead, and a reduction step is p*v - a*row with a and p divided
    by their gcd first (fraction-free elimination in the manner of Bareiss).
    Rationals appear only at the boundary: the residual and combination that
    reduce returns, and the RREF rows of backsubstitute.  All three are
    canonical, so they do not depend on how rows were scaled inside, and
    each value is canonical too: an int when integral, else a Fraction.

    With track=True, each stored row also carries an integer combination of
    the inputs and one positive integer denominator (row = combo /
    denominator, both divided by their common gcd), so reduce can say which
    inserted vectors it subtracted without a second pass.
    """

    def __init__(self, track: bool = False):
        self.pivot_rows: dict[int, dict] = {}
        self.track = track
        self.combos: dict[int, tuple[dict, int]] = {}
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    def _eliminate(self, cur: dict, stop: bool, steps: list | None):
        """Clear the pivot columns of the integer vector cur, in place.

        Afterwards cur == scale*(cur on entry) - sum of integer multiples of
        stored rows; returns (scale, lead).  With stop, elimination ends at
        the first support column that has no pivot row, and lead is that
        column; otherwise, or when there is none, lead is None.  steps, when
        given, receives (pivot, a, p) for each step cur = p*cur - a*row.

        Stored rows have all their tail columns strictly beyond the pivot, so
        walking the support in increasing column order visits every column
        that can ever need clearing exactly once.
        """
        rows = self.pivot_rows
        scale = 1
        heap = sorted(cur)
        while heap:
            k = heappop(heap)
            a = cur.get(k)
            if a is None:
                continue
            row = rows.get(k)
            if row is None:
                if stop:
                    return scale, k
                continue
            p = row[k]
            if p != 1:
                g = gcd(a, p)
                if g != 1:
                    a //= g
                    p //= g
                if p != 1:
                    for kk, x in cur.items():
                        cur[kk] = p * x
                    scale *= p
            for kk, x in row.items():
                y = cur.get(kk)
                if y is None:
                    cur[kk] = -a * x
                    heappush(heap, kk)
                else:
                    y -= a * x
                    if y:
                        cur[kk] = y
                    else:
                        del cur[kk]
            if steps is not None:
                steps.append((k, a, p))
        return scale, None

    def _subtracted(self, steps: list) -> tuple[dict, int]:
        """The combination of inputs that the steps subtracted, as
        (numerators, common denominator).

        Step t's row ends up multiplied by its a times the p of every later
        step, since each later step rescales everything before it.
        """
        den = 1
        for k, _, _ in steps:
            den = lcm(den, self.combos[k][1])
        num: dict = {}
        mult = 1
        for k, a, p in reversed(steps):
            combo, d = self.combos[k]
            f = a * mult * (den // d)
            for j, x in combo.items():
                y = num.get(j, 0) + f * x
                if y:
                    num[j] = y
                else:
                    del num[j]
            mult *= p
        return num, den

    def reduce(self, vec: dict):
        """Reduce vec against the stored rows.

        Returns (residual, combo), both with canonical scalar values (an
        int when integral, else a Fraction).  The residual is the unique
        vector in vec + span that vanishes at every pivot.
        combo maps insert-order indices to the coefficient of that inserted
        vector in vec - residual; it is None unless tracking is on.
        """
        cur, den = _cleared(vec)
        steps = [] if self.track else None
        scale, _ = self._eliminate(cur, False, steps)
        den *= scale
        res = {k: _ratio(x, den) for k, x in cur.items()}
        if steps is None:
            return res, None
        num, e = self._subtracted(steps)
        den *= e
        combo = {j: _ratio(x, den) for j, x in num.items()}
        return res, combo

    def insert(self, vec: dict):
        """Store vec, reduced up to its first column without a pivot row,
        unless it lies in the span already.

        Returns (row, pivot): the stored integer row and its pivot column,
        min(row), when the rank rose, else ({}, None).
        """
        idx = self.n_inserted
        self.n_inserted += 1
        cur, den = _cleared(vec)
        steps = [] if self.track else None
        scale, lead = self._eliminate(cur, True, steps)
        if lead is None:
            return {}, None
        g = _content(cur)
        if cur[lead] < 0:
            g = -g
        if g != 1:
            cur = {k: x // g for k, x in cur.items()}
        self.pivot_rows[lead] = cur
        if steps is not None:
            # cur == (scale*e*den*vec - num) / e before the content came out
            num, e = self._subtracted(steps)
            combo = {j: -x for j, x in num.items()}
            combo[idx] = scale * e * den
            d = e * g
            if d < 0:
                combo = {j: -x for j, x in combo.items()}
                d = -d
            h = gcd(d, _content(combo))
            if h != 1:
                combo = {j: x // h for j, x in combo.items()}
                d //= h
            self.combos[lead] = (combo, d)
        return cur, lead

    def backsubstitute(self) -> list[dict]:
        """Return the fully reduced (RREF) rows, sorted by pivot column, with
        canonical scalar values (each pivot entry is the int 1)."""
        pivots = self.pivots
        where = {q: i for i, q in enumerate(pivots)}
        out = [None] * len(pivots)
        for i in range(len(pivots) - 1, -1, -1):
            row = self.pivot_rows[pivots[i]]
            # later rows are fully reduced already, so subtracting one clears
            # its pivot here and adds no other pivot column
            later = sorted(k for k in row if k in where and k != pivots[i])
            if later:
                row = dict(row)
                for q in later:
                    a = row[q]
                    other = out[where[q]]
                    p = other[q]
                    g = gcd(a, p)
                    a //= g
                    p //= g
                    if p != 1:
                        row = {k: p * x for k, x in row.items()}
                    for k, x in other.items():
                        y = row.get(k, 0) - a * x
                        if y:
                            row[k] = y
                        else:
                            del row[k]
                g = _content(row)
                if g != 1:
                    row = {k: x // g for k, x in row.items()}
            out[i] = row
        return [{k: _ratio(x, row[q]) for k, x in row.items()} for q, row in zip(pivots, out)]


def _row_echelon(m: SparseMatrix) -> EchelonForm:
    """EchelonForm of the nonzero rows of m, transposed out of its columns."""
    rows = [{} for _ in range(m.rows)]
    for j, col in m.columns.items():
        for i, x in col.items():
            rows[i][j] = x
    ech = EchelonForm()
    for row in filter(None, rows):
        ech.insert(row)
    return ech


def rank(m: SparseMatrix) -> int:
    return _row_echelon(m).rank


class Subspace(_Frozen):
    """A subspace of Q^ambient, stored as RREF basis rows.

    basis_rows is a tuple of sparse vectors (dict col -> canonical scalar),
    in RREF with strictly increasing pivot columns.  RREF rows are unique to
    the span, so equality is equality of subspaces; containment is read as
    span(S + T) == S, with EchelonForm doing the only reduction.
    """

    __slots__ = _fields = ("ambient", "basis_rows", "pivots")

    def __init__(self, ambient: int, basis_rows: tuple, pivots: tuple):
        self._fill(ambient, basis_rows, pivots)

    @classmethod
    def span(cls, vectors, ambient: int) -> "Subspace":
        ech = EchelonForm()
        for v in vectors:
            for j in v:
                if not (0 <= j < ambient):
                    raise LinAlgError(f"coordinate {j} outside ambient dimension {ambient}")
            ech.insert(v)
        rows = ech.backsubstitute()
        return cls(ambient, tuple(rows), tuple(ech.pivots))

    @property
    def dim(self) -> int:
        return len(self.basis_rows)


def kernel(m: SparseMatrix) -> Subspace:
    """Right kernel {v : m v = 0} as a Subspace of Q^cols."""
    ech = _row_echelon(m)
    red = ech.backsubstitute()
    pivots = ech.pivots
    pivot_set = set(pivots)
    vecs = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = {f: ONE}
        for p, row in zip(pivots, red):
            c = row.get(f)
            if c:
                v[p] = -c
        vecs.append(v)
    return Subspace.span(vecs, m.cols)


class QuotientBasis(_Frozen):
    """Coset representatives for Q^ambient / S and the projection onto them.

    reps are the non-pivot coordinate indices of S, in increasing order.
    proj is a len(reps) x ambient matrix sending a vector to the coordinates
    of its coset over the representatives.
    """

    __slots__ = _fields = ("reps", "proj")

    def __init__(self, reps: tuple, proj: SparseMatrix):
        self._fill(reps, proj)


def quotient_basis(s: Subspace) -> QuotientBasis:
    pivot_rows = dict(zip(s.pivots, s.basis_rows))
    reps = tuple(j for j in range(s.ambient) if j not in pivot_rows)
    rep_index = {j: i for i, j in enumerate(reps)}
    columns = []
    for j in range(s.ambient):
        row = pivot_rows.get(j)
        if row is None:
            columns.append({rep_index[j]: ONE})
        else:
            # the other columns of an RREF row are non-pivot columns
            columns.append({rep_index[k]: -x for k, x in row.items() if k != j})
    return QuotientBasis(reps, SparseMatrix.from_columns(len(reps), columns))


def express_in_columns(m: SparseMatrix, target: dict) -> dict | None:
    """Solve m x = target exactly.

    Returns x as a sparse vector keyed by column index, or None if target is
    not in the column span.  When the columns are dependent the solution with
    later redundant columns at zero is returned (first spanning set wins).
    """
    ech = EchelonForm(track=True)
    for j in range(m.cols):
        ech.insert(m.col(j))
    res, combo = ech.reduce(target)
    if res:
        return None
    return dict(combo or {})
