"""Exact sparse linear algebra over the rationals.

Everything downstream (free Lie algebra normal forms, nilpotent quotients,
cohomology of finite cdgas) reduces to row reduction of sparse matrices with
Fraction entries, so this module stays small and boring.  Sparse rows are
dicts keyed by column index, elimination follows a fixed pivot rule (first
nonzero column, lowest row index), and there is no floating point anywhere.

The dense Gaussian elimination oracle used to certify this module lives in
the test suite, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

Scalar = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class LinAlgError(ValueError):
    """Raised on shape mismatches and malformed inputs."""


def scal(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to a Fraction.

    Floats are rejected on purpose: this library is exact or nothing.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise LinAlgError(f"not an exact scalar: {x!r} of type {type(x).__name__}")


def scalar_to_json(x):
    """Render a scalar for JSON reports: plain int when integral, else 'p/q'."""
    x = scal(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def vec_add(u: dict, v: dict, c: Fraction = ONE) -> dict:
    """Return u + c*v as a new sparse vector (zero entries dropped)."""
    out = dict(u)
    for k, x in v.items():
        y = out.get(k, ZERO) + c * x
        if y:
            out[k] = y
        else:
            out.pop(k, None)
    return out


@dataclass(frozen=True)
class SparseMatrix:
    """Immutable sparse matrix with Fraction entries.

    entries maps (row, col) -> nonzero Fraction.  Rows and cols may be zero;
    an empty matrix of a given shape is fine.
    """

    rows: int
    cols: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for (i, j), x in self.entries.items():
            if not (0 <= i < self.rows and 0 <= j < self.cols):
                raise LinAlgError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
            if not isinstance(x, Fraction):
                raise LinAlgError(f"entry ({i},{j}) is not a Fraction: {x!r}")
            if x == 0:
                raise LinAlgError(f"explicit zero stored at ({i},{j})")

    @classmethod
    def from_rows(cls, row_vecs: Iterable[Mapping[int, Fraction] | Iterable], cols: int) -> "SparseMatrix":
        entries = {}
        n = 0
        for i, rv in enumerate(row_vecs):
            n = i + 1
            if isinstance(rv, Mapping):
                items = rv.items()
            else:
                items = enumerate(rv)
            for j, x in items:
                x = scal(x)
                if x:
                    entries[(i, j)] = x
        return cls(n, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    def row(self, i: int) -> dict:
        return {j: x for (r, j), x in self.entries.items() if r == i}

    def row_list(self) -> list[dict]:
        out = [dict() for _ in range(self.rows)]
        for (i, j), x in self.entries.items():
            out[i][j] = x
        return out

    def col(self, j: int) -> dict:
        return {i: x for (i, c), x in self.entries.items() if c == j}

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.cols, self.rows, {(j, i): x for (i, j), x in self.entries.items()})

    def matvec(self, v: Mapping[int, Fraction]) -> dict:
        """Apply to a sparse column vector keyed by column index."""
        out: dict = {}
        for (i, j), x in self.entries.items():
            c = v.get(j)
            if c:
                y = out.get(i, ZERO) + x * c
                if y:
                    out[i] = y
                else:
                    del out[i]
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        rows_of_other = other.row_list()
        entries: dict = {}
        for (i, j), x in self.entries.items():
            for k, y in rows_of_other[j].items():
                key = (i, k)
                z = entries.get(key, ZERO) + x * y
                if z:
                    entries[key] = z
                else:
                    del entries[key]
        return SparseMatrix(self.rows, other.cols, entries)

    def add(self, other: "SparseMatrix") -> "SparseMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinAlgError("shape mismatch in add")
        entries = dict(self.entries)
        for key, x in other.entries.items():
            y = entries.get(key, ZERO) + x
            if y:
                entries[key] = y
            else:
                entries.pop(key, None)
        return SparseMatrix(self.rows, self.cols, entries)

    def scale(self, c: Fraction) -> "SparseMatrix":
        c = scal(c)
        if not c:
            return SparseMatrix(self.rows, self.cols, {})
        return SparseMatrix(self.rows, self.cols, {k: c * x for k, x in self.entries.items()})

    def to_dense(self) -> list[list[Fraction]]:
        out = [[ZERO] * self.cols for _ in range(self.rows)]
        for (i, j), x in self.entries.items():
            out[i][j] = x
        return out

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries


class EchelonForm:
    """Incrementally built row echelon form over arbitrary integer columns.

    Rows are kept forward-reduced only: each stored row's first nonzero column
    is its pivot, and no two rows share a pivot.  That is enough for rank,
    membership and combination tracking, and it avoids rewriting old rows on
    every insert.  Column order is plain int order.

    With track=True, each reduction also returns the coefficients of the
    inserted rows that were subtracted, so callers can solve "express this
    vector over those" problems without a second pass.
    """

    def __init__(self, track: bool = False):
        self.pivot_rows: dict[int, dict] = {}
        self.track = track
        self.combos: dict[int, dict] = {}
        self.n_inserted = 0

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.pivot_rows)

    def reduce(self, vec: Mapping[int, Fraction]):
        """Reduce vec against the stored rows.

        Returns (residual, combo).  combo maps insert-order indices to the
        coefficient of that inserted row in vec - residual; it is None unless
        tracking is on.

        Stored rows have all their tail columns strictly beyond the pivot, so
        walking the support in increasing column order visits every column
        that can ever need clearing exactly once.
        """
        res = dict(vec)
        combo: dict | None = {} if self.track else None
        heap = sorted(res)
        heapify(heap)
        while heap:
            k = heappop(heap)
            c = res.get(k)
            if not c:
                continue
            row = self.pivot_rows.get(k)
            if row is None:
                continue
            for kk, x in row.items():
                y = res.get(kk, ZERO) - c * x
                if y:
                    if kk not in res:
                        heappush(heap, kk)
                    res[kk] = y
                else:
                    res.pop(kk, None)
            if combo is not None:
                for idx, cf in self.combos[k].items():
                    y = combo.get(idx, ZERO) + c * cf
                    if y:
                        combo[idx] = y
                    else:
                        combo.pop(idx, None)
        return res, combo

    def insert(self, vec: Mapping[int, Fraction]):
        """Reduce vec and store the residual if nonzero.

        Returns (residual, combo) as in reduce; residual == {} means vec was
        already in the span.
        """
        idx = self.n_inserted
        self.n_inserted += 1
        res, combo = self.reduce(vec)
        if res:
            lead = min(res)
            c = res[lead]
            row = {k: x / c for k, x in res.items()}
            self.pivot_rows[lead] = row
            if self.track:
                own = {idx: ONE / c}
                for i, cf in (combo or {}).items():
                    own[i] = -cf / c
                self.combos[lead] = own
        return res, combo

    def contains(self, vec: Mapping[int, Fraction]) -> bool:
        res, _ = self.reduce(vec)
        return not res

    def backsubstitute(self) -> list[dict]:
        """Return the fully reduced (RREF) rows, sorted by pivot column."""
        pivots = self.pivots
        out = [dict(self.pivot_rows[p]) for p in pivots]
        for i in range(len(pivots) - 1, -1, -1):
            row = out[i]
            for j in range(i + 1, len(pivots)):
                q = pivots[j]
                c = row.get(q)
                if c:
                    for k, x in out[j].items():
                        y = row.get(k, ZERO) - c * x
                        if y:
                            row[k] = y
                        else:
                            row.pop(k, None)
        return out


def rref(m: SparseMatrix) -> tuple[SparseMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns.

    Pivot selection scans columns left to right and takes the lowest-index
    remaining row with a nonzero entry, then fully reduces.  The result is
    the canonical RREF, with zero rows dropped.
    """
    ech = EchelonForm()
    for row in m.row_list():
        ech.insert(row)
    rows = ech.backsubstitute()
    out = SparseMatrix.from_rows(rows, m.cols) if rows else SparseMatrix(0, m.cols, {})
    return out, tuple(ech.pivots)


def rank(m: SparseMatrix) -> int:
    ech = EchelonForm()
    for row in m.row_list():
        ech.insert(row)
    return ech.rank


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^ambient, stored as RREF basis rows.

    basis_rows is a tuple of sparse vectors (dict col -> Fraction), in RREF
    with strictly increasing pivot columns.
    """

    ambient: int
    basis_rows: tuple
    pivots: tuple

    @classmethod
    def span(cls, vectors: Iterable[Mapping[int, Fraction]], ambient: int) -> "Subspace":
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

    def reduce(self, vec: Mapping[int, Fraction]) -> dict:
        """Residual of vec after reduction mod this subspace."""
        res = dict(vec)
        for p, row in zip(self.pivots, self.basis_rows):
            c = res.get(p)
            if c:
                for k, x in row.items():
                    y = res.get(k, ZERO) - c * x
                    if y:
                        res[k] = y
                    else:
                        res.pop(k, None)
        return res

    def contains(self, vec: Mapping[int, Fraction]) -> bool:
        return not self.reduce(vec)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis_rows)

    def extend(self, vectors: Iterable[Mapping[int, Fraction]]) -> "Subspace":
        return Subspace.span(list(self.basis_rows) + list(vectors), self.ambient)

    def matrix(self) -> SparseMatrix:
        return SparseMatrix.from_rows(self.basis_rows, self.ambient) if self.basis_rows else SparseMatrix(0, self.ambient, {})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis_rows == other.basis_rows


def kernel(m: SparseMatrix) -> Subspace:
    """Right kernel {v : m v = 0} as a Subspace of Q^cols."""
    red, pivots = rref(m)
    pivot_set = set(pivots)
    rows = red.row_list()
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    vecs = []
    for f in free_cols:
        v = {f: ONE}
        for r, p in enumerate(pivots):
            c = rows[r].get(f)
            if c:
                v[p] = -c
        vecs.append(v)
    return Subspace.span(vecs, m.cols)


@dataclass(frozen=True)
class QuotientBasis:
    """Coset representatives for Q^ambient / S and the projection onto them.

    reps are the non-pivot coordinate indices of S, in increasing order.
    proj is a len(reps) x ambient matrix sending a vector to the coordinates
    of its coset over the representatives.
    """

    reps: tuple
    proj: SparseMatrix


def quotient_basis(s: Subspace) -> QuotientBasis:
    pivot_set = set(s.pivots)
    reps = tuple(j for j in range(s.ambient) if j not in pivot_set)
    rep_index = {j: i for i, j in enumerate(reps)}
    entries: dict = {}
    for j in reps:
        entries[(rep_index[j], j)] = ONE
    for p, row in zip(s.pivots, s.basis_rows):
        for k, x in row.items():
            if k == p:
                continue
            # k is a non-pivot column since the basis is in RREF
            entries[(rep_index[k], p)] = -x
    return QuotientBasis(reps, SparseMatrix(len(reps), s.ambient, entries))


def express_in_columns(m: SparseMatrix, target: Mapping[int, Fraction]) -> dict | None:
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
