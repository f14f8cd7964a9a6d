"""ratlin against a dense Gaussian elimination oracle, plus algebraic laws."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieobstruct.ratlin import (
    EchelonForm,
    LinAlgError,
    SparseMatrix,
    Subspace,
    _row_echelon,
    express_in_columns,
    kernel,
    quotient_basis,
    rank,
    scal,
    scan_rational,
)


def canonical(x) -> bool:
    """x is a nonzero scalar in the library's canonical form: an int when
    integral, else a Fraction with a denominator above 1."""
    if type(x) is int:
        return x != 0
    return type(x) is Fraction and x.denominator > 1


def dense_rref(mat):
    """Oracle: textbook RREF on dense Fraction rows. Returns (rows, pivots)."""
    m = [list(map(Fraction, row)) for row in mat]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    nonzero = [row for row in m if any(row)]
    return nonzero, pivots


def dense_of(sm: SparseMatrix):
    return [[sm.col(j).get(i, Fraction(0)) for j in range(sm.cols)] for i in range(sm.rows)]


def matrix_of(dense, nr, nc):
    """The nr x nc SparseMatrix of a dense list of rows."""
    return SparseMatrix.from_columns(
        nr, [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(nc)]
    )


def matrix(rows):
    return matrix_of([[Fraction(x) for x in row] for row in rows], len(rows), len(rows[0]))


def rref_rows(rows):
    """(RREF rows, pivots) of EchelonForm.backsubstitute, as dense rows."""
    ech = EchelonForm()
    for r in rows:
        ech.insert(sparse(r))
    out = ech.backsubstitute()
    assert all(canonical(x) for row in out for x in row.values())
    red = [[row.get(j, Fraction(0)) for j in range(len(rows[0]))] for row in out]
    return red, ech.pivots


small_ints = st.integers(min_value=-4, max_value=4)
# denominators 1..5, so the engine's denominator clearing is exercised
small_rationals = st.builds(
    Fraction, st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=5)
)


@st.composite
def dense_matrices(draw, max_rows=6, max_cols=6, entries=small_ints):
    nr = draw(st.integers(min_value=1, max_value=max_rows))
    nc = draw(st.integers(min_value=1, max_value=max_cols))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
    return rows


def dense_kernel(rows):
    """Oracle: kernel basis read off the dense RREF, one vector per free column."""
    nc = len(rows[0])
    red, pivots = dense_rref(rows)
    vecs = []
    for f in (j for j in range(nc) if j not in pivots):
        v = {f: Fraction(1)}
        for r, p in enumerate(pivots):
            if red[r][f]:
                v[p] = -red[r][f]
        vecs.append(v)
    return vecs


# integer matrices take the engine's no-denominator path, rational ones the
# clearing path
any_matrices = st.one_of(dense_matrices(), dense_matrices(entries=small_rationals))


def sparse(row):
    return {j: x for j, x in enumerate(row) if x}


@given(any_matrices)
@settings(max_examples=300, deadline=None)
def test_rref_matches_dense_oracle(rows):
    red, pivots = rref_rows(rows)
    oracle_rows, oracle_pivots = dense_rref(rows)
    assert pivots == oracle_pivots
    assert red == oracle_rows
    assert rank(matrix(rows)) == len(oracle_pivots)


@given(any_matrices)
@settings(max_examples=100, deadline=None)
def test_rref_idempotent_and_rank_nullity(rows):
    red, pivots = rref_rows(rows)
    if red:
        assert rref_rows(red) == (red, pivots)
    ker = kernel(matrix(rows))
    assert len(pivots) + ker.dim == len(rows[0])


@given(any_matrices)
@settings(max_examples=200, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = matrix(rows)
    ker = kernel(m)
    for v in ker.basis_rows:
        assert m.matvec(v) == {}
    assert ker == Subspace.span(dense_kernel(rows), m.cols)


def test_rank_and_kernel_with_many_empty_rows():
    """Seeded matrices whose rows are mostly zero, as d on degree 2 of a
    cochain algebra is: rank and kernel match the dense oracle, and the
    echelon inserts only the nonzero rows."""
    rng = random.Random(20261023)
    for _ in range(40):
        nr, nc = rng.randint(20, 60), rng.randint(1, 7)
        rows = [[0] * nc for _ in range(nr)]
        for i in rng.sample(range(nr), rng.randint(0, 5)):
            rows[i] = [rng.randint(-3, 3) for _ in range(nc)]
        m = matrix(rows)
        assert rank(m) == len(dense_rref(rows)[1])
        assert kernel(m) == Subspace.span(dense_kernel(rows), nc)
        assert _row_echelon(m).n_inserted == sum(1 for row in rows if any(row))


def test_scal_rejects_floats():
    with pytest.raises(LinAlgError):
        scal(0.5)
    assert scal("3/4") == Fraction(3, 4)
    assert scal(-2) == Fraction(-2)


def test_scalars_are_canonical():
    """scal and scan_rational give an int for an integral value and a
    Fraction only for one that is not; bools are not scalars."""
    for x in ("4/2", Fraction(6, 3), -2, "-8/4"):
        assert type(scal(x)) is int, x
    assert scal("4/2") == 2
    assert type(scal("3/4")) is Fraction
    with pytest.raises(LinAlgError):
        scal(True)
    assert scan_rational("4/2*x", 0) == (2, 3)
    assert type(scan_rational("4/2*x", 0)[0]) is int
    assert type(scan_rational("12", 0)[0]) is int
    value, end = scan_rational("a+3/4*x", 2)
    assert (value, end) == (Fraction(3, 4), 5)
    assert type(value) is Fraction


def test_sparse_matrix_validation():
    for columns in (
        {0: {1: Fraction(1)}},  # row out of range
        {2: {0: Fraction(1)}},  # column out of range
        {-1: {0: Fraction(1)}},
        {0: {0: Fraction(0)}},  # explicit zero
        {0: {0: True}},  # a bool is not a scalar
        {0: {0: 1.0}},  # nor is a float
        {0: {}},  # empty column
    ):
        with pytest.raises(LinAlgError):
            SparseMatrix(1, 2, columns)
    for vector in ({1: Fraction(1)}, {0: Fraction(0)}, {0: True}, {0: 1.0}):
        with pytest.raises(LinAlgError):
            SparseMatrix.from_columns(1, [{}, vector])
    # int entries are exact scalars
    assert SparseMatrix(1, 2, {0: {0: 1}}).col(0) == {0: 1}


def test_quotient_basis_example():
    # ambient Q^3, subspace spanned by e0 - e2: reps are {1, 2}, e0 maps to e2
    s = Subspace.span([{0: Fraction(1), 2: Fraction(-1)}], 3)
    qb = quotient_basis(s)
    assert qb.reps == (1, 2)
    assert qb.proj.matvec({0: Fraction(1)}) == {1: Fraction(1)}
    assert qb.proj.matvec({1: Fraction(1)}) == {0: Fraction(1)}
    # projection kills the subspace
    assert qb.proj.matvec({0: Fraction(1), 2: Fraction(-1)}) == {}


@given(dense_matrices(max_rows=5, max_cols=5))
@settings(max_examples=80, deadline=None)
def test_quotient_projection_properties(rows):
    nc = len(rows[0])
    s = Subspace.span(
        [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows], nc
    )
    qb = quotient_basis(s)
    assert len(qb.reps) + s.dim == nc
    # proj vanishes exactly on the subspace
    for r in s.basis_rows:
        assert qb.proj.matvec(r) == {}
    # proj restricted to representatives is the identity
    for i, j in enumerate(qb.reps):
        assert qb.proj.matvec({j: Fraction(1)}) == {i: Fraction(1)}


def test_echelon_combo_tracking():
    ech = EchelonForm(track=True)
    v0 = {0: Fraction(1), 1: Fraction(2)}
    v1 = {1: Fraction(1), 2: Fraction(1)}
    ech.insert(v0)
    ech.insert(v1)
    target = {0: Fraction(2), 1: Fraction(5), 2: Fraction(1)}
    res, combo = ech.reduce(target)
    assert res == {}
    # target = 2*v0 + 1*v1
    assert combo == {0: Fraction(2), 1: Fraction(1)}


def test_express_in_columns():
    m = matrix([[1, 0], [1, 1], [0, 2]])
    x = express_in_columns(m, {0: Fraction(3), 1: Fraction(1), 2: Fraction(-4)})
    assert x == {0: Fraction(3), 1: Fraction(-2)}
    # vectors outside the column span
    assert express_in_columns(m, {0: Fraction(1)}) is None
    m2 = matrix([[1], [0], [0]])
    assert express_in_columns(m2, {1: Fraction(1)}) is None


def test_matmul_transpose_roundtrip():
    a = matrix([[1, 2], [3, 4], [0, 1]])
    b = matrix([[1, -1, 0], [2, 0, 1]])
    ab = a.matmul(b)
    assert dense_of(ab) == [
        [Fraction(5), Fraction(-1), Fraction(2)],
        [Fraction(11), Fraction(-3), Fraction(4)],
        [Fraction(2), Fraction(0), Fraction(1)],
    ]

    def transposed(m):
        return matrix_of([list(col) for col in zip(*dense_of(m))], m.cols, m.rows)

    # the first row cancels
    assert a.matvec({0: Fraction(2), 1: Fraction(-1)}) == {1: Fraction(2), 2: Fraction(-1)}
    # (ab)^T = b^T a^T
    assert transposed(ab) == transposed(b).matmul(transposed(a))
    assert transposed(transposed(a)) == a
    with pytest.raises(LinAlgError):
        b.matmul(b)


def test_rank_of_identity():
    assert rank(SparseMatrix.identity(7)) == 7


@given(
    dense_matrices(max_rows=5, max_cols=6, entries=small_rationals),
    st.lists(small_rationals, min_size=6, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_tracked_reduce_law(rows, target):
    """vec - residual == sum combo[i] * v_i, and the residual is zero at
    every pivot, for rational inputs with mixed int and Fraction values."""
    nc = len(rows[0])
    vecs = [sparse(r) for r in rows]
    vecs = [{j: int(x) if x.denominator == 1 else x for j, x in v.items()} for v in vecs]
    ech = EchelonForm(track=True)
    for v in vecs:
        ech.insert(v)
    vec = sparse(target[:nc])
    res, combo = ech.reduce(vec)
    assert all(canonical(x) for x in res.values())
    assert all(canonical(x) for x in combo.values())
    lhs = dict(vec)
    for j, x in res.items():
        lhs[j] = lhs.get(j, 0) - x
    rhs: dict = {}
    for i, c in combo.items():
        for j, x in vecs[i].items():
            rhs[j] = rhs.get(j, 0) + c * x
    assert {j: x for j, x in lhs.items() if x} == {j: x for j, x in rhs.items() if x}
    for p in ech.pivots:
        assert p not in res
    # the residual is canonical: an untracked echelon gives the same one
    plain = EchelonForm()
    for v in vecs:
        plain.insert(v)
    assert plain.reduce(vec) == (res, None)


@given(
    dense_matrices(max_rows=5, max_cols=6, entries=small_rationals),
    st.lists(small_rationals, min_size=5, max_size=5),
)
@example(
    # mixed int/Fraction rows: rises, dependent, rises, dependent, zero, rises
    rows=[
        [Fraction(1, 2), 0, 3, 0],
        [1, 0, 6, 0],
        [0, Fraction(2, 3), 0, 0],
        [Fraction(-1, 4), Fraction(1, 3), Fraction(-3, 2), 0],
        [0, 0, 0, 0],
        [0, 0, 5, 1],
    ],
    coeffs=[1, -2, 3, Fraction(1, 2), 0],
)
@settings(max_examples=150, deadline=None)
def test_insert_reports_rank_changes(rows, coeffs):
    ech = EchelonForm()
    for r in rows:
        before = ech.pivots
        out = ech.insert(sparse(r))
        assert len(out) == 2
        if out[0]:
            assert len(ech.pivots) == len(before) + 1
            (new,) = set(ech.pivots) - set(before)
            assert min(out[0]) == new == out[1]
        else:
            assert ech.pivots == before
    # a combination of inserted vectors is dependent: rank stays put
    combo: dict = {}
    for c, r in zip(coeffs, rows):
        for j, x in enumerate(r):
            combo[j] = combo.get(j, 0) + c * x
    rank_before = ech.rank
    out = ech.insert({j: x for j, x in combo.items() if x})
    assert not out[0]
    assert ech.rank == rank_before


# -- SparseMatrix against list-of-lists arithmetic ----------------------------

# +-1 entries make sums cancel often, so dropping a cancelled entry is tested
entries_or_zero = st.one_of(
    st.just(Fraction(0)), st.sampled_from([Fraction(1), Fraction(-1)]), small_rationals
)


@st.composite
def shaped_dense(draw, nr, nc):
    """An nr x nc dense Fraction matrix, often with all-zero columns."""
    rows = draw(
        st.lists(
            st.lists(entries_or_zero, min_size=nc, max_size=nc),
            min_size=nr,
            max_size=nr,
        )
    )
    for j, blank in enumerate(draw(st.lists(st.booleans(), min_size=nc, max_size=nc))):
        if blank:
            for row in rows:
                row[j] = Fraction(0)
    return rows


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_matrix_ops_match_dense_oracle(data):
    n, k, m = (data.draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    a = data.draw(shaped_dense(n, k))
    a2 = data.draw(shaped_dense(n, k))
    b = data.draw(shaped_dense(k, m))
    v = data.draw(st.lists(entries_or_zero, min_size=k, max_size=k))
    sa, sa2, sb = matrix_of(a, n, k), matrix_of(a2, n, k), matrix_of(b, k, m)
    assert dense_of(sa) == a
    assert sa.matvec(sparse(v)) == sparse([sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a])
    ab = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0)) for j in range(m)] for i in range(n)]
    prod = sa.matmul(sb)
    assert (prod.rows, prod.cols) == (n, m)
    assert dense_of(prod) == ab
    assert (sa == sa2) == (a == a2)
    assert sa == matrix_of(a, n, k)
    if (n, k) != (k, m):
        assert sa != sb
