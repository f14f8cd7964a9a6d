"""Value semantics of the immutable library classes: construction in the
shapes the call sites use, field-wise equality and hash, no assignment,
the shared base of the domain errors, and the path in front of every
loader's message."""

import json
from fractions import Fraction

import pytest

from lieobstruct import cli, data_path
from lieobstruct.cdga import (
    CdgaError,
    CdgaMorphism,
    FiniteCdga,
    GroupAction,
    WedgeProduct,
    cohomology,
    identity_morphism,
    load_action,
    load_cdga,
)
from lieobstruct.ce import CeComplex, CeError, HirschTower, ce_cochain, tower_from_cdga
from lieobstruct.fplie import (
    DerivedIdeal,
    FiniteList,
    LiePresentation,
    NilpotentLieAlgebra,
    PresentationError,
    lcs_quotient,
    load_presentation,
)
from lieobstruct.freelie import LieError, gen_elt
from lieobstruct.ratlin import (
    InternalError,
    LieobstructError,
    LinAlgError,
    QuotientBasis,
    SparseMatrix,
    Subspace,
    quotient_basis,
)

ONE = Fraction(1)


def test_sparse_matrix_construction():
    empty = SparseMatrix(2, 3)
    assert (empty.rows, empty.cols, empty.columns) == (2, 3, {})
    assert SparseMatrix(2, 3).columns is not empty.columns
    m = SparseMatrix(rows=2, cols=3, columns={1: {0: ONE}})
    assert m == SparseMatrix(2, 3, {1: {0: ONE}})
    assert m != empty and m != SparseMatrix(3, 2, {1: {0: ONE}})
    with pytest.raises(LinAlgError):
        SparseMatrix(2, 3, {5: {0: ONE}})


def test_subspace_equality_is_equality_of_spans():
    a = Subspace.span([{0: ONE, 1: ONE}, {1: ONE}], 3)
    b = Subspace.span([{0: Fraction(2)}, {0: ONE, 1: Fraction(-1)}], 3)
    assert a == b and a.dim == 2
    assert a != Subspace.span([{0: ONE}], 3)
    assert a != Subspace.span([{0: ONE}, {1: ONE}], 4)
    assert Subspace(3, a.basis_rows, a.pivots) == a
    q = quotient_basis(a)
    assert q == QuotientBasis(reps=(2,), proj=q.proj)


def test_presentation_classes_compare_and_hash_by_fields():
    x, y = gen_elt(2, 0), gen_elt(2, 1)
    p = LiePresentation(["x", "y"], FiniteList((x, y)))
    assert p.generators == ("x", "y")
    q = LiePresentation(generators=("x", "y"), scheme=FiniteList(relators=(x, y)))
    assert p == q != LiePresentation(("x", "y"), FiniteList((x,)))
    # a Lie element is unhashable, so only a derived scheme hashes
    m = LiePresentation(("x", "y"), DerivedIdeal(2))
    assert len({m, LiePresentation(["x", "y"], DerivedIdeal(level=2))}) == 1
    assert DerivedIdeal(2) == DerivedIdeal(level=2) != DerivedIdeal(3)
    assert FiniteList((x,)) != DerivedIdeal(1)


def test_nilpotent_lie_algebra_equality():
    heis = load_presentation(data_path("pres_heis.json"))
    g = lcs_quotient(heis, 4)
    assert g == lcs_quotient(heis, 4)
    assert g != lcs_quotient(heis, 3)
    assert g.truncate(3) == lcs_quotient(heis, 3)
    same = NilpotentLieAlgebra(
        g.class_bound, g.gen_names, g.labels, g.weights, g.brackets, g.gen_images
    )
    assert same == g


def test_wedge_product_equality_ignores_derived_tables():
    w = WedgeProduct(3, 3)
    assert w.tuples[2] == ((0, 1), (0, 2), (1, 2))
    assert w.positions[2][(0, 2)] == 1
    assert w == WedgeProduct(gens=3, top=3) and hash(w) == hash(WedgeProduct(3, 3))
    assert w != WedgeProduct(3, 2)
    assert repr(w) == "WedgeProduct(gens=3, top=3, weights=None, cap=None)"
    # a cap keeps the tuples of weight <= cap and takes part in equality
    capped = WedgeProduct(3, 3, (1, 1, 2), 3)
    assert capped.tuples[2] == w.tuples[2] and capped.tuples[3] == ()
    assert capped != w and capped == WedgeProduct(3, 3, (1, 1, 2), 3)
    assert capped.mul(1, {0: 1}, 2, {2: 1}) == {}


def test_cdga_equality_ignores_the_cohomology_memo():
    warm, fresh = load_cdga(data_path("heis.json")), load_cdga(data_path("heis.json"))
    cohomology(warm, 1)
    assert warm._cohomology and not fresh._cohomology
    assert warm == fresh
    assert FiniteCdga(names=fresh.names, diff=fresh.diff, prod=fresh.prod) == warm
    assert "_cohomology" not in repr(warm)


def _instances():
    """One instance of each immutable class, built as the library builds it."""
    torus = load_cdga(data_path("torus.json"))
    heis = load_cdga(data_path("heis.json"))
    tower = tower_from_cdga(heis, 3)
    ce = tower.stages[2]
    s = Subspace.span([{0: ONE}], 2)
    return [
        SparseMatrix(1, 1, {0: {0: ONE}}),
        s,
        quotient_basis(s),
        FiniteList((gen_elt(1, 0),)),
        DerivedIdeal(1),
        LiePresentation(("x",), DerivedIdeal(1)),
        ce.algebra,
        ce.cdga.prod,
        torus,
        identity_morphism(torus),
        load_action(torus, data_path("swap_torus.json")),
        ce_cochain(ce.algebra),
        tower,
    ]


def test_every_value_class_is_covered_and_immutable():
    objs = _instances()
    assert {type(o) for o in objs} == {
        SparseMatrix, Subspace, QuotientBasis, FiniteList, DerivedIdeal,
        LiePresentation, NilpotentLieAlgebra, WedgeProduct, FiniteCdga,
        CdgaMorphism, GroupAction, CeComplex, HirschTower,
    }
    for obj in objs:
        for field in obj.__slots__:
            before = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert getattr(obj, field) is before
        with pytest.raises(AttributeError):
            obj.extra = 1


ERRORS = [LieError, PresentationError, CdgaError, CeError, LinAlgError, InternalError]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: e.__name__)
def test_domain_errors_share_a_base_and_exit_one(error, monkeypatch, capsys):
    assert issubclass(error, LieobstructError)
    assert issubclass(error, RuntimeError if error is InternalError else ValueError)

    def fail(*args):
        raise error("planted failure")

    monkeypatch.setattr(cli, "finiteness_scan", fail)
    code = cli.main(["h2scan", data_path("pres_torus.json"), "--deg", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == (
        '{"error": {"message": "planted failure", "type": "%s"}}\n' % error.__name__
    )


LOADERS = [
    ("presentation", load_presentation, PresentationError),
    ("cdga", load_cdga, CdgaError),
    ("action", lambda path: load_action(load_cdga(data_path("torus.json")), path), CdgaError),
]


@pytest.mark.parametrize("what, load, error", LOADERS, ids=[w for w, _, _ in LOADERS])
def test_loaders_prefix_their_messages_with_the_path(what, load, error, tmp_path):
    """Each JSON loader raises its own error type, with the path and
    "invalid JSON: " before the decoder's message on bad JSON, and the path
    before the parser's message on a JSON value of the wrong shape."""
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(json.JSONDecodeError) as decoded:
        json.loads("{nope")
    with pytest.raises(error) as raised:
        load(path)
    assert str(raised.value) == f"{path}: invalid JSON: {decoded.value}"
    path.write_text("[]")
    with pytest.raises(error) as raised:
        load(path)
    assert str(raised.value) == f"{path}: {what} file must hold a JSON object"
