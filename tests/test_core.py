"""Core reduction: isotropic kernel, reduced symplectic Lie algebra, defect."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_intersect, dense_leibniz_ideal, dense_orthogonal, dense_pivots, dense_reduce
from sympleib.algebra import Algebra, change_basis, is_lie, leibniz_ideal, multiply
from sympleib.catalog import get, instantiate, list_families
from sympleib.core import CoreError, core, verify_core_properties
from sympleib.exactlin import (
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    int_scaled,
    intersect,
    is_zero_vector,
    span,
)
from sympleib.reporting import Check, Witness, first_failure, replace
from sympleib.symplectic import (
    SkewForm,
    SymplecticAlgebra,
    form_from_pairs,
    omega,
    orthogonal,
    star_left,
)
from test_algebra import sparse_algebras

W14_23 = form_from_pairs(4, {(1, 4): 1, (2, 3): 1})
W12 = form_from_pairs(2, {(1, 2): 1})


def _r4():
    return Algebra.from_table(4, {
        (1, 1): {4: 1},
        (1, 2): {3: 1},
        (1, 3): {4: 1},
        (2, 1): {3: -1},
        (3, 1): {4: -1},
    })


def _dim2(x=3):
    return Algebra.from_table(2, {(2, 2): {1: x}})


def _rr3_minus1():
    return Algebra.from_table(4, {
        (1, 2): {2: 1},
        (2, 1): {2: -1},
        (1, 3): {3: -1},
        (3, 1): {3: 1},
    })


def test_core_of_r4():
    dec = core(_r4(), W14_23)
    assert dec.ideal == span(4, [basis_vector(4, 3)])
    assert dec.ideal_perp == span(4, [basis_vector(4, 1), basis_vector(4, 2),
                                      basis_vector(4, 3)])
    g = dec.reduced.algebra
    assert g.dim == 2
    assert all(x == 0 for row in g.c for v in row for x in v)  # abelian
    assert dec.reduced.form.nondegenerate
    assert dec.h_dim == 1
    assert dec.reduced_lift == Matrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0]])
    assert dec.h_lift == Matrix.from_rows([[1, 0, 0, 0]])


def test_core_of_dim2_collapses_everything():
    dec = core(_dim2(), W12)
    assert dec.ideal == span(2, [basis_vector(2, 0)])
    assert dec.ideal_perp == dec.ideal
    assert dec.reduced.algebra.dim == 0
    assert dec.h_dim == 1


def test_core_of_a_lie_algebra_is_itself():
    g = _rr3_minus1()
    dec = core(g, W14_23)
    assert dec.ideal.dim == 0
    assert dec.ideal_perp.dim == 4
    assert dec.h_dim == 0
    assert dec.reduced.algebra.c == g.c


def test_core_rejects_incompatible_form():
    bad = form_from_pairs(4, {(1, 2): 1, (3, 4): 1})
    a = _r4()
    # only reject when the identity truly fails for this pair
    from sympleib.symplectic import is_symplectic_left
    assert not is_symplectic_left(a, bad).holds
    with pytest.raises(ValueError):
        core(a, bad)


def test_induced_form_matches_representatives():
    dec = core(_r4(), W14_23)
    reps = dec.reduced_lift.entries
    for i, ra in enumerate(reps):
        for j, rb in enumerate(reps):
            assert dec.reduced.form.w.entries[i][j] == omega(W14_23, ra, rb)


def test_verify_core_properties_r4():
    a = _r4()
    report = verify_core_properties(a, W14_23)
    assert report.ok, str(report)
    names = [c.name for c in report.checks]
    assert "leibniz-span-product-ideal" in names
    assert "projected-star-is-zero" in names


def test_verify_core_properties_dim2_and_lie():
    assert verify_core_properties(_dim2(), W12).ok
    assert verify_core_properties(_rr3_minus1(), W14_23).ok


def test_verify_core_properties_keeps_the_witnesses_of_the_reduced_checks():
    # a reduced part that is left symplectic but not Lie: e2*e2 = 3 e1
    dec = replace(core(_r4(), W14_23), reduced=SymplecticAlgebra(_dim2(), W12))
    checks = {c.name: c for c in verify_core_properties(_r4(), W14_23, dec).checks}
    lie = checks["reduced-algebra-is-lie"]
    assert lie == Check(lie.name, False, witness=Witness("antisymmetry", (1, 1), (6, 0)))
    assert lie.detail == "antisymmetry fails at (2, 2) with defect (6, 0)"
    assert checks["reduced-form-is-symplectic"] == Check("reduced-form-is-symplectic", True)


def _first_escape(products, sub):
    """The first (i, j) in lexicographic order with products.c[i][j] outside sub."""
    n = products.dim
    return next((i, j) for i in range(n) for j in range(n) if not sub.contains(products.c[i][j]))


def test_verify_core_properties_names_the_first_escaping_product():
    # with I-perp replaced by I = span(e4), e1 e2 = e3 is the first product to escape
    a, dec = _r4(), core(_r4(), W14_23)
    star = star_left(a, W14_23)
    report = verify_core_properties(a, W14_23, replace(dec, ideal_perp=dec.ideal))
    assert {c.name for c in report.failed()} == {
        "products-inside-I-perp", "star-products-inside-I-perp", "projected-star-is-zero"}
    checks = {c.name: c for c in report.checks}
    assert checks["products-inside-I-perp"].detail == (
        "products-inside-I-perp fails at (1, 2) with defect (0, 0, 1, 0)")
    i, j = _first_escape(star, dec.ideal)
    residue = dec.ideal.reduce(star.c[i][j])
    assert checks["star-products-inside-I-perp"].witness == Witness(
        "star-products-inside-I-perp", (i, j), residue)
    # the quotient by span(e4) keeps the coordinates e1, e2, e3
    assert checks["projected-star-is-zero"].witness == Witness(
        "projected-star-is-zero", (i, j), residue[:3])


def test_verify_core_properties_names_the_first_product_with_I_that_survives():
    # with I replaced by I-perp = span(e2, e3, e4): e1 e2 = e3 and e2 e1 = -e3
    a, dec = _r4(), core(_r4(), W14_23)
    star = star_left(a, W14_23)
    report = verify_core_properties(a, W14_23, replace(dec, ideal=dec.ideal_perp))
    checks = {c.name: c for c in report.checks}
    assert checks["products-with-I-vanish"].witness == Witness(
        "products-with-I-vanish", (0, 0), (0, 0, 1, 0, 0, 0, -1, 0))
    z, e1 = dec.ideal_perp.basis.entries[0], basis_vector(4, 0)
    assert checks["star-products-with-I-vanish"].witness == Witness(
        "star-products-with-I-vanish", (0, 0), multiply(star, e1, z) + multiply(star, z, e1))


def test_core_witness_scan_stops_at_the_first_failure():
    def defects():
        yield (0, 1), (0, 0)
        yield (1, 0), (2, 0)
        raise AssertionError("scanned past the first failure")
    assert first_failure("x", defects()) == Check("x", False, witness=Witness("x", (1, 0), (2, 0)))
    assert first_failure("x", iter([((0, 0), (0,))])) == Check("x", True)


def test_leibniz_span_isotropic_intersection_nonzero_for_non_lie():
    # non-Lie + symplectic forces a nonzero isotropic part of the Leibniz span
    for a, form in ((_r4(), W14_23), (_dim2(), W12)):
        assert not is_lie(a).holds
        leib = leibniz_ideal(a)
        assert intersect(leib, orthogonal(form, leib)).dim > 0


_ENTRY = st.sampled_from([ZERO, ZERO, Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2),
                          Fraction(3, 4)])


def _assert_reductions_equal_the_oracle(space, vectors, others):
    direct = Subspace(space.ambient_dim, space.basis)  # no int pivot rows kept
    assert space.pivots == direct.pivots == dense_pivots(space)
    d = space.int_basis[0]
    for v in vectors:
        want = dense_reduce(space, v)
        assert space.reduce(v) == direct.reduce(v) == want
        assert space.contains(v) == is_zero_vector(want)
        t, (scaled,) = int_scaled([v])
        assert space.int_reduce((j, x) for j, x in enumerate(scaled) if x) == {
            j: x * d * t for j, x in enumerate(want) if x}
    for other in others:
        assert space.contains_subspace(other) == all(
            is_zero_vector(dense_reduce(space, r)) for r in other.basis.entries)


# 100 examples, about 1.5 s: dimension 1..6, skew forms that may be degenerate
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_core_subspace_routes_equal_the_dense_oracles(data):
    a = data.draw(sparse_algebras())
    n = a.dim
    form = form_from_pairs(n, {(i, j): data.draw(_ENTRY) for i in range(n)
                               for j in range(i + 1, n)}, one_based=False)
    vectors = data.draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), max_size=n))
    drawn = span(n, vectors)
    leib = leibniz_ideal(a)
    assert leib == dense_leibniz_ideal(a)
    spaces = [drawn, leib]
    for s in (drawn, leib):
        perp = orthogonal(form, s)
        assert perp == dense_orthogonal(form, s)
        cut = intersect(s, perp)
        assert cut == dense_intersect(s, perp)
        spaces += [perp, cut]
    assert intersect(drawn, leib) == dense_intersect(drawn, leib)
    probes = [tuple(v) for v in vectors] + [a.c[i][j] for i in range(n) for j in range(n)]
    for space in spaces:
        _assert_reductions_equal_the_oracle(space, probes, spaces)


_WITH_IDEAL = [fid for fid in list_families() if fid.startswith("BS4_")] + [
    "CORE2_NONABELIAN", "RR3_SIXDIM_RAW", "RR3_SIXDIM_B0", "RR3_SIXDIM_BNE0"]


def _unimodular(n, rng):
    """A product of 3n elementary shears (row i += c row j, c in +-1, +-2):
    an integer matrix of determinant 1, so its inverse is integral too."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
    return Matrix.from_rows(p)


@pytest.mark.parametrize("fid", _WITH_IDEAL)
def test_core_survives_a_unimodular_change_of_basis(fid):
    """The defaults and three seeded samples, those with I != 0 (a sample of
    an RR3 family can be Lie, with I = 0), each under its own random P."""
    rng = random.Random(fid)
    spec = get(fid)
    checked = 0
    for params in (spec.default_params(), *(spec.sample(rng) for _ in range(3))):
        a, w = instantiate(fid, params)
        dim_i = core(a, w).ideal.dim
        if dim_i == 0:
            continue
        checked += 1
        p = _unimodular(a.dim, rng)
        b, wb = change_basis(a, p), SkewForm(p.transpose() @ w.w @ p)
        dec = core(b, wb)
        assert dec.ideal.dim == dim_i == dec.h_dim
        assert dec.reduced.algebra.dim == a.dim - 2 * dim_i
        report = verify_core_properties(b, wb, dec)
        assert report.ok, str(report)
        _assert_reduced_pair_is_the_dense_one(b, wb, dec)
    assert checked >= 3


def _assert_reduced_pair_is_the_dense_one(a, form, dec):
    """The reduced product and form, recomputed in Fractions from the lifts:
    the product of two lifts modulo I, read at the lifts' pivots, and omega
    of two lifts."""
    reps = dec.reduced_lift.entries
    pivots = [next(j for j, x in enumerate(r) if x) for r in reps]
    for ra, row in zip(reps, dec.reduced.algebra.c):
        for rb, coords in zip(reps, row):
            red = dense_reduce(dec.ideal, multiply(a, ra, rb))
            assert coords == tuple(red[p] for p in pivots)
    assert dec.reduced.form.w == Matrix.from_rows([[omega(form, ra, rb) for rb in reps]
                                                   for ra in reps])
