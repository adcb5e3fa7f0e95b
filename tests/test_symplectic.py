"""Skew forms, compatibility identities, star products."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympleib import symplectic

from sympleib.algebra import (
    Algebra,
    change_basis,
    is_left_symmetric,
    multiply,
    split,
)
from sympleib.catalog import _PREDICATES, get, instantiate, list_families
from sympleib.core import core
from sympleib.exactlin import (
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    int_det,
    int_scaled,
    intersect,
    kernel,
    solve_unique,
    span,
    vector,
    zero_subspace,
)
from sympleib.fileformat import parse_algebra, serialize_algebra
from sympleib.reporting import Check, Witness
from sympleib.symplectic import (
    SkewForm,
    SymplecticAlgebra,
    find_nondegenerate,
    form_coords,
    form_from_pairs,
    is_bi_symplectic,
    is_isotropic,
    is_lagrangian,
    is_symplectic_left,
    is_symplectic_left_split,
    is_symplectic_right,
    is_symplectic_right_split,
    omega,
    orthogonal,
    solve_symplectic_forms,
    star_left,
    star_right,
)

from oracles import common_radical, form_from_coords, omega_adjoint, upper_index, vstack


def _dim2(x=3):
    return Algebra.from_table(2, {(2, 2): {1: x}})


def _r4():
    return Algebra.from_table(4, {
        (1, 1): {4: 1},
        (1, 2): {3: 1},
        (1, 3): {4: 1},
        (2, 1): {3: -1},
        (3, 1): {4: -1},
    })


def _rr3_minus1():
    return Algebra.from_table(4, {
        (1, 2): {2: 1},
        (2, 1): {2: -1},
        (1, 3): {3: -1},
        (3, 1): {3: 1},
    })


W14_23 = form_from_pairs(4, {(1, 4): 1, (2, 3): 1})
W12 = form_from_pairs(2, {(1, 2): 1})


def _random_algebra(rng, n, lo=-2, hi=2):
    c = tuple(
        tuple(vector([rng.randint(lo, hi) for _ in range(n)]) for _ in range(n))
        for _ in range(n)
    )
    return Algebra(n, c)


def _random_form(rng, n):
    while True:
        pairs = {(i + 1, j + 1): rng.randint(-3, 3)
                 for i in range(n) for j in range(i + 1, n)}
        f = form_from_pairs(n, pairs)
        if f.nondegenerate:
            return f


def _l1_defect(a, form, i, j, k):
    e = [basis_vector(a.dim, t) for t in range(a.dim)]
    return (omega(form, e[i], a.c[j][k]) - omega(form, e[j], a.c[i][k])
            - Fraction(1, 2) * omega(form, a.c[i][j], e[k])
            + Fraction(1, 2) * omega(form, a.c[j][i], e[k]))


def test_skew_form_construction():
    assert W14_23.nondegenerate
    assert W14_23.w.entries[0][3] == 1
    assert W14_23.w.entries[3][0] == -1
    with pytest.raises(ValueError):
        SkewForm(Matrix.from_rows([[0, 1], [1, 0]]))
    degenerate = SkewForm(Matrix.zero(2, 2))
    assert not degenerate.nondegenerate


def test_form_from_pairs_assigns_each_cell_and_adds_a_given_mirror_cell():
    w = form_from_pairs(3, {(1, 2): 3, (1, 3): Fraction(-1, 2)}).w.entries
    assert (w[0][1], w[1][0], w[0][2], w[2][0], w[1][2]) == (3, -3, Fraction(-1, 2),
                                                             Fraction(1, 2), 0)
    # W = sum of x (E_ij - E_ji), so (2, 1): 1 takes 1 off the (1, 2) entry
    w = form_from_pairs(2, {(1, 2): 3, (2, 1): 1}).w.entries
    assert (w[0][1], w[1][0]) == (2, -2)


def test_omega_evaluation():
    u = vector([1, 2, 0, 0])
    v = vector([0, 0, 3, 4])
    # omega = e1^e4 + e2^e3: u1 v4 - u4 v1 + u2 v3 - u3 v2
    assert omega(W14_23, u, v) == Fraction(10)
    assert omega(W14_23, v, u) == Fraction(-10)


def test_omega_adjoint_definition():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.choice([2, 4])
        form = _random_form(rng, n)
        m = Matrix.from_rows([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        ms = omega_adjoint(form, m)
        for i in range(n):
            for j in range(n):
                u, v = basis_vector(n, i), basis_vector(n, j)
                assert omega(form, ms.matvec(u), v) == omega(form, u, m.matvec(v))
                # skewness makes the mirrored convention agree
                assert omega(form, u, ms.matvec(v)) == omega(form, m.matvec(u), v)


def test_omega_adjoint_is_involutive_and_antimultiplicative():
    rng = random.Random(32)
    form = _random_form(rng, 4)
    a = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
    b = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
    assert omega_adjoint(form, omega_adjoint(form, a)) == a
    assert omega_adjoint(form, a @ b) == omega_adjoint(form, b) @ omega_adjoint(form, a)


def test_r4_is_left_symplectic():
    rep = is_symplectic_left(_r4(), W14_23)
    assert rep.holds


def test_dim2_is_bi_symplectic_for_nonzero_parameter():
    for x in (1, -1, 5, Fraction(2, 3)):
        a = _dim2(x)
        assert is_symplectic_left(a, W12).holds
        assert is_symplectic_right(a, W12).holds
        assert is_bi_symplectic(a, W12).holds


def test_degenerate_form_reports_radical_witness():
    rep = is_symplectic_left(_dim2(), SkewForm(Matrix.zero(2, 2)))
    assert not rep.holds
    assert rep.witness.kind == "degenerate-form"
    assert rep.witness.defect != (0, 0)


_FORM_ENTRY = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10 ** 12, 10 ** 12),
                        st.fractions(max_denominator=12).filter(lambda x: abs(x) < 10 ** 6))


@st.composite
def skew_forms(draw, max_dim=8):
    """A skew form of dimension 0..max_dim from upper entries that are often zero,
    small, large or fractional; odd dimensions give degenerate forms."""
    n = draw(st.integers(0, max_dim))
    upper = draw(st.lists(_FORM_ENTRY, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    cells = [(i + 1, j + 1) for i in range(n) for j in range(i + 1, n)]
    return form_from_pairs(n, dict(zip(cells, upper)))


@settings(max_examples=300, deadline=None)
@given(skew_forms())
def test_the_int_inverse_is_the_scaled_fraction_inverse(form):
    """``int_w_inv`` off one elimination of [d_w W | d_w I] equals W^-1 scaled by
    the lcm of its denominators, and refuses a degenerate form as inverse does."""
    if form.nondegenerate:
        assert form.int_w_inv == int_scaled(form.w.inverse().entries)
        d, rows = form.int_w_inv
        assert all(type(v) is int for row in rows for v in row) and type(d) is int
    else:
        with pytest.raises(ValueError, match="singular"):
            form.w.inverse()
        with pytest.raises(ValueError, match="singular"):
            form.int_w_inv


def test_the_int_inverse_on_every_catalog_form_and_a_fractional_shear():
    for fid in list_families():
        form = instantiate(fid)[1]
        p = Matrix.from_rows([[1 if i == j else Fraction(j - i, 3) if j > i else 0
                               for j in range(form.dim)] for i in range(form.dim)])
        for w in (form, SkewForm(p.transpose() @ form.w @ p)):
            assert w.int_w_inv == int_scaled(w.w.inverse().entries), fid


def test_split_formulations_agree_with_direct_ones():
    rng = random.Random(33)
    for _ in range(40):
        n = rng.choice([2, 4])
        a = _random_algebra(rng, n)
        form = _random_form(rng, n)
        assert is_symplectic_left(a, form).holds == is_symplectic_left_split(a, form).holds
        assert is_symplectic_right(a, form).holds == is_symplectic_right_split(a, form).holds


def test_bi_symplectic_means_left_and_right():
    rng = random.Random(34)
    seen_bi = 0
    for x in (1, 2, -3):
        a = _dim2(x)
        assert is_bi_symplectic(a, W12).holds
        seen_bi += 1
    for _ in range(40):
        n = rng.choice([2, 4])
        a = _random_algebra(rng, n)
        form = _random_form(rng, n)
        bi = is_bi_symplectic(a, form).holds
        both = (is_symplectic_left(a, form).holds
                and is_symplectic_right(a, form).holds)
        assert bi == both
    assert seen_bi == 3


def test_upper_index_is_lexicographic():
    assert [upper_index(4, i, j) for i in range(4) for j in range(i + 1, 4)] == list(range(6))


def test_form_coords_round_trip():
    coords = form_coords(W14_23)
    assert form_from_coords(4, coords) == W14_23
    assert coords == (0, 0, 1, 1, 0, 0)


def test_solve_symplectic_forms_dim2_is_exactly_the_area_form_line():
    space = solve_symplectic_forms(_dim2(), side="left")
    assert space == span(1, [[1]])
    assert solve_symplectic_forms(_dim2(), side="right") == span(1, [[1]])


def test_solve_symplectic_forms_r4_contains_the_known_form():
    space = solve_symplectic_forms(_r4(), side="left")
    assert space.contains(form_coords(W14_23))
    # every element of the space satisfies the defining equations
    rng = random.Random(35)
    for _ in range(10):
        coords = [Fraction(0)] * space.ambient_dim
        for row in space.basis.entries:
            c = rng.randint(-5, 5)
            coords = [x + c * y for x, y in zip(coords, row)]
        form = form_from_coords(4, coords)
        a = _r4()
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert _l1_defect(a, form, i, j, k) == 0


def test_find_nondegenerate_r4():
    space = solve_symplectic_forms(_r4(), side="left")
    form = find_nondegenerate(space, 4, seed=0)
    assert form is not None
    assert form.nondegenerate
    assert is_symplectic_left(_r4(), form).holds


def test_find_nondegenerate_on_zero_space_returns_none():
    assert find_nondegenerate(zero_subspace(6), 4, seed=0) is None


def test_r4_star_table():
    star = star_left(_r4(), W14_23)
    expected = Algebra.from_table(4, {
        (1, 1): {2: -1, 4: 1},
        (1, 2): {3: 1},
        (2, 2): {4: -1},
        (3, 1): {4: -1},
    })
    assert star.c == expected.c


def test_rr3_minus1_star_table():
    star = star_left(_rr3_minus1(), W14_23)
    expected = Algebra.from_table(4, {
        (1, 2): {2: 1},
        (1, 3): {3: -1},
        (2, 3): {4: 1},
        (3, 2): {4: 1},
    })
    assert star.c == expected.c


def test_star_left_defining_relation():
    rng = random.Random(36)
    for a, form in ((_r4(), W14_23), (_rr3_minus1(), W14_23), (_dim2(), W12)):
        star = star_left(a, form)
        n = a.dim
        for _ in range(20):
            u = vector([rng.randint(-4, 4) for _ in range(n)])
            v = vector([rng.randint(-4, 4) for _ in range(n)])
            w = vector([rng.randint(-4, 4) for _ in range(n)])
            assert omega(form, multiply(star, u, v), w) == -omega(form, v, multiply(a, u, w))


def test_star_right_defining_relation():
    rng = random.Random(37)
    for a, form in ((_r4(), W14_23), (_dim2(), W12)):
        star = star_right(a, form)
        n = a.dim
        for _ in range(20):
            u = vector([rng.randint(-4, 4) for _ in range(n)])
            v = vector([rng.randint(-4, 4) for _ in range(n)])
            w = vector([rng.randint(-4, 4) for _ in range(n)])
            assert omega(form, multiply(star, u, v), w) == -omega(form, v, multiply(a, w, u))


def test_star_of_left_symplectic_pair_is_left_symmetric_with_half_commutator():
    for a, form in ((_r4(), W14_23), (_rr3_minus1(), W14_23), (_dim2(), W12)):
        star = star_left(a, form)
        assert is_left_symmetric(star).holds
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = vector([x - y for x, y in zip(star.c[i][j], star.c[j][i])])
                rhs = vector([Fraction(1, 2) * (x - y)
                              for x, y in zip(a.c[i][j], a.c[j][i])])
                assert lhs == rhs


def test_orthogonal_isotropic_lagrangian():
    e = [basis_vector(4, i) for i in range(4)]
    line = span(4, [e[0]])
    assert orthogonal(W14_23, line) == span(4, [e[0], e[1], e[2]])
    assert is_isotropic(W14_23, line)
    plane = span(4, [e[0], e[1]])
    assert is_lagrangian(W14_23, plane)
    assert not is_lagrangian(W14_23, line)
    assert orthogonal(W14_23, zero_subspace(4)) == span(4, e)


def test_symplectic_algebra_bundle_checks_on_construction():
    sa = SymplecticAlgebra(_r4(), W14_23, side="left")
    assert sa.algebra.dim == 4
    SymplecticAlgebra(_dim2(), W12, side="bi")
    with pytest.raises(ValueError):
        SymplecticAlgebra(_dim2(), SkewForm(Matrix.zero(2, 2)), side="left")
    with pytest.raises(ValueError):
        SymplecticAlgebra(_dim2(), W12, side="sideways")


# ---------------------------------------------------------------------------
# differential tests: the Gram-table checks against naive omega scans


def _naive_scan(name, kind, form, n, defect):
    """First basis triple whose defect, built from omega calls, is nonzero."""
    if not form.nondegenerate:
        return Check(name, False, witness=Witness("degenerate-form", (), form.radical_vector()))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = defect(i, j, k)
                if d != 0:
                    return Check(name, False, witness=Witness(kind, (i, j, k), (d,)))
    return Check(name, True)


def _left_defect(a, form):
    e = [basis_vector(a.dim, t) for t in range(a.dim)]
    half = Fraction(1, 2)
    return lambda i, j, k: (
        omega(form, e[i], a.c[j][k]) - omega(form, e[j], a.c[i][k])
        - half * omega(form, a.c[i][j], e[k]) + half * omega(form, a.c[j][i], e[k]))


def _right_defect(a, form):
    e = [basis_vector(a.dim, t) for t in range(a.dim)]
    half = Fraction(1, 2)
    return lambda i, j, k: (
        omega(form, e[i], a.c[k][j]) - omega(form, e[j], a.c[k][i])
        - half * omega(form, a.c[j][i], e[k]) + half * omega(form, a.c[i][j], e[k]))


def _naive_left(a, form):
    return _naive_scan("left-symplectic", "left-symplectic", form, a.dim,
                       _left_defect(a, form))


def _naive_right(a, form):
    return _naive_scan("right-symplectic", "right-symplectic", form, a.dim,
                       _right_defect(a, form))


def _naive_bi(a, form):
    e = [basis_vector(a.dim, t) for t in range(a.dim)]
    br, di = split(a)
    closed = _naive_scan("bi-symplectic", "d-omega", form, a.dim, lambda i, j, k: (
        omega(form, e[i], br.c[j][k]) + omega(form, e[j], br.c[k][i])
        + omega(form, e[k], br.c[i][j])))
    if not closed.holds:
        return closed
    return _naive_scan("bi-symplectic", "diamond-symmetry", form, a.dim, lambda i, j, k: (
        omega(form, di.c[i][k], e[j]) - omega(form, di.c[j][k], e[i])))


def _naive_star(a, form, product):
    n = a.dim
    e = [basis_vector(n, t) for t in range(n)]
    wt = form.w.transpose()
    return tuple(
        tuple(solve_unique(wt, [-omega(form, e[j], product(i, k)) for k in range(n)])
              for j in range(n))
        for i in range(n))


def _moved_form(form):
    """The form with one strict upper-triangle entry moved by 1, still invertible."""
    n = form.dim
    for i in range(n):
        for j in range(i + 1, n):
            rows = [list(r) for r in form.w.entries]
            rows[i][j] += 1
            rows[j][i] -= 1
            moved = SkewForm(Matrix.from_rows(rows))
            if moved.nondegenerate:
                return moved
    raise AssertionError("no single moved entry keeps the form nondegenerate")


def _catalog_pairs():
    for fid in list_families():
        a, form = instantiate(fid)
        yield pytest.param(a, form, id=fid)
        yield pytest.param(a, _moved_form(form), id=f"{fid}-moved")


CATALOG_PAIRS = list(_catalog_pairs())


@pytest.mark.parametrize("a, form", CATALOG_PAIRS)
def test_compatibility_checks_equal_the_naive_scans(a, form):
    assert is_symplectic_left(a, form) == _naive_left(a, form)
    assert is_symplectic_right(a, form) == _naive_right(a, form)
    assert is_bi_symplectic(a, form) == _naive_bi(a, form)


@pytest.mark.parametrize("a, form", CATALOG_PAIRS)
def test_star_products_equal_per_pair_solves(a, form):
    assert star_left(a, form).c == _naive_star(a, form, lambda i, k: a.c[i][k])
    assert star_right(a, form).c == _naive_star(a, form, lambda i, k: a.c[k][i])


def test_moved_forms_exercise_witnesses_of_every_kind():
    kinds = set()
    for param in CATALOG_PAIRS:
        a, form = param.values
        for check in (is_symplectic_left, is_symplectic_right, is_bi_symplectic):
            rep = check(a, form)
            if not rep.holds:
                kinds.add(rep.witness.kind)
    assert kinds >= {"left-symplectic", "right-symplectic", "d-omega",
                     "diamond-symmetry"}


def test_checks_equal_the_naive_scans_on_random_pairs():
    rng = random.Random(38)
    for _ in range(30):
        n = rng.choice([2, 3, 4, 5])
        a = _random_algebra(rng, n, -1, 1)
        pairs = {(i + 1, j + 1): Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                 for i in range(n) for j in range(i + 1, n)}
        form = form_from_pairs(n, pairs)
        assert is_symplectic_left(a, form) == _naive_left(a, form)
        assert is_symplectic_right(a, form) == _naive_right(a, form)
        assert is_bi_symplectic(a, form) == _naive_bi(a, form)


def test_omega_equals_the_dense_bilinear_sum():
    rng = random.Random(39)
    for _ in range(50):
        n = rng.choice([2, 4, 6])
        form = _random_form(rng, n)
        u = vector([rng.choice([0, 0, 1, -2, Fraction(1, 3)]) for _ in range(n)])
        v = vector([rng.choice([0, 0, 1, -2, Fraction(1, 3)]) for _ in range(n)])
        dense = sum(u[a] * form.w.entries[a][b] * v[b]
                    for a in range(n) for b in range(n))
        assert omega(form, u, v) == dense
    with pytest.raises(ValueError):
        omega(W12, vector([1, 0, 0]), vector([1, 0]))


# ---------------------------------------------------------------------------
# the sparse form system and the integer search against dense oracles

def _dense_form_system(a, side):
    """Row (i, j, k) holds the identity's defect at e_i, e_j, e_k for every
    basis form, each evaluated by omega calls alone."""
    n = a.dim
    nvars = n * (n - 1) // 2
    defect = {"left": _left_defect, "right": _right_defect}[side]
    per_form = [defect(a, form_from_coords(n, basis_vector(nvars, t))) for t in range(nvars)]
    return Matrix.from_rows([[d(i, j, k) for d in per_form]
                             for i in range(n) for j in range(n) for k in range(n)])


def _sheared(a):
    """a in the basis of an upper triangular P with fractional entries."""
    n = a.dim
    p = Matrix.from_rows([[1 if i == j else Fraction(j - i, 3) if j > i else 0
                           for j in range(n)] for i in range(n)])
    return change_basis(a, p)


def _dense_system(a, side):
    """The dense system of one side, or both stacked for "bi"."""
    if side == "bi":
        return vstack([_dense_form_system(a, "left"), _dense_form_system(a, "right")])
    return _dense_form_system(a, side)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("fid", list_families())
def test_solve_symplectic_forms_is_the_kernel_of_the_dense_system(fid, side):
    a, _ = instantiate(fid)
    for alg in (a, _sheared(a)):
        assert solve_symplectic_forms(alg, side) == kernel(_dense_form_system(alg, side))


def _assert_bi_is_the_intersection_and_the_stacked_kernel(a):
    left, right, bi = (solve_symplectic_forms(a, side) for side in ("left", "right", "bi"))
    assert bi == intersect(left, right)
    assert bi == kernel(_dense_system(a, "bi"))
    # Left minus right is omega's cyclic sum over the commutator, which is
    # totally antisymmetric, and left plus right has zero cyclic sum.  So the
    # cyclic sum of the left identity is 3/2 (left - right): left = 0 forces
    # left - right = 0, hence right = 0, and the three spaces coincide for
    # every product.
    assert left == right == bi


@pytest.mark.parametrize("fid", list_families())
def test_bi_solve_is_the_intersection_and_the_stacked_dense_kernel(fid):
    a, _ = instantiate(fid)
    for alg in (a, _sheared(a)):
        _assert_bi_is_the_intersection_and_the_stacked_kernel(alg)


def _moves(a):
    """Every copy of a with one structure constant moved by +1 or -1."""
    n = a.dim
    for i, j, k in itertools.product(range(n), repeat=3):
        for step in (1, -1):
            c = [[list(v) for v in row] for row in a.c]
            c[i][j][k] += step
            yield Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


@pytest.mark.parametrize("fid", ["DIM2_NONLIE", "R4_LEFT", "BS4_C", "BS4_K"])
def test_bi_solve_on_every_one_entry_move(fid):
    dims = set()
    for alg in _moves(instantiate(fid)[0]):
        _assert_bi_is_the_intersection_and_the_stacked_kernel(alg)
        dims.add(solve_symplectic_forms(alg, "bi").dim)
    assert len(dims) > 1  # the moves do change the solution space


_SMALL = st.sampled_from([Fraction(-1), Fraction(-1, 2), ZERO, Fraction(1, 2), Fraction(1)])
# halves and thirds together, so that the int scales of W and of the constants differ
_MIXED = st.sampled_from([Fraction(x) for x in ("-2", "-1", "-1/2", "-1/3", "0", "1/3", "1/2",
                                                "1", "2")])


@st.composite
def _sparse_small_algebras(draw, max_dim=5, entry=_SMALL, dims=None):
    """Dimension 2..max_dim (or one drawn from dims), any product (not
    necessarily Leibniz), entries in {-1, -1/2, 0, 1/2, 1} by default, from
    one nonzero constant up to a dense table."""
    n = draw(st.integers(2, max_dim) if dims is None else dims)
    index = st.integers(0, n - 1)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    count = draw(st.sampled_from([1, 2, n, n * n, n ** 3]))
    for i, j, k, x in draw(st.lists(st.tuples(index, index, index, entry), max_size=count)):
        c[i][j][k] = x
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


@settings(max_examples=60, deadline=None)
@given(_sparse_small_algebras())
def test_solve_equals_the_dense_kernel_on_random_sparse_algebras(a):
    for side in ("left", "right", "bi"):
        assert solve_symplectic_forms(a, side) == kernel(_dense_system(a, side)), side


@st.composite
def _pool_shaped_algebras(draw):
    """Dimension 6..8 with 1 to 2n nonzero constants in halves, thirds and
    small ints, as in the sums the benchmark solves: most distinct form rows
    then have a single entry."""
    n = draw(st.integers(6, 8))
    index = st.integers(0, n - 1)
    cells = draw(st.lists(st.tuples(index, index, index), min_size=1, max_size=2 * n,
                          unique=True))
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k in cells:
        c[i][j][k] = draw(_MIXED.filter(bool))
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


def _assert_every_side_is_the_dense_kernel(a):
    left, right = _dense_form_system(a, "left"), _dense_form_system(a, "right")
    for side, dense in (("left", left), ("right", right), ("bi", vstack([left, right]))):
        assert solve_symplectic_forms(a, side) == kernel(dense), side


@settings(max_examples=5, deadline=None)
@given(_pool_shaped_algebras())
def test_solve_equals_the_dense_kernel_on_pool_shaped_algebras(a):
    _assert_every_side_is_the_dense_kernel(a)


def _through_from_table(a):
    """a rebuilt by from_table, whose int_nz is read at whatever scale the constants need."""
    return Algebra.from_table(a.dim, {(i, j): dict(pairs) for i, row in enumerate(a.nz)
                                      for j, pairs in enumerate(row) if pairs}, one_based=False)


@settings(max_examples=5, deadline=None)
@given(_pool_shaped_algebras())
def test_solve_equals_the_dense_kernel_on_pool_shaped_tables_at_their_own_scale(a):
    a = _through_from_table(a)
    assert a.int_nz[0] == math.lcm(*(x.denominator for row in a.nz for pairs in row for _, x in pairs))
    _assert_every_side_is_the_dense_kernel(a)


def _single_only_after_the_unit_drop(dense):
    """The rows of a dense form system with two or more entries, all but one
    of them at columns where some row has a single entry."""
    rows = [{j for j, x in enumerate(r) if x} for r in dense.entries]
    units = set().union(*(r for r in rows if len(r) == 1))
    return [r for r in rows if len(r) > 1 and len(r - units) == 1]


@pytest.mark.parametrize("fid, shear, scale", [("BS4_M", False, 1), ("BS4_M", True, 27),
                                               ("RR3_SIXDIM_RAW", False, 2),
                                               ("RR3_SIXDIM_B0", False, 2)])
def test_rows_single_only_after_the_unit_drop_reach_the_dense_kernel(fid, shear, scale):
    a = instantiate(fid)[0]
    a = _through_from_table(_sheared(a) if shear else a)
    assert a.int_nz[0] == scale
    assert _single_only_after_the_unit_drop(_dense_form_system(a, "left"))
    _assert_every_side_is_the_dense_kernel(a)


@st.composite
def _sparse_pairs(draw, entry=_SMALL, dims=None):
    """A product from _sparse_small_algebras up to dimension 6 and a skew form:
    half the time with random entries in {-1, -1/2, 0, 1/2, 1} (or the given
    entries), half the time a random member of its left form space, so that
    compatible forms occur."""
    a = draw(_sparse_small_algebras(6, entry, dims))
    n = a.dim
    space = solve_symplectic_forms(a, "left")
    if draw(st.booleans()) and space.dim:
        coefs = draw(st.lists(st.integers(-2, 2), min_size=space.dim, max_size=space.dim))
        coords = [sum((c * row[k] for c, row in zip(coefs, space.basis.entries)), ZERO)
                  for k in range(space.ambient_dim)]
    else:
        coords = draw(st.lists(entry, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return a, form_from_coords(n, coords)


@settings(max_examples=80, deadline=None)
@given(_sparse_pairs())
def test_sides_agree_and_bi_equals_the_naive_scan_on_random_sparse_pairs(pair):
    a, form = pair
    assert is_bi_symplectic(a, form) == _naive_bi(a, form)
    # the check-side statement of the equal left, right and bi form spaces
    assert (is_symplectic_left(a, form).holds == is_symplectic_right(a, form).holds
            == is_bi_symplectic(a, form).holds)


@settings(max_examples=80, deadline=None)
@given(_sparse_pairs(_MIXED, st.sampled_from([2, 4, 6])))
def test_checks_and_stars_equal_the_naive_ones_with_halves_and_thirds(pair):
    """Entries with denominators 2 and 3, so W and the constants have
    different int scales; witnesses and defects must agree exactly.  Even
    dimensions only, so that most forms can be nondegenerate."""
    a, form = pair
    assert is_symplectic_left(a, form) == _naive_left(a, form)
    assert is_symplectic_right(a, form) == _naive_right(a, form)
    assert is_bi_symplectic(a, form) == _naive_bi(a, form)
    if not form.nondegenerate:
        for star in (star_left, star_right):
            with pytest.raises(ValueError, match="nondegenerate"):
                star(a, form)
        return
    left, right = star_left(a, form), star_right(a, form)
    assert left.c == _naive_star(a, form, lambda i, k: a.c[i][k])
    assert right.c == _naive_star(a, form, lambda i, k: a.c[k][i])
    assert all(type(x) is Fraction for b in (left, right) for row in b.c for v in row for x in v)


def _block_form(*forms):
    n = sum(f.dim for f in forms)
    w = [[ZERO] * n for _ in range(n)]
    off = 0
    for f in forms:
        for i, row in enumerate(f.w.entries):
            w[off + i][off:off + f.dim] = row
        off += f.dim
    return SkewForm(Matrix.from_rows(w))


_DIMS = {fid: instantiate(fid)[0].dim for fid in list_families()}
# every choice of 2 or 3 families whose sum has dimension 8..12
_SUMMANDS = [fids for size in (2, 3)
             for fids in itertools.combinations_with_replacement(list_families(), size)
             if 8 <= sum(_DIMS[f] for f in fids) <= 12]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_SUMMANDS), st.integers(0, 2 ** 16))
def test_direct_sums_keep_every_shared_catalog_claim(fids, seed):
    rng = random.Random(seed)
    pairs = [instantiate(fid, get(fid).sample(rng)) for fid in fids]
    a, form = _direct_sum(*(alg for alg, _ in pairs)), _block_form(*(w for _, w in pairs))
    shared = set.intersection(*(set(get(fid).claims) for fid in fids))
    for claim in sorted(shared):
        check = _PREDICATES[claim](a, form)
        assert check.holds, (claim, check.detail)
    naive = _naive_bi(a, form)
    assert is_bi_symplectic(a, form) == naive
    assert naive.holds or "bi-symplectic" not in shared


def _dense_find_nondegenerate(space, dim, seed=0, attempts=128):
    """The dense Fraction combination loop the integer search replaced; an oracle."""
    rng = random.Random(seed)
    for _ in range(attempts):
        coords = [ZERO] * space.ambient_dim
        for row in space.basis.entries:
            c = rng.randint(-10, 10)
            if c != 0:
                coords = [x + c * y for x, y in zip(coords, row)]
        form = form_from_coords(dim, coords)
        if form.nondegenerate:
            return form
    return None


def _direct_sum(*blocks):
    n = sum(blk.dim for blk in blocks)
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for blk in blocks:
        for i in range(blk.dim):
            for j in range(blk.dim):
                c[off + i][off + j][off:off + blk.dim] = blk.c[i][j]
        off += blk.dim
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


def test_find_nondegenerate_equals_the_dense_combination_loop():
    line = Algebra.from_table(1, {})
    algebras = [(alg, seed) for fid in list_families()
                for alg in (instantiate(fid)[0], _sheared(instantiate(fid)[0]))
                for seed in (0, 1, 7)]
    # odd dimensions: every skew form is degenerate, both searches give up
    algebras += [(_direct_sum(instantiate(fid)[0], line), 0)
                 for fid in ("DIM2_NONLIE", "R4_LEFT", "RR3_SIXDIM_RAW")]
    cases = [(solve_symplectic_forms(alg, side), alg.dim, seed)
             for alg, seed in algebras for side in ("left", "right")]
    half, third = Fraction(1, 2), Fraction(1, 3)
    # dim 4 with fractional bases: e_4 is in every radical / generic forms are invertible
    cases += [(span(6, [[1, half, 0, 0, 0, 0], [0, 0, 0, third, 0, 0]]), 4, seed)
              for seed in (0, 1)]
    cases += [(span(6, [[half, 0, 0, 0, 0, third], [0, 1, 0, 0, -half, 0]]), 4, seed)
              for seed in (0, 1)]
    found = {True: 0, False: 0}
    for space, dim, seed in cases:
        form = find_nondegenerate(space, dim, seed=seed)
        assert form == _dense_find_nondegenerate(space, dim, seed=seed)
        found[form is not None] += 1
    assert found[True] and found[False]


def _count_int_det(monkeypatch):
    calls = []
    monkeypatch.setattr(symplectic, "int_det", lambda rows: calls.append(1) or int_det(rows))
    return calls


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_a_common_radical_ends_the_search_after_one_draw(monkeypatch, seed):
    half, third = Fraction(1, 2), Fraction(1, 3)
    # e_4 is in every radical: no basis form touches a coordinate (i, 4)
    space = span(6, [[1, half, 0, 0, 0, 0], [0, 0, 0, third, 0, 0]])
    calls = _count_int_det(monkeypatch)
    assert find_nondegenerate(space, 4, seed=seed) is None
    assert len(calls) == 1
    assert _dense_find_nondegenerate(space, 4, seed=seed) is None
    # the zero space: its one member, the zero form, is degenerate
    calls.clear()
    assert find_nondegenerate(zero_subspace(6), 4, seed=seed) is None
    assert len(calls) == 1


@st.composite
def _form_spaces(draw):
    """(space, dim): dim 1..7, and the span of up to four coordinate vectors,
    each a multiple of one coordinate (a unit-coordinate form) or a few
    entries, ints or with halves and thirds; no vector gives the zero space."""
    dim = draw(st.integers(1, 7))
    cols = dim * (dim - 1) // 2
    vectors = []
    for _ in range(draw(st.integers(0, 4) if cols else st.just(0))):
        v = [ZERO] * cols
        entries = draw(st.lists(st.tuples(st.integers(0, cols - 1), _MIXED.filter(bool)),
                                min_size=1, max_size=1 if draw(st.booleans()) else cols))
        for k, x in entries:
            v[k] = x
        vectors.append(v)
    return span(cols, vectors), dim


@settings(max_examples=150, deadline=None)
@given(_form_spaces())
def test_the_sparse_rank_test_finds_the_common_radical_of_the_dense_oracle(space_dim):
    space, dim = space_dim
    free = symplectic._radical_free(space.int_basis[1], dim)
    assert free == (common_radical(space, dim).dim == 0)


def test_the_rank_test_sees_the_radicals_the_search_relies_on():
    half, third = Fraction(1, 2), Fraction(1, 3)
    cases = [  # (space, dim, has a common radical)
        (span(6, [[1, half, 0, 0, 0, 0], [0, 0, 0, third, 0, 0]]), 4, True),  # e_4
        (span(6, [basis_vector(6, upper_index(4, 0, j)) for j in (1, 2, 3)]), 4, False),
        (span(6, [basis_vector(6, upper_index(4, 0, 1)), basis_vector(6, upper_index(4, 2, 3))]),
         4, False),
        (zero_subspace(6), 4, True),
        (zero_subspace(3), 3, True),
        (span(3, [[1, 2, 3]]), 3, True),  # a skew form of odd size is degenerate
        (zero_subspace(0), 1, True),
    ]
    for space, dim, radical in cases:
        assert symplectic._radical_free(space.int_basis[1], dim) is not radical
        assert (common_radical(space, dim).dim > 0) is radical


def test_degenerate_spaces_without_a_common_radical_run_every_draw(monkeypatch):
    # span{e12, e13, e14}: each member is e1 ^ v, of rank 2, so every member
    # is degenerate, yet the radicals of e12, e13 and e14 meet only in 0
    space = span(6, [basis_vector(6, upper_index(4, 0, j)) for j in (1, 2, 3)])
    calls = _count_int_det(monkeypatch)
    assert find_nondegenerate(space, 4, seed=3, attempts=40) is None
    assert len(calls) == 40
    assert _dense_find_nondegenerate(space, 4, seed=3, attempts=40) is None


def test_the_found_form_keeps_the_determinant_the_search_computed(monkeypatch):
    """find_nondegenerate builds its winner from the int Gram matrix int_det
    accepted, with no SkewForm constructor call and no Matrix.det; the checked
    public constructor, through the oracle form_from_coords, agrees."""
    rng = random.Random(12)
    dense = Algebra.from_table(12, {(i, j): [rng.randint(-3, 3) for _ in range(12)]
                                    for i in range(1, 13) for j in range(1, 13)})
    algebras = [alg for fid in list_families()
                for alg in (instantiate(fid)[0], _sheared(instantiate(fid)[0]))] + [dense]
    spaces = [(solve_symplectic_forms(alg), alg.dim) for alg in algebras]
    calls = []
    init, det = SkewForm.__init__, Matrix.det
    monkeypatch.setattr(SkewForm, "__init__", lambda self, w: calls.append(w) or init(self, w))
    monkeypatch.setattr(Matrix, "det", lambda self: calls.append(self) or det(self))
    found = [find_nondegenerate(space, dim, seed=seed) for space, dim in spaces
             for seed in (0, 1)]
    assert calls == []
    monkeypatch.undo()
    assert found[-1] is None  # the dense product carries only the zero form
    forms = [form for form in found if form is not None]
    assert len(forms) > len(list_families())
    for form in forms:
        checked = SkewForm(form.w)
        assert form == checked == form_from_coords(form.dim, form_coords(form))
        assert form.nondegenerate and checked.nondegenerate and form.w.det() != 0
    # outside input still goes through both checks
    with pytest.raises(ValueError, match="not skew"):
        SkewForm(Matrix.from_rows([[0, 1, 0], [-1, 0, 2], [0, 2, 0]]))
    assert not SkewForm(Matrix.from_rows([[0, 1, 1, 0], [-1, 0, 0, 1], [-1, 0, 0, 1],
                                          [0, -1, -1, 0]])).nondegenerate


def _assert_int_basis_and_search_agree(a):
    """The int basis the solver fills in from its pivots is the Fraction basis
    scaled to ints, so find_nondegenerate makes the same draws, and returns
    the same form, on the solved space, on the span of its Fraction rows and
    on a Subspace built directly, which scales its own basis."""
    space = solve_symplectic_forms(a)
    d, scaled = int_scaled(space.basis.entries)
    assert space.int_basis == (d, tuple(tuple((j, x) for j, x in enumerate(row) if x)
                                        for row in scaled))
    rebuilt = span(space.ambient_dim, space.basis.entries)
    direct = Subspace(space.ambient_dim, space.basis)
    assert rebuilt == direct == space
    assert rebuilt.int_basis == direct.int_basis == space.int_basis
    for seed in (0, 1, 7):
        form = find_nondegenerate(space, a.dim, seed=seed)
        assert find_nondegenerate(rebuilt, a.dim, seed=seed) == form
        assert find_nondegenerate(direct, a.dim, seed=seed) == form


@pytest.mark.parametrize("fid", list_families())
def test_solver_int_basis_on_catalog_and_sheared_products(fid):
    a, _ = instantiate(fid)
    for alg in (a, _sheared(a)):
        _assert_int_basis_and_search_agree(alg)


@settings(max_examples=40, deadline=None)
@given(_sparse_small_algebras(6, _MIXED, st.sampled_from([4, 6])))
def test_solver_int_basis_on_random_products_with_halves_and_thirds(a):
    _assert_int_basis_and_search_agree(a)


@st.composite
def _skew_pairs(draw):
    """(dim, pairs, forced): 0-based strict upper-triangle entries in dim
    0..12, halves and thirds among them, either sparse (up to dim drawn
    cells) or dense (every cell drawn, zeros included).  forced says the form
    must be degenerate: an odd dim, one row zeroed, or one row made a
    multiple of another by the congruence P^T W P, where P is the identity
    with column r replaced by lam e_t."""
    dim = draw(st.integers(0, 12))
    cells = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    if draw(st.booleans()):
        pairs = dict(zip(cells, draw(st.lists(_MIXED, min_size=len(cells), max_size=len(cells)))))
    else:
        pairs = dict(draw(st.lists(st.tuples(st.sampled_from(cells), _MIXED.filter(bool)),
                                   max_size=dim))) if cells else {}
    how = draw(st.sampled_from(["free", "zero row", "dependent rows"])) if dim > 1 else "free"
    if how == "zero row":
        r = draw(st.integers(0, dim - 1))
        pairs = {cell: x for cell, x in pairs.items() if r not in cell}
    elif how == "dependent rows":
        r, t = draw(st.lists(st.integers(0, dim - 1), min_size=2, max_size=2, unique=True))
        lam = draw(_MIXED)
        p = Matrix.from_rows([[lam if (i, j) == (t, r) else int(i == j != r) for j in range(dim)]
                              for i in range(dim)])
        w = (p.transpose() @ form_from_pairs(dim, pairs, one_based=False).w @ p).entries
        pairs = {(i, j): w[i][j] for i, j in cells if w[i][j]}
    return dim, pairs, how != "free" or dim % 2 == 1


@settings(max_examples=300, deadline=None)
@given(_skew_pairs())
def test_nondegenerate_is_the_determinant_test(case):
    """SkewForm.nondegenerate, a rank decided on first read, against the
    Bareiss determinant, its oracle: 300 examples, on the form built from
    pairs and on the checked constructor's form of the same matrix; on a
    degenerate draw, the radical vector is the first kernel basis row."""
    dim, pairs, forced = case
    form = form_from_pairs(dim, pairs, one_based=False)
    assert "nondegenerate" not in vars(form)
    det = form.w.det()
    assert form.nondegenerate == (det != 0)
    assert SkewForm(form.w).nondegenerate == (det != 0)
    assert not (forced and det)
    if det:
        with pytest.raises(ValueError, match="nondegenerate"):
            form.radical_vector()
    else:  # read off the rank's own pivot rows, against the dense kernel
        assert form.radical_vector() == kernel(form.w).basis.entries[0]


def test_parsed_and_reduced_forms_skip_the_skew_scan_and_the_determinant(monkeypatch):
    """The forms built skew by construction, the parsed file's and core's
    reduced one, go through neither the checked constructor nor Matrix.det,
    and their flag agrees with the checked constructor and the determinant."""
    cases = [(fid, serialize_algebra(*instantiate(fid))) for fid in list_families()
             if "left-symplectic" in get(fid).claims]
    calls = []
    init, det = SkewForm.__init__, Matrix.det
    monkeypatch.setattr(SkewForm, "__init__", lambda self, w: calls.append(w) or init(self, w))
    monkeypatch.setattr(Matrix, "det", lambda self: calls.append(self) or det(self))
    forms = []
    for fid, text in cases:
        a, form = parse_algebra(text)
        forms += [form, core(a, form).reduced.form]
    assert calls == []
    monkeypatch.undo()
    assert len(forms) == 2 * len(cases) > 2
    for form in forms:
        assert form.nondegenerate and SkewForm(form.w).nondegenerate and form.w.det() != 0
