"""Structure-constant algebras and the Leibniz-type identity checks."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympleib import algebra, symplectic
from sympleib.algebra import (
    Algebra,
    center,
    change_basis,
    derivations,
    is_ideal,
    is_left_leibniz,
    is_left_symmetric,
    is_lie,
    is_right_leibniz,
    is_symmetric_leibniz,
    leibniz_ideal,
    multiply,
    opposite,
    quotient,
    right_mult,
    split,
)
from sympleib.catalog import instantiate, list_families
from sympleib.exactlin import (ZERO, Matrix, basis_vector, is_zero_vector, kernel, rat, span,
                               vadd, vector, vscale, vsub, vzero, zero_subspace)
from sympleib.extension import ExtensionData
from sympleib.fileformat import parse_algebra, serialize_algebra
from sympleib.reporting import Check, Witness
from sympleib.symplectic import form_from_pairs, is_symplectic_left

from oracles import dense_center, left_mult


def _dim2(x=3):
    # one nonzero product: e2 e2 = x e1
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
    # solvable Lie algebra: [e1,e2] = e2, [e1,e3] = -e3, e4 central
    return Algebra.from_table(4, {
        (1, 2): {2: 1},
        (2, 1): {2: -1},
        (1, 3): {3: -1},
        (3, 1): {3: 1},
    })


def _random_algebra(rng, n, lo=-3, hi=3):
    c = tuple(
        tuple(vector([rng.randint(lo, hi) for _ in range(n)]) for _ in range(n))
        for _ in range(n)
    )
    return Algebra(n, c)


def _random_invertible(rng, n):
    while True:
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def test_multiply_is_bilinear_and_matches_table():
    a = _r4()
    e = [basis_vector(4, i) for i in range(4)]
    assert multiply(a, e[0], e[1]) == vector([0, 0, 1, 0])
    assert multiply(a, e[1], e[0]) == vector([0, 0, -1, 0])
    u = vector([1, 2, 0, -1])
    v = vector([3, 0, 1, 5])
    w = vector([-2, 1, 1, 0])
    lhs = multiply(a, u, vector([x + y for x, y in zip(v, w)]))
    assert lhs == vector([x + y for x, y in zip(multiply(a, u, v), multiply(a, u, w))])
    assert multiply(a, vector([2 * x for x in u]), v) == vector(
        [2 * x for x in multiply(a, u, v)]
    )


def test_left_and_right_multiplication_matrices():
    a = _r4()
    u = vector([1, 1, 0, 0])
    v = vector([0, 1, 2, 0])
    assert left_mult(a, u).matvec(v) == multiply(a, u, v)
    assert right_mult(a, u).matvec(v) == multiply(a, v, u)


def test_dim2_family_is_symmetric_leibniz_not_lie():
    a = _dim2()
    assert is_left_leibniz(a).holds
    assert is_right_leibniz(a).holds
    assert is_symmetric_leibniz(a).holds
    rep = is_lie(a)
    assert not rep.holds
    assert rep.witness.kind == "antisymmetry"
    assert rep.witness.indices == (1, 1)
    assert rep.witness.defect == vector([6, 0])


def test_r4_example_identities():
    a = _r4()
    assert is_left_leibniz(a).holds
    assert is_right_leibniz(a).holds
    assert is_symmetric_leibniz(a).holds
    assert not is_lie(a).holds
    assert not is_left_symmetric(a).holds


def test_identity_witness_reports_exact_defect():
    # e1 e1 = e2 is not left Leibniz: defect at the first triple
    a = Algebra.from_table(2, {(1, 1): {2: 1}, (2, 1): {1: 1}})
    rep = is_left_leibniz(a)
    assert not rep.holds
    w = rep.witness
    lhs = multiply(a, basis_vector(2, w.indices[0]),
                   multiply(a, basis_vector(2, w.indices[1]), basis_vector(2, w.indices[2])))
    mid = multiply(a, multiply(a, basis_vector(2, w.indices[0]), basis_vector(2, w.indices[1])),
                   basis_vector(2, w.indices[2]))
    rhs = multiply(a, basis_vector(2, w.indices[1]),
                   multiply(a, basis_vector(2, w.indices[0]), basis_vector(2, w.indices[2])))
    assert w.defect == vector([l - m - r for l, m, r in zip(lhs, mid, rhs)])


def test_lie_example():
    g = _rr3_minus1()
    assert is_lie(g).holds
    assert is_left_leibniz(g).holds
    assert is_right_leibniz(g).holds
    assert leibniz_ideal(g) == zero_subspace(4)


def test_center_of_rr3_minus1():
    assert center(_rr3_minus1()) == span(4, [basis_vector(4, 3)])


def test_center_of_dim2():
    assert center(_dim2()) == span(2, [basis_vector(2, 0)])


def test_leibniz_ideal_r4():
    a = _r4()
    leib = leibniz_ideal(a)
    assert leib == span(4, [basis_vector(4, 3)])
    assert is_ideal(a, leib)


def test_quotient_by_leibniz_ideal_is_lie():
    for a in (_r4(), _dim2()):
        q, proj = quotient(a, leibniz_ideal(a))
        assert q.dim == a.dim - leibniz_ideal(a).dim
        assert is_lie(q).holds
        # projection is an algebra map
        for i in range(a.dim):
            for j in range(a.dim):
                ei, ej = basis_vector(a.dim, i), basis_vector(a.dim, j)
                lhs = proj.matvec(multiply(a, ei, ej))
                rhs = multiply(q, proj.matvec(ei), proj.matvec(ej))
                assert lhs == rhs


def test_quotient_rejects_non_ideal():
    a = _r4()
    with pytest.raises(ValueError):
        quotient(a, span(4, [basis_vector(4, 0)]))


def test_split_reconstructs_product():
    rng = random.Random(21)
    for _ in range(20):
        a = _random_algebra(rng, rng.randint(2, 4))
        anti, sym = split(a)
        for i in range(a.dim):
            for j in range(a.dim):
                assert vector([x + y for x, y in zip(anti.c[i][j], sym.c[i][j])]) == a.c[i][j]
                assert anti.c[i][j] == vector([-x for x in anti.c[j][i]])
                assert sym.c[i][j] == sym.c[j][i]


def test_opposite_swaps_left_and_right():
    rng = random.Random(22)
    for _ in range(20):
        a = _random_algebra(rng, 3)
        assert is_left_leibniz(a).holds == is_right_leibniz(opposite(a)).holds


def test_derivations_satisfy_the_rule():
    rng = random.Random(23)
    for a in (_r4(), _rr3_minus1(), _random_algebra(rng, 3)):
        for d in derivations(a):
            for i in range(a.dim):
                for j in range(a.dim):
                    ei, ej = basis_vector(a.dim, i), basis_vector(a.dim, j)
                    lhs = d.matvec(multiply(a, ei, ej))
                    rhs = vector([x + y for x, y in zip(
                        multiply(a, d.matvec(ei), ej), multiply(a, ei, d.matvec(ej)))])
                    assert lhs == rhs


def test_derivations_of_rr3_minus1():
    g = _rr3_minus1()
    ders = derivations(g)
    assert len(ders) == 6
    def unit(r, c):
        return [[1 if (i, j) == (r, c) else 0 for j in range(4)] for i in range(4)]
    expected = span(16, [
        [x for row in unit(r, c) for x in row]
        for (r, c) in [(1, 0), (2, 0), (3, 0), (1, 1), (2, 2), (3, 3)]
    ])
    got = span(16, [[x for row in d.entries for x in row] for d in ders])
    assert got == expected


def test_identity_reports_are_basis_independent():
    rng = random.Random(24)
    for a in (_dim2(), _r4(), _rr3_minus1()):
        p = _random_invertible(rng, a.dim)
        b = change_basis(a, p)
        assert is_left_leibniz(b).holds == is_left_leibniz(a).holds
        assert is_right_leibniz(b).holds == is_right_leibniz(a).holds
        assert is_lie(b).holds == is_lie(a).holds
        assert leibniz_ideal(b).dim == leibniz_ideal(a).dim


def test_random_products_rarely_leibniz_but_checks_agree_with_direct_expansion():
    rng = random.Random(25)
    for _ in range(30):
        a = _random_algebra(rng, 3, -2, 2)
        rep = is_left_leibniz(a)
        # recompute the identity exhaustively with multiply as an oracle
        ok = True
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    u, v, w = (basis_vector(3, t) for t in (i, j, k))
                    lhs = multiply(a, u, multiply(a, v, w))
                    rhs = vector([x + y for x, y in zip(
                        multiply(a, multiply(a, u, v), w),
                        multiply(a, v, multiply(a, u, w)))])
                    ok = ok and lhs == rhs
        assert rep.holds == ok


# ---------------------------------------------------------------------------
# differential tests of the sparse scanner against the dense scans it replaced

def _dense_mul_basis_vec(a, i, v):
    """e_i * v over dense vectors (test oracle, the former library code)."""
    out = list(vzero(a.dim))
    for b, x in enumerate(v):
        if x != 0:
            for k, y in enumerate(a.c[i][b]):
                if y != 0:
                    out[k] += x * y
    return tuple(out)


def _dense_mul_vec_basis(a, v, i):
    """v * e_i over dense vectors (test oracle, the former library code)."""
    out = list(vzero(a.dim))
    for b, x in enumerate(v):
        if x != 0:
            for k, y in enumerate(a.c[b][i]):
                if y != 0:
                    out[k] += x * y
    return tuple(out)


def _dense_scan(name, kind, a, defect):
    """First basis triple with a nonzero dense defect (test oracle)."""
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                d = defect(i, j, k)
                if not is_zero_vector(d):
                    return Check(name, False, witness=Witness(kind, (i, j, k), tuple(d)))
    return Check(name, True)


def _dense_left_leibniz(a):
    """The former dense left Leibniz scan (test oracle)."""
    return _dense_scan("left-leibniz", "left-leibniz", a, lambda i, j, k: vsub(
        _dense_mul_basis_vec(a, i, a.c[j][k]),
        vadd(_dense_mul_vec_basis(a, a.c[i][j], k), _dense_mul_basis_vec(a, j, a.c[i][k]))))


def _dense_right_leibniz(a):
    """The former dense right Leibniz scan (test oracle)."""
    return _dense_scan("right-leibniz", "right-leibniz", a, lambda i, j, k: vsub(
        _dense_mul_vec_basis(a, a.c[j][k], i),
        vadd(_dense_mul_vec_basis(a, a.c[j][i], k), _dense_mul_basis_vec(a, j, a.c[k][i]))))


def _dense_symmetric_leibniz(a):
    """The former symmetric Leibniz check over the dense scans (test oracle)."""
    for rep in (_dense_left_leibniz(a), _dense_right_leibniz(a)):
        if not rep.holds:
            return Check("symmetric-leibniz", False, witness=rep.witness)
    return Check("symmetric-leibniz", True)


def _dense_left_symmetric(a):
    """The former dense left-symmetric associator scan (test oracle)."""
    def ass(i, j, k):
        return vsub(_dense_mul_vec_basis(a, a.c[i][j], k), _dense_mul_basis_vec(a, i, a.c[j][k]))
    return _dense_scan("left-symmetric", "left-symmetric", a,
                       lambda i, j, k: vsub(ass(i, j, k), ass(j, i, k)))


def _dense_lie(a):
    """The former dense antisymmetry and Jacobi scans (test oracle)."""
    for i in range(a.dim):
        for j in range(a.dim):
            d = vadd(a.c[i][j], a.c[j][i])
            if not is_zero_vector(d):
                return Check("lie", False, witness=Witness("antisymmetry", (i, j), d))
    return _dense_scan("lie", "jacobi", a, lambda i, j, k: vadd(
        vadd(_dense_mul_vec_basis(a, a.c[i][j], k), _dense_mul_vec_basis(a, a.c[j][k], i)),
        _dense_mul_vec_basis(a, a.c[k][i], j)))


_ORACLES = (
    (is_left_leibniz, _dense_left_leibniz),
    (is_right_leibniz, _dense_right_leibniz),
    (is_symmetric_leibniz, _dense_symmetric_leibniz),
    (is_left_symmetric, _dense_left_symmetric),
    (is_lie, _dense_lie),
)


def _assert_reports_equal_the_oracle(a):
    for check, oracle in _ORACLES:
        got, want = check(a), oracle(a)
        assert got == want
        if not got.holds:
            assert all(type(x) is Fraction for x in got.witness.defect)


_CONSTANT = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# halves and thirds together, so that the int scale of a table is 6, not 2
_MIXED = st.sampled_from([Fraction(x) for x in ("-2", "-1", "-1/2", "-1/3", "0", "1/3", "1/2",
                                               "1", "2")])


@st.composite
def sparse_algebras(draw, max_dim=6, constant=_CONSTANT):
    """Dimension 1..max_dim, from a single nonzero constant up to a dense table."""
    n = draw(st.integers(1, max_dim))
    index = st.integers(0, n - 1)
    count = draw(st.sampled_from([1, 2, n, n * n, n ** 3]))
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, x in draw(st.lists(st.tuples(index, index, index, constant),
                                    max_size=count)):
        c[i][j][k] = x
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


def _bumped(a):
    """a with 1 added to its last nonzero structure constant, or to c[0][n-1][0]."""
    n = a.dim
    spots = [(i, j, k) for i in range(n) for j in range(n) for k in range(n) if a.c[i][j][k]]
    i, j, k = spots[-1] if spots else (0, n - 1, 0)
    c = [[list(v) for v in row] for row in a.c]
    c[i][j][k] += 1
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


def _catalog_algebras():
    for fid in list_families():
        a, _ = instantiate(fid)
        # the commutator half is antisymmetric, so it reaches the Jacobi scan
        bumped = _bumped(a)
        for tag, b in (("", a), ("-bumped", bumped), ("-bumped-commutator", split(bumped)[0])):
            yield pytest.param(b, id=fid + tag)
            yield pytest.param(opposite(b), id=fid + tag + "-opposite")


_PROPERTY = settings(max_examples=150, deadline=None)


@pytest.mark.parametrize("a", list(_catalog_algebras()))
def test_catalog_identity_reports_equal_the_dense_scans(a):
    _assert_reports_equal_the_oracle(a)


@_PROPERTY
@given(sparse_algebras())
def test_identity_reports_equal_the_dense_scans(a):
    _assert_reports_equal_the_oracle(a)
    _assert_reports_equal_the_oracle(opposite(a))


@_PROPERTY
@given(sparse_algebras(constant=_MIXED))
def test_identity_reports_equal_the_dense_scans_with_halves_and_thirds(a):
    _assert_reports_equal_the_oracle(a)
    _assert_reports_equal_the_oracle(opposite(a))


@_PROPERTY
@given(sparse_algebras(constant=_MIXED))
def test_is_lie_builds_no_dense_tensor_for_its_antisymmetry_witness(a):
    """The witness and detail of is_lie equal the dense oracle's, read off an
    equal algebra built apart, and the algebra checked never builds c."""
    apart = parse_algebra(serialize_algebra(a))[0]
    got = is_lie(a)
    assert "c" not in vars(a)
    want = _dense_lie(apart)
    assert got == want and got.detail == want.detail
    assert all(type(x) is Fraction for x in (got.witness.defect if got.witness else ()))


def test_is_lie_on_a_non_lie_table_leaves_c_unbuilt():
    # e1 e2 + e2 e1 = e2 / 2, over the int view at scale 6: the pair (1, 2) fails first
    a = Algebra.from_table(2, {(1, 2): {1: "-1/3", 2: 1}, (2, 1): {1: "1/3", 2: "-1/2"}})
    rep = is_lie(a)
    assert "c" not in vars(a)
    assert rep.witness == Witness("antisymmetry", (0, 1), (Fraction(0), Fraction(1, 2)))
    assert rep.detail == "antisymmetry fails at (1, 2) with defect (0, 1/2)"


# k at each of the three places of either side, so that every walk of
# _slices runs; no identity table has k as the outer factor of an "L" term
_EVERY_WALK = ((1, "L", 0, 1, 2), (-1, "L", 1, 2, 0), (1, "L", 2, 0, 1),
               (1, "R", 0, 1, 2), (1, "R", 1, 2, 0), (-1, "R", 2, 0, 1))


@_PROPERTY
@given(sparse_algebras(max_dim=5, constant=_MIXED))
def test_every_slice_scatters_the_dense_term_sum(a):
    """_slices yields each slice (i, j) once, in order, and at every k its
    scattered defect is s^2 times the table's term sum at (i, j, k),
    evaluated densely, zeros included: a k it leaves out has a zero sum."""
    def term(side, u, v, w):
        return (_dense_mul_basis_vec(a, u, a.c[v][w]) if side == "L"
                else _dense_mul_vec_basis(a, a.c[u][v], w))
    n, s = a.dim, a.int_nz[0]
    for table in (algebra._LEFT_LEIBNIZ, algebra._RIGHT_LEIBNIZ, algebra._LEFT_SYMMETRIC,
                  algebra._JACOBI, _EVERY_WALK):
        slices = list(algebra._slices(a, table))
        assert [ij for ij, _ in slices] == list(itertools.product(range(n), repeat=2))
        for ij, acc in slices:
            assert set(acc) <= set(range(n))
            for k in range(n):
                ijk = (*ij, k)
                dense = [ZERO] * n
                for sign, side, x, y, z in table:
                    dense = vadd(dense, vscale(sign, term(side, ijk[x], ijk[y], ijk[z])))
                got = acc.get(k, [0] * n)
                assert all(type(x) is int for x in got)
                assert got == [x * s * s for x in dense]


def test_the_differential_cases_reach_every_witness_kind():
    kinds = set()
    for param in _catalog_algebras():
        for check, _ in _ORACLES:
            rep = check(param.values[0])
            kinds.add(rep.witness.kind if rep.witness else "holds")
    assert kinds == {"holds", "left-leibniz", "right-leibniz", "left-symmetric",
                     "antisymmetry", "jacobi"}


@_PROPERTY
@given(sparse_algebras(), st.data())
def test_multiply_equals_the_dense_triple_sum(a, data):
    vec = st.lists(_CONSTANT, min_size=a.dim, max_size=a.dim).map(tuple)
    u, v = data.draw(vec), data.draw(vec)
    want = tuple(sum((u[i] * v[j] * a.c[i][j][k] for i in range(a.dim) for j in range(a.dim)),
                     ZERO) for k in range(a.dim))
    assert multiply(a, u, v) == want


@_PROPERTY
@given(sparse_algebras(), st.data())
def test_multiplication_matrices_equal_the_dense_sums(a, data):
    u = data.draw(st.lists(_CONSTANT, min_size=a.dim, max_size=a.dim).map(tuple))
    n = range(a.dim)
    left = tuple(tuple(sum((u[i] * a.c[i][j][k] for i in n), ZERO) for j in n) for k in n)
    right = tuple(tuple(sum((u[i] * a.c[j][i][k] for i in n), ZERO) for j in n) for k in n)
    assert left_mult(a, u).entries == left
    assert right_mult(a, u).entries == right
    assert all(type(x) is Fraction for row in left_mult(a, u).entries for x in row)


@_PROPERTY
@given(sparse_algebras())
def test_opposite_swaps_the_leibniz_checks(a):
    b = opposite(a)
    assert is_left_leibniz(a).holds == is_right_leibniz(b).holds
    assert is_right_leibniz(a).holds == is_left_leibniz(b).holds


@settings(max_examples=60, deadline=None)
@given(sparse_algebras(max_dim=4), st.data())
def test_identity_checks_hold_or_fail_in_every_basis(a, data):
    entry = st.integers(-2, 2)
    p = data.draw(st.lists(st.lists(entry, min_size=a.dim, max_size=a.dim),
                           min_size=a.dim, max_size=a.dim).map(Matrix.from_rows)
                  .filter(lambda m: m.det() != 0))
    b = change_basis(a, p)
    for check, _ in _ORACLES:
        assert check(b).holds == check(a).holds


def _dense_derivations(a):
    """The former dense derivation system (test oracle)."""
    n = a.dim
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [ZERO] * (n * n)
                for m in range(n):
                    row[k * n + m] += a.c[i][j][m]
                for r in range(n):
                    row[r * n + i] -= a.c[r][j][k]
                    row[r * n + j] -= a.c[i][r][k]
                rows.append(row)
    ker = kernel(Matrix.from_rows(rows))
    return [Matrix.from_rows([v[r * n:(r + 1) * n] for r in range(n)])
            for v in ker.basis.entries]


@settings(max_examples=80, deadline=None)
@given(sparse_algebras(max_dim=4))
def test_center_and_derivations_equal_the_dense_systems(a):
    assert center(a) == dense_center(a)
    assert derivations(a) == _dense_derivations(a)


@_PROPERTY
@given(sparse_algebras(max_dim=5, constant=_MIXED))
def test_center_on_the_int_view_equals_the_dense_constraint_stack(a):
    # halves and thirds together: the int rows are read at scale 6, not 1
    assert center(a) == dense_center(a)


@_PROPERTY
@given(sparse_algebras(max_dim=4), st.data())
def test_is_ideal_equals_closure_under_both_products(a, data):
    n = a.dim
    picked = data.draw(st.lists(st.integers(0, n - 1), unique=True))
    s = span(n, [basis_vector(n, i) for i in picked])

    def times(u, v):
        return tuple(sum((u[i] * v[j] * a.c[i][j][k] for i in range(n) for j in range(n)),
                         ZERO) for k in range(n))
    units = [basis_vector(n, j) for j in range(n)]
    want = all(s.contains(times(e, b)) and s.contains(times(b, e))
               for b in s.basis.entries for e in units)
    assert is_ideal(a, s) == want


def test_is_ideal_needs_both_sides():
    e1 = span(2, [basis_vector(2, 0)])
    assert not is_ideal(Algebra.from_table(2, {(1, 2): {2: 1}}), e1)  # e1 e2 = e2
    assert not is_ideal(Algebra.from_table(2, {(2, 1): {2: 1}}), e1)  # e2 e1 = e2
    assert is_ideal(Algebra.from_table(2, {(2, 1): {1: 1}}), e1)  # e2 e1 = e1


def test_nz_lists_the_nonzero_constants_and_leaves_equality_alone():
    a = _r4()
    assert a.nz[0][0] == ((3, 1),)
    assert a.nz[1][0] == ((2, -1),)
    assert a.nz[3][3] == ()
    assert a == _r4() and hash(a) == hash(_r4())


# table entries: small ints (shared Fractions once parsed), ints far outside that
# table, Fractions, strings, and zeros written every way
_TABLE_ENTRY = st.one_of(
    st.integers(-3, 3),
    st.integers(-2 ** 70, 2 ** 70),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    st.sampled_from([0, Fraction(0), ZERO, "0", "-0", "0/7", "5", "-2/6", "3/4"]),
)


@st.composite
def product_tables(draw, max_dim=5):
    """(n, products) with {k: x} mappings, full vectors and all-zero vectors mixed."""
    n = draw(st.integers(0, max_dim))
    if n == 0:
        return 0, {}
    index = st.integers(1, n)
    value = st.one_of(st.dictionaries(index, _TABLE_ENTRY, max_size=n),
                      st.lists(_TABLE_ENTRY, min_size=n, max_size=n),
                      st.just([0] * n))
    return n, draw(st.dictionaries(st.tuples(index, index), value, max_size=n * n))


def test_equality_and_hash_do_not_depend_on_the_containers_passed():
    rows = [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]
    c = tuple(tuple(tuple(map(Fraction, v)) for v in row) for row in rows)
    table = Algebra.from_table(2, {(1, 2): {2: 1}}, ["x", "y"])
    for a in (Algebra(2, c, ["x", "y"]), Algebra(2, c, ("x", "y")), Algebra(2, rows, ["x", "y"])):
        assert a == table and hash(a) == hash(table)
        assert a.labels == ("x", "y") and a.c == c


@_PROPERTY
@given(product_tables(), st.booleans())
def test_every_construction_route_stores_one_table(table, labelled):
    """The dense constructor, ``from_table`` with mappings and with vectors,
    and a file written and read back give one algebra: its table ``nz``, its
    dense view ``c`` (the shared ZERO where no product reaches), its int view
    and its repr, the dense constructor call."""
    n, products = table
    labels = [f"b{i}" for i in range(n)] if labelled else []
    want = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), val in products.items():
        for k, x in (val.items() if isinstance(val, dict) else enumerate(val, start=1)):
            want[i - 1][j - 1][k - 1] = rat(x)
    a = Algebra(n, want, labels)
    nz = tuple(tuple(tuple((k, x) for k, x in enumerate(v) if x) for v in row) for row in want)
    mappings = {ij: val if isinstance(val, dict) else dict(enumerate(val, start=1))
                for ij, val in products.items()}
    vectors = {ij: [val.get(k, 0) for k in range(1, n + 1)] for ij, val in mappings.items()}
    routes = [Algebra.from_table(n, mappings, tuple(labels)),
              Algebra.from_table(n, vectors, labels), parse_algebra(serialize_algebra(a))[0]]
    dense = tuple(tuple(map(tuple, row)) for row in want)
    for b in (a, *routes):
        assert b == a and hash(b) == hash(a)
        assert b.nz == nz and b.labels == tuple(labels)
        assert b.c == dense
        assert all(x is ZERO for row in b.c for v in row for x in v if not x)
        assert repr(b) == f"Algebra(dim={n!r}, c={dense!r}, labels={tuple(labels)!r})"
        # the int view, at every scale, not only at 1: the lcm of the dense
        # tensor's denominators, times each constant
        s, scaled = b.int_nz
        assert s == math.lcm(*(x.denominator for row in dense for v in row for x in v))
        assert scaled == tuple(tuple(tuple((k, x * s) for k, x in pairs) for pairs in row)
                               for row in nz)
        assert all(type(x) is int for row in scaled for pairs in row for _, x in pairs)


_Z2 = Matrix.zero(2, 2)
_GRID = [[[0, 0]]]


@pytest.mark.parametrize("build, message", [
    # unchecked, a 1-based k of 0 would write the last coordinate (list index -1)
    (lambda: Algebra.from_table(2, {(1, 1): {0: 5}}), "product coordinate 0 out of range"),
    (lambda: Algebra.from_table(2, {(1, 1): {3: 5}}), "product coordinate 3 out of range"),
    (lambda: Algebra.from_table(2, {(0, 0): {2: 5}}, one_based=False),
     "product coordinate 2 out of range"),
    (lambda: Algebra.from_table(2, {(1, 1): {-1: 5}}), "product coordinate -1 out of range"),
    (lambda: Algebra.from_table(2, {(0, 1): {1: 5}}), r"product index \(0, 1\) out of range"),
    (lambda: Algebra.from_table(2, {(1, 3): {1: 5}}), r"product index \(1, 3\) out of range"),
    (lambda: Algebra.from_table(2, {(1, 1): [5]}), "product vector has wrong length"),
    # the table builder makes its algebra without the constructor's scan and
    # checks what that scan would refuse
    (lambda: Algebra.from_table(-1, {}), "structure constant tensor has wrong shape"),
    (lambda: Algebra.from_table(2, {}, labels=("a",)), "label count does not match dimension"),
    (lambda: form_from_pairs(2, {(1, 3): 1}), r"invalid form index pair \(1, 3\)"),
    (lambda: form_from_pairs(2, {(0, 1): 1}), r"invalid form index pair \(0, 1\)"),
    (lambda: form_from_pairs(2, {(2, 2): 1}), r"invalid form index pair \(2, 2\)"),
    (lambda: ExtensionData(1, [_Z2], [], _GRID, _GRID, _GRID, [[[0]]]),
     "need one F and one G operator per h direction"),
    (lambda: ExtensionData(0, [], [], [], [], [], []), "p must be positive"),
    (lambda: ExtensionData(1, [_Z2], [Matrix.zero(3, 3)], _GRID, _GRID, _GRID, [[[0]]]),
     "operators must be square of equal size"),
    (lambda: ExtensionData(1, [_Z2], [_Z2], [[[0, 0, 0]]], _GRID, _GRID, [[[0]]]),
     "grid vector has wrong length"),
    (lambda: ExtensionData(1, [_Z2], [_Z2], _GRID, _GRID, _GRID, [[[0, 0]]]),
     "grid vector has wrong length"),
    # unchecked, a scalar where a vector belongs raised a bare TypeError
    (lambda: ExtensionData(1, [_Z2], [_Z2], [[0]], _GRID, _GRID, [[[0]]]),
     "grid vector has wrong length"),
    (lambda: ExtensionData(1, [_Z2], [_Z2], _GRID, _GRID, _GRID, [[0]]),
     "grid vector has wrong length"),
    # unchecked, the string "12" was read as the vector (1, 2)
    (lambda: ExtensionData(1, [_Z2], [_Z2], [["12"]], _GRID, _GRID, [[[0]]]),
     "grid vector has wrong length"),
    # unchecked, a missing row raised a bare IndexError and an extra one was dropped
    (lambda: ExtensionData(1, [_Z2], [_Z2], [], _GRID, _GRID, [[[0]]]), "grid must be 1 x 1"),
    (lambda: ExtensionData(1, [_Z2], [_Z2], _GRID, _GRID, _GRID, [[[0]], [[0]]]),
     "grid must be 1 x 1"),
    (lambda: ExtensionData(1, [_Z2], [_Z2], _GRID, [[[0, 0], [0, 0]]], _GRID, [[[0]]]),
     "grid must be 1 x 1"),
])
def test_public_constructors_refuse_out_of_range_indices_and_bad_shapes(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_from_table_accepts_every_coordinate_in_range():
    a = Algebra.from_table(2, {(1, 1): {1: 5, 2: 7}})
    assert a.c[0][0] == (5, 7)
    assert Algebra.from_table(2, {(0, 0): {0: 5, 1: 7}}, one_based=False) == a


def test_witness_describe_uses_one_based_indices_and_plain_rationals():
    w = Witness("jacobi", (0, 1, 2), (Fraction(1), Fraction(-1, 2)))
    assert w.describe() == "jacobi fails at (1, 2, 3) with defect (1, -1/2)"


def _count_walks(monkeypatch):
    """Record the term table of every _slices walk the identity scans start."""
    walks = []
    slices = algebra._slices
    monkeypatch.setattr(algebra, "_slices", lambda a, terms: walks.append(terms) or slices(a, terms))
    return walks


_IDENTITIES = ((is_left_leibniz, algebra._LEFT_LEIBNIZ), (is_right_leibniz, algebra._RIGHT_LEIBNIZ),
               (is_left_symmetric, algebra._LEFT_SYMMETRIC), (is_lie, algebra._JACOBI))


@pytest.mark.parametrize("fid", list_families())
def test_a_second_request_returns_the_kept_report_without_a_walk(monkeypatch, fid):
    a = split(_bumped(instantiate(fid)[0]))[0]  # antisymmetric, so is_lie reaches its scan
    walks = _count_walks(monkeypatch)
    first = [check(a) for check, _ in _IDENTITIES]
    assert walks == [terms for _, terms in _IDENTITIES]
    assert all(check(a) is rep for (check, _), rep in zip(_IDENTITIES, first))
    assert len(walks) == len(_IDENTITIES)


def test_symmetric_leibniz_after_left_leibniz_walks_left_leibniz_once(monkeypatch):
    walks = _count_walks(monkeypatch)
    for a in (_r4(), _dim2(), _rr3_minus1(), _bumped(_r4())):
        walks.clear()
        left = is_left_leibniz(a)
        assert is_symmetric_leibniz(a) == _dense_symmetric_leibniz(a)
        assert left == _dense_left_leibniz(a)
        assert walks.count(algebra._LEFT_LEIBNIZ) == 1


def test_the_kept_reports_never_cross_objects(monkeypatch):
    a = _r4()
    walks = _count_walks(monkeypatch)
    rep = is_left_leibniz(a)
    twin = _r4()
    assert twin == a and twin is not a
    p = _random_invertible(random.Random(4), 4)
    for b in (twin, change_basis(a, Matrix.identity(4)), change_basis(a, p)):
        walks.clear()
        assert is_left_leibniz(b) == _dense_left_leibniz(b)
        assert walks == [algebra._LEFT_LEIBNIZ]
    assert is_left_leibniz(a) is rep
    # a compatibility report is kept per algebra and name for the last form,
    # held and compared by identity: a moved form, an equal form built
    # separately and an equal algebra built separately each run their own scan
    scans = []
    scan = symplectic._compat_scan
    monkeypatch.setattr(symplectic, "_compat_scan",
                        lambda *args: scans.append(args[:2]) or scan(*args))
    good, moved, equal = (form_from_pairs(4, pairs) for pairs in
                          ({(1, 4): 1, (2, 3): 1}, {(1, 3): 1, (2, 4): 1}, {(1, 4): 1, (2, 3): 1}))
    first = is_symplectic_left(a, good)
    assert is_symplectic_left(a, good) is first and first.holds
    other = is_symplectic_left(a, moved)
    assert other.witness.kind == "left-symplectic" and is_symplectic_left(a, moved) is other
    assert is_symplectic_left(a, equal) == first
    assert is_symplectic_left(twin, good) == first and is_symplectic_left(twin, good).holds
    want = [(a, good), (a, moved), (a, equal), (twin, good)]
    assert [tuple(map(id, pair)) for pair in scans] == [tuple(map(id, pair)) for pair in want]


def test_a_kept_failing_report_names_the_witness_a_fresh_scan_names():
    failed = 0
    for fid in list_families():
        base, _ = instantiate(fid)
        bumped = _bumped(base)
        for check, _ in _IDENTITIES:
            first = check(bumped)
            fresh = check(_bumped(base))
            again = check(bumped)  # kept, except is_lie's antisymmetry test, which reruns
            assert again is first or first.witness.kind == "antisymmetry"
            assert first == again == fresh
            assert first.detail == fresh.detail
            if not first.holds:
                failed += 1
                assert first.witness.describe() == fresh.witness.describe()
    assert failed
