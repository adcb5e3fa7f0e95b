"""Exact linear algebra, cross-checked against sympy and a naive oracle."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pivot_columns
from sympleib.exactlin import (
    ZERO,
    Matrix,
    Subspace,
    _dense_rows,
    basis_vector,
    denominator,
    full_subspace,
    int_scaled,
    intersect,
    is_zero_vector,
    kernel,
    rat,
    reduce_rows,
    rref,
    solve,
    solve_unique,
    span,
    subspace_sum,
    vector,
    zero_subspace,
)


def _random_matrix(rng, rows, cols, lo=-6, hi=6):
    return Matrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    )


def _sympy_of(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: sympy.Rational(m.entries[i][j]))


def _naive_row_echelon_rank(m):
    """Independent rank oracle: forward elimination only, no normalization."""
    rows = [list(r) for r in m.entries]
    r = 0
    for c in range(m.cols):
        piv = None
        for i in range(r, m.rows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m.rows):
            if rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rat_accepts_ints_fractions_strings():
    assert rat(3) == Fraction(3)
    assert rat("3/4") == Fraction(3, 4)
    assert rat(Fraction(-2, 7)) == Fraction(-2, 7)
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


def test_rref_permutation():
    m = Matrix.from_rows([[0, 1], [1, 0]])
    assert rref(m) == Matrix.identity(2)


def test_rref_rank_one():
    m = Matrix.from_rows([[2, 4], [1, 2]])
    assert rref(m) == Matrix.from_rows([[1, 2], [0, 0]])


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(3)) == zero_subspace(3)


def test_kernel_of_zero_map_is_everything():
    assert kernel(Matrix.zero(2, 3)) == full_subspace(3)


def test_kernel_single_constraint():
    k = kernel(Matrix.from_rows([[1, 1, 0]]))
    assert k == span(3, [[1, -1, 0], [0, 0, 1]])
    assert k.dim == 2


def test_subspace_equality_is_canonical():
    a = span(3, [[1, 1, 0], [0, 0, 2]])
    b = span(3, [[2, 2, 2], [-1, -1, 3]])
    assert a == b


def test_intersection_examples():
    e = [basis_vector(3, i) for i in range(3)]
    a = span(3, [e[0], e[1]])
    b = span(3, [e[1], e[2]])
    assert intersect(a, b) == span(3, [e[1]])
    assert intersect(a, a) == a
    assert intersect(span(3, [e[0]]), span(3, [e[2]])) == zero_subspace(3)


def test_solve_reports_inconsistency_without_raising():
    m = Matrix.from_rows([[1], [1]])
    x, ker = solve(m, vector([1, 2]))
    assert x is None
    assert ker == zero_subspace(1)


def test_solve_unique():
    m = Matrix.from_rows([[2, 1], [1, -1]])
    x = solve_unique(m, vector([5, 1]))
    assert m.matvec(x) == vector([5, 1])
    assert x == (Fraction(2), Fraction(1))


def test_matrix_inverse_round_trip():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    assert m.inverse() @ m == Matrix.identity(2)
    assert m @ m.inverse() == Matrix.identity(2)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_det_small_cases():
    assert Matrix.identity(4).det() == 1
    assert Matrix.from_rows([[0, 1], [1, 0]]).det() == -1
    assert Matrix.from_rows([[2, 4], [1, 2]]).det() == 0


def test_rref_matches_sympy_on_random_matrices():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        got = rref(m)
        expected, piv = _sympy_of(m).rref()
        assert pivot_columns(got) == tuple(piv)
        for i in range(rows):
            for j in range(cols):
                assert got.entries[i][j] == Fraction(*sympy.fraction(expected[i, j]))


def test_rank_matches_naive_oracle():
    rng = random.Random(12)
    for _ in range(80):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert len(pivot_columns(rref(m))) == _naive_row_echelon_rank(m)


def test_kernel_vectors_satisfy_system_and_dimension_formula():
    rng = random.Random(13)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ker = kernel(m)
        for v in ker.basis.entries:
            assert is_zero_vector(m.matvec(v))
        assert ker.dim == m.cols - len(pivot_columns(rref(m)))
        nullspace = _sympy_of(m).nullspace()
        assert ker.dim == len(nullspace)
        for col in nullspace:
            assert ker.contains(vector([Fraction(*sympy.fraction(x)) for x in col]))


def test_rref_is_idempotent():
    rng = random.Random(14)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r = rref(m)
        assert rref(r) == r


def test_solve_random_consistent_systems():
    rng = random.Random(15)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        target = vector([rng.randint(-6, 6) for _ in range(cols)])
        rhs = m.matvec(target)
        x, ker = solve(m, rhs)
        assert x is not None
        assert m.matvec(x) == rhs
        # the full solution set is x + kernel
        assert ker.contains(tuple(a - b for a, b in zip(target, x)))


def test_intersection_properties_random():
    rng = random.Random(16)
    for _ in range(50):
        n = rng.randint(2, 5)
        a = span(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        b = span(n, [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, n))])
        c = intersect(a, b)
        assert a.contains_subspace(c)
        assert b.contains_subspace(c)
        # dim(a) + dim(b) = dim(a + b) + dim(a ∩ b)
        assert a.dim + b.dim == subspace_sum(a, b).dim + c.dim


def test_det_matches_sympy():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = _random_matrix(rng, n, n)
        assert m.det() == Fraction(*sympy.fraction(_sympy_of(m).det()))


def test_subspace_reduce_is_canonical_modulo_subspace():
    s = span(3, [[1, 2, 0]])
    v = vector([3, 6, 1])
    red = s.reduce(v)
    assert red == vector([0, 0, 1])
    assert s.contains(tuple(a - b for a, b in zip(v, red)))


# ---------------------------------------------------------------------------
# differential tests of the sparse core against sympy, on the shapes the form
# solver produces: tall, mostly zero, with repeated and zero rows

_ENTRY = st.one_of(st.just(ZERO), st.just(ZERO),
                   st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def sparse_matrices(draw, square=False):
    cols = draw(st.integers(0, 6))
    rows = [draw(st.lists(_ENTRY, min_size=cols, max_size=cols))
            for _ in range(cols if square else draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        copy = list(draw(st.sampled_from(rows))) if draw(st.booleans()) else [ZERO] * cols
        if square:
            rows[draw(st.integers(0, len(rows) - 1))] = copy
        else:
            rows.insert(draw(st.integers(0, len(rows))), copy)
    return Matrix(len(rows), cols, tuple(tuple(r) for r in rows))


def _sympy_exact(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for row in m.entries for x in row])


def _frac(x):
    return Fraction(int(x.p), int(x.q))


def _canonical_rows(vectors, cols):
    """RREF rows, by sympy, of the span of sympy column vectors."""
    if not vectors:
        return ()
    red, _ = sympy.Matrix.hstack(*vectors).T.rref()
    return tuple(tuple(_frac(red[i, j]) for j in range(cols))
                 for i in range(red.rows) if any(red[i, j] != 0 for j in range(cols)))


_DIFFERENTIAL = settings(max_examples=100, deadline=None)


@_DIFFERENTIAL
@given(sparse_matrices())
def test_rref_equals_sympy(m):
    expected, pivots = _sympy_exact(m).rref()
    got = rref(m)
    assert (got.rows, got.cols) == (m.rows, m.cols)
    assert pivot_columns(got) == tuple(pivots)
    assert got.entries == tuple(tuple(_frac(expected[i, j]) for j in range(m.cols))
                                for i in range(m.rows))


@_DIFFERENTIAL
@given(sparse_matrices())
def test_kernel_equals_sympy(m):
    ker = kernel(m)
    assert ker.basis.entries == _canonical_rows(_sympy_exact(m).nullspace(), m.cols)
    sparse = kernel(({j: x for j, x in enumerate(r) if x} for r in m.entries), m.cols)
    assert sparse == ker


@_DIFFERENTIAL
@given(sparse_matrices(), st.data())
def test_solve_equals_sympy(m, data):
    rhs = data.draw(st.lists(_ENTRY, min_size=m.rows, max_size=m.rows))
    x, ker = solve(m, rhs)
    assert ker == kernel(m)
    try:
        sol, params = _sympy_exact(m).gauss_jordan_solve(
            sympy.Matrix(m.rows, 1, [sympy.Rational(v.numerator, v.denominator) for v in rhs]))
    except ValueError:
        assert x is None
        return
    particular = sol.subs({t: 0 for t in params})
    assert x == tuple(_frac(particular[i, 0]) for i in range(m.cols))


@_DIFFERENTIAL
@given(sparse_matrices(square=True))
def test_inverse_and_det_equal_sympy(m):
    s = _sympy_exact(m)
    assert m.det() == _frac(s.det())
    if s.det() == 0:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        inv = s.inv()
        assert m.inverse().entries == tuple(tuple(_frac(inv[i, j]) for j in range(m.cols))
                                            for i in range(m.rows))


def test_empty_matrix_det_is_one():
    assert Matrix.zero(0, 0).det() == 1
    assert Matrix.zero(0, 0).inverse() == Matrix.zero(0, 0)
    assert kernel(Matrix.zero(0, 3)) == full_subspace(3)


def test_sparse_rows_need_a_column_count():
    with pytest.raises(ValueError):
        kernel([{0: Fraction(1)}])


@st.composite
def _product_factors(draw):
    """Two sparse fractional matrices a (r x k) and b (k x c), sides 0..5, with
    some rows and columns of each forced to zero."""
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))

    def matrix(rows, cols):
        ents = [draw(st.lists(_ENTRY, min_size=cols, max_size=cols)) for _ in range(rows)]
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=rows)) if rows else ():
            ents[i] = [ZERO] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=cols)) if cols else ():
            for row in ents:
                row[j] = ZERO
        return Matrix(rows, cols, tuple(map(tuple, ents)))
    return matrix(r, k), matrix(k, c)


def _dense_product(a, b):
    return tuple(tuple(sum((a.entries[i][t] * b.entries[t][j] for t in range(a.cols)), ZERO)
                       for j in range(b.cols)) for i in range(a.rows))


@_DIFFERENTIAL
@given(_product_factors(), st.data())
def test_matmul_and_matvec_equal_the_dense_sums(factors, data):
    a, b = factors
    got = a @ b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got.entries == _dense_product(a, b)
    assert all(type(x) is Fraction for row in got.entries for x in row)
    v = tuple(data.draw(st.lists(_ENTRY, min_size=a.cols, max_size=a.cols)))
    column = Matrix(a.cols, 1, tuple((x,) for x in v))
    assert a.matvec(v) == tuple(row[0] for row in _dense_product(a, column))
    assert all(type(x) is Fraction for x in a.matvec(v))


@_DIFFERENTIAL
@given(_product_factors(), st.data())
def test_entrywise_operations_equal_the_dense_ones(factors, data):
    a, _ = factors
    b = Matrix(a.rows, a.cols, tuple(
        tuple(data.draw(_ENTRY) for _ in range(a.cols)) for _ in range(a.rows)))
    c = data.draw(_ENTRY)
    cases = ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y),
             (a.scale(c), lambda x, y: c * x), (-a, lambda x, y: -x))
    for got, op in cases:
        assert got.entries == tuple(tuple(op(x, y) for x, y in zip(r, s))
                                    for r, s in zip(a.entries, b.entries))
        assert all(type(x) is Fraction for row in got.entries for x in row)


def test_products_reject_mismatched_shapes():
    with pytest.raises(ValueError):
        Matrix.zero(2, 3) @ Matrix.zero(2, 3)
    with pytest.raises(ValueError):
        Matrix.zero(2, 3).matvec((ZERO, ZERO))
    assert Matrix.zero(0, 3).matvec((ZERO,) * 3) == ()
    assert (Matrix.zero(2, 0) @ Matrix.zero(0, 4)) == Matrix.zero(2, 4)


# ---------------------------------------------------------------------------
# the fraction-free core on int, Fraction and mixed sparse rows, with
# numerators up to 2^64 and nontrivial denominators, against sympy

_INT = st.integers(-2 ** 64, 2 ** 64)
_FRACTION = st.builds(Fraction, _INT, st.integers(1, 10 ** 6))
_VALUES = {"int": _INT, "fraction": _FRACTION, "mixed": st.one_of(_INT, _FRACTION)}
_CORE = settings(max_examples=60, deadline=None)


@st.composite
def sparse_systems(draw, square=False):
    """(cols, rows): sparse rows {column: nonzero value} whose values are all
    ints, all Fractions or both, with some rows repeated times a scalar."""
    value = _VALUES[draw(st.sampled_from(sorted(_VALUES)))]
    entry = st.one_of(st.just(0), st.just(0), value)
    cols = draw(st.integers(1, 5))
    rows = [{j: x for j in range(cols) if (x := draw(entry))}
            for _ in range(cols if square else draw(st.integers(1, 7)))]
    for _ in range(draw(st.integers(0, 2))):
        c = draw(value.filter(bool))
        copy = {j: c * x for j, x in draw(st.sampled_from(rows)).items()}
        if square:
            rows[draw(st.integers(0, cols - 1))] = copy
        else:
            rows.insert(draw(st.integers(0, len(rows))), copy)
    return cols, rows


def _matrix_of(cols, rows):
    return Matrix.from_rows([[row.get(j, 0) for j in range(cols)] for row in rows])


@st.composite
def unit_systems(draw, square=False):
    """sparse_systems with single-entry rows put in at drawn places: one with
    a Fraction value, one per further drawn column, rows whose only other
    entries sit on those columns (so one entry is left once they are dropped),
    and a zero written as a one-entry row."""
    cols, rows = draw(sparse_systems(square))
    value = _VALUES["mixed"].filter(bool)
    units = draw(st.lists(st.integers(0, cols - 1), min_size=1, max_size=cols))
    extra = [{units[0]: draw(_FRACTION.filter(bool))}]
    extra += [{u: draw(value)} for u in units[1:]]
    free = [j for j in range(cols) if j not in units]
    for _ in range(draw(st.integers(0, 2)) if free else 0):
        on = draw(st.lists(st.sampled_from(units), min_size=1, max_size=2))
        extra.append({draw(st.sampled_from(free)): draw(value), **{u: draw(value) for u in on}})
    extra.append({draw(st.integers(0, cols - 1)): 0})
    for row in extra:
        if square:
            rows[draw(st.integers(0, cols - 1))] = row
        else:
            rows.insert(draw(st.integers(0, len(rows))), row)
    return cols, rows


def _assert_kernel_and_rref_equal_sympy(cols, rows):
    m = _matrix_of(cols, rows)
    s = _sympy_exact(m)
    assert kernel(rows, cols).basis.entries == _canonical_rows(s.nullspace(), cols)
    assert kernel(m) == kernel(rows, cols)
    expected, pivots = s.rref()
    dense = tuple(tuple(_frac(expected[i, j]) for j in range(cols)) for i in range(m.rows))
    assert rref(m).entries == dense
    assert _dense_rows(reduce_rows(rows), cols) == dense[:len(pivots)]


@_CORE
@given(sparse_systems())
def test_core_kernel_and_rref_equal_sympy(system):
    _assert_kernel_and_rref_equal_sympy(*system)


@_CORE
@given(unit_systems())
def test_core_kernel_and_rref_with_single_entry_rows_equal_sympy(system):
    _assert_kernel_and_rref_equal_sympy(*system)


def _assert_solve_equals_sympy(cols, rows, rhs):
    m = _matrix_of(cols, rows)
    x, ker = solve(m, rhs)
    assert ker == kernel(rows, cols)
    try:
        sol, params = _sympy_exact(m).gauss_jordan_solve(
            sympy.Matrix(m.rows, 1, [sympy.Rational(v.numerator, v.denominator) for v in rhs]))
    except ValueError:
        assert x is None
        return
    particular = sol.subs({t: 0 for t in params})
    assert x == tuple(_frac(particular[i, 0]) for i in range(cols))


@_CORE
@given(sparse_systems(), st.data())
def test_core_solve_equals_sympy(system, data):
    cols, rows = system
    rhs = [Fraction(x) for x in data.draw(st.lists(_VALUES["mixed"], min_size=len(rows),
                                                   max_size=len(rows)))]
    _assert_solve_equals_sympy(cols, rows, rhs)


@_CORE
@given(unit_systems(), st.data())
def test_core_solve_with_single_entry_rows_equals_sympy(system, data):
    """Half the time the right-hand side is m x for a drawn x, so that the
    system is consistent; a zero row of m with a nonzero right-hand side
    makes the single-entry row [0 | v] on the augmented column."""
    cols, rows = system
    if data.draw(st.booleans()):
        x = data.draw(st.lists(_VALUES["mixed"], min_size=cols, max_size=cols))
        rhs = [sum((Fraction(v) * x[j] for j, v in row.items()), ZERO) for row in rows]
    else:
        rhs = [Fraction(v) for v in data.draw(st.lists(_VALUES["mixed"], min_size=len(rows),
                                                       max_size=len(rows)))]
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(rows)))
        rows = rows[:at] + [{}] + rows[at:]
        rhs = rhs[:at] + [Fraction(data.draw(_VALUES["mixed"].filter(bool)))] + rhs[at:]
    _assert_solve_equals_sympy(cols, rows, rhs)


def _assert_inverse_equals_sympy(cols, rows):
    m = _matrix_of(cols, rows)
    s = _sympy_exact(m)
    if s.det() == 0:
        with pytest.raises(ValueError):
            m.inverse()
    else:
        inv = s.inv()
        assert m.inverse().entries == tuple(tuple(_frac(inv[i, j]) for j in range(m.cols))
                                            for i in range(m.rows))


@_CORE
@given(sparse_systems(square=True))
def test_core_inverse_equals_sympy(system):
    _assert_inverse_equals_sympy(*system)


@_CORE
@given(unit_systems(square=True))
def test_core_inverse_with_single_entry_rows_equals_sympy(system):
    _assert_inverse_equals_sympy(*system)


def _assert_pivots_are_primitive_and_independent_of_row_order(rows, rng):
    pivots = reduce_rows(rows)
    for p, row in pivots.items():
        assert all(type(x) is int for x in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1 and min(row) == p
        assert all(q == p or q not in row for q in pivots)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert reduce_rows(shuffled) == pivots
    assert reduce_rows(reversed(rows)) == pivots
    assert reduce_rows(dict(row) for row in rows) == pivots  # a one-shot generator


@_CORE
@given(sparse_systems(), st.randoms(use_true_random=False))
def test_core_pivots_are_primitive_and_independent_of_row_order(system, rng):
    _assert_pivots_are_primitive_and_independent_of_row_order(system[1], rng)


@_CORE
@given(unit_systems(), st.randoms(use_true_random=False))
def test_core_pivots_with_single_entry_rows_are_primitive_and_order_free(system, rng):
    cols, rows = system
    _assert_pivots_are_primitive_and_independent_of_row_order(rows, rng)
    pivots = reduce_rows(rows)
    for row in rows:
        if len(row) == 1 and any(row.values()):
            (c, _), = row.items()
            assert pivots[c] == {c: 1}


def test_single_entry_rows_become_unit_pivots_and_leave_the_other_rows():
    # {0: 4, 2: 5} keeps one entry once column 2 is dropped; the Fraction
    # single entry -3/7 at column 2 only says that coordinate is 0
    rows = [{2: Fraction(-3, 7)}, {0: 4, 2: 5}, {1: 6, 3: -2, 2: 1}, {3: 0}]
    assert reduce_rows(iter(rows)) == {2: {2: 1}, 0: {0: 1}, 1: {1: 3, 3: -1}}
    assert kernel(rows, 4).basis.entries == ((0, 1, 0, 3),)


def _sparse_int_scale(rows):
    d, scaled = int_scaled(rows)
    return d, tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in scaled)


@_CORE
@given(sparse_systems())
def test_int_basis_is_the_basis_scaled_to_ints(system):
    cols, rows = system
    dense = [[row.get(j, 0) for j in range(cols)] for row in rows]
    for space in (span(cols, dense), kernel(rows, cols)):
        assert space.int_basis == _sparse_int_scale(space.basis.entries)
        assert Subspace(space.ambient_dim, space.basis).int_basis == space.int_basis


def _primes(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_ENTRY, max_size=5), max_size=4), st.integers(1, 12))
def test_int_scaled_uses_the_least_scale_and_any_multiple_of_it(rows, k):
    s, scaled = int_scaled(iter(rows))
    assert s == denominator(x for r in rows for x in r)
    assert [len(t) for t in scaled] == [len(r) for r in rows]
    assert all(type(y) is int and y == s * x for r, t in zip(rows, scaled) for x, y in zip(r, t))
    # s is the least scale: s / q leaves some entry a proper fraction, for each prime q | s
    for q in _primes(s):
        assert any((s // q * x).denominator != 1 for r in rows for x in r)
    assert int_scaled(rows, k * s) == (k * s, tuple(tuple(k * y for y in t) for t in scaled))
