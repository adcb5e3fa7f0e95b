"""Exact rational linear algebra.

Matrices over ``fractions.Fraction``, reduced row echelon form, kernels,
canonical subspaces, and exact linear solving.  There is no floating point
anywhere in this package; every comparison is exact and every tolerance is
zero.

All row reduction runs on one sparse, fraction-free core, ``reduce_rows``:
rows are held as ``{column: nonzero value}`` maps; a single-entry row is a
unit pivot as it stands, and the other rows drop its column, are scaled to
ints and merged one at a time into pivot rows by cross-multiplying with
gcd-reduced factors, so zero entries cost nothing and zero or repeated rows
die after one pass against the pivots.  Each pivot row is kept primitive: it
is the one int multiple with a positive lead of its row of the RREF, whatever
order the rows arrive in.  ``rref``, ``kernel``, ``solve``, ``span``,
``row_space``, ``intersect`` and ``Matrix.inverse`` read their answers off
that core and divide by the lead only there, at the output.  A subspace keeps
its int pivot rows (``Subspace.int_pivots``): its pivots, its int basis and
its int reduction (``Subspace.int_reduce``) are read off them, for callers
that go on over ints, and ``intersect`` stacks the int annihilator rows of
both inputs.  Determinants are computed
apart from it, by Bareiss fraction-free elimination over ints (``int_det``).
``int_scaled`` (dense rows) and ``int_scaled_pairs`` (sparse pair lists) are
where a table of Fractions is carried over to ints, as (s, s times the table)
for s the lcm of its denominators: for the int views of ``algebra``,
``symplectic`` and ``extension``; the determinant scales its rows the same
way, straight into the lists it eliminates in.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def rat(x) -> Fraction:
    """Coerce an int, a Fraction, or a string like ``"3/4"`` to a Fraction.

    Floats are rejected on purpose: exactness is a contract, not an option.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):  # bool is an int subclass but makes no sense here
        raise TypeError("cannot interpret a bool as a rational")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational (floats are not allowed)")


# ---------------------------------------------------------------------------
# vectors: plain tuples of Fraction

def vector(xs: Iterable) -> tuple[Fraction, ...]:
    xs = tuple(xs)
    return xs if all(type(x) is Fraction for x in xs) else tuple(map(rat, xs))


def vzero(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def basis_vector(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vscale(c: Fraction, u: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * a for a in u)


def is_zero_vector(u: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in u)


def denominator(values: Iterable[Fraction]) -> int:
    """The lcm of the denominators: the least s >= 1 with every s * x an int."""
    return lcm(*(x.denominator for x in values if x is not ZERO))


def int_scaled(rows: Iterable[Sequence[Fraction]], s: Optional[int] = None
               ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(s, the rows times s as int tuples), s the ``denominator`` of the entries unless a
    multiple of it is given; the shared ZERO, as most zeros are, costs no arithmetic."""
    rows = tuple(rows)
    if s is None:
        s = denominator(chain.from_iterable(rows))
    return s, tuple(tuple(0 if x is ZERO else x.numerator * (s // x.denominator) for x in r)
                    for r in rows)


def int_scaled_pairs(table: Sequence[Sequence[Sequence[tuple[int, Fraction]]]]
                     ) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
    """``int_scaled`` for a table of sparse pair lists, such as ``Algebra.nz``:
    (s, the table with each pair (k, x) as (k, s * x)), s the lcm of the
    denominators of the values; an empty list, as most are, is ()."""
    s = lcm(*{x.denominator for row in table for pairs in row for _, x in pairs})
    return s, tuple([tuple([tuple([(k, x.numerator * (s // x.denominator)) for k, x in pairs])
                            if pairs else () for pairs in row]) for row in table])


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.entries:
            if len(r) != self.cols:
                raise ValueError("column count mismatch")

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Matrix":
        ents = tuple(tuple(rat(x) for x in row) for row in rows)
        nr = len(ents)
        nc = len(ents[0]) if ents else 0
        return Matrix(nr, nc, ents)

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple((ZERO,) * cols for _ in range(rows)))

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(basis_vector(n, i) for i in range(n)))

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)

    # entrywise operations do no arithmetic where an operand is zero
    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(a + b if a and b else a or b for a, b in zip(r, s))
                            for r, s in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(tuple((a - b if a else -b) if b else a for a, b in zip(r, s))
                            for r, s in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(self.rows, self.cols,
                      tuple(tuple(c * a if a else a for a in r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, summed over the nonzero factor pairs only."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        n = other.cols
        right = [_sparse(r).items() for r in other.entries]
        ents = []
        for row in self.entries:
            out = [ZERO] * n
            for k, a in enumerate(row):
                if a:
                    for j, b in right[k]:
                        out[j] += a * b
            ents.append(tuple(out))
        return Matrix(self.rows, n, tuple(ents))

    def matvec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """M v, summed over the nonzero coordinates of v and entries of M only."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        nz = _sparse(v).items()
        return tuple(sum((row[j] * y for j, y in nz if row[j]), ZERO) for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

    def is_zero(self) -> bool:
        return all(is_zero_vector(r) for r in self.entries)

    def det(self) -> Fraction:
        """Bareiss elimination over ints: det(s M) / s^n for s M scaled as by
        ``int_scaled``, built straight into the mutable rows ``int_det`` works in.
        No library path calls it: the tests keep it as the oracle for
        ``SkewForm.nondegenerate``, which is a rank."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        s = denominator(chain.from_iterable(self.entries))
        rows = [[0 if x is ZERO else x.numerator * (s // x.denominator) for x in r]
                for r in self.entries]
        return Fraction(int_det(rows), s ** self.rows)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        pivots = reduce_rows({**_sparse(r), n + i: 1} for i, r in enumerate(self.entries))
        if any(i not in pivots for i in range(n)):
            raise ValueError("matrix is singular")
        # the RREF of [M | I] is [I | M^-1]
        return Matrix(n, n, _dense_rows(pivots, n, start=n))

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


# ---------------------------------------------------------------------------
# row reduction


def int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Every intermediate entry is a minor of the input, so each division is
    exact and no fraction is ever formed.  The rows are overwritten.
    """
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        if not rows[k][k]:
            piv = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if piv is None:
                return 0
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top = rows[k]
        akk = top[k]
        for i in range(k + 1, n):
            row = rows[i]
            aik = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * akk - aik * top[j]) // prev
        prev = akk
    return sign * prev


def _sparse(row: Sequence[Fraction]) -> dict[int, Fraction]:
    return {j: x for j, x in enumerate(row) if x}


def _primitive(r: dict[int, int], sign: int = 1) -> dict[int, int]:
    """r divided by the gcd of its entries, times sign."""
    g = sign * gcd(*r.values())
    return r if g == 1 else {j: x // g for j, x in r.items()}


def _clear(r: dict[int, int], p: Mapping[int, int], c: int) -> None:
    """r times a minus p times f in place, with a = p[c] / g > 0 and
    f = r[c] / g for g = gcd(p[c], r[c]): r then vanishes at column c."""
    g = gcd(p[c], r[c])
    a, f = p[c] // g, r[c] // g
    if a != 1:
        for j in r:
            r[j] *= a
    for j, y in p.items():
        v = r.get(j, 0) - f * y
        if v:
            r[j] = v
        else:
            del r[j]


def reduce_rows(rows: Iterable[Mapping[int, int | Fraction]]) -> dict[int, dict[int, int]]:
    """The pivot rows of the span of ``rows``, keyed by pivot column, over ints.

    Rows are sparse maps ``{column: value}`` of ints or Fractions.  A
    single-entry row {c: x} says x_c = 0: it is the pivot {c: 1} as it is,
    and column c is dropped from the other rows.  Each of those is scaled by
    the lcm of its denominators (a row of ints is taken as it is, with no
    lcm and no rescaling) and cleared against the pivots so far by
    cross-multiplying with gcd-reduced factors, so nothing is divided; what
    is left is made primitive with a positive lead at its smallest column,
    which is cleared from the earlier pivot rows, each made primitive again.
    So every pivot row leads at its own column, is zero at the other pivot
    columns, and is the one primitive int multiple with a positive lead of its
    row of the RREF, whatever the order of the rows.  The callers divide by
    the lead once, at the output.
    """
    rows = list(rows)
    units = {c: {c: 1} for row in rows if len(row) == 1 for c, x in row.items() if x}
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(row) == 1:
            continue
        if all(type(x) is int for x in row.values()):  # already over ints
            r = {j: x for j, x in row.items() if x and j not in units}
        else:
            d = lcm(*[x.denominator for x in row.values()])
            r = {j: x.numerator * (d // x.denominator) for j, x in row.items()
                 if x and j not in units}
        # a pivot row is zero at the other pivot columns, so clearing one
        # pivot column of r never touches another
        for c in r.keys() & pivots.keys():
            _clear(r, pivots[c], c)
        if not r:
            continue
        lead = min(r)
        r = _primitive(r, 1 if r[lead] > 0 else -1)
        for c, p in pivots.items():
            if lead in p:  # r is zero at c, so p stays positive there
                _clear(p, r, lead)
                pivots[c] = _primitive(p)
        pivots[lead] = r
    pivots.update(units)
    return pivots


def _dense_rows(pivots: Mapping[int, Mapping[int, int]], cols: int, start: int = 0
                ) -> tuple[tuple[Fraction, ...], ...]:
    """The RREF rows of ``pivots`` in pivot order, at columns start .. start + cols - 1."""
    out = []
    for p, row in sorted(pivots.items()):
        lead, dense = row[p], [ZERO] * cols
        for j, x in row.items():
            if start <= j < start + cols:
                # the lead divides to 1, which needs no new Fraction
                dense[j - start] = ONE if x == lead else Fraction(x, lead)
        out.append(tuple(dense))
    return tuple(out)


def row_space(ambient_dim: int, rows: Iterable[Mapping[int, int | Fraction]]) -> "Subspace":
    """The canonical subspace spanned by sparse rows ``{column: value}`` of
    ints or Fractions, their columns below ``ambient_dim``: the RREF of
    ``reduce_rows``, which the subspace keeps as its int pivot rows."""
    pivots = reduce_rows(rows)
    basis = _dense_rows(pivots, ambient_dim)
    space = Subspace(ambient_dim, Matrix(len(basis), ambient_dim, basis))
    space.__dict__["int_pivots"] = pivots  # the cached property, filled in
    return space


def _annihilator_rows(pivots: Mapping[int, Mapping[int, int]], cols: int) -> list[dict[int, int]]:
    """Int rows spanning the kernel of the row space held by ``pivots``: per
    free column f, the vector that is 1 at f, 0 at the other free columns and
    -row[f] / lead at each pivot, times the lcm of the leads it reads.  A free
    column that no pivot row reads gives the unit row {f: 1}."""
    reads: dict[int, list] = {f: [] for f in range(cols) if f not in pivots}
    for p, row in pivots.items():
        for j, x in row.items():
            if j != p:  # a pivot row is zero at the other pivot columns
                reads[j].append((p, row[p], x))
    vecs = []
    for f, terms in reads.items():
        if terms:
            m = lcm(*(lead for _, lead, _ in terms))
            vecs.append({f: m, **{p: -x * (m // lead) for p, lead, x in terms}})
        else:
            vecs.append({f: 1})
    return vecs


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form; row space preserved, pivots are 1, zero rows last."""
    rows = _dense_rows(reduce_rows(map(_sparse, m.entries)), m.cols)
    return Matrix(m.rows, m.cols, rows + ((ZERO,) * m.cols,) * (m.rows - len(rows)))


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held by its canonical basis.

    The basis matrix is in RREF with zero rows pruned, so two subspaces are
    equal exactly when their dataclass fields are equal.  A subspace built by
    the elimination core keeps its int pivot rows (``int_pivots``); the
    pivots, the int basis and the reductions are read off them.
    """

    ambient_dim: int
    basis: Matrix

    @property
    def dim(self) -> int:
        return self.basis.rows

    @cached_property
    def int_pivots(self) -> dict[int, dict[int, int]]:
        """The primitive int pivot rows of the basis, keyed by pivot column, as
        ``reduce_rows`` returns them: kept by the core that built the subspace,
        or, for a subspace built directly, reduced again from its basis."""
        return reduce_rows(map(_sparse, self.basis.entries))

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(sorted(self.int_pivots))

    @cached_property
    def int_basis(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(d, rows): d is the lcm of the denominators of the basis, and each
        row holds the pairs (column, d * entry) of its nonzero entries, in
        column order, as ints.

        It is read off the primitive pivot rows the basis was divided from,
        so d is the lcm of their leads.
        """
        pivots = self.int_pivots
        d = lcm(*(row[p] for p, row in pivots.items()))
        return d, tuple(tuple(sorted((j, x * (d // row[p])) for j, x in row.items()))
                        for p, row in sorted(pivots.items()))

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vector(self.reduce(v))

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Subtract basis rows to zero out the pivot coordinates of v.

        The result is zero iff v lies in the subspace; in general it is the
        canonical representative of v modulo the subspace.  It is
        ``int_reduce`` of v times the lcm t of its denominators, divided by
        d t once per nonzero entry.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        t, (row,) = int_scaled([v])
        out = self.int_reduce((j, x) for j, x in enumerate(row) if x)
        dt = self.int_basis[0] * t
        return tuple(Fraction(out[j], dt) if j in out else ZERO for j in range(self.ambient_dim))

    def int_reduce(self, v: Iterable[tuple[int, int]]) -> dict[int, int]:
        """``reduce`` over ints: for an int vector v, given as its pairs
        (column, value), d times the reduction of v, as its nonzero entries
        {column: value}, with (d, rows) the ``int_basis``.  A basis row is zero
        at the other pivot columns, so its coefficient is read off v itself."""
        d, rows = self.int_basis
        v = dict(v)
        out = {j: d * x for j, x in v.items()}
        for p, row in zip(self.pivots, rows):
            f = v.get(p)
            if f:
                for j, y in row:
                    out[j] = out.get(j, 0) - f * y
        return {j: x for j, x in out.items() if x}

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(not self.int_reduce(row) for row in other.int_basis[1])

    def is_zero(self) -> bool:
        return self.dim == 0


def span(ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    rows = [vector(v) for v in vectors]
    for v in rows:
        if len(v) != ambient_dim:
            raise ValueError("ambient dimension mismatch")
    return row_space(ambient_dim, map(_sparse, rows))


def zero_subspace(n: int) -> Subspace:
    return span(n, [])


def full_subspace(n: int) -> Subspace:
    return span(n, [basis_vector(n, i) for i in range(n)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return row_space(a.ambient_dim, [*a.int_pivots.values(), *b.int_pivots.values()])


def kernel(m: Matrix | Iterable[Mapping[int, int | Fraction]], cols: Optional[int] = None
           ) -> Subspace:
    """Canonical basis of {v : m v = 0}.

    ``m`` is a Matrix, or an iterable of sparse rows ``{column: nonzero int
    or Fraction}`` with ``cols`` columns, for systems too sparse to build
    densely.
    """
    if isinstance(m, Matrix):
        m, cols = map(_sparse, m.entries), m.cols
    elif cols is None:
        raise ValueError("sparse rows need a column count")
    return row_space(cols, _annihilator_rows(reduce_rows(m), cols))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of stacked annihilator constraints.

    The annihilator of a subspace with basis matrix B is kernel(B); a vector
    lies in the subspace iff every annihilator row kills it, so stacking the
    annihilators of both inputs cuts out the intersection without needing any
    bilinear form.  Each annihilator is spanned by int rows read off the int
    pivot rows, one per free column, and the stack goes to ``kernel`` as
    sparse rows.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    return kernel(_annihilator_rows(a.int_pivots, n) + _annihilator_rows(b.int_pivots, n), n)


def solve(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Optional[tuple[Fraction, ...]], Subspace]:
    """One particular solution of m x = rhs (or None) plus kernel(m).

    Absence of a solution is reported through the None slot, never raised.
    """
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    n = m.cols

    def augmented():
        for r, v in zip(m.entries, rhs):
            row, v = _sparse(r), rat(v)
            if v:
                row[n] = v
            yield row
    pivots = reduce_rows(augmented())
    # the RREF of [m | rhs], cut to its first n columns, is the RREF of m
    ker = row_space(n, _annihilator_rows({p: {j: x for j, x in row.items() if j < n}
                                          for p, row in pivots.items() if p < n}, n))
    if n in pivots:
        return None, ker
    x = [ZERO] * n
    for p, row in pivots.items():
        if n in row:
            x[p] = Fraction(row[n], row[p])
    return tuple(x), ker


def solve_unique(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve m x = rhs when the solution must exist and be unique."""
    x, ker = solve(m, rhs)
    if x is None:
        raise ValueError("inconsistent linear system")
    if ker.dim != 0:
        raise ValueError("linear system is underdetermined")
    return x
