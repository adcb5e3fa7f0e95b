"""Exact rational linear algebra.

Matrices over ``fractions.Fraction``, reduced row echelon form, kernels,
canonical subspaces, and exact linear solving.  There is no floating point
anywhere in this package; every comparison is exact and every tolerance is
zero.

All row reduction runs on one sparse core, ``reduce_rows``: rows are held as
``{column: nonzero value}`` maps and merged one at a time into fully reduced
pivot rows, so zero entries cost nothing and zero or repeated rows die after
one pass against the pivots.  ``rref``, ``kernel``, ``solve``, ``span``,
``intersect`` and ``Matrix.inverse`` all read their answers off that core;
because the RREF of a row space is unique, the order in which rows arrive
never shows in a result.  Determinants are computed apart from it, by Bareiss
fraction-free elimination over Python ints (``int_det``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    return tuple(rat(x) for x in xs)


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
        """Determinant by Bareiss elimination over Python ints.

        Each row is scaled once by the lcm of its denominators; the integer
        determinant is then divided by the product of those scales.
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        scale = 1
        rows = []
        for r in self.entries:
            d = lcm(*(x.denominator for x in r))
            rows.append([x.numerator * (d // x.denominator) for x in r])
            scale *= d
        return Fraction(int_det(rows), scale)

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        pivots = reduce_rows({**_sparse(r), n + i: ONE} for i, r in enumerate(self.entries))
        if any(i not in pivots for i in range(n)):
            raise ValueError("matrix is singular")
        return Matrix(n, n, tuple(tuple(pivots[i].get(n + j, ZERO) for j in range(n))
                                  for i in range(n)))

    def _same_shape(self, other: "Matrix") -> None:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")


def vstack(mats: Sequence[Matrix]) -> Matrix:
    mats = [m for m in mats if m.rows > 0]
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise ValueError("column counts differ")
    return Matrix.from_rows([r for m in mats for r in m.entries])


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


def reduce_rows(rows: Iterable[Mapping[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """The fully reduced pivot rows of the span of ``rows``, keyed by pivot column.

    Rows are sparse maps ``{column: nonzero Fraction}``.  Each incoming row is
    cleared against the pivots found so far; whatever is left is scaled to
    lead with 1 at its smallest column, which is then cleared from the
    earlier pivot rows.  Every pivot row thus leads at its own column and
    vanishes at every other pivot column, so the rows sorted by pivot are the
    RREF of the input, whatever order the rows came in.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        r = dict(row)
        # a pivot row is zero at the other pivot columns, so clearing one
        # pivot column of r never touches another
        for c in [c for c in r if c in pivots]:
            f = r[c]
            for j, y in pivots[c].items():
                v = r.get(j, ZERO) - f * y
                if v:
                    r[j] = v
                else:
                    del r[j]
        if not r:
            continue
        lead = min(r)
        if r[lead] != 1:
            d = r[lead]
            r = {j: x / d for j, x in r.items()}
        for p in pivots.values():
            f = p.get(lead)
            if f:
                for j, y in r.items():
                    v = p.get(j, ZERO) - f * y
                    if v:
                        p[j] = v
                    else:
                        del p[j]
        pivots[lead] = r
    return pivots


def _dense_rows(pivots: Mapping[int, Mapping[int, Fraction]], cols: int
                ) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(row.get(j, ZERO) for j in range(cols))
                 for _, row in sorted(pivots.items()))


def _subspace(ambient_dim: int, rows: Iterable[Mapping[int, Fraction]]) -> "Subspace":
    basis = _dense_rows(reduce_rows(rows), ambient_dim)
    return Subspace(ambient_dim, Matrix(len(basis), ambient_dim, basis))


def _null_space(pivots: Mapping[int, Mapping[int, Fraction]], cols: int) -> "Subspace":
    """Canonical kernel of the RREF held by ``pivots``: one vector per free column."""
    vecs = []
    for f in range(cols):
        if f not in pivots:
            v = {f: ONE}
            for p, row in pivots.items():
                x = row.get(f)
                if x:
                    v[p] = -x
            vecs.append(v)
    return _subspace(cols, vecs)


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form; row space preserved, pivots are 1, zero rows last."""
    rows = _dense_rows(reduce_rows(map(_sparse, m.entries)), m.cols)
    return Matrix(m.rows, m.cols, rows + ((ZERO,) * m.cols,) * (m.rows - len(rows)))


def pivot_columns(reduced: Matrix) -> tuple[int, ...]:
    """Pivot columns of a matrix already in RREF (first nonzero per row)."""
    pivs = []
    for row in reduced.entries:
        j = next((k for k, x in enumerate(row) if x != 0), None)
        if j is not None:
            pivs.append(j)
    return tuple(pivs)


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held by its canonical basis.

    The basis matrix is in RREF with zero rows pruned, so two subspaces are
    equal exactly when their dataclass fields are equal.
    """

    ambient_dim: int
    basis: Matrix

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> tuple[int, ...]:
        return pivot_columns(self.basis)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vector(self.reduce(v))

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Subtract basis rows to zero out the pivot coordinates of v.

        The result is zero iff v lies in the subspace; in general it is the
        canonical representative of v modulo the subspace.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        w = list(v)
        for row, p in zip(self.basis.entries, self.pivots):
            if w[p] != 0:
                f = w[p]  # pivot entries are 1 in RREF
                w = [a - f * b for a, b in zip(w, row)]
        return tuple(w)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.basis.entries)

    def is_zero(self) -> bool:
        return self.dim == 0


def span(ambient_dim: int, vectors: Iterable[Sequence]) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    rows = [vector(v) for v in vectors]
    for v in rows:
        if len(v) != ambient_dim:
            raise ValueError("ambient dimension mismatch")
    return _subspace(ambient_dim, map(_sparse, rows))


def zero_subspace(n: int) -> Subspace:
    return span(n, [])


def full_subspace(n: int) -> Subspace:
    return span(n, [basis_vector(n, i) for i in range(n)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return span(a.ambient_dim, list(a.basis.entries) + list(b.basis.entries))


def kernel(m: Matrix | Iterable[Mapping[int, Fraction]], cols: Optional[int] = None
           ) -> Subspace:
    """Canonical basis of {v : m v = 0}.

    ``m`` is a Matrix, or an iterable of sparse rows ``{column: nonzero
    Fraction}`` with ``cols`` columns, for systems too sparse to build densely.
    """
    if isinstance(m, Matrix):
        return _null_space(reduce_rows(map(_sparse, m.entries)), m.cols)
    if cols is None:
        raise ValueError("sparse rows need a column count")
    return _null_space(reduce_rows(m), cols)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of stacked annihilator constraints.

    The annihilator of a subspace with basis matrix B is kernel(B); a vector
    lies in the subspace iff every annihilator row kills it, so stacking the
    annihilators of both inputs cuts out the intersection without needing any
    bilinear form.
    """
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    constraints = list(kernel(a.basis).basis.entries) + list(kernel(b.basis).basis.entries)
    if not constraints:
        return full_subspace(n)
    return kernel(Matrix.from_rows(constraints))


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
    ker = _null_space({p: {j: x for j, x in row.items() if j < n}
                       for p, row in pivots.items() if p < n}, n)
    if n in pivots:
        return None, ker
    return tuple(pivots[p].get(n, ZERO) if p in pivots else ZERO for p in range(n)), ker


def solve_unique(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve m x = rhs when the solution must exist and be unique."""
    x, ker = solve(m, rhs)
    if x is None:
        raise ValueError("inconsistent linear system")
    if ker.dim != 0:
        raise ValueError("linear system is underdetermined")
    return x
