"""Exact rational linear algebra.

Matrices over ``fractions.Fraction``, reduced row echelon form, kernels,
canonical subspaces, and exact linear solving.  There is no floating point
anywhere in this package; every comparison is exact and every tolerance is
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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

Vector = "tuple[Fraction, ...]"


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

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(vadd(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      tuple(vsub(a, b) for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return self.scale(Fraction(-1))

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(self.rows, self.cols, tuple(vscale(c, r) for r in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        ents = tuple(
            tuple(sum((a * b for a, b in zip(row, col)), ZERO) for col in cols)
            for row in self.entries
        )
        return Matrix(self.rows, other.cols, ents)

    def matvec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(self.col(j) for j in range(self.cols)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

    def is_zero(self) -> bool:
        return all(is_zero_vector(r) for r in self.entries)

    def det(self) -> Fraction:
        """Determinant by fraction-free-enough Gaussian elimination (exact)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        rows = [list(r) for r in self.entries]
        d = ONE
        for c in range(n):
            piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
            if piv is None:
                return ZERO
            if piv != c:
                rows[c], rows[piv] = rows[piv], rows[c]
                d = -d
            d *= rows[c][c]
            inv = ONE / rows[c][c]
            for i in range(c + 1, n):
                if rows[i][c] != 0:
                    f = rows[i][c] * inv
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
        return d

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        aug = Matrix.from_rows(
            [list(self.entries[i]) + list(basis_vector(n, i)) for i in range(n)]
        )
        red = rref(aug)
        for i in range(n):
            if red.entries[i][i] != 1:
                raise ValueError("matrix is singular")
        return Matrix.from_rows([red.entries[i][n:] for i in range(n)])

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


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


# ---------------------------------------------------------------------------
# row reduction


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form; row space preserved, pivots are 1."""
    rows = [list(r) for r in m.entries]
    nr, nc = m.rows, m.cols
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return Matrix.from_rows(rows) if rows else Matrix.zero(0, nc)


def pivot_columns(reduced: Matrix) -> tuple[int, ...]:
    """Pivot columns of a matrix already in RREF (first nonzero per row)."""
    pivs = []
    for row in reduced.entries:
        j = next((k for k, x in enumerate(row) if x != 0), None)
        if j is not None:
            pivs.append(j)
    return tuple(pivs)


def rank(m: Matrix) -> int:
    return len(pivot_columns(rref(m)))


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
    if not rows:
        return Subspace(ambient_dim, Matrix.zero(0, ambient_dim))
    red = rref(Matrix.from_rows(rows))
    kept = [r for r in red.entries if not is_zero_vector(r)]
    basis = Matrix.from_rows(kept) if kept else Matrix.zero(0, ambient_dim)
    return Subspace(ambient_dim, basis)


def zero_subspace(n: int) -> Subspace:
    return span(n, [])


def full_subspace(n: int) -> Subspace:
    return span(n, [basis_vector(n, i) for i in range(n)])


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return span(a.ambient_dim, list(a.basis.entries) + list(b.basis.entries))


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of {v : m v = 0}."""
    red = rref(m)
    pivs = pivot_columns(red)
    piv_set = set(pivs)
    free = [j for j in range(m.cols) if j not in piv_set]
    vecs = []
    for f in free:
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivs):
            v[p] = -red.entries[r][f]
        vecs.append(v)
    return span(m.cols, vecs)


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
    aug = Matrix.from_rows([list(r) + [v] for r, v in zip(m.entries, rhs)]) \
        if m.rows else Matrix.zero(0, m.cols + 1)
    red = rref(aug)
    pivs = pivot_columns(red)
    if m.cols in pivs:
        return None, kernel(m)
    x = [ZERO] * m.cols
    for r, p in enumerate(pivs):
        x[p] = red.entries[r][m.cols]
    return tuple(x), kernel(m)


def solve_unique(m: Matrix, rhs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Solve m x = rhs when the solution must exist and be unique."""
    x, ker = solve(m, rhs)
    if x is None:
        raise ValueError("inconsistent linear system")
    if ker.dim != 0:
        raise ValueError("linear system is underdetermined")
    return x
