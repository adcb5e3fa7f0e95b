"""Finite-dimensional algebras given by exact structure constants.

An algebra on basis e_1..e_n is stored as the tensor c with
e_i * e_j = sum_k c[i][j][k] e_k (0-based internally).  All identity checks
run over basis triples, which suffices because every identity here is
multilinear, and report the first failing triple in lexicographic order
together with the exact defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from sympleib.exactlin import (
    HALF,
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    is_zero_vector,
    kernel,
    rat,
    span,
    vadd,
    vector,
    vscale,
    vsub,
    vzero,
)


@dataclass(frozen=True)
class Algebra:
    dim: int
    c: tuple[tuple[tuple[Fraction, ...], ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        n = self.dim
        if len(self.c) != n or any(len(row) != n for row in self.c):
            raise ValueError("structure constant tensor has wrong shape")
        for row in self.c:
            for v in row:
                if len(v) != n:
                    raise ValueError("structure constant tensor has wrong shape")
        if self.labels and len(self.labels) != n:
            raise ValueError("label count does not match dimension")

    @staticmethod
    def from_table(dim: int, products: Mapping[tuple[int, int], Mapping[int, object] | Sequence],
                   labels: Sequence[str] = (), one_based: bool = True) -> "Algebra":
        """Build from a sparse product table.

        products maps (i, j) to either a {k: coefficient} mapping or a full
        coordinate vector for e_i * e_j.  Indices are 1-based by default to
        match how such tables are usually written down.
        """
        off = 1 if one_based else 0
        c = [[list(vzero(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), val in products.items():
            i -= off
            j -= off
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i + off}, {j + off}) out of range")
            if isinstance(val, Mapping):
                for k, x in val.items():
                    c[i][j][k - off] = rat(x)
            else:
                if len(val) != dim:
                    raise ValueError("product vector has wrong length")
                c[i][j] = [rat(x) for x in val]
        return Algebra(dim, tuple(tuple(tuple(v) for v in row) for row in c),
                       tuple(labels))

    def basis_label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i + 1}"


@dataclass(frozen=True)
class Witness:
    """Where an identity fails: which check, at which basis indices, by how much."""

    kind: str
    indices: tuple[int, ...]
    defect: tuple[Fraction, ...]


@dataclass(frozen=True)
class IdentityReport:
    name: str
    holds: bool
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.holds != (self.witness is None):
            raise ValueError("holds must mean exactly that no witness exists")


def multiply(a: Algebra, u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Bilinear product of two coordinate vectors."""
    n = a.dim
    if len(u) != n or len(v) != n:
        raise ValueError("vector length does not match algebra dimension")
    out = list(vzero(n))
    for i in range(n):
        if u[i] == 0:
            continue
        ci = a.c[i]
        for j in range(n):
            f = u[i] * v[j]
            if f == 0:
                continue
            for k, x in enumerate(ci[j]):
                if x != 0:
                    out[k] += f * x
    return tuple(out)


def left_mult(a: Algebra, u: Sequence[Fraction]) -> Matrix:
    """Matrix of v -> u * v in the standard basis."""
    cols = [multiply(a, u, basis_vector(a.dim, j)) for j in range(a.dim)]
    return Matrix.from_rows([[cols[j][k] for j in range(a.dim)] for k in range(a.dim)])


def right_mult(a: Algebra, u: Sequence[Fraction]) -> Matrix:
    """Matrix of v -> v * u in the standard basis."""
    cols = [multiply(a, basis_vector(a.dim, j), u) for j in range(a.dim)]
    return Matrix.from_rows([[cols[j][k] for j in range(a.dim)] for k in range(a.dim)])


def _mul_basis_vec(a: Algebra, i: int, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """e_i * v without building the full bilinear loop."""
    out = list(vzero(a.dim))
    for b, x in enumerate(v):
        if x != 0:
            for k, y in enumerate(a.c[i][b]):
                if y != 0:
                    out[k] += x * y
    return tuple(out)


def _mul_vec_basis(a: Algebra, v: Sequence[Fraction], i: int) -> tuple[Fraction, ...]:
    out = list(vzero(a.dim))
    for b, x in enumerate(v):
        if x != 0:
            for k, y in enumerate(a.c[b][i]):
                if y != 0:
                    out[k] += x * y
    return tuple(out)


def _first_witness(name: str, kind: str, defect_at) -> IdentityReport:
    """Scan basis index tuples in lexicographic order for a nonzero defect."""
    for indices, defect in defect_at():
        if not is_zero_vector(defect):
            return IdentityReport(name, False, Witness(kind, indices, tuple(defect)))
    return IdentityReport(name, True)


def is_left_leibniz(a: Algebra) -> IdentityReport:
    """u*(v*w) = (u*v)*w + v*(u*w) on all basis triples."""
    def gen():
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    lhs = _mul_basis_vec(a, i, a.c[j][k])
                    rhs = vadd(_mul_vec_basis(a, a.c[i][j], k), _mul_basis_vec(a, j, a.c[i][k]))
                    yield (i, j, k), vsub(lhs, rhs)
    return _first_witness("left-leibniz", "left-leibniz", gen)


def is_right_leibniz(a: Algebra) -> IdentityReport:
    """(v*w)*u = (v*u)*w + v*(w*u) on all basis triples, u = e_i."""
    def gen():
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    lhs = _mul_vec_basis(a, a.c[j][k], i)
                    rhs = vadd(_mul_vec_basis(a, a.c[j][i], k), _mul_basis_vec(a, j, a.c[k][i]))
                    yield (i, j, k), vsub(lhs, rhs)
    return _first_witness("right-leibniz", "right-leibniz", gen)


def is_symmetric_leibniz(a: Algebra) -> IdentityReport:
    left = is_left_leibniz(a)
    if not left.holds:
        return IdentityReport("symmetric-leibniz", False, left.witness)
    right = is_right_leibniz(a)
    if not right.holds:
        return IdentityReport("symmetric-leibniz", False, right.witness)
    return IdentityReport("symmetric-leibniz", True)


def is_left_symmetric(a: Algebra) -> IdentityReport:
    """ass(u,v,w) = ass(v,u,w) where ass(u,v,w) = (u*v)*w - u*(v*w)."""
    def gen():
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    ass_uvw = vsub(_mul_vec_basis(a, a.c[i][j], k), _mul_basis_vec(a, i, a.c[j][k]))
                    ass_vuw = vsub(_mul_vec_basis(a, a.c[j][i], k), _mul_basis_vec(a, j, a.c[i][k]))
                    yield (i, j, k), vsub(ass_uvw, ass_vuw)
    return _first_witness("left-symmetric", "left-symmetric", gen)


def is_lie(a: Algebra) -> IdentityReport:
    for i in range(a.dim):
        for j in range(a.dim):
            d = vadd(a.c[i][j], a.c[j][i])
            if not is_zero_vector(d):
                return IdentityReport("lie", False, Witness("antisymmetry", (i, j), d))

    def gen():
        for i in range(a.dim):
            for j in range(a.dim):
                for k in range(a.dim):
                    s = vadd(vadd(_mul_vec_basis(a, a.c[i][j], k),
                                  _mul_vec_basis(a, a.c[j][k], i)),
                             _mul_vec_basis(a, a.c[k][i], j))
                    yield (i, j, k), s
    return _first_witness("lie", "jacobi", gen)


def opposite(a: Algebra) -> Algebra:
    c = tuple(tuple(a.c[j][i] for j in range(a.dim)) for i in range(a.dim))
    return Algebra(a.dim, c, a.labels)


def split(a: Algebra) -> tuple[Algebra, Algebra]:
    """Commutator half and anticommutator half of the product.

    Returns ([u,v] = (u*v - v*u)/2, u <> v = (u*v + v*u)/2); their sum is the
    original product.
    """
    n = a.dim
    anti = tuple(tuple(vscale(HALF, vsub(a.c[i][j], a.c[j][i])) for j in range(n))
                 for i in range(n))
    sym = tuple(tuple(vscale(HALF, vadd(a.c[i][j], a.c[j][i])) for j in range(n))
                for i in range(n))
    return Algebra(n, anti, a.labels), Algebra(n, sym, a.labels)


def leibniz_ideal(a: Algebra) -> Subspace:
    """Span of all symmetrized basis products e_i*e_j + e_j*e_i."""
    vecs = [vadd(a.c[i][j], a.c[j][i]) for i in range(a.dim) for j in range(i, a.dim)]
    return span(a.dim, vecs)


def center(a: Algebra) -> Subspace:
    """{u : u*v = v*u = 0 for all v}, cut out by stacked left and right constraints."""
    n = a.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([a.c[i][j][k] for i in range(n)])  # (u * e_j)_k
            rows.append([a.c[j][i][k] for i in range(n)])  # (e_j * u)_k
    return kernel(Matrix.from_rows(rows))


def is_ideal(a: Algebra, s: Subspace) -> bool:
    """Two-sided ideal test for the given subspace."""
    if s.ambient_dim != a.dim:
        raise ValueError("ambient dimension mismatch")
    for b in s.basis.entries:
        for j in range(a.dim):
            if not s.contains(_mul_basis_vec(a, j, b)):
                return False
            if not s.contains(_mul_vec_basis(a, b, j)):
                return False
    return True


def quotient(a: Algebra, i: Subspace) -> tuple[Algebra, Matrix]:
    """Quotient algebra by a two-sided ideal, plus the projection matrix.

    The complement is deterministic: the standard basis vectors whose index is
    not a pivot of the ideal's canonical basis, in index order.  The projection
    sends v to the coordinates of its canonical reduction at those indices.
    """
    if not is_ideal(a, i):
        raise ValueError("subspace is not a two-sided ideal")
    n = a.dim
    piv = set(i.pivots)
    comp = [j for j in range(n) if j not in piv]
    m = len(comp)
    proj_cols = [i.reduce(basis_vector(n, j)) for j in range(n)]
    proj = Matrix.from_rows([[proj_cols[j][comp[r]] for j in range(n)] for r in range(m)])
    c = [[None] * m for _ in range(m)]
    for ri, bi in enumerate(comp):
        for rj, bj in enumerate(comp):
            w = i.reduce(a.c[bi][bj])
            c[ri][rj] = tuple(w[k] for k in comp)
    labels = tuple(a.basis_label(j) for j in comp) if a.labels else ()
    return Algebra(m, tuple(tuple(row) for row in c), labels), proj


def derivations(a: Algebra) -> list[Matrix]:
    """Canonical basis of the derivation algebra {D : D(uv) = (Du)v + u(Dv)}.

    Unknowns are the n^2 entries of D flattened row-major; one linear
    condition per basis triple (i, j, k).
    """
    n = a.dim
    rows = []
    for i in range(n):
        for j in range(n):
            p = a.c[i][j]
            for k in range(n):
                row = [ZERO] * (n * n)
                for m_ in range(n):
                    if p[m_] != 0:
                        row[k * n + m_] += p[m_]  # (D p)_k
                for r in range(n):
                    if a.c[r][j][k] != 0:
                        row[r * n + i] -= a.c[r][j][k]  # ((D e_i) * e_j)_k
                    if a.c[i][r][k] != 0:
                        row[r * n + j] -= a.c[i][r][k]  # (e_i * (D e_j))_k
                rows.append(row)
    ker = kernel(Matrix.from_rows(rows))
    return [Matrix.from_rows([v[r * n:(r + 1) * n] for r in range(n)])
            for v in ker.basis.entries]


def change_basis(a: Algebra, p: Matrix) -> Algebra:
    """Structure constants in the basis f_i = P e_i (columns of P)."""
    if p.rows != a.dim or p.cols != a.dim:
        raise ValueError("change of basis matrix has wrong shape")
    pinv = p.inverse()
    n = a.dim
    cols = [p.col(i) for i in range(n)]
    c = tuple(
        tuple(pinv.matvec(multiply(a, cols[i], cols[j])) for j in range(n))
        for i in range(n)
    )
    return Algebra(n, c)
