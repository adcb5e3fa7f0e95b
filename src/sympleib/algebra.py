"""Finite-dimensional algebras given by exact structure constants.

An algebra on basis e_1..e_n is stored as the tensor c with
e_i * e_j = sum_k c[i][j][k] e_k (0-based internally).  Every product is
evaluated through the sparse view ``Algebra.nz``: ``nz[i][j]`` holds the
nonzero pairs ``(k, c[i][j][k])``, filled in by ``from_table`` from the
products it is given, or built once on first use.

All identity checks run over basis triples, which suffices because every
identity here is multilinear.  Each identity is one signed term table over
the positions 0, 1, 2 of the triple (i, j, k): ``("L", x, y, z)`` stands for
e_x*(e_y*e_z) and ``("R", x, y, z)`` for (e_x*e_y)*e_z.  One scanner sums a
table's terms at every triple and reports the first failing triple in
lexicographic order together with the exact defect.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from sympleib.exactlin import (
    HALF,
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    int_scaled_pairs,
    is_zero_vector,
    kernel,
    rat,
    span,
    vadd,
    vscale,
    vsub,
)
from sympleib.reporting import Check, Witness


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
        match how such tables are usually written down.  Each coefficient is
        coerced once (a Fraction is taken as it is), and the sparse view
        ``nz`` is filled in from the listed products as the tensor is built,
        and from it the int view ``int_nz``, at whatever scale the constants need.
        """
        off = 1 if one_based else 0
        zero = (ZERO,) * dim
        c = [[zero] * dim for _ in range(dim)]
        nz = [[()] * dim for _ in range(dim)]
        for (i, j), val in products.items():
            i -= off
            j -= off
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i + off}, {j + off}) out of range")
            if isinstance(val, Mapping):
                v = list(zero)
                for k, x in val.items():
                    if not 0 <= k - off < dim:
                        raise ValueError(f"product coordinate {k} out of range")
                    v[k - off] = x if type(x) is Fraction else rat(x)
            else:
                if len(val) != dim:
                    raise ValueError("product vector has wrong length")
                v = [x if type(x) is Fraction else rat(x) for x in val]
            c[i][j] = tuple(v)
            nz[i][j] = tuple((k, x) for k, x in enumerate(v) if x is not ZERO and x)
        a = Algebra(dim, tuple(map(tuple, c)), tuple(labels))
        vars(a)["nz"] = nz = tuple(map(tuple, nz))
        vars(a)["int_nz"] = int_scaled_pairs(nz)
        return a

    def basis_label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i + 1}"

    @cached_property
    def nz(self) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
        """nz[i][j]: the nonzero pairs (k, c[i][j][k]) of e_i * e_j, in k order.

        Absent products and parsed zeros are the shared ZERO, which the
        identity test passes over without calling Fraction.__bool__.
        """
        return tuple(tuple(tuple((k, x) for k, x in enumerate(v) if x is not ZERO and x)
                           for v in row) for row in self.c)

    @cached_property
    def int_nz(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """(s, t): s is the lcm of the denominators of the constants and
        t[i][j] holds the pairs (k, s * c[i][j][k]) of nz[i][j], as ints
        (``exactlin.int_scaled_pairs``); ``from_table`` fills it in at every scale."""
        return int_scaled_pairs(self.nz)


def multiply(a: Algebra, u: Sequence[Fraction], v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Bilinear product of two coordinate vectors."""
    n = a.dim
    if len(u) != n or len(v) != n:
        raise ValueError("vector length does not match algebra dimension")
    out = [ZERO] * n
    vs = [(j, y) for j, y in enumerate(v) if y]
    for i, x in enumerate(u):
        if x:
            row = a.nz[i]
            for j, y in vs:
                f = x * y
                for k, z in row[j]:
                    out[k] += f * z
    return tuple(out)


def right_mult(a: Algebra, u: Sequence[Fraction]) -> Matrix:
    """Matrix of v -> v * u in the standard basis, summed over the nonzero u_i only."""
    n = a.dim
    if len(u) != n:
        raise ValueError("vector length does not match algebra dimension")
    m = [[ZERO] * n for _ in range(n)]
    for i, x in enumerate(u):
        if x:
            for j, row in enumerate(a.nz):  # e_j * e_i
                for k, z in row[i]:
                    m[k][j] += x * z
    return Matrix(n, n, tuple(map(tuple, m)))


# signed term tables over the positions of (i, j, k); see the module docstring
_LEFT_LEIBNIZ = ((1, "L", 0, 1, 2), (-1, "R", 0, 1, 2), (-1, "L", 1, 0, 2))
_RIGHT_LEIBNIZ = ((1, "R", 1, 2, 0), (-1, "R", 1, 0, 2), (-1, "L", 1, 2, 0))
_LEFT_SYMMETRIC = ((1, "R", 0, 1, 2), (-1, "L", 0, 1, 2),
                   (-1, "R", 1, 0, 2), (1, "L", 1, 0, 2))
_JACOBI = ((1, "R", 0, 1, 2), (1, "R", 1, 2, 0), (1, "R", 2, 0, 1))


def _touched(nz, terms):
    """The triples (i, j, k), in lexicographic order, at which some term can be nonzero.

    The term e_u * (e_v * e_w) is zero unless e_u * e_m != 0 for some e_m in
    the support of e_v * e_w, and (e_u * e_v) * e_w unless e_m * e_w != 0
    for such an e_m in e_u * e_v: each term is a path through two nonzero
    products.  The triples come one i at a time, so a scan that stops early
    has enumerated only the paths of the i values it reached.
    """
    n = len(nz)
    right = [[q for q in range(n) if nz[p][q]] for p in range(n)]  # e_p * e_q != 0
    left = [[p for p in range(n) if nz[p][q]] for q in range(n)]
    pairs = [(p, q) for p in range(n) for q in right[p]]
    # per term: the position f of the outer factor and s of the first inner one,
    # the outer factors next to each e_m and the e_m next to each outer factor
    paths = []
    for _, side, x, y, z in terms:
        s, t, f = (y, z, x) if side == "L" else (x, y, z)
        outer, beside = (left, right) if side == "L" else (right, left)
        paths.append((f, s, itemgetter(*((s, t, f).index(r) for r in range(3))), outer, beside))
    for i in range(n):
        found = set()
        for f, s, place, outer, beside in paths:
            if f == 0:  # the outer factor is e_i
                near = set(beside[i])
                found.update(place((p, q, i)) for p, q in pairs
                             if any(m in near for m, _ in nz[p][q]))
                continue
            for p, q in ([(i, q) for q in right[i]] if s == 0 else [(p, i) for p in left[i]]):
                reach = set().union(*(outer[m] for m, _ in nz[p][q]))
                found.update(place((p, q, r)) for r in reach)
        yield from sorted(found)


def _scan_identity(a: Algebra, name: str, kind: str, terms) -> Check:
    """Sum the term table at the basis triples in lexicographic order.

    Only the triples where some term's inner product is nonzero and meets
    the outer factor in a nonzero product are visited (see ``_touched``); at
    every other triple each term, and so the defect, is zero, so the first
    failing triple and its defect are those of the full n^3 scan, and a scan
    that fails early stops as early.  The sums run over the int view
    ``Algebra.int_nz``: every term is a product of two constants scaled by
    s, so the true defect is the int sum over s^2.  The defect is kept as
    ``{k: value}``; the dense vector is built only for the first triple
    where it is nonzero, which becomes the witness.
    """
    s, nz = a.int_nz
    for ijk in _touched(nz, terms):
        acc: dict[int, int] = {}
        for sign, side, x, y, z in terms:
            u, v, w = ijk[x], ijk[y], ijk[z]
            if side == "L":  # e_u * (e_v * e_w)
                for m, p in nz[v][w]:
                    for k, q in nz[u][m]:
                        acc[k] = acc.get(k, 0) + sign * p * q
            else:  # (e_u * e_v) * e_w
                for m, p in nz[u][v]:
                    for k, q in nz[m][w]:
                        acc[k] = acc.get(k, 0) + sign * p * q
        if any(acc.values()):
            defect = tuple(Fraction(acc.get(k, 0), s * s) for k in range(a.dim))
            return Check(name, False, witness=Witness(kind, ijk, defect))
    return Check(name, True)


def is_left_leibniz(a: Algebra) -> Check:
    """u*(v*w) = (u*v)*w + v*(u*w) on all basis triples."""
    return _scan_identity(a, "left-leibniz", "left-leibniz", _LEFT_LEIBNIZ)


def is_right_leibniz(a: Algebra) -> Check:
    """(v*w)*u = (v*u)*w + v*(w*u) on all basis triples, u = e_i."""
    return _scan_identity(a, "right-leibniz", "right-leibniz", _RIGHT_LEIBNIZ)


def is_symmetric_leibniz(a: Algebra) -> Check:
    for side in (is_left_leibniz, is_right_leibniz):
        rep = side(a)
        if not rep.holds:
            return Check("symmetric-leibniz", False, witness=rep.witness)
    return Check("symmetric-leibniz", True)


def is_left_symmetric(a: Algebra) -> Check:
    """ass(u,v,w) = ass(v,u,w) where ass(u,v,w) = (u*v)*w - u*(v*w)."""
    return _scan_identity(a, "left-symmetric", "left-symmetric", _LEFT_SYMMETRIC)


def is_lie(a: Algebra) -> Check:
    for i in range(a.dim):
        for j in range(a.dim):
            if not (a.nz[i][j] or a.nz[j][i]):
                continue
            d = vadd(a.c[i][j], a.c[j][i])
            if not is_zero_vector(d):
                return Check("lie", False, witness=Witness("antisymmetry", (i, j), d))
    return _scan_identity(a, "lie", "jacobi", _JACOBI)


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
            rows.append({i: a.c[i][j][k] for i in range(n) if a.c[i][j][k]})  # (u * e_j)_k
            rows.append({i: a.c[j][i][k] for i in range(n) if a.c[j][i][k]})  # (e_j * u)_k
    return kernel(rows, n)


def ideal_check(a: Algebra, s: Subspace, name: str) -> Check:
    """Two-sided ideal test; the detail names the first e_j b or b e_j out of s, b in its basis."""
    if s.ambient_dim != a.dim:
        raise ValueError("ambient dimension mismatch")
    for b in s.basis.entries:
        for j in range(a.dim):
            ej = basis_vector(a.dim, j)
            if not s.contains(multiply(a, ej, b)):
                return Check(name, False, f"e{j + 1} * (basis vector) escapes")
            if not s.contains(multiply(a, b, ej)):
                return Check(name, False, f"(basis vector) * e{j + 1} escapes")
    return Check(name, True)


def is_ideal(a: Algebra, s: Subspace) -> bool:
    """Two-sided ideal test for the given subspace."""
    return ideal_check(a, s, "ideal").holds


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
    nz = a.nz
    rows: list[dict[int, Fraction]] = []
    for i in range(n):
        for j in range(n):
            conds = [{} for _ in range(n)]  # one condition per k
            for m, p in nz[i][j]:
                for k in range(n):
                    conds[k][k * n + m] = p  # (D p)_k
            for r in range(n):
                for k, x in nz[r][j]:  # ((D e_i) * e_j)_k
                    conds[k][r * n + i] = conds[k].get(r * n + i, ZERO) - x
                for k, x in nz[i][r]:  # (e_i * (D e_j))_k
                    conds[k][r * n + j] = conds[k].get(r * n + j, ZERO) - x
            rows += ({col: x for col, x in row.items() if x} for row in conds)
    ker = kernel(rows, n * n)
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
