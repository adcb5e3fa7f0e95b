"""Finite-dimensional algebras given by exact structure constants.

An algebra on basis e_1..e_n, with e_i * e_j = sum_k c[i][j][k] e_k (0-based
internally), is stored once, as its sparse table ``Algebra.nz``: ``nz[i][j]``
holds the nonzero pairs ``(k, c[i][j][k])``, in k order.  Every product is
evaluated off it; the dense tensor ``c`` is a view built on first read.

All identity checks run over basis triples, which suffices because every
identity here is multilinear.  Each identity is one signed term table over
the positions 0, 1, 2 of the triple (i, j, k): ``("L", x, y, z)`` stands for
e_x*(e_y*e_z) and ``("R", x, y, z)`` for (e_x*e_y)*e_z.  One scanner sums a
table's terms over ints, one slice (i, j) at a time with every k at once,
walking each term's paths through two nonzero products once off the int
view ``Algebra.int_nz`` and the support lists ``Algebra.int_support``, and
reports the first failing triple in lexicographic order together with the
exact defect.  Each identity's report is kept on the algebra by name
(``reporting.kept``), so a rerun on the same object reads it back.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import product

from sympleib.exactlin import (
    HALF,
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    int_scaled_pairs,
    kernel,
    rat,
    row_space,
    vadd,
    vscale,
    vsub,
)
from sympleib.reporting import Check, Record, Witness, kept


class Algebra(Record):
    dim: int
    nz: tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]
    labels: tuple[str, ...]

    def __init__(self, dim: int, c: Sequence, labels: Sequence[str] = ()):
        """The dense constructor: checks the shape of c and hands its nonzeros to ``_sparse``."""
        if len(c) != dim or any(len(row) != dim or any(len(v) != dim for v in row)
                                for row in c):
            raise ValueError("structure constant tensor has wrong shape")
        table = {(i, j): [(k, x) for k, x in enumerate(v) if x is not ZERO and x]
                 for i, row in enumerate(c) for j, v in enumerate(row)}
        vars(self).update(vars(Algebra._sparse(dim, table, labels)))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim!r}, c={self.c!r}, labels={self.labels!r})"

    @staticmethod
    def from_table(dim: int, products: Mapping[tuple[int, int], Mapping[int, object] | Sequence],
                   labels: Sequence[str] = (), one_based: bool = True) -> "Algebra":
        """Build from a sparse product table.

        products maps (i, j) to either a {k: coefficient} mapping or a full
        coordinate vector for e_i * e_j.  Indices are 1-based by default to
        match how such tables are usually written down.  Each coefficient is
        coerced once (a Fraction is taken as it is) and its nonzeros become
        ``nz``; the int view ``int_nz`` and the tensor ``c`` are built on first read.
        """
        off = 1 if one_based else 0
        table = {}
        for (i, j), val in products.items():
            i -= off
            j -= off
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"product index ({i + off}, {j + off}) out of range")
            if isinstance(val, Mapping):
                pairs = []
                for k, x in val.items():
                    if not 0 <= k - off < dim:
                        raise ValueError(f"product coordinate {k} out of range")
                    pairs.append((k - off, x if type(x) is Fraction else rat(x)))
                pairs.sort(key=lambda pair: pair[0])
            else:
                if len(val) != dim:
                    raise ValueError("product vector has wrong length")
                pairs = enumerate(x if type(x) is Fraction else rat(x) for x in val)
            table[(i, j)] = [(k, x) for k, x in pairs if x is not ZERO and x]
        return Algebra._sparse(dim, table, labels)

    @staticmethod
    def _sparse(dim: int, table: Mapping, labels: Sequence[str] = (), int_nz=None) -> "Algebra":
        """The algebra whose e_i * e_j, 0-based, has the nonzero pairs ``table[(i, j)]``
        in k order, taken as they are: it sets the fields ``dim``, ``nz`` and
        ``labels``, as tuples.  A caller that holds ``int_nz`` (the file reader)
        passes it to be seeded."""
        if dim < 0:
            raise ValueError("structure constant tensor has wrong shape")
        if labels and len(labels) != dim:
            raise ValueError("label count does not match dimension")
        nz = [[()] * dim for _ in range(dim)]
        for (i, j), pairs in table.items():
            nz[i][j] = tuple(pairs)
        a = object.__new__(Algebra)
        vars(a).update(dim=dim, nz=tuple(map(tuple, nz)), labels=tuple(labels),
                       **({"int_nz": int_nz} if int_nz else {}))
        return a

    def basis_label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"e{i + 1}"

    @cached_property
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        """The dense tensor: c[i][j][k] is the coefficient of e_k in e_i * e_j,
        built from ``nz`` on first read, with the shared ZERO at absent entries."""
        zero = (ZERO,) * self.dim
        return tuple(tuple(tuple(map(dict(pairs).get, range(self.dim), zero)) if pairs else zero
                           for pairs in row) for row in self.nz)

    @cached_property
    def int_nz(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """(s, t): s is the lcm of the denominators of the constants and
        t[i][j] holds the pairs (k, s * c[i][j][k]) of nz[i][j], as ints
        (``exactlin.int_scaled_pairs``), built on first read unless seeded."""
        return int_scaled_pairs(self.nz)

    @cached_property
    def int_support(self) -> tuple[list, list, list]:
        """(right, left, cols) over t = ``int_nz[1]``: right[p] holds the pairs
        (q, t[p][q]) and left[q] the pairs (p, t[p][q]) of the nonzero products
        e_p * e_q, in index order, and cols[q][p] is t[p][q].  Built once and
        read, never changed, by every identity scan of the algebra."""
        t = self.int_nz[1]
        cols = list(zip(*t))
        return ([[(q, pairs) for q, pairs in enumerate(row) if pairs] for row in t],
                [[(p, pairs) for p, pairs in enumerate(col) if pairs] for col in cols], cols)


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


def _slices(a: Algebra, terms):
    """Yield ((i, j), acc) for the slices (i, j) in lexicographic order: acc[k]
    holds s^2 times the table's defect at (i, j, k), s the scale of
    ``Algebra.int_nz``, for each k that a path of some term reaches.

    Each term is a path through two nonzero products.  At a fixed (i, j)
    the paths of every term are walked once off ``int_nz`` and the support
    lists ``Algebra.int_support``, the free position k running along them,
    and each adds p * q, p and q its two scaled constants, to the defect of
    its own k.  At a k no path reaches, every term is zero.
    """
    nz = a.int_nz[1]
    right, left, cols = a.int_support
    n = a.dim
    # the k-outer walks (sign, support, its position, rows, their position):
    # k and the first product's pairs (m, p) from a support list, then the
    # pairs (c, q) of the second product from rows[m]; and the k-inner walks
    # (sign, positions of the first product, support): its pairs (m, p), then
    # k and the second product from support[m]
    outer, inner = [], []
    for sign, side, x, y, z in terms:
        if side == "L":  # e_x * (e_y * e_z)
            if z == 2:
                outer.append((sign, right, y, nz, x))
            elif y == 2:
                outer.append((sign, left, z, nz, x))
            else:
                inner.append((sign, y, z, left))
        else:  # (e_x * e_y) * e_z
            if z == 2:
                inner.append((sign, x, y, right))
            elif y == 2:
                outer.append((sign, right, x, cols, z))
            else:
                outer.append((sign, left, y, cols, z))
    for ij in product(range(n), repeat=2):
        acc: dict[int, list[int]] = {}
        for sign, support, at, table, by in outer:
            rows = table[ij[by]]
            for k, pairs in support[ij[at]]:
                for m, p in pairs:
                    row = rows[m]
                    if row:
                        out = acc.get(k)
                        if out is None:
                            out = acc[k] = [0] * n
                        f = sign * p
                        for c, q in row:
                            out[c] += f * q
        for sign, at, by, support in inner:
            for m, p in nz[ij[at]][ij[by]]:
                f = sign * p
                for k, row in support[m]:
                    out = acc.get(k)
                    if out is None:
                        out = acc[k] = [0] * n
                    for c, q in row:
                        out[c] += f * q
        yield ij, acc


def _scan_identity(a: Algebra, name: str, kind: str, terms) -> Check:
    """Sum the term table at the basis triples in lexicographic order.

    The triples are taken one slice (i, j) at a time (``_slices``), every k
    at once.  The first slice with a nonzero defect holds the first failing
    triple, at its least such k; the scan stops there and builds the dense
    defect of that triple only, the witness, as the int sum over s^2.  The
    report is kept on the object by name (``reporting.kept``) for a rerun.
    """
    return kept(a, name, lambda: _first_failure(a, name, kind, terms))


def _first_failure(a: Algebra, name: str, kind: str, terms) -> Check:
    s = a.int_nz[0]
    for ij, acc in _slices(a, terms):
        if acc:
            for k in sorted(acc):
                if any(acc[k]):
                    defect = tuple(Fraction(x, s * s) for x in acc[k])
                    return Check(name, False, witness=Witness(kind, (*ij, k), defect))
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


def _symmetrized(a: Algebra):
    """Yield ((i, j), row) for the pairs i <= j in lexicographic order where
    e_i * e_j + e_j * e_i is nonzero: row holds its nonzero coordinates
    {k: s * x}, summed over the int view ``Algebra.int_nz`` at its scale s."""
    nz = a.int_nz[1]
    for i, row in enumerate(nz):
        for j in range(i, a.dim):
            if row[j] or nz[j][i]:
                d = dict(row[j])
                for k, x in nz[j][i]:
                    d[k] = d.get(k, 0) + x
                d = {k: x for k, x in d.items() if x}
                if d:
                    yield (i, j), d


def is_lie(a: Algebra) -> Check:
    """Antisymmetry on the basis pairs, then the Jacobi identity.

    The first pair with e_i * e_j + e_j * e_i nonzero (``_symmetrized``) has
    i <= j (the sum is symmetric), and its int row over the scale of
    ``int_nz`` is the witness's defect: the dense tensor is not built.
    """
    for (i, j), row in _symmetrized(a):
        s = a.int_nz[0]
        return Check("lie", False, witness=Witness(
            "antisymmetry", (i, j), tuple(Fraction(row.get(k, 0), s) for k in range(a.dim))))
    return _scan_identity(a, "lie", "jacobi", _JACOBI)


def opposite(a: Algebra) -> Algebra:
    """The product e_i . e_j = e_j * e_i, on the pairs of ``nz`` as they are."""
    return Algebra._sparse(a.dim, {(j, i): pairs for i, row in enumerate(a.nz)
                                   for j, pairs in enumerate(row)}, a.labels)


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
    """Span of all symmetrized basis products e_i*e_j + e_j*e_i, reduced as
    the sparse int rows ``_symmetrized`` sums (a common scale leaves the span
    as it is)."""
    return row_space(a.dim, (row for _, row in _symmetrized(a)))


def center(a: Algebra) -> Subspace:
    """{u : u*v = v*u = 0 for all v}, cut out by the constraints (u * e_j)_k
    and (e_j * u)_k as sparse int rows read off ``Algebra.int_nz`` once."""
    rows: dict = {}
    for i, row in enumerate(a.int_nz[1]):
        for j, pairs in enumerate(row):
            for k, x in pairs:
                rows.setdefault((0, j, k), {})[i] = x  # u_i in (u * e_j)_k
                rows.setdefault((1, i, k), {})[j] = x  # u_j in (e_i * u)_k
    return kernel(rows.values(), a.dim)


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
