"""Test oracles: dense Fraction routes that no library path calls.

Each one recomputes by plain matrix arithmetic what the library computes
another way, so the tests can compare the two.  The file readers at the end
are the checked, one-call-per-check reader that ``sympleib.fileformat``
replaced; they accept and refuse the same documents, except that a
``products`` or ``form`` that cannot be iterated raises a TypeError here.
"""

from fractions import Fraction
from typing import Any, Mapping, Sequence

from sympleib.algebra import Algebra
from sympleib.exactlin import (
    HALF,
    ONE,
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    full_subspace,
    kernel,
    rat,
    span,
    vadd,
    vector,
    vscale,
)
from sympleib.extension import _fill, _layout
from sympleib.fileformat import MAX_DIM, FileFormatError, rational_from_json
from sympleib.symplectic import SkewForm, form_from_pairs, omega


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """The rows of the nonempty matrices, stacked in order; the column counts must agree."""
    mats = [m for m in mats if m.rows > 0]
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise ValueError("column counts differ")
    return Matrix.from_rows([r for m in mats for r in m.entries])


def left_mult(a: Algebra, u: Sequence[Fraction]) -> Matrix:
    """Matrix of v -> u * v in the standard basis, summed over the nonzero u_i only."""
    n = a.dim
    if len(u) != n:
        raise ValueError("vector length does not match algebra dimension")
    m = [[ZERO] * n for _ in range(n)]
    for i, x in enumerate(u):
        if x:
            for j, pairs in enumerate(a.nz[i]):  # e_i * e_j
                for k, z in pairs:
                    m[k][j] += x * z
    return Matrix(n, n, tuple(map(tuple, m)))


def omega_adjoint(form: SkewForm, m: Matrix) -> Matrix:
    """The adjoint m* with omega(m* u, v) = omega(u, m v).

    Because the form is skew, the same matrix also satisfies the mirrored
    convention omega(u, m* v) = omega(m u, v).
    """
    if not form.nondegenerate:
        raise ValueError("adjoint requires a nondegenerate form")
    if m.rows != form.dim or m.cols != form.dim:
        raise ValueError("operator shape does not match the form")
    return form.w.inverse() @ m.transpose() @ form.w


def upper_index(n: int, i: int, j: int) -> int:
    """Position of (i, j), i < j, in the lexicographic strict upper triangle:
    the coordinate order of ``symplectic.solve_symplectic_forms``, written as
    a closed formula for the tests."""
    if not (0 <= i < j < n):
        raise ValueError("need i < j inside range")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def form_from_coords(n: int, coords: Sequence[Fraction]) -> SkewForm:
    """Inverse of the strict upper-triangle coordinate encoding, through the
    public, checked SkewForm constructor: the oracle for the form
    find_nondegenerate builds directly."""
    if len(coords) != n * (n - 1) // 2:
        raise ValueError("coordinate vector has wrong length")
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rat(coords[upper_index(n, i, j)])
            rows[i][j] = x
            rows[j][i] = -x
    return SkewForm(Matrix.from_rows(rows))


def common_radical(space: Subspace, dim: int) -> Subspace:
    """The vectors in the radical of every form of the space: the kernel of the
    dense Gram matrices of its basis forms, stacked.  The zero space holds
    only the zero form, whose radical is everything."""
    grams = [form_from_coords(dim, row).w for row in space.basis.entries]
    return kernel(vstack(grams)) if grams else full_subspace(dim)


def pivot_columns(reduced: Matrix) -> tuple[int, ...]:
    """Pivot columns of a matrix already in RREF: the first nonzero entry of
    each row, found by Fraction comparisons."""
    pivs = []
    for row in reduced.entries:
        j = next((k for k, x in enumerate(row) if x != 0), None)
        if j is not None:
            pivs.append(j)
    return tuple(pivs)


def dense_pivots(space: Subspace) -> tuple[int, ...]:
    """Oracle for ``Subspace.pivots``: the first nonzero column of each row of
    the dense RREF basis, found by Fraction comparisons."""
    return pivot_columns(space.basis)


def dense_reduce(space: Subspace, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Oracle for ``Subspace.reduce``: subtract whole dense basis rows to zero
    out the pivot coordinates of v, with the pivots read off the dense basis."""
    if len(v) != space.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    w = list(v)
    for row, p in zip(space.basis.entries, dense_pivots(space)):
        if w[p] != 0:
            f = w[p]  # pivot entries are 1 in RREF
            w = [a - f * b for a, b in zip(w, row)]
    return tuple(w)


def dense_center(a: Algebra) -> Subspace:
    """Oracle for ``algebra.center``: the kernel of the dense Fraction stack
    of the constraints (u * e_j)_k and (e_j * u)_k, read off ``Algebra.c``."""
    n = a.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([a.c[i][j][k] for i in range(n)])
            rows.append([a.c[j][i][k] for i in range(n)])
    return kernel(Matrix.from_rows(rows))


def dense_leibniz_ideal(a: Algebra) -> Subspace:
    """Oracle for ``algebra.leibniz_ideal``: the span of the dense Fraction
    sums e_i*e_j + e_j*e_i, i <= j."""
    return span(a.dim, [vadd(a.c[i][j], a.c[j][i]) for i in range(a.dim) for j in range(i, a.dim)])


def dense_orthogonal(form: SkewForm, s: Subspace) -> Subspace:
    """Oracle for ``symplectic.orthogonal``: the kernel of the dense rows W b,
    b in the Fraction basis of s."""
    if s.ambient_dim != form.dim:
        raise ValueError("ambient dimension mismatch")
    if s.dim == 0:
        return span(form.dim, [basis_vector(form.dim, i) for i in range(form.dim)])
    return kernel(Matrix.from_rows([form.w.matvec(b) for b in s.basis.entries]))


def dense_intersect(a: Subspace, b: Subspace) -> Subspace:
    """Oracle for ``exactlin.intersect``: the kernel of the stacked dense
    canonical annihilators kernel(A) and kernel(B) of the two bases."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    constraints = list(kernel(a.basis).basis.entries) + list(kernel(b.basis).basis.entries)
    if not constraints:
        return full_subspace(a.ambient_dim)
    return kernel(Matrix.from_rows(constraints))


def dense_tables(gs, d) -> tuple[tuple, tuple]:
    """Oracle for ``extension._blocks`` and for ``star_left`` of the assembled
    pair: the block tables (hh, hg, gh, gg) of the double extension's product
    and of its star, in closed form, by Fraction arithmetic.
    F* comes from ``omega_adjoint``, K = S/2 - F - F*, and every h*-part is a
    list of ``omega`` pairings omega(v, e_a)."""
    g, wg, p, m = gs.g, gs.form, d.p, d.gdim
    Fs = [omega_adjoint(wg, f) for f in d.F]
    K = [(f + gop).scale(HALF) - f - fs for f, gop, fs in zip(d.F, d.G, Fs)]
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    e = [basis_vector(m, a) for a in range(m)]

    def pairings(vectors, u) -> list:
        return [omega(wg, v, u) for v in vectors]
    prod = (
        lambda x, y: (th[x][y], Om[x][y]),
        lambda x, a: (F[x].col(a), pairings(ps[x], e[a])),
        lambda a, x: (G[x].col(a), pairings(xi[x], e[a])),
        lambda a, b: (g.c[a][b], pairings([K[k].col(a) for k in range(p)], e[b])),
    )
    star = (
        lambda x, y: (ps[x][y], [Om[x][k][y] for k in range(p)]),
        lambda x, a: (vscale(-ONE, Fs[x].col(a)), pairings(th[x], e[a])),
        lambda a, x: (K[x].col(a), pairings([xi[k][x] for k in range(p)], e[a])),
        lambda a, b: (gs.star.c[a][b], pairings([G[k].col(a) for k in range(p)], e[b])),
    )
    return prod, star


def dense_star(gs, d, layout=None) -> Algebra:
    """The star of the double extension of (gs, d), filled by
    ``extension._fill`` from the closed-form star table of ``dense_tables``,
    in the layout (h, g, h*) unless another is given."""
    layout = layout or _layout(d.p, [gs.g.basis_label(a) for a in range(gs.dim)])
    return _fill(layout, *dense_tables(gs, d)[1])


def inner_extension(gs, H: Matrix, psi, cube) -> tuple[Algebra, SkewForm]:
    """Oracle for ``extension.build_inner_extension``: the inner extension in
    the basis (h, g, h*) before the shear, by Fraction arithmetic.

    With u_i = H e_i, the products are h_x h_y = Omega(x, y),
    h_x e_a = sum_k omega(psi(x, k), e_a) h*_k, e_a h_x its negative and
    e_a e_b = [e_a, e_b] + sum_k omega([e_a, e_b], u_k) h*_k; the form is
    omega on g, W[h_i][h*_i] = -1, plus W[h_i][h_j] = omega(u_i, u_j) and
    W[h_i][e_b] = -omega(u_i, e_b), mirrored.  The shear P with columns
    h_i + u_i, e_a, h*_i carries it to the builder's output: the product
    ``change_basis(a, P)`` and the Gram matrix P^T W P.  The inputs are taken
    as the builder's preconditions already checked them.
    """
    g, wg, m, p = gs.g, gs.form, gs.dim, H.cols
    n = 2 * p + m
    u = [H.col(i) for i in range(p)]
    e = [basis_vector(m, a) for a in range(m)]
    products = {}

    def put(r, s, gpart, hspart):
        products[r, s] = {**{p + a: x for a, x in enumerate(gpart)},
                          **{p + m + k: x for k, x in enumerate(hspart)}}
    for x in range(p):
        for y in range(p):
            put(x, y, (), cube[x][y])
        for a in range(m):
            pairs = [omega(wg, vector(v), e[a]) for v in psi[x]]
            put(x, p + a, (), pairs)
            put(p + a, x, (), [-v for v in pairs])
    for a in range(m):
        for b in range(m):
            put(p + a, p + b, g.c[a][b], [omega(wg, g.c[a][b], v) for v in u])
    w = [[ZERO] * n for _ in range(n)]
    for a in range(m):
        w[p + a][p:p + m] = wg.w.entries[a]
    for i in range(p):
        w[i][p + m + i], w[p + m + i][i] = -ONE, ONE
        for j in range(p):
            w[i][j] = omega(wg, u[i], u[j])
        for b in range(m):
            w[i][p + b], w[p + b][i] = -omega(wg, u[i], e[b]), omega(wg, u[i], e[b])
    return Algebra.from_table(n, products, one_based=False), SkewForm(Matrix.from_rows(w))


def inner_shear(gs, H: Matrix) -> Matrix:
    """The change of basis P of ``inner_extension``: column i is h_i + H e_i,
    and the g and h* columns are those of the identity."""
    m, p = gs.dim, H.cols
    n = 2 * p + m
    rows = [list(basis_vector(n, r)) for r in range(n)]
    for i in range(p):
        for a in range(m):
            rows[p + a][i] = H.entries[a][i]
    return Matrix.from_rows(rows)


# ---------------------------------------------------------------------------
# the file reader as it was before the one-pass reader in sympleib.fileformat:
# a check per call through _expect, each entry through rational_from_json, and
# the form through form_from_pairs


def _expect(condition: bool, message: str, *args) -> None:
    """Refuse the input unless ``condition``; given ``args``, ``message`` is a
    format string for them, formatted only on refusal."""
    if not condition:
        raise FileFormatError(message.format(*args) if args else message)


def algebra_from_dict(doc: Mapping[str, Any]
                      ) -> tuple[Algebra, SkewForm | None]:
    """Test oracle of ``fileformat.algebra_from_dict``: the same documents
    accepted as the same algebra and form, and the same refusals."""
    _expect("dim" in doc, "missing field: dim")
    dim = doc["dim"]
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
            "dim must be a non-negative integer")
    _expect(dim <= MAX_DIM, f"dim {dim} exceeds the limit of {MAX_DIM}")
    labels = doc.get("labels", [])
    _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
            "labels must be a list of strings")
    _expect(not labels or len(labels) == dim,
            "labels must have one entry per basis vector")

    # each product's nonzero pairs, 0-based: from_table fills in the sparse view from them
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for k, item in enumerate(doc.get("products", [])):
        _expect(isinstance(item, dict), "products[{}]: must be an object", k)
        for key in ("left", "right", "value"):
            _expect(key in item, "products[{}]: missing field: {}", k, key)
        i, j = item["left"], item["right"]
        for name, idx in (("left", i), ("right", j)):
            _expect(isinstance(idx, int) and not isinstance(idx, bool)
                    and 1 <= idx <= dim,
                    "products[{}]: {} index out of range 1..{}", k, name, dim)
        _expect((i - 1, j - 1) not in table, "products[{}]: duplicate product ({}, {})", k, i, j)
        value = item["value"]
        _expect(isinstance(value, list) and len(value) == dim,
                "products[{}]: value must be a vector of length {}", k, dim)
        nonzero = table[(i - 1, j - 1)] = {}
        for n, x in enumerate(value):
            if type(x) is int and not x:  # a JSON 0, most entries; false and 0.0 are refused
                continue
            x = rational_from_json(x, "products[{}].value[{}]", k, n)
            if x is not ZERO and x:
                nonzero[n] = x

    algebra = Algebra.from_table(dim, table, labels=tuple(labels), one_based=False)

    form = None
    if "form" in doc:
        pairs: dict[tuple[int, int], Fraction] = {}
        for k, item in enumerate(doc["form"]):
            _expect(isinstance(item, list) and len(item) == 3, "form[{}]: must be [i, j, value]", k)
            i, j, value = item
            for idx in (i, j):
                _expect(isinstance(idx, int) and not isinstance(idx, bool)
                        and 1 <= idx <= dim,
                        "form[{}]: index out of range 1..{}", k, dim)
            _expect(i < j, "form[{}]: only strict upper-triangle entries", k)
            _expect((i, j) not in pairs, "form[{}]: duplicate entry ({}, {})", k, i, j)
            pairs[(i, j)] = rational_from_json(value, "form[{}][2]", k)
        form = form_from_pairs(dim, pairs)
    return algebra, form


def matrix_from_json(rows: object, m: int, where: str) -> Matrix:
    """Test oracle of ``fileformat._matrix_from_json``."""
    _expect(isinstance(rows, list) and len(rows) == m,
            f"{where}: expected {m} rows")
    parsed = []
    for r, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == m, "{}[{}]: expected {} entries", where, r, m)
        parsed.append(tuple(rational_from_json(x, where + "[{}][{}]", r, c)
                            for c, x in enumerate(row)))
    return Matrix(m, m, tuple(parsed))


def vector_table_from_json(data: object, p: int, m: int, where: str) -> list:
    """Test oracle of ``fileformat._vector_table_from_json``."""
    _expect(isinstance(data, list) and len(data) == p,
            f"{where}: expected {p} rows")
    out = []
    for i, row in enumerate(data):
        _expect(isinstance(row, list) and len(row) == p, "{}[{}]: expected {} entries", where, i, p)
        vecs = []
        for j, vec in enumerate(row):
            _expect(isinstance(vec, list) and len(vec) == m,
                    "{}[{}][{}]: expected a vector of length {}", where, i, j, m)
            vecs.append([rational_from_json(x, where + "[{}][{}][{}]", i, j, n)
                         for n, x in enumerate(vec)])
        out.append(vecs)
    return out
