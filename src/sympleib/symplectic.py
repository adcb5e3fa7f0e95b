"""Skew bilinear forms, compatibility identities, and star products.

A form is stored as its full Gram matrix W with omega(u, v) = u^T W v.
Nondegeneracy is decided on first read, as the rank of W's sparse int rows,
and kept; degenerate forms are legal objects so that solution spaces of the
compatibility equations can be inspected, but every predicate that needs
nondegeneracy fails them with an explicit witness.

Every identity here is linear in omega and in the product, so it is
evaluated through the table g[p][q] = W c[p][q], built once per call over
ints: W as ``SkewForm.int_w`` and the constants as ``Algebra.int_nz``, each
at the lcm of its denominators, so omega(e_x, e_p*e_q) = g[p][q][x] / s and
omega(e_p*e_q, e_x) = -g[p][q][x] / s for one scale s.  The left, right and
bi identities are written once, as one table of position templates, and one
scatter runs them product by product: the checks scatter the nonzeros of g
through it and divide once, for the witness, and solve_symplectic_forms
scatters the nonzero structure constants.  The star products solve against
d W^-1 (``SkewForm.int_w_inv``), with one Fraction per nonzero output entry.  The
``*_split`` checks evaluate every scalar with omega instead and serve as
independent test oracles.  A compatibility report is kept on the algebra by
name, for the last form checked (``reporting.kept``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from sympleib.algebra import Algebra, split
from sympleib.exactlin import (
    ZERO,
    Matrix,
    Subspace,
    _annihilator_rows,
    basis_vector,
    int_det,
    int_scaled_pairs,
    kernel,
    rat,
    reduce_rows,
    row_space,
)
from sympleib.reporting import Check, Record, Witness, first_failure, kept


class SkewForm(Record):
    w: Matrix

    def __init__(self, w: Matrix):
        if w.rows != w.cols:
            raise ValueError("form matrix must be square")
        e = w.entries
        for i in range(w.rows):
            for j in range(i, w.rows):
                if (e[i][j] or e[j][i]) and e[i][j] != -e[j][i]:
                    raise ValueError(f"form matrix is not skew at ({i}, {j})")
        self.__dict__["w"] = w

    @classmethod
    def _skew(cls, w: Matrix, nondegenerate: Optional[bool] = None, int_w=None) -> "SkewForm":
        """The form of a square W the caller built skew, with no skew scan; a
        caller that already knows whether W is invertible (find_nondegenerate,
        by int_det) passes it as ``nondegenerate``, the file reader ``int_w``."""
        form = object.__new__(cls)
        seeds = {"w": w, "nondegenerate": nondegenerate, "int_w": int_w}
        form.__dict__.update({key: x for key, x in seeds.items() if x is not None})
        return form

    @cached_property
    def _pivots(self) -> dict[int, dict[int, int]]:
        """The pivot rows of W's sparse int rows (``int_w``), by
        ``reduce_rows``; computed once per form."""
        return reduce_rows(map(dict, self.int_w[1]))

    @cached_property
    def nondegenerate(self) -> bool:
        """Whether W is invertible: its rank, the count of ``_pivots``, is
        dim.  Decided on first read."""
        return len(self._pivots) == self.dim

    @property
    def dim(self) -> int:
        return self.w.rows

    @cached_property
    def int_w(self) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
        """(d, rows): d is the lcm of W's denominators and rows[x] holds the
        pairs (y, d * W[x][y]) of the nonzero entries of row x, in column
        order, as ints (``exactlin.int_scaled_pairs``); computed once per form."""
        pairs = [[(y, x) for y, x in enumerate(row) if x is not ZERO and x]
                 for row in self.w.entries]
        d, (rows,) = int_scaled_pairs([pairs])
        return d, rows

    def int_covectors(self, vectors: Iterable[Iterable[tuple[int, int]]]) -> list[dict[int, int]]:
        """For each int vector u, given as its pairs (column, value), the
        nonzero entries {y: value} of d u^T W, d = ``int_w[0]``: the row of
        v -> d omega(u, v)."""
        rows = self.int_w[1]
        out = []
        for u in vectors:
            cov: dict[int, int] = {}
            for x, c in u:
                for y, v in rows[x]:
                    cov[y] = cov.get(y, 0) + c * v
            out.append({y: v for y, v in cov.items() if v})
        return out

    @cached_property
    def int_w_inv(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """``exactlin.int_scaled(w.inverse().entries)`` (raising if W is singular), off one
        ``reduce_rows`` of [d_w W | d_w I], d_w = ``int_w[0]``: pivot row p is primitive, lead L_p,
        so d = lcm(L_p) and row p of d W^-1 is the pivot row from column n on, times d / L_p."""
        (dw, rows), n = self.int_w, self.dim
        pivots = reduce_rows({**dict(r), n + i: dw} for i, r in enumerate(rows))
        if any(p not in pivots for p in range(n)):
            raise ValueError("matrix is singular")
        d = lcm(*(pivots[p][p] for p in range(n)))
        return d, tuple(tuple(pivots[p].get(j, 0) * (d // pivots[p][p]) for j in range(n, 2 * n))
                        for p in range(n))

    def radical_vector(self) -> tuple[Fraction, ...]:
        """A nonzero kernel vector of a degenerate form: the first row of the
        canonical kernel basis, read off ``_pivots`` as ``kernel`` does."""
        if self.nondegenerate:
            raise ValueError("form is nondegenerate")
        return row_space(self.dim, _annihilator_rows(self._pivots, self.dim)).basis.entries[0]


def form_from_pairs(dim: int, pairs: Mapping[tuple[int, int], object],
                    one_based: bool = True) -> SkewForm:
    """Skew form from its strict upper-triangle entries, e.g. {(1, 4): 1}."""
    off = 1 if one_based else 0
    rows = [[ZERO] * dim for _ in range(dim)]
    for (i, j), v in pairs.items():
        i -= off
        j -= off
        if not (0 <= i < dim and 0 <= j < dim) or i == j:
            raise ValueError(f"invalid form index pair ({i + off}, {j + off})")
        x = rat(v)
        if rows[i][j] is not ZERO:  # the mirror cell (j, i) was given too: they add up
            x += rows[i][j]
        rows[i][j], rows[j][i] = x, -x
    return SkewForm._skew(Matrix(dim, dim, tuple(map(tuple, rows))))


def omega(form: SkewForm, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    """u^T W v, summed over the nonzero coordinates of u, v and W only."""
    if len(u) != form.dim or len(v) != form.dim:
        raise ValueError("vector length does not match the form")
    nz_v = [(b, y) for b, y in enumerate(v) if y]
    total = ZERO
    for a, x in enumerate(u):
        if x:
            row = form.w.entries[a]
            for b, y in nz_v:
                if row[b]:
                    total += x * row[b] * y
    return total


def _gram_table(form: SkewForm, a: Algebra) -> tuple[int, list[list[Optional[tuple[int, ...]]]]]:
    """(s, g) with g[p][q] = s W c[p][q], as ints, so that omega(e_x, e_p*e_q)
    = g[p][q][x] / s; s is the lcm of W's denominators times that of the
    constants, and g[p][q] is None where e_p*e_q = 0."""
    if a.dim != form.dim:
        raise ValueError("dimension mismatch")
    dw, w = form.int_w
    dc, nz = a.int_nz
    cols = [[(x, -v) for x, v in row] for row in w]  # W is skew: W[x][b] = -W[b][x]

    def image(pairs):
        if not pairs:
            return None
        out = [0] * a.dim
        for b, y in pairs:
            for x, v in cols[b]:
                out[x] += v * y
        return tuple(out)
    return dw * dc, [[image(pairs) for pairs in row] for row in nz]


def _degenerate_report(name: str, form: SkewForm) -> Check:
    return Check(name, False, witness=Witness("degenerate-form", (), form.radical_vector()))


# Each identity at u, v, w = e_i, e_j, e_k, keyed by its witness kind and
# written once as position templates (2 * coef, x, p, q): each term is
# coef * omega(e_x, e_p*e_q) with x, p, q read off the positions 0, 1, 2 of
# (i, j, k).  "d-omega" is d omega(u, v, w) for [u, v] = (u*v - v*u)/2 and
# "diamond-symmetry" is omega(u, v <> w) - omega(v, u <> w) for
# u <> v = (u*v + v*u)/2, both expanded over the product itself.
_TEMPLATES = {
    "left-symplectic": ((2, 0, 1, 2), (-2, 1, 0, 2), (1, 2, 0, 1), (-1, 2, 1, 0)),
    "right-symplectic": ((2, 0, 2, 1), (-2, 1, 2, 0), (1, 2, 1, 0), (-1, 2, 0, 1)),
    "d-omega": ((1, 0, 1, 2), (-1, 0, 2, 1), (1, 1, 2, 0), (-1, 1, 0, 2), (1, 2, 0, 1),
                (-1, 2, 1, 0)),
    "diamond-symmetry": ((1, 0, 1, 2), (1, 0, 2, 1), (-1, 1, 0, 2), (-1, 1, 2, 0)),
}


def _scatter(kind: str, products, n: int) -> dict:
    """Twice the identity at every triple (i, j, k), i < j, that a term
    touches, keyed by (i n + j) n + k, so that key order is the
    lexicographic order of the triples.

    ``products`` lists (p, q, entries, s); an entry (x, col, v) stands for
    s * v * omega(e_x, e_p*e_q) in column col.  Each template adds it, times
    its 2 * coef, to the one triple it belongs to, and fixes which of x, p, q
    sit at i, j and k: i < j is tested once per product, or bounds x.  A term
    landing at i >= j is skipped, and no first witness is lost: every
    identity here is antisymmetric in (i, j) (d-omega totally so), so it
    vanishes at i = j, and a failing (i, j, k), i > j, has the failing
    (j, i, k) before it in the full lexicographic scan.
    """
    rows: dict = {}
    setdefault = rows.setdefault
    nn = n * n
    for twice, x_at, p_at, q_at in _TEMPLATES[kind]:
        swap = q_at < p_at  # of p and q, y sits before z in (i, j, k)
        for p, q, entries, s in products:
            y, z = (q, p) if swap else (p, q)
            t = twice * s
            # one loop per place of x: at most one comparison per entry
            if x_at == 0:
                base = y * n + z
                for x, col, v in entries:
                    if x < y:
                        row = setdefault(x * nn + base, {})
                        row[col] = row.get(col, 0) + t * v
            elif x_at == 1:
                base = y * nn + z
                for x, col, v in entries:
                    if y < x:
                        row = setdefault(base + x * n, {})
                        row[col] = row.get(col, 0) + t * v
            elif y < z:
                base = (y * n + z) * n
                for x, col, v in entries:
                    row = setdefault(base + x, {})
                    row[col] = row.get(col, 0) + t * v
    return rows


def _compat_report(a: Algebra, form: SkewForm, name: str, kinds) -> Check:
    """``_compat_scan``'s report, kept on the algebra by name for the last form (held)."""
    return kept(a, name, lambda: _compat_scan(a, form, name, kinds), form)


def _compat_scan(a: Algebra, form: SkewForm, name: str, kinds) -> Check:
    """The first failing triple of the full scan of each kind in turn."""
    if a.dim != form.dim:
        raise ValueError("dimension mismatch")
    if not form.nondegenerate:
        return _degenerate_report(name, form)
    scale, g = _gram_table(form, a)
    products = [(p, q, [(x, 0, v) for x, v in enumerate(image) if v], 1)
                for p, row in enumerate(g) for q, image in enumerate(row) if image]
    n = a.dim
    for kind in kinds:
        rows = _scatter(kind, products, n)
        key = min((t for t, row in rows.items() if row[0]), default=None)
        if key is not None:
            defect = Fraction(rows[key][0], 2 * scale)
            ij, k = divmod(key, n)
            return Check(name, False, witness=Witness(kind, (*divmod(ij, n), k), (defect,)))
    return Check(name, True)


def is_symplectic_left(a: Algebra, form: SkewForm) -> Check:
    """omega(u, v*w) - omega(v, u*w) = (1/2) omega(u*v, w) - (1/2) omega(v*u, w)."""
    return _compat_report(a, form, "left-symplectic", ("left-symplectic",))


def is_symplectic_right(a: Algebra, form: SkewForm) -> Check:
    """omega(u, w*v) - omega(v, w*u) = (1/2) omega(v*u, w) - (1/2) omega(u*v, w)."""
    return _compat_report(a, form, "right-symplectic", ("right-symplectic",))


def _split_report(a: Algebra, form: SkewForm, name: str, sign: int) -> Check:
    """The first basis triple where d omega(u, v, w)
    + sign (omega(u, v <> w) - omega(v, u <> w)) is nonzero: d omega is the
    Chevalley-Eilenberg differential of the form against the bracket, half
    the antisymmetrized product, and every scalar is a separate omega call."""
    if a.dim != form.dim:
        raise ValueError("dimension mismatch")
    if not form.nondegenerate:
        return _degenerate_report(name, form)
    bracket, diamond = split(a)
    e = [basis_vector(a.dim, i) for i in range(a.dim)]

    def defect(i, j, k):
        return (omega(form, e[i], bracket.c[j][k]) + omega(form, e[j], bracket.c[k][i])
                + omega(form, e[k], bracket.c[i][j]) + sign
                * (omega(form, e[i], diamond.c[j][k]) - omega(form, e[j], diamond.c[i][k])))
    return first_failure(name, ((ijk, (defect(*ijk),)) for ijk in product(range(a.dim), repeat=3)))


def is_symplectic_left_split(a: Algebra, form: SkewForm) -> Check:
    """Equivalent reformulation through the commutator/anticommutator split.

    d omega(u, v, w) = omega(v, u <> w) - omega(u, v <> w), where the bracket
    used inside d omega is half the antisymmetrized product.  A test oracle:
    every scalar is a separate omega call, sharing neither the Gram table nor
    the term lists of is_symplectic_left, so the two can be compared.
    """
    return _split_report(a, form, "left-symplectic-split", 1)


def is_symplectic_right_split(a: Algebra, form: SkewForm) -> Check:
    """d omega(u, v, w) = omega(u, v <> w) - omega(v, u <> w), mirror of the left case.

    A test oracle for is_symplectic_right, evaluated with omega like the left one.
    """
    return _split_report(a, form, "right-symplectic-split", -1)


def is_bi_symplectic(a: Algebra, form: SkewForm) -> Check:
    """The form is closed for the commutator bracket ("d-omega"), and the
    anticommutator satisfies omega(u <> w, v) = omega(v <> w, u)
    ("diamond-symmetry"); checked in that order on the product's Gram table."""
    return _compat_report(a, form, "bi-symplectic", ("d-omega", "diamond-symmetry"))


# ---------------------------------------------------------------------------
# solving for compatible forms

def form_coords(form: SkewForm) -> tuple[Fraction, ...]:
    n = form.dim
    return tuple(form.w.entries[i][j] for i in range(n) for j in range(i + 1, n))


@cache
def _coordinates(n: int) -> tuple[tuple, tuple]:
    """(cells, signed) in dimension n: cells[k] is the cell (i, j), i < j, of
    upper-triangle coordinate k, and signed[b] holds, for each x != b in
    order, (x, k, +1 or -1) with W[x][b] = +-coordinate k: k is the
    coordinate of the cell {x, b}, and the sign is + for x < b.  Filled in
    per dimension on first use."""
    cells = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    at = {cell: k for k, cell in enumerate(cells)}
    return cells, tuple(tuple((x, at[x, b], 1) if x < b else (x, at[b, x], -1)
                              for x in range(n) if x != b) for b in range(n))


def solve_symplectic_forms(a: Algebra, side: str = "left") -> Subspace:
    """All skew forms satisfying the chosen compatibility ("left", "right", or
    "bi" for both), as a subspace of strict upper-triangle coordinates.
    Nondegeneracy is not imposed; use find_nondegenerate to look for an
    invertible representative.

    The three spaces are equal for every product: left - right is twice
    d omega for the commutator, which is totally antisymmetric, and left +
    right has zero cyclic sum, so the cyclic sum of left is 3/2 (left - right)
    and left = 0 forces right = 0.  So "bi" solves the left rows alone; the
    kernel basis is canonical, so that is the stacked system's answer too.

    The rows are scattered off the nonzero structure constants through the
    templates the checks use: omega(e_x, e_p*e_q) is the sum of c[p][q][b] *
    W[x][b] over the nonzero c[p][q][b], and W[x][b] is +-1 times an
    upper-triangle coordinate, so each constant hands the scatter the signed
    coordinates of column b, read off a per-dimension table, with itself as
    the factor.  Every row is built over ints (``Algebra.int_nz``).  Exact
    repeats are removed, and the rows left reach ``kernel`` once each,
    shortest first; ``reduce_rows`` takes a single-entry row (about half) as
    a unit pivot and drops a cancelled term.
    """
    if side not in ("left", "right", "bi"):
        raise ValueError("side must be 'left', 'right', or 'bi'")
    n = a.dim
    signed = _coordinates(n)[1]
    products = [(p, q, signed[b], v) for p, row in enumerate(a.int_nz[1])
                for q, pairs in enumerate(row) for b, v in pairs]
    scattered = _scatter("right-symplectic" if side == "right" else "left-symplectic",
                         products, n)
    # each row keyed by its entries, so that exact repeats meet
    rows = {tuple(row.items()): row for row in scattered.values()}
    # short rows first: the pivots stay sparse; the RREF is canonical
    return kernel(sorted(rows.values(), key=len), n * (n - 1) // 2)


def _radical_free(basis: Sequence[Sequence[tuple[int, int]]], dim: int) -> bool:
    """Whether the skew forms with the given sparse int coordinates (k, x)
    share no nonzero radical vector: the rank of their Gram rows, stacked, is
    dim.  Each form's row i holds x at j and row j holds -x at i for each of
    its coordinates at the cell k = (i, j)."""
    cells = _coordinates(dim)[0]
    rows = []
    for coords in basis:
        gram: dict[int, dict[int, int]] = {}
        for k, x in coords:
            i, j = cells[k]
            gram.setdefault(i, {})[j] = x
            gram.setdefault(j, {})[i] = -x
        rows += gram.values()
    return len(reduce_rows(rows)) == dim


def find_nondegenerate(space: Subspace, dim: int, seed: int = 0,
                       attempts: int = 128) -> Optional[SkewForm]:
    """Random integer combinations of the basis, first invertible one wins.

    Each attempt draws one coefficient in [-10, 10] per basis row.  The search
    is probabilistic on purpose: a None only means none was found with this
    seed, not that the space contains no nondegenerate form.  When the space
    does contain one, the determinant of the combination is a nonzero
    polynomial of degree dim in the coefficients, so by Schwartz-Zippel one
    attempt misses with probability at most dim/21, and all of them with at
    most (dim/21)^attempts.  The bound says nothing for dim >= 21.  A skew
    matrix of odd size is always singular, so odd dimensions return None
    without drawing.

    The attempts run over integers: they read the basis scaled by the lcm of
    its denominators (``Subspace.int_basis``, which the solver fills in from
    its int pivots), each combination is tested with int_det, and only the
    winner is turned back into rationals.  Its SkewForm keeps what the search
    knows: the Gram matrix is skew by construction and int_det found it
    invertible, so there is no skew scan and no rank to take.  When the
    first attempt fails and the basis forms share a nonzero radical vector,
    every member of the space is degenerate, so that None is exact and is
    returned at once; otherwise the draws go on unchanged.  That test is one
    rank: the sparse int Gram rows of the basis forms, stacked, go to
    ``reduce_rows``, and a rank below dim is a common radical.  The CLI
    prints "none found" in both cases.
    """
    if space.ambient_dim != dim * (dim - 1) // 2:
        raise ValueError("coordinate space does not match the stated dimension")
    if dim % 2:
        return None
    den, basis = space.int_basis
    cells = _coordinates(dim)[0]

    def gram(coords, zero=0):  # the Gram matrix of sparse coordinates (k, x)
        w = [[zero] * dim for _ in range(dim)]
        for k, x in coords:
            i, j = cells[k]
            w[i][j], w[j][i] = x, -x
        return w

    rng = random.Random(seed)
    for attempt in range(attempts):
        coords = [0] * space.ambient_dim
        for row in basis:
            c = rng.randint(-10, 10)
            if c:
                for k, y in row:
                    coords[k] += c * y
        if int_det(gram(enumerate(coords))):
            w = gram(((k, Fraction(x, den)) for k, x in enumerate(coords) if x), ZERO)
            return SkewForm._skew(Matrix(dim, dim, tuple(map(tuple, w))), nondegenerate=True)
        if attempt == 0 and not _radical_free(basis, dim):
            return None
    return None


# ---------------------------------------------------------------------------
# star products

def _star(a: Algebra, form: SkewForm, pair) -> Algebra:
    """Solve W^T (e_i ⋆ e_j) = rhs for every basis pair with (W^T)^-1 = (W^-1)^T,
    where rhs[k] = -omega(e_j, e_p*e_q) and (p, q) = pair(i, k).

    Both factors are ints: the rhs are read off the int Gram table and
    (W^-1)^T off ``SkewForm.int_w_inv``, so each nonzero output entry is one
    Fraction of an int sum over the product of the scales.  The nonzero
    products, built in k order, are the star's sparse view
    (``Algebra._sparse``).
    """
    try:
        dinv, w_inv = form.int_w_inv
    except ValueError:  # W is singular
        raise ValueError("star product requires a nondegenerate form: "
                         + _degenerate_report("star", form).detail) from None
    n = a.dim
    scale, g = _gram_table(form, a)
    den = scale * dinv
    # column k of (W^-1)^T is row k of W^-1
    cols = [[(x, v) for x, v in enumerate(row) if v] for row in w_inv]
    products = {}
    for i in range(n):
        rows = [g[p][q] for p, q in (pair(i, k) for k in range(n))]
        for j in range(n):
            out = [0] * n
            for k, r in enumerate(rows):
                if r and r[j]:
                    for x, v in cols[k]:
                        out[x] -= v * r[j]
            if any(out):
                products[i, j] = [(x, Fraction(t, den)) for x, t in enumerate(out) if t]
    return Algebra._sparse(n, products, a.labels)


def star_left(a: Algebra, form: SkewForm) -> Algebra:
    """Product defined by omega(u ⋆ v, w) = -omega(v, u * w).

    The right-hand sides are read off the Gram table W c and solved against
    one precomputed inverse of W^T; nondegeneracy makes each solution unique.
    """
    return _star(a, form, lambda i, k: (i, k))


def star_right(a: Algebra, form: SkewForm) -> Algebra:
    """Product defined by omega(u ⋆ v, w) = -omega(v, w * u), computed as star_left."""
    return _star(a, form, lambda i, k: (k, i))


# ---------------------------------------------------------------------------
# orthogonals

def orthogonal(form: SkewForm, s: Subspace) -> Subspace:
    """{v : omega(v, s) = 0}: the kernel of the constraint rows b^T W, one
    per vector b of the int basis of s, built over ints as sparse rows
    (``SkewForm.int_covectors``)."""
    if s.ambient_dim != form.dim:
        raise ValueError("ambient dimension mismatch")
    return kernel(form.int_covectors(s.int_basis[1]), form.dim)


def is_isotropic(form: SkewForm, s: Subspace) -> bool:
    return orthogonal(form, s).contains_subspace(s)


def is_lagrangian(form: SkewForm, s: Subspace) -> bool:
    return orthogonal(form, s) == s


# ---------------------------------------------------------------------------
# a checked bundle

class SymplecticAlgebra(Record):
    """An algebra plus a compatible nondegenerate skew form, checked on build."""

    algebra: Algebra
    form: SkewForm
    side: str

    def __init__(self, algebra: Algebra, form: SkewForm, side: str = "left"):
        checks = {"left": is_symplectic_left, "right": is_symplectic_right,
                  "bi": is_bi_symplectic}
        if side not in checks:
            raise ValueError("side must be 'left', 'right', or 'bi'")
        rep = checks[side](algebra, form)
        if not rep.holds:
            raise ValueError(f"form is not {rep.name} compatible: {rep.detail}")
        self.__dict__.update(algebra=algebra, form=form, side=side)
