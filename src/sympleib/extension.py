"""Double extensions of symplectic Lie algebras.

The central object is a symplectic Lie algebra g together with extension data
(F, G, theta, psi, xi, Omega) indexed by a p-dimensional space h.  The data
assembles into a product on h + g + h* which is a symplectic left Leibniz
algebra exactly when a finite list of linear and quadratic equations holds.
Two equivalent forms of that list are implemented, the long direct one and
the shorter reduced one, and the skew case G = -F, xi = -psi has a third.
One table writes each equation once: its name, its index ranges and its
defect over the derived operators (F*, G*, S, S*, K, K*), built once per
request, over ints at one scale (``exactlin.int_scaled``).  A criterion is a
title and an ordered tuple of equation names, each scanned once per data
object; the dense copies in tests/test_extension.py are their oracles.  The
rank-one criterion is the reduced list read on the data of
``rank_one_extension``, (F, S - F, c0, a0, b0, lambda) at p = 1, which the
rank-one check and builders share.

Every construction on h + g + h* is build_double_extension on its own data:
the Lagrangian case is the cube over the 0-dim symplectic Lie algebra, the
commutative bi-symplectic one a symmetric cube over an abelian base, both
with F = G = 0 and theta = psi = xi = 0, and the inner case the data read
off the adapted basis h_i + H e_i, where h is isotropic and orthogonal to g;
the shear h_i -> h_i + H e_i is its certificate (tests/oracles.py holds the
product in the basis before it).  Each special builder checks its own inputs
and hands its data to the one reduced criterion, which reads back each
equation already scanned on the data, the one assembly and the one
post-build check (``_build``, which the rank-one builder shares).

A layout names the basis positions of h, g and h* and the basis labels: the
rank-one builders use the order (g, e, e*), the others (h, g, h*).  One
filler writes a product from one table per block (h,h), (h,g), (g,h), (g,g),
each giving an entry's g-part and h*-part, through ``Algebra.from_table``;
one form helper writes the middle Gram matrix plus the pairing
W[h_i][h*_i] = -1; and one verifier runs a builder's post-build checks and
raises with the witness of the first that fails.  The product is one block
table over the same int atoms as the criteria, which the rank-one layout
reads on the embedded data; the forms are skew by construction and skip the
skew scan.  Each assembled pair is kept on d for its base, and the star of an
extension is star_left of that pair; the closed-form product and star tables
of tests/oracles.py, by Fraction arithmetic, are their oracle.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import partial
from itertools import product
from fractions import Fraction
from math import lcm
from operator import add, mul, sub

from sympleib.algebra import (
    Algebra,
    center,
    derivations,
    is_left_leibniz,
    is_left_symmetric,
    is_lie,
    is_symmetric_leibniz,
    multiply,
    right_mult,
)
from sympleib.exactlin import (
    HALF,
    ONE,
    ZERO,
    Matrix,
    Subspace,
    denominator,
    int_scaled,
    rat,
    solve_unique,
    vadd,
    vector,
    vscale,
    vsub,
    vzero,
)
from sympleib.reporting import Check, Record, SystemReport, Witness, kept
from sympleib.symplectic import (
    SkewForm,
    is_bi_symplectic,
    is_isotropic,
    is_symplectic_left,
    omega,
    orthogonal,
    star_left,
)


class SymplecticLie(Record):
    """A Lie algebra with a closed nondegenerate skew form and its cached star.

    The star product u * v, defined by omega(u * v, w) = -omega(v, [u, w]),
    is left symmetric with commutator equal to the bracket; both facts are
    verified at construction time, after the Jacobi identity of g and the
    form's compatibility, all four over the int views of the two algebras:
    the commutator is compared with the bracket pair by pair, the scales
    cross-multiplied, and no commutator algebra is built.
    """

    g: Algebra
    form: SkewForm
    star: Algebra

    def __init__(self, g: Algebra, form: SkewForm):
        rep = is_lie(g)
        if not rep.holds:
            raise ValueError(f"not a Lie algebra: {rep.detail}")
        srep = is_symplectic_left(g, form)
        if not srep.holds:
            raise ValueError(f"form is not symplectic for the bracket: {srep.detail}")
        star = star_left(g, form)
        lsym = is_left_symmetric(star)
        if not lsym.holds:
            raise ValueError(f"internal error: star product is not left symmetric: {lsym.detail}")
        comm = _star_commutator(star, g)
        if not comm.holds:
            raise ValueError(f"internal error: star commutator differs from bracket: {comm.detail}")
        self.__dict__.update(g=g, form=form, star=star)

    @property
    def dim(self) -> int:
        return self.g.dim


def _vector_grid(p: int, m: int, entries) -> tuple:
    if len(entries) != p or any(len(row) != p for row in entries):
        raise ValueError(f"grid must be {p} x {p}")
    # a scalar where a vector belongs, a string ("1/2") included, is refused
    # as a vector of the wrong length
    grid = tuple(tuple(vector(v) if isinstance(v, Iterable) and not isinstance(v, str)
                       else None for v in row) for row in entries)
    if any(v is None or len(v) != m for row in grid for v in row):
        raise ValueError("grid vector has wrong length")
    return grid


class ExtensionData(Record):
    """Raw ingredients of a double extension over a p-dimensional h."""

    p: int
    F: tuple[Matrix, ...]
    G: tuple[Matrix, ...]
    theta: tuple
    psi: tuple
    xi: tuple
    omega_cube: tuple

    def __init__(self, p, F, G, theta, psi, xi, omega_cube):
        F = tuple(F)
        G = tuple(G)
        if len(F) != p or len(G) != p:
            raise ValueError("need one F and one G operator per h direction")
        if p == 0:
            raise ValueError("p must be positive")
        m = F[0].rows
        for op in (*F, *G):
            if op.rows != m or op.cols != m:
                raise ValueError("operators must be square of equal size")
        self.__dict__.update(p=p, F=F, G=G, theta=_vector_grid(p, m, theta),
                             psi=_vector_grid(p, m, psi), xi=_vector_grid(p, m, xi),
                             omega_cube=_vector_grid(p, p, omega_cube))

    @property
    def gdim(self) -> int:
        return self.F[0].rows

    def S(self, i: int) -> Matrix:
        return self.F[i] + self.G[i]


def zero_grid(p: int, m: int) -> tuple:
    return tuple(tuple(vzero(m) for _ in range(p)) for _ in range(p))


def zero_cube(p: int) -> tuple:
    return zero_grid(p, p)


# ---------------------------------------------------------------------------
# generic check plumbing


def _scan(name: str, indices, defect) -> Check:
    """The first index whose defect (a number, an int matrix or a tuple) is nonzero."""
    for idx in indices:
        d = defect(*idx)
        if any(d) if isinstance(d, tuple) else d:
            return Check(name, False, f"fails at indices {idx}")
    return Check(name, True)


def _derivation_check(g: Algebra, ops: Sequence[Matrix], name: str) -> Check:
    """Whether each D in ops is a derivation: D(e_a e_b) = D(e_a) e_b + e_a D(e_b)
    at every basis pair, the first failing (t, a, b) in order reported.

    Both sides are summed as one sparse {k: value} difference over the int
    constants ``g.int_nz`` and the nonzero entries of D's columns.
    """
    n, nz = g.dim, g.int_nz[1]
    for t, d in enumerate(ops):
        cols = [[(r, x) for r, x in enumerate(d.col(k)) if x] for k in range(n)]
        for a, b in product(range(n), repeat=2):
            acc: dict[int, int] = {}
            for k, x in nz[a][b]:  # D(e_a e_b)
                for r, y in cols[k]:
                    acc[r] = acc.get(r, 0) + x * y
            for r, y in cols[a]:  # D(e_a) e_b
                for k, x in nz[r][b]:
                    acc[k] = acc.get(k, 0) - y * x
            for r, y in cols[b]:  # e_a D(e_b)
                for k, x in nz[a][r]:
                    acc[k] = acc.get(k, 0) - y * x
            if any(acc.values()):
                return Check(name, False, f"operator {t} fails at pair ({a}, {b})")
    return Check(name, True)


class _Ints:
    """A square int matrix with the operations the criteria use; true when nonzero."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        self.rows = rows

    def __add__(self, other: "_Ints") -> "_Ints":
        return _Ints(tuple(tuple(map(add, r, t)) for r, t in zip(self.rows, other.rows)))

    def __sub__(self, other: "_Ints") -> "_Ints":
        return _Ints(tuple(tuple(map(sub, r, t)) for r, t in zip(self.rows, other.rows)))

    def __matmul__(self, other: "_Ints") -> "_Ints":
        cols = tuple(zip(*other.rows))
        return _Ints(tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.rows))

    def __floordiv__(self, q: int) -> "_Ints":  # exact wherever it is used
        return _Ints(tuple(tuple(x // q for x in r) for r in self.rows))

    def __bool__(self) -> bool:
        return any(map(any, self.rows))

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def matvec(self, v) -> tuple[int, ...]:
        return tuple(sum(map(mul, r, v)) for r in self.rows)


def _mult(c, u) -> _Ints:
    """The matrix of v -> u v over the int constants c[i][j] = e_i e_j."""
    m = len(u)
    out = [[0] * m for _ in range(m)]
    for i, x in enumerate(u):
        if x:
            for j, v in enumerate(c[i]):
                for k, z in enumerate(v):
                    if z:
                        out[k][j] += x * z
    return _Ints(tuple(map(tuple, out)))


class _Derived:
    """What the criteria and the block tables read off (gs, d), over ints.

    It is kept on d for the last gs (``kept``, gs held), so a request builds
    it once, and the criteria keep each equation's report on it by name, so a
    second criterion reads back the equations the first scanned.
    Every atom is held times one scale s: the data F, G, th, ps, xi, Om, the
    constants c of g and cs of its star, the Gram matrix w, and per h
    direction F*, G*, S = F + G, S*, K = S/2 - F - F* and K* = S*/2 - F* - F
    (the adjoint is an involution for a skew form).  For D the lcm of the
    denominators of the data, the constants and W, and d_v that of W^-1
    (``SkewForm.int_w_inv``), s = 2 d_v D^2 makes each an int, as
    d_v D^2 F* = (d_v W^-1)(D F)^T(D W).  Each equation is homogeneous in the
    atoms, so its defect, s^k times the true one, vanishes at the same indices.
    """

    def __init__(self, gs: SymplecticLie, d: ExtensionData):
        if d.gdim != gs.dim:
            raise ValueError("extension data does not match the algebra dimension")
        self.g, self.p, self.m = gs.g, d.p, d.gdim
        grids = (d.theta, d.psi, d.xi, d.omega_cube)
        D = lcm(denominator(x for op in (*d.F, *d.G) for r in op.entries for x in r),
                denominator(x for grid in grids for row in grid for v in row for x in v),
                gs.form.int_w[0], gs.g.int_nz[0], gs.star.int_nz[0])
        dv, winv = gs.form.int_w_inv
        s = self.scale = 2 * dv * D * D

        def times(rows) -> tuple:
            return int_scaled(rows, s)[1]
        self.th, self.ps, self.xi, self.Om = (tuple(map(times, grid)) for grid in grids)
        self.c, self.cs = tuple(map(times, gs.g.c)), tuple(map(times, gs.star.c))
        self.w, winv = _Ints(times(gs.form.w.entries)), _Ints(winv)
        # ad u = [u, .], rstar u = . * u and lstar[a] = e_a * . in the star
        self.ad, self.rstar = partial(_mult, self.c), partial(_mult, tuple(zip(*self.cs)))
        self.lstar = tuple(_Ints(tuple(zip(*row))) for row in self.cs)

        def adjoint(op: _Ints) -> _Ints:  # (d_v W^-1)(s op)^T(s W) = d_v s^2 op*
            return (winv @ _Ints(tuple(zip(*op.rows))) @ self.w) // (dv * s)
        self.F, self.G = (tuple(_Ints(times(op.entries)) for op in ops) for ops in (d.F, d.G))
        self.Fs, self.Gs = tuple(map(adjoint, self.F)), tuple(map(adjoint, self.G))
        self.S, self.Ss = tuple(map(add, self.F, self.G)), tuple(map(add, self.Fs, self.Gs))
        self.K = tuple(S // 2 - f - fs for S, f, fs in zip(self.S, self.F, self.Fs))
        self.Ks = tuple(Ss // 2 - fs - f for Ss, f, fs in zip(self.Ss, self.F, self.Fs))

    def om(self, u, v) -> int:
        return sum(map(mul, u, self.w.matvec(v)))


# ---------------------------------------------------------------------------
# the criterion equations, each written once


def _omega_cube(p: int, Om) -> Check:
    """Om(x, z, y) - Om(y, z, x) = (Om(x, y, z) - Om(y, x, z)) / 2 on h^3, doubled."""
    return _scan("omega-cube", product(range(p), repeat=3), lambda x, y, z:
                 2 * (Om[x][z][y] - Om[y][z][x]) - Om[x][y][z] + Om[y][x][z])


def _over(ranges: str, defect):
    """An equation that holds where defect(e, *idx) is zero, scanned in
    lexicographic order over one index range per letter: p for h, m for g."""
    def run(e: _Derived, name: str) -> Check:
        sizes = {"p": e.p, "m": e.m}
        return _scan(name, product(*(range(sizes[r]) for r in ranges)), partial(defect, e))
    return run


# name -> run(e, name), a Check on the derived set e; the three with a half are doubled
_EQUATIONS = {
    "F-derivations": lambda e, name: _derivation_check(e.g, e.F, name),
    "G-derivations": lambda e, name: _derivation_check(e.g, e.G, name),
    "omega-cube": lambda e, name: _omega_cube(e.p, e.Om),
    "psi-antisym-theta": _over("pp", lambda e, x, y: vsub(
        vscale(2, vsub(e.ps[x][y], e.ps[y][x])), vsub(e.th[x][y], e.th[y][x]))),
    "theta-from-xi-psi": _over("pp", lambda e, x, y: vsub(
        vscale(2, vsub(e.th[x][y], e.xi[y][x])), vsub(e.ps[x][y], e.xi[x][y]))),
    "theta-xi-psi-pairing": _over("pppp", lambda e, x, y, z, t:
        e.om(e.th[x][y], e.xi[z][t]) - e.om(e.th[y][z], e.ps[x][t])
        + e.om(e.th[x][z], e.ps[y][t])),
    "F-theta-G-theta": _over("ppp", lambda e, x, y, z: vsub(
        vsub(e.F[x].matvec(e.th[y][z]), e.F[y].matvec(e.th[x][z])),
        e.G[z].matvec(e.th[x][y]))),
    "Fstar-psi-K-theta": _over("ppp", lambda e, x, y, z: vadd(
        vsub(e.Fs[x].matvec(e.ps[y][z]), e.Fs[y].matvec(e.ps[x][z])),
        e.K[z].matvec(e.th[x][y]))),
    "Fstar-xi-Gstar-psi": _over("ppp", lambda e, x, y, z: vsub(
        vsub(e.Fs[x].matvec(e.xi[y][z]), e.Gs[y].matvec(e.ps[x][z])),
        e.Ks[z].matvec(e.th[x][y]))),
    "S-xi": _over("ppp", lambda e, x, y, z: e.S[x].matvec(e.xi[y][z])),
    "star-sum-skew": _over("p", lambda e, x: e.Fs[x] + e.Gs[x] + e.F[x] + e.G[x]),
    "K-S": _over("pp", lambda e, x, y: e.K[y] @ e.S[x]),
    "G-S": _over("pp", lambda e, x, y: e.G[y] @ e.S[x]),
    "Rstar-psi-K-F": _over("pp", lambda e, x, y:
        e.rstar(e.ps[x][y]) + e.K[y] @ e.F[x] + e.Fs[x] @ e.K[y]),
    "Rstar-xi-Kstar-G": _over("pp", lambda e, x, y:
        e.rstar(e.xi[x][y]) + e.Ks[y] @ e.G[x] + e.Gs[x] @ e.K[y]),
    "ad-theta-FF": _over("pp", lambda e, x, y:
        e.ad(e.th[x][y]) - (e.F[x] @ e.F[y] - e.F[y] @ e.F[x])),
    "FF-plus-FG": _over("pp", lambda e, x, y:
        (e.F[x] @ e.F[y] - e.F[y] @ e.F[x]) + (e.F[x] @ e.G[y] - e.G[y] @ e.F[x])),
    "ad-S-image": _over("pm", lambda e, x, r: e.ad(e.S[x].col(r))),
    "K-bracket-derivation": _over("pmm", lambda e, x, a, b: vsub(
        e.K[x].matvec(e.c[a][b]),
        vsub(e.lstar[a].matvec(e.K[x].col(b)), e.lstar[b].matvec(e.K[x].col(a))))),
    "psi-xi-antisym": _over("pp", lambda e, x, y: vsub(
        vsub(e.ps[x][y], e.ps[y][x]), vsub(e.xi[y][x], e.xi[x][y]))),
    "F-theta-cyclic-S": _over("ppp", lambda e, x, y, z: vsub(
        vadd(vsub(e.F[x].matvec(e.th[y][z]), e.F[y].matvec(e.th[x][z])),
             e.F[z].matvec(e.th[x][y])),
        e.S[z].matvec(e.th[x][y]))),
    "Fstar-psi-xi-S": _over("ppp", lambda e, x, y, z: vadd(
        vadd(e.Fs[x].matvec(vadd(e.ps[y][z], e.xi[y][z])), e.S[y].matvec(e.ps[x][z])),
        e.S[z].matvec(e.th[x][y]))),
    "Rstar-psi-FF": _over("pp", lambda e, x, y: e.rstar(e.ps[x][y])
        - ((e.F[y] + e.Fs[y]) @ e.F[x] + e.Fs[x] @ (e.F[y] + e.Fs[y]))),
    "Rstar-psi-xi": _over("pp", lambda e, x, y: e.rstar(vadd(e.ps[x][y], e.xi[x][y]))),
    "S-star-image": _over("pmm", lambda e, x, a, b: e.S[x].matvec(e.cs[a][b])),
    "S-skew-adjoint": _over("p", lambda e, x: e.Ss[x] + e.S[x]),
    "S-F-annihilation": _over("pp", lambda e, x, y:
        (e.S[x] @ e.S[y], e.F[x] @ e.S[y], e.S[x] @ e.F[y])),
    "cyclic-pairing": _over("pppp", lambda e, x, y, z, t:
        e.om(e.th[x][y], e.ps[z][t]) + e.om(e.th[y][z], e.ps[x][t])
        + e.om(e.th[z][x], e.ps[y][t])),
}
# with xi = -psi, theta-from-xi-psi reads theta(x, y) = psi(x, y) - psi(y, x)
_EQUATIONS["theta-psi-antisym"] = _EQUATIONS["theta-from-xi-psi"]


def _criterion(gs: SymplecticLie, d: ExtensionData, title: str, names) -> SystemReport:
    """Each named equation's report on the derived set of (gs, d), scanned once there."""
    e = kept(d, "derived", partial(_Derived, gs, d), gs)
    return SystemReport(title, tuple(kept(e, name, partial(_EQUATIONS[name], e, name))
                                     for name in names))


def check_full_system(gs: SymplecticLie, d: ExtensionData) -> SystemReport:
    """The long criterion list for (dd) to be symplectic left Leibniz.

    Each equation is written once, in the table shared with the reduced and
    isotropic criteria; the dense copies of the three criteria in
    tests/test_extension.py are their oracles.
    """
    return _criterion(gs, d, "double extension criterion (direct form)", (
        "F-derivations", "G-derivations", "omega-cube", "psi-antisym-theta",
        "theta-from-xi-psi", "theta-xi-psi-pairing", "F-theta-G-theta",
        "Fstar-psi-K-theta", "Fstar-xi-Gstar-psi", "S-xi", "star-sum-skew", "K-S", "G-S",
        "Rstar-psi-K-F", "Rstar-xi-Kstar-G", "ad-theta-FF", "FF-plus-FG", "ad-S-image",
        "K-bracket-derivation"))


def check_reduced_system(gs: SymplecticLie, d: ExtensionData) -> SystemReport:
    """The shorter equivalent criterion list.

    Each equation is written once, in the table shared with the direct and
    isotropic criteria; the dense copies of the three criteria in
    tests/test_extension.py are their oracles.
    """
    return _criterion(gs, d, "double extension criterion (reduced form)", (
        "F-derivations", "G-derivations", "omega-cube", "psi-xi-antisym",
        "theta-from-xi-psi", "theta-xi-psi-pairing", "F-theta-cyclic-S",
        "Fstar-psi-K-theta", "Fstar-psi-xi-S", "ad-theta-FF", "Rstar-psi-FF",
        "Rstar-psi-xi", "S-star-image", "S-skew-adjoint", "S-xi", "S-F-annihilation"))


# ---------------------------------------------------------------------------
# assembling on h + g + h*


class _Layout(Record):
    """Where the h, g and h* coordinates sit in the basis, and the basis labels."""

    h: tuple[int, ...]
    g: tuple[int, ...]
    hs: tuple[int, ...]
    labels: tuple[str, ...]

    def __init__(self, h, g, hs, labels):
        self.__dict__.update(h=h, g=g, hs=hs, labels=labels)

    @property
    def dim(self) -> int:
        return len(self.h) + len(self.g) + len(self.hs)


def _layout(p: int, glabels: Sequence[str]) -> _Layout:
    """The basis order h, g, h*, labelled H1.., glabels, A1.."""
    m = len(glabels)
    return _Layout(tuple(range(p)), tuple(range(p, p + m)), tuple(range(p + m, 2 * p + m)),
                   tuple(f"H{i + 1}" for i in range(p)) + tuple(glabels)
                   + tuple(f"A{i + 1}" for i in range(p)))


def _rank_one_layout(g: Algebra) -> _Layout:
    """The basis order g, e, e* of the rank-one constructions."""
    m = g.dim
    return _Layout((m,), tuple(range(m)), (m + 1,),
                   tuple(g.basis_label(a) for a in range(m)) + ("e", "estar"))


def _fill(layout: _Layout, hh, hg, gh, gg) -> Algebra:
    """Structure constants on h + g + h* from one table per block.

    A table maps the local indices (x, y) of e_x * e_y, each counted inside
    its own block, to the product's (g-part, h*-part).  Only nonzero
    coordinates are written, as a product table for ``Algebra.from_table``,
    which seeds the sparse and int views.
    """
    products = {}
    h, g, hs = layout.h, layout.g, layout.hs
    for rows, cols, table in ((h, h, hh), (h, g, hg), (g, h, gh), (g, g, gg)):
        for x, r in enumerate(rows):
            for y, s in enumerate(cols):
                gpart, hspart = table(x, y)
                entry = {k: v for k, v in (*zip(g, gpart), *zip(hs, hspart)) if v}
                if entry:
                    products[r, s] = entry
    return Algebra.from_table(layout.dim, products, layout.labels, one_based=False)


def _form(layout: _Layout, middle) -> SkewForm:
    """The middle Gram matrix on the g block and the hyperbolic pairing
    W[h_i][h*_i] = -1, W[h*_i][h_i] = 1: W is skew by construction, with no
    skew scan."""
    n = layout.dim
    w = [[ZERO] * n for _ in range(n)]
    for a, r in enumerate(layout.g):
        for b, s in enumerate(layout.g):
            w[r][s] = middle[a][b]
    for i, k in zip(layout.h, layout.hs):
        w[i][k], w[k][i] = -ONE, ONE
    return SkewForm._skew(Matrix(n, n, tuple(map(tuple, w))))


def _verify(*checks) -> None:
    """Post-build verification: run each (what, report) pair in order and raise
    AssertionError with the witness of the first report that fails.  Each
    report is a zero-argument callable, so a check runs only after the
    earlier ones held."""
    for what, run in checks:
        rep = run()
        if not rep.holds:
            raise AssertionError(f"{what}: {rep.detail}")


def _star_commutator(star: Algebra, g: Algebra) -> Check:
    """Whether u * v - v * u = [u, v] for a Lie algebra g, compared over the
    int views, each side times the other's scale.  Both sides are
    antisymmetric, so the first pair (i, j) where they differ has i < j; its
    defect (e_i * e_j - e_j * e_i) - [e_i, e_j] is the witness."""
    ds, ts = star.int_nz
    dg, tg = g.int_nz
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            d = {k: -ds * x for k, x in tg[i][j]}
            for f, pairs in ((dg, ts[i][j]), (-dg, ts[j][i])):
                for k, x in pairs:
                    d[k] = d.get(k, 0) + f * x
            if any(d.values()):
                return Check("star-commutator", False, witness=Witness(
                    "star-commutator", (i, j),
                    vsub(vsub(star.c[i][j], star.c[j][i]), g.c[i][j])))
    return Check("star-commutator", True)


def _blocks(gs: SymplecticLie, d: ExtensionData) -> tuple:
    """The block tables (hh, hg, gh, gg) of the product.

    The g-parts are the data and the constants of g.  An h*-part lists
    omega(v, e_a) over p vectors v: psi(x, .), xi(x, .) and, on (g, g), the
    columns of the derived K = S/2 - F - F*, read off the int covectors
    v (sW) of the derived set, at scale s^2, one int matrix product per h
    direction.  Each computed entry becomes a Fraction once, as ``_fill``
    reads the table.
    """
    e, p, Om = kept(d, "derived", partial(_Derived, gs, d), gs), d.p, d.omega_cube
    s2 = e.scale ** 2

    def q(values) -> list:
        return [Fraction(x, s2) if x else ZERO for x in values]

    def pair(rows) -> _Ints:  # row k: the covector of rows[k]
        return _Ints(tuple(rows)) @ e.w
    P, X = [pair(row) for row in e.ps], [pair(row) for row in e.xi]
    KW = [pair(zip(*k.rows)) for k in e.K]  # row a of entry k: column a of K_k
    return (lambda x, y: (d.theta[x][y], Om[x][y]),
            lambda x, a: (d.F[x].col(a), q(P[x].col(a))),
            lambda a, x: (d.G[x].col(a), q(X[x].col(a))),
            lambda a, b: (gs.g.c[a][b], q(KW[k].rows[a][b] for k in range(p))))


def _assemble_double_extension(gs: SymplecticLie, d: ExtensionData) -> tuple[Algebra, SkewForm]:
    """The product and form on h + g + h*, no checks, kept on d for gs: a
    build and its star assemble once."""
    layout = _layout(d.p, [gs.g.basis_label(a) for a in range(gs.dim)])
    return kept(d, "assembly", lambda: (_fill(layout, *_blocks(gs, d)),
                                        _form(layout, gs.form.w.entries)), gs)


def _build(gs: SymplecticLie, d: ExtensionData, what: str, assemble) -> tuple[Algebra, SkewForm]:
    """Checked assembly: the reduced criterion first, then ``assemble(gs, d)``,
    then the product checked left Leibniz and the form compatible with it.

    Each equation's report is kept on d, so an equation that a check already
    scanned on the same (gs, d) is read back, not scanned again.
    """
    report = check_reduced_system(gs, d)
    if not report.ok:
        names = ", ".join(c.name for c in report.failed())
        raise ValueError(f"{what} fails the criterion: {names}")
    algebra, form = assemble(gs, d)
    _verify(("assembled product is not left Leibniz", lambda: is_left_leibniz(algebra)),
            ("assembled form is not compatible", lambda: is_symplectic_left(algebra, form)))
    return algebra, form


def build_double_extension(gs: SymplecticLie, d: ExtensionData) -> tuple[Algebra, SkewForm]:
    """The checked product and form on h + g + h* (``_build``)."""
    return _build(gs, d, "extension data", _assemble_double_extension)


def build_left_symmetric(gs: SymplecticLie, d: ExtensionData) -> Algebra:
    """The star product of the extension: star_left of the assembled pair,
    checked left symmetric.  The closed form of ``tests/oracles.py`` is its
    oracle."""
    star = star_left(*_assemble_double_extension(gs, d))
    _verify(("assembled star is not left symmetric", lambda: is_left_symmetric(star)))
    return star


# ---------------------------------------------------------------------------
# special data for the one builder


def _plain_data(p: int, m: int, cube) -> ExtensionData:
    """F = G = 0 and theta = psi = xi = 0 over an m-dim base: the product is
    the cube on (h, h) alone."""
    zero = [Matrix.zero(m, m)] * p
    return ExtensionData(p, zero, zero, zero_grid(p, m), zero_grid(p, m), zero_grid(p, m), cube)


def build_lagrangian(p: int, omega_cube) -> tuple[Algebra, SkewForm]:
    """Product on h + h* determined by a cube alone: the double extension of
    the 0-dim symplectic Lie algebra by ``_plain_data``.

    The only nonzero products are (h, h) pairs landing in h*; the criterion
    reduces to the single linear cube condition, checked up front.
    """
    d = _plain_data(p, 0, omega_cube)
    cube = _omega_cube(p, d.omega_cube)
    if not cube.holds:
        raise ValueError(f"cube condition {cube.detail}")
    point = SymplecticLie(Algebra(0, ()), SkewForm._skew(Matrix(0, 0, ())))
    return build_double_extension(point, d)


# ---------------------------------------------------------------------------
# isotropic image case with inner derivations


def check_isotropic_system(gs: SymplecticLie, F: Sequence[Matrix], psi, theta,
                           omega_cube) -> SystemReport:
    """Criterion for the skew case G = -F, xi = -psi over a centerless algebra.

    It reads the table of the other two criteria on the data (F, -F, theta,
    psi, -psi, Omega), where S = 0 and so K = -(F + F*).
    """
    if center(gs.g).dim != 0:
        raise ValueError("the base Lie algebra must have trivial center")
    p = len(F)
    ps = _vector_grid(p, gs.dim, psi)
    d = ExtensionData(p, F, [-f for f in F], theta, ps,
                      [[vscale(-ONE, v) for v in row] for row in ps], omega_cube)
    return _criterion(gs, d, "isotropic double extension criterion", (
        "F-derivations", "omega-cube", "theta-psi-antisym", "cyclic-pairing",
        "Fstar-psi-K-theta", "Rstar-psi-K-F", "ad-theta-FF"))


def build_inner_extension(gs: SymplecticLie, H: Matrix, psi, omega_cube
                          ) -> tuple[Algebra, SkewForm]:
    """Extension with every h-derivation inner, written through H: h -> g.

    Column i of H is the element u_i of g implementing the action of the i-th
    h direction.  Preconditions are collected and reported together.  The
    algebra comes in the adapted basis h_i + u_i, g, h*, where h is isotropic
    and orthogonal to g: the double extension with F_i = ad u_i, G_i = -F_i,
    theta(x, y) = [u_x, u_y], psi'(x, k) = psi(x, k) + u_x * u_k in the star
    of g, xi' = -psi' and Omega'(x, y, k) = Omega(x, y, k)
    + omega(psi(x, k), u_y) - omega(psi(y, k), u_x) + omega([u_x, u_y], u_k).
    The shear h_i -> h_i + u_i is its certificate: tests/oracles.py writes the
    same algebra in the basis h, g, h*.
    """
    g, wg = gs.g, gs.form
    m = g.dim
    p = H.cols
    if H.rows != m:
        raise ValueError("H must map h into g")
    ps = _vector_grid(p, m, psi)
    Om = _vector_grid(p, p, omega_cube)

    failures = []
    if center(g).dim != 0:
        failures.append("trivial-center")
    if len(derivations(g)) != m:
        failures.append("all-derivations-inner")
    if any(ps[x][y] != ps[y][x] for x in range(p) for y in range(p)):
        failures.append("psi-symmetric")
    if any(not right_mult(gs.star, ps[x][y]).is_zero()
           for x in range(p) for y in range(p)):
        failures.append("Rstar-psi-zero")
    if not _omega_cube(p, Om).holds:
        failures.append("omega-cube")
    if failures:
        raise ValueError("preconditions violated: " + ", ".join(failures))

    u = [H.col(k) for k in range(p)]
    theta = [[multiply(g, ux, uy) for uy in u] for ux in u]
    shifted = [[vadd(ps[x][k], multiply(gs.star, u[x], u[k])) for k in range(p)] for x in range(p)]
    cube = [[[Om[x][y][k] + omega(wg, ps[x][k], u[y]) - omega(wg, ps[y][k], u[x])
              + omega(wg, theta[x][y], u[k]) for k in range(p)] for y in range(p)]
            for x in range(p)]
    ad = [-right_mult(g, v) for v in u]  # [u, .] = -(. u)
    return build_double_extension(gs, ExtensionData(
        p, ad, [-f for f in ad], theta, shifted,
        [[vscale(-ONE, v) for v in row] for row in shifted], cube))


# ---------------------------------------------------------------------------
# rank one (one-dimensional h)


def rank_one_extension(F: Matrix, S: Matrix, a0, b0, lam) -> ExtensionData:
    """(F, S, a0, b0, lambda) as general data with p = 1: G = S - F,
    theta = c0 = (a0 + b0)/2, psi = a0, xi = b0 and Omega = lambda.  The
    rank-one check and builders take this one object, so a check and a build
    of it share one derived set."""
    a0, b0 = vector(a0), vector(b0)
    return ExtensionData(1, [F], [S - F], [[vscale(HALF, vadd(a0, b0))]], [[a0]], [[b0]], [[[lam]]])


def _rank_one(d: ExtensionData) -> ExtensionData:
    """d itself, refused unless p = 1: the layout (g, e, e*) has one e."""
    if d.p != 1:
        raise ValueError(f"rank-one data needs p = 1, got p = {d.p}")
    return d


def check_rank_one(gs: SymplecticLie, d: ExtensionData) -> SystemReport:
    """The reduced criterion on rank-one data (``rank_one_extension``); the
    dense hand-written rank-one list in tests/test_extension.py is its oracle."""
    return check_reduced_system(gs, _rank_one(d))


def _assemble_rank_one(gs: SymplecticLie, d: ExtensionData) -> tuple[Algebra, SkewForm]:
    """The product and form on g + Ke + Ke*, no checks, kept on d for gs."""
    layout = _rank_one_layout(gs.g)
    return kept(_rank_one(d), "rank-one assembly", lambda: (_fill(layout, *_blocks(gs, d)),
                                                            _form(layout, gs.form.w.entries)), gs)


def rank_one_star(gs: SymplecticLie, d: ExtensionData) -> Algebra:
    """Star product of the rank-one extension: star_left of its assembled
    pair, in the basis order (g, e, e*)."""
    return star_left(*_assemble_rank_one(gs, d))


def build_rank_one(gs: SymplecticLie, d: ExtensionData) -> tuple[Algebra, SkewForm]:
    """One-dimensional double extension on g + Ke + Ke*; as for
    build_double_extension, a check_rank_one already run on d is read back."""
    return _build(gs, _rank_one(d), "rank-one data", _assemble_rank_one)


# ---------------------------------------------------------------------------
# bi-symplectic constructions


def _totally_symmetric(cube, n: int) -> bool:
    """Whether cube[i][j][k] on an n^3 index range is unchanged by every
    permutation of (i, j, k)."""
    return all(cube[i][j][k] == cube[j][i][k] == cube[i][k][j]
               for i, j, k in product(range(n), repeat=3))


def build_bisymplectic_from_T(gs: SymplecticLie, iso: Subspace, T) -> Algebra:
    """Deform the bracket by a symmetric rho with omega(rho(u, v), w) = T(u, v, w).

    T must be symmetric, supported away from the orthogonal of the central
    isotropic subspace iso; rho is solved exactly and checked to land in iso.
    """
    g, w = gs.g, gs.form
    m = g.dim
    cube = tuple(tuple(tuple(rat(x) for x in T[i][j]) for j in range(m)) for i in range(m))
    failures = []
    if not center(g).contains_subspace(iso):
        failures.append("iso-central")
    if not is_isotropic(w, iso):
        failures.append("iso-isotropic")
    if not _totally_symmetric(cube, m):
        failures.append("T-symmetric")
    perp = orthogonal(w, iso)
    ok = all(sum((v[k] * cube[i][j][k] for k in range(m)), ZERO) == 0
             for v in perp.basis.entries for i in range(m) for j in range(m))
    if not ok:
        failures.append("T-vanishes-on-iso-perp")
    if failures:
        raise ValueError("preconditions violated: " + ", ".join(failures))

    wt = w.w.transpose()
    c = []
    for i in range(m):
        row = []
        for j in range(m):
            rho = solve_unique(wt, cube[i][j])
            if not iso.contains(rho):
                raise AssertionError("solved deformation left the central subspace")
            row.append(vadd(g.c[i][j], rho))
        c.append(tuple(row))
    algebra = Algebra(m, tuple(c), g.labels)
    _verify(("deformed product is not symmetric Leibniz", lambda: is_symmetric_leibniz(algebra)),
            ("deformed product is not bi-symplectic", lambda: is_bi_symplectic(algebra, w)))
    return algebra


def build_commutative_bisymplectic(h_dim: int, b_form: SkewForm, T
                                   ) -> tuple[Algebra, SkewForm]:
    """Commutative bi-symplectic algebra on h + B + h* from a symmetric cube:
    the double extension of the abelian (B, b_form) by ``_plain_data``."""
    p = h_dim
    d = _plain_data(p, b_form.dim, T)
    if not b_form.nondegenerate:
        raise ValueError("the middle form must be nondegenerate")
    if not _totally_symmetric(d.omega_cube, p):
        raise ValueError("T must be fully symmetric")
    return build_double_extension(SymplecticLie(Algebra.from_table(b_form.dim, {}), b_form), d)
