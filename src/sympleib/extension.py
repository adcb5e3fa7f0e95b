"""Double extensions of symplectic Lie algebras.

The central object is a symplectic Lie algebra g together with extension data
(F, G, theta, psi, xi, Omega) indexed by a p-dimensional space h.  The data
assembles into a product on h + g + h* which is a symplectic left Leibniz
algebra exactly when a finite list of linear and quadratic equations holds.
Two equivalent forms of that list are implemented, the long direct one and
the shorter reduced one.  They share the derived operators (F*, G*, S, S*, K,
K*), built once per call by one helper, and each equation list is written
independently, so each serves as the other's oracle.  Specialized versions
cover the Lagrangian case (g absent), the isotropic image with inner
derivations, rank one (p = 1), and the commutative bi-symplectic
construction from a symmetric cubic form.

Every construction on h + g + h* is assembled the same way.  A layout names
the basis positions of h, g and h* and the basis labels: the rank-one
builders use the order (g, e, e*), the others (h, g, h*), with g absent in
the Lagrangian case.  One filler, the only place a zero tensor is
allocated, writes a product from one table per block (h,h), (h,g), (g,h),
(g,g), each giving an entry's g-part and h*-part; one form helper writes the
middle Gram matrix plus the pairing W[h_i][h*_i] = -1; and one verifier runs
a builder's post-build checks and raises with the witness of the first that
fails.  The double extension and
its star are two block tables over the same derived operators, and the
rank-one builders read the same tables on (F, S - F, c0, a0, b0, lambda)
with p = 1.  build_left_symmetric and rank_one_star write the star from the
data instead of solving for it, and stay as independent test oracles for
star_left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from sympleib.algebra import (
    Algebra,
    IdentityReport,
    Witness,
    center,
    derivations,
    is_left_leibniz,
    is_left_symmetric,
    is_lie,
    is_symmetric_leibniz,
    left_mult,
    leibniz_ideal,
    multiply,
    opposite,
    right_mult,
)
from sympleib.exactlin import (
    HALF,
    ONE,
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    is_zero_vector,
    rat,
    solve_unique,
    vadd,
    vscale,
    vstack,
    vsub,
    vzero,
)
from sympleib.reporting import Check, SystemReport
from sympleib.symplectic import (
    SkewForm,
    is_bi_symplectic,
    is_isotropic,
    is_lagrangian,
    is_symplectic_left,
    omega,
    omega_adjoint,
    orthogonal,
    star_left,
    star_right,
)


@dataclass(frozen=True)
class SymplecticLie:
    """A Lie algebra with a closed nondegenerate skew form and its cached star.

    The star product u * v, defined by omega(u * v, w) = -omega(v, [u, w]),
    is left symmetric with commutator equal to the bracket; both facts are
    verified at construction time.
    """

    g: Algebra
    form: SkewForm
    star: Algebra

    def __init__(self, g: Algebra, form: SkewForm):
        rep = is_lie(g)
        if not rep.holds:
            raise ValueError(f"not a Lie algebra: {rep.witness.describe()}")
        srep = is_symplectic_left(g, form)
        if not srep.holds:
            raise ValueError(f"form is not symplectic for the bracket: {srep.witness.describe()}")
        star = star_left(g, form)
        lsym = is_left_symmetric(star)
        if not lsym.holds:
            raise ValueError("internal error: star product is not left symmetric: "
                             f"{lsym.witness.describe()}")
        n = g.dim
        commutator = Algebra(n, tuple(tuple(vsub(star.c[i][j], star.c[j][i]) for j in range(n))
                                      for i in range(n)))
        comm = _same_product("star-commutator", commutator, g)
        if not comm.holds:
            raise ValueError("internal error: star commutator differs from bracket: "
                             f"{comm.witness.describe()}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "star", star)

    @property
    def dim(self) -> int:
        return self.g.dim

    def adjoint(self, m: Matrix) -> Matrix:
        return omega_adjoint(self.form, m)


def _vector_grid(p: int, m: int, entries) -> tuple:
    grid = tuple(tuple(tuple(rat(x) for x in entries[i][j]) for j in range(p))
                 for i in range(p))
    for row in grid:
        for v in row:
            if len(v) != m:
                raise ValueError("grid vector has wrong length")
    return grid


def _cube(p: int, entries) -> tuple:
    cube = tuple(tuple(tuple(rat(x) for x in entries[i][j]) for j in range(p))
                 for i in range(p))
    for plane in cube:
        for row in plane:
            if len(row) != p:
                raise ValueError("cube has wrong shape")
    return cube


@dataclass(frozen=True)
class ExtensionData:
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "theta", _vector_grid(p, m, theta))
        object.__setattr__(self, "psi", _vector_grid(p, m, psi))
        object.__setattr__(self, "xi", _vector_grid(p, m, xi))
        object.__setattr__(self, "omega_cube", _cube(p, omega_cube))

    @property
    def gdim(self) -> int:
        return self.F[0].rows

    def S(self, i: int) -> Matrix:
        return self.F[i] + self.G[i]


def zero_grid(p: int, m: int) -> tuple:
    return tuple(tuple(vzero(m) for _ in range(p)) for _ in range(p))


def zero_cube(p: int) -> tuple:
    return tuple(tuple(vzero(p) for _ in range(p)) for _ in range(p))


# ---------------------------------------------------------------------------
# generic check plumbing


def _is_zero(x) -> bool:
    if isinstance(x, Fraction):
        return x == 0
    if isinstance(x, tuple):
        return is_zero_vector(x)
    if isinstance(x, Matrix):
        return x.is_zero()
    raise TypeError(f"cannot test {type(x)} for zero")


def _scan(name: str, indices, defect) -> Check:
    for idx in indices:
        d = defect(*idx)
        if not _is_zero(d):
            return Check(name, False, f"fails at indices {idx}")
    return Check(name, True)


def _pairs(p):
    return ((i, j) for i in range(p) for j in range(p))


def _triples(p):
    return ((i, j, k) for i in range(p) for j in range(p) for k in range(p))


def _quads(p):
    return ((i, j, k, l) for i in range(p) for j in range(p)
            for k in range(p) for l in range(p))


def _derivation_check(g: Algebra, ops: Sequence[Matrix], name: str) -> Check:
    """Whether each D in ops is a derivation: D(e_a e_b) = D(e_a) e_b + e_a D(e_b)
    at every basis pair, the first failing (t, a, b) in order reported.

    Both sides are summed as one sparse {k: value} difference over the nonzero
    structure constants ``g.nz`` and the nonzero entries of D's columns.
    """
    n, nz = g.dim, g.nz
    for t, d in enumerate(ops):
        cols = [[(r, x) for r, x in enumerate(d.col(k)) if x] for k in range(n)]
        for a in range(n):
            for b in range(n):
                acc: dict[int, Fraction] = {}
                for k, x in nz[a][b]:  # D(e_a e_b)
                    for r, y in cols[k]:
                        acc[r] = acc.get(r, ZERO) + x * y
                for r, y in cols[a]:  # D(e_a) e_b
                    for k, x in nz[r][b]:
                        acc[k] = acc.get(k, ZERO) - y * x
                for r, y in cols[b]:  # e_a D(e_b)
                    for k, x in nz[a][r]:
                        acc[k] = acc.get(k, ZERO) - y * x
                if any(acc.values()):
                    return Check(name, False, f"operator {t} fails at pair ({a}, {b})")
    return Check(name, True)


class _Derived:
    """The operators both criteria and the block tables read, one per h
    direction, each built on first use and then kept: F*, G*, S = F + G, S*,
    K = S/2 - F - F* and K*."""

    def __init__(self, gs: SymplecticLie, d: ExtensionData):
        if d.gdim != gs.dim:
            raise ValueError("extension data does not match the algebra dimension")
        self.adjoint, self.F, self.G = gs.adjoint, d.F, d.G

    @cached_property
    def Fs(self) -> tuple[Matrix, ...]:
        return tuple(map(self.adjoint, self.F))

    @cached_property
    def Gs(self) -> tuple[Matrix, ...]:
        return tuple(map(self.adjoint, self.G))

    @cached_property
    def S(self) -> tuple[Matrix, ...]:
        return tuple(f + g for f, g in zip(self.F, self.G))

    @cached_property
    def Ss(self) -> tuple[Matrix, ...]:
        return tuple(map(self.adjoint, self.S))

    @cached_property
    def K(self) -> tuple[Matrix, ...]:
        return tuple(s.scale(HALF) - f - fs for s, f, fs in zip(self.S, self.F, self.Fs))

    @cached_property
    def Ks(self) -> tuple[Matrix, ...]:
        return tuple(map(self.adjoint, self.K))


# ---------------------------------------------------------------------------
# the two equation systems


_REDUCED_TITLE = "double extension criterion (reduced form)"


def check_full_system(gs: SymplecticLie, d: ExtensionData) -> SystemReport:
    """The long criterion list for (dd) to be symplectic left Leibniz.

    It reads the derived operators shared with check_reduced_system; its
    equation list is written independently, so each list is the other's oracle.
    """
    g, w = gs.g, gs.form
    p, m = d.p, d.gdim
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    der = _Derived(gs, d)
    Fs, Gs, S, K, Ks = der.Fs, der.Gs, der.S, der.K, der.Ks
    ad = lambda v: left_mult(g, v)
    rstar = lambda v: right_mult(gs.star, v)
    om = lambda u, v: omega(w, u, v)
    checks = [
        _derivation_check(g, F, "F-derivations"),
        _derivation_check(g, G, "G-derivations"),
        _scan("omega-cube", _triples(p), lambda x, y, z:
              Om[x][z][y] - Om[y][z][x] - HALF * Om[x][y][z] + HALF * Om[y][x][z]),
        _scan("psi-antisym-theta", _pairs(p), lambda x, y:
              vsub(vsub(ps[x][y], ps[y][x]),
                   vscale(HALF, vsub(th[x][y], th[y][x])))),
        _scan("theta-from-xi-psi", _pairs(p), lambda x, y:
              vsub(th[x][y], vadd(xi[y][x],
                                  vscale(HALF, vsub(ps[x][y], xi[x][y]))))),
        _scan("theta-xi-psi-pairing", _quads(p), lambda x, y, z, t:
              om(th[x][y], xi[z][t]) - om(th[y][z], ps[x][t]) + om(th[x][z], ps[y][t])),
        _scan("F-theta-G-theta", _triples(p), lambda x, y, z:
              vsub(vsub(F[x].matvec(th[y][z]), F[y].matvec(th[x][z])),
                   G[z].matvec(th[x][y]))),
        _scan("Fstar-psi-K-theta", _triples(p), lambda x, y, z:
              vadd(vsub(Fs[x].matvec(ps[y][z]), Fs[y].matvec(ps[x][z])),
                   K[z].matvec(th[x][y]))),
        _scan("Fstar-xi-Gstar-psi", _triples(p), lambda x, y, z:
              vsub(vsub(Fs[x].matvec(xi[y][z]), Gs[y].matvec(ps[x][z])),
                   Ks[z].matvec(th[x][y]))),
        _scan("S-xi", _triples(p), lambda x, y, z: S[x].matvec(xi[y][z])),
        _scan("star-sum-skew", ((i,) for i in range(p)),
              lambda x: Fs[x] + Gs[x] + F[x] + G[x]),
        _scan("K-S", _pairs(p), lambda x, y: K[y] @ S[x]),
        _scan("G-S", _pairs(p), lambda x, y: G[y] @ S[x]),
        _scan("Rstar-psi-K-F", _pairs(p), lambda x, y:
              rstar(ps[x][y]) + K[y] @ F[x] + Fs[x] @ K[y]),
        _scan("Rstar-xi-Kstar-G", _pairs(p), lambda x, y:
              rstar(xi[x][y]) + Ks[y] @ G[x] + Gs[x] @ K[y]),
        _scan("ad-theta-FF", _pairs(p), lambda x, y:
              ad(th[x][y]) - (F[x] @ F[y] - F[y] @ F[x])),
        _scan("FF-plus-FG", _pairs(p), lambda x, y:
              (F[x] @ F[y] - F[y] @ F[x]) + (F[x] @ G[y] - G[y] @ F[x])),
        _scan("ad-S-image", ((x, r) for x in range(p) for r in range(m)),
              lambda x, r: ad(S[x].col(r))),
        _scan("K-bracket-derivation",
              ((x, a, b) for x in range(p) for a in range(m) for b in range(m)),
              lambda x, a, b: vsub(K[x].matvec(g.c[a][b]),
                                   vsub(multiply(gs.star, basis_vector(m, a),
                                                 K[x].col(b)),
                                        multiply(gs.star, basis_vector(m, b),
                                                 K[x].col(a))))),
    ]
    return SystemReport("double extension criterion (direct form)", tuple(checks))


def check_reduced_system(gs: SymplecticLie, d: ExtensionData) -> SystemReport:
    """The shorter equivalent criterion list.

    It reads the derived operators shared with check_full_system; its
    equation list is written independently, so each list is the other's oracle.
    """
    g, w = gs.g, gs.form
    p, m = d.p, d.gdim
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    der = _Derived(gs, d)
    Fs, S, Ss, K = der.Fs, der.S, der.Ss, der.K
    ad = lambda v: left_mult(g, v)
    rstar = lambda v: right_mult(gs.star, v)
    om = lambda u, v: omega(w, u, v)
    checks = [
        _derivation_check(g, F, "F-derivations"),
        _derivation_check(g, G, "G-derivations"),
        _scan("omega-cube", _triples(p), lambda x, y, z:
              Om[x][z][y] - Om[y][z][x] - HALF * Om[x][y][z] + HALF * Om[y][x][z]),
        _scan("psi-xi-antisym", _pairs(p), lambda x, y:
              vsub(vsub(ps[x][y], ps[y][x]), vsub(xi[y][x], xi[x][y]))),
        _scan("theta-from-xi-psi", _pairs(p), lambda x, y:
              vsub(th[x][y], vadd(xi[y][x],
                                  vscale(HALF, vsub(ps[x][y], xi[x][y]))))),
        _scan("theta-xi-psi-pairing", _quads(p), lambda x, y, z, t:
              om(th[x][y], xi[z][t]) - om(th[y][z], ps[x][t]) + om(th[x][z], ps[y][t])),
        _scan("F-theta-cyclic-S", _triples(p), lambda x, y, z:
              vsub(vadd(vsub(F[x].matvec(th[y][z]), F[y].matvec(th[x][z])),
                        F[z].matvec(th[x][y])),
                   S[z].matvec(th[x][y]))),
        _scan("Fstar-psi-K-theta", _triples(p), lambda x, y, z:
              vadd(vsub(Fs[x].matvec(ps[y][z]), Fs[y].matvec(ps[x][z])),
                   K[z].matvec(th[x][y]))),
        _scan("Fstar-psi-xi-S", _triples(p), lambda x, y, z:
              vadd(vadd(Fs[x].matvec(vadd(ps[y][z], xi[y][z])),
                        S[y].matvec(ps[x][z])),
                   S[z].matvec(th[x][y]))),
        _scan("ad-theta-FF", _pairs(p), lambda x, y:
              ad(th[x][y]) - (F[x] @ F[y] - F[y] @ F[x])),
        _scan("Rstar-psi-FF", _pairs(p), lambda x, y:
              rstar(ps[x][y]) - ((F[y] + Fs[y]) @ F[x] + Fs[x] @ (F[y] + Fs[y]))),
        _scan("Rstar-psi-xi", _pairs(p), lambda x, y:
              rstar(vadd(ps[x][y], xi[x][y]))),
        _scan("S-star-image",
              ((x, a, b) for x in range(p) for a in range(m) for b in range(m)),
              lambda x, a, b: S[x].matvec(gs.star.c[a][b])),
        _scan("S-skew-adjoint", ((i,) for i in range(p)), lambda x: Ss[x] + S[x]),
        _scan("S-xi", _triples(p), lambda x, y, z: S[x].matvec(xi[y][z])),
        _scan("S-F-annihilation", _pairs(p), lambda x, y:
              vstack([S[x] @ S[y], F[x] @ S[y], S[x] @ F[y]])),
    ]
    return SystemReport(_REDUCED_TITLE, tuple(checks))


# ---------------------------------------------------------------------------
# assembling on h + g + h*


@dataclass(frozen=True)
class _Layout:
    """Where the h, g and h* coordinates sit in the basis, and the basis labels."""

    h: tuple[int, ...]
    g: tuple[int, ...]
    hs: tuple[int, ...]
    labels: tuple[str, ...]

    @property
    def dim(self) -> int:
        return len(self.h) + len(self.g) + len(self.hs)


def _layout(p: int, m: int, glabels=None) -> _Layout:
    """The basis order h, g, h*, labelled H1.., glabels, A1.. when glabels is given."""
    labels = () if glabels is None else (tuple(f"H{i + 1}" for i in range(p)) + tuple(glabels)
                                         + tuple(f"A{i + 1}" for i in range(p)))
    return _Layout(tuple(range(p)), tuple(range(p, p + m)),
                   tuple(range(p + m, 2 * p + m)), labels)


def _rank_one_layout(g: Algebra) -> _Layout:
    """The basis order g, e, e* of the rank-one constructions."""
    m = g.dim
    return _Layout((m,), tuple(range(m)), (m + 1,),
                   tuple(g.basis_label(a) for a in range(m)) + ("e", "estar"))


def _fill(layout: _Layout, hh=None, hg=None, gh=None, gg=None) -> Algebra:
    """Structure constants on h + g + h* from one table per block.

    A table maps the local indices (x, y) of e_x * e_y, each counted inside
    its own block, to the product's (g-part, h*-part).  A block left out is
    zero, a part given as () is zero, and only nonzero coordinates are written.
    """
    n = layout.dim
    c = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    h, g, hs = layout.h, layout.g, layout.hs
    for rows, cols, table in ((h, h, hh), (h, g, hg), (g, h, gh), (g, g, gg)):
        if table is None:
            continue
        for x, r in enumerate(rows):
            for y, s in enumerate(cols):
                gpart, hspart = table(x, y)
                out = c[r][s]
                for k, v in (*zip(g, gpart), *zip(hs, hspart)):
                    if v:
                        out[k] = v
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c), layout.labels)


def _form(layout: _Layout, middle, extra=()) -> SkewForm:
    """The middle Gram matrix on the g block, the hyperbolic pairing
    W[h_i][h*_i] = -1, W[h*_i][h_i] = 1, and any extra (row, col, value)."""
    n = layout.dim
    w = [[ZERO] * n for _ in range(n)]
    for a, r in enumerate(layout.g):
        for b, s in enumerate(layout.g):
            w[r][s] = middle[a][b]
    for i, k in zip(layout.h, layout.hs):
        w[i][k], w[k][i] = -ONE, ONE
    for r, s, v in extra:
        w[r][s] = v
    return SkewForm(Matrix.from_rows(w))


def _verify(*checks) -> None:
    """Post-build verification: run each (what, report) pair in order and raise
    AssertionError with the witness of the first report that fails.  Each
    report is a zero-argument callable, so a check runs only after the
    earlier ones held."""
    for what, run in checks:
        rep = run()
        if not rep.holds:
            raise AssertionError(f"{what}: {rep.witness.describe()}")


def _left_symplectic_checks(algebra: Algebra, form: SkewForm) -> tuple:
    return (("assembled product is not left Leibniz", lambda: is_left_leibniz(algebra)),
            ("assembled form is not compatible", lambda: is_symplectic_left(algebra, form)))


def _same_product(kind: str, a: Algebra, b: Algebra) -> IdentityReport:
    """Whether two products on one basis agree; the witness is the first pair
    (i, j) where they differ, with defect a(e_i, e_j) - b(e_i, e_j)."""
    for i, j in _pairs(a.dim):
        if a.c[i][j] != b.c[i][j]:
            return IdentityReport(kind, False, Witness(kind, (i, j), vsub(a.c[i][j], b.c[i][j])))
    return IdentityReport(kind, True)


def _pairings(form: SkewForm, vectors, u) -> list:
    """omega(v, u) for each v: an h*-part whose coordinates are pairings."""
    return [omega(form, v, u) for v in vectors]


def _tables(gs: SymplecticLie, d: ExtensionData) -> tuple[tuple, tuple]:
    """The block tables (hh, hg, gh, gg) of the product and of its star,
    read off the derived operators F* and K = S/2 - F - F*."""
    g, wg = gs.g, gs.form
    p, m = d.p, g.dim
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    der = _Derived(gs, d)
    Fs, K = der.Fs, der.K
    e = [basis_vector(m, a) for a in range(m)]
    product = (
        lambda x, y: (th[x][y], Om[x][y]),
        lambda x, a: (F[x].col(a), _pairings(wg, ps[x], e[a])),
        lambda a, x: (G[x].col(a), _pairings(wg, xi[x], e[a])),
        lambda a, b: (g.c[a][b], _pairings(wg, [K[k].col(a) for k in range(p)], e[b])),
    )
    star = (
        lambda x, y: (ps[x][y], [Om[x][k][y] for k in range(p)]),
        lambda x, a: (vscale(-ONE, Fs[x].col(a)), _pairings(wg, th[x], e[a])),
        lambda a, x: (K[x].col(a), _pairings(wg, [xi[k][x] for k in range(p)], e[a])),
        lambda a, b: (gs.star.c[a][b], _pairings(wg, [G[k].col(a) for k in range(p)], e[b])),
    )
    return product, star


def _assemble(gs: SymplecticLie, d: ExtensionData, layout: _Layout
              ) -> tuple[Algebra, SkewForm]:
    product, _ = _tables(gs, d)
    return _fill(layout, *product), _form(layout, gs.form.w.entries)


def _assemble_star(gs: SymplecticLie, d: ExtensionData, layout: _Layout) -> Algebra:
    _, star = _tables(gs, d)
    return _fill(layout, *star)


def _extension_layout(gs: SymplecticLie, d: ExtensionData) -> _Layout:
    return _layout(d.p, gs.dim, [gs.g.basis_label(a) for a in range(gs.dim)])


def _assemble_double_extension(gs: SymplecticLie, d: ExtensionData) -> tuple[Algebra, SkewForm]:
    """The product and form on h + g + h*, no checks."""
    return _assemble(gs, d, _extension_layout(gs, d))


def build_double_extension(gs: SymplecticLie, d: ExtensionData,
                           gate: SystemReport | None = None) -> tuple[Algebra, SkewForm]:
    """Checked assembly: criterion first, identity verification afterwards.

    The criterion is the reduced system.  A caller that has already run
    check_reduced_system on (gs, d) passes its report as ``gate`` so that the
    system is not run twice.
    """
    if gate is not None and gate.title != _REDUCED_TITLE:
        raise ValueError(f"the gate must be a reduced-system report, got {gate.title!r}")
    report = check_reduced_system(gs, d) if gate is None else gate
    if not report.ok:
        names = ", ".join(c.name for c in report.failed())
        raise ValueError(f"extension data fails the criterion: {names}")
    algebra, form = _assemble_double_extension(gs, d)
    _verify(*_left_symplectic_checks(algebra, form))
    return algebra, form


def build_left_symmetric(gs: SymplecticLie, d: ExtensionData) -> Algebra:
    """The star product of the extension, written directly from the data.

    Independent of star_left on purpose: a test oracle, and tests compare
    the two routes.
    """
    star = _assemble_star(gs, d, _extension_layout(gs, d))
    _verify(("assembled star is not left symmetric", lambda: is_left_symmetric(star)))
    return star


# ---------------------------------------------------------------------------
# Lagrangian case: no g at all


@dataclass(frozen=True)
class LagrangianExtension:
    algebra: Algebra
    form: SkewForm
    star: Algebra
    leib_is_lagrangian: bool
    note: str = ""


def build_lagrangian(p: int, omega_cube) -> LagrangianExtension:
    """Product on h + h* determined by a cube alone.

    The only nonzero products are (h, h) pairs landing in h*; the compatibility
    reduces to the single linear cube condition, checked up front.
    """
    Om = _cube(p, omega_cube)
    for x in range(p):
        for y in range(p):
            for z in range(p):
                defect = (Om[x][z][y] - Om[y][z][x]
                          - HALF * Om[x][y][z] + HALF * Om[y][x][z])
                if defect != 0:
                    raise ValueError(f"cube condition fails at indices {(x, y, z)}")
    layout = _layout(p, 0, ())
    algebra = _fill(layout, lambda x, y: ((), Om[x][y]))
    star = _fill(layout, lambda x, y: ((), [Om[x][k][y] for k in range(p)]))
    form = _form(layout, ())
    _verify(*_left_symplectic_checks(algebra, form),
            ("assembled star is not left symmetric", lambda: is_left_symmetric(star)))

    leib = leibniz_ideal(algebra)
    vacuous = all(Om[i][j][k] == 0 for i in range(p) for j in range(p) for k in range(p))
    note = "Lagrangian condition vacuous" if vacuous else ""
    return LagrangianExtension(algebra, form, star,
                               is_lagrangian(form, leib), note)


# ---------------------------------------------------------------------------
# isotropic image case with inner derivations


def check_isotropic_system(gs: SymplecticLie, F: Sequence[Matrix], psi, theta,
                           omega_cube) -> SystemReport:
    """Criterion for the skew case G = -F, xi = -psi over a centerless algebra."""
    g, w = gs.g, gs.form
    if center(g).dim != 0:
        raise ValueError("the base Lie algebra must have trivial center")
    p = len(F)
    m = g.dim
    ps = _vector_grid(p, m, psi)
    th = _vector_grid(p, m, theta)
    Om = _cube(p, omega_cube)
    Fs = [gs.adjoint(F[i]) for i in range(p)]
    K = [(F[i] + Fs[i]).scale(-ONE) for i in range(p)]
    ad = lambda v: left_mult(g, v)
    rstar = lambda v: right_mult(gs.star, v)
    om = lambda u, v: omega(w, u, v)
    checks = [
        _derivation_check(g, F, "F-derivations"),
        _scan("omega-cube", _triples(p), lambda x, y, z:
              Om[x][z][y] - Om[y][z][x] - HALF * Om[x][y][z] + HALF * Om[y][x][z]),
        _scan("theta-psi-antisym", _pairs(p), lambda x, y:
              vsub(th[x][y], vsub(ps[x][y], ps[y][x]))),
        _scan("cyclic-pairing", _quads(p), lambda x, y, z, t:
              om(th[x][y], ps[z][t]) + om(th[y][z], ps[x][t]) + om(th[z][x], ps[y][t])),
        _scan("Fstar-psi-K-theta", _triples(p), lambda x, y, z:
              vadd(vsub(Fs[x].matvec(ps[y][z]), Fs[y].matvec(ps[x][z])),
                   K[z].matvec(th[x][y]))),
        _scan("Rstar-psi-K-F", _pairs(p), lambda x, y:
              rstar(ps[x][y]) + K[y] @ F[x] + Fs[x] @ K[y]),
        _scan("ad-theta-FF", _pairs(p), lambda x, y:
              ad(th[x][y]) - (F[x] @ F[y] - F[y] @ F[x])),
    ]
    return SystemReport("isotropic double extension criterion", tuple(checks))


def build_inner_extension(gs: SymplecticLie, H: Matrix, psi, omega_cube
                          ) -> tuple[Algebra, SkewForm]:
    """Extension with every h-derivation inner, written through H: h -> g.

    Column i of H is the element of g implementing the action of the i-th
    h direction.  Preconditions are collected and reported together.
    """
    g, wg = gs.g, gs.form
    m = g.dim
    p = H.cols
    if H.rows != m:
        raise ValueError("H must map h into g")
    ps = _vector_grid(p, m, psi)
    Om = _cube(p, omega_cube)

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
    if any(Om[x][z][y] - Om[y][z][x] - HALF * Om[x][y][z] + HALF * Om[y][x][z] != 0
           for x in range(p) for y in range(p) for z in range(p)):
        failures.append("omega-cube")
    if failures:
        raise ValueError("preconditions violated: " + ", ".join(failures))

    layout = _layout(p, m)
    e = [basis_vector(m, a) for a in range(m)]
    hc = [H.col(k) for k in range(p)]
    algebra = _fill(layout,
                    lambda x, y: ((), Om[x][y]),
                    lambda x, a: ((), _pairings(wg, ps[x], e[a])),
                    lambda a, x: ((), [-v for v in _pairings(wg, ps[x], e[a])]),
                    lambda a, b: (g.c[a][b], [omega(wg, g.c[a][b], u) for u in hc]))
    extra = [(layout.h[i], layout.h[j], omega(wg, hc[i], hc[j]))
             for i in range(p) for j in range(p)]
    for i in range(p):
        for b in range(m):
            x = omega(wg, hc[i], e[b])
            extra += [(layout.h[i], layout.g[b], -x), (layout.g[b], layout.h[i], x)]
    form = _form(layout, wg.w.entries, extra)
    _verify(*_left_symplectic_checks(algebra, form))
    return algebra, form


# ---------------------------------------------------------------------------
# rank one (one-dimensional h)


def check_rank_one(gs: SymplecticLie, F: Matrix, S: Matrix,
                   a0: Sequence[Fraction], b0: Sequence[Fraction],
                   lam: Fraction) -> SystemReport:
    """Criterion specialized to p = 1 in terms of (F, S, a0, b0, lambda)."""
    g, w = gs.g, gs.form
    m = g.dim
    a0 = tuple(rat(x) for x in a0)
    b0 = tuple(rat(x) for x in b0)
    c0 = vscale(HALF, vadd(a0, b0))
    Fs = gs.adjoint(F)
    Ss = gs.adjoint(S)
    rstar = lambda v: right_mult(gs.star, v)
    checks = [
        _derivation_check(g, [F], "F-derivation"),
        _derivation_check(g, [S], "S-derivation"),
        Check("omega-a0-b0", omega(w, a0, b0) == 0),
        Check("S-a0", is_zero_vector(S.matvec(a0))),
        Check("S-b0", is_zero_vector(S.matvec(b0))),
        Check("F-c0", is_zero_vector(F.matvec(c0))),
        Check("Fstar-c0", is_zero_vector(Fs.matvec(c0))),
        Check("ad-c0", left_mult(g, c0).is_zero()),
        Check("Rstar-c0", rstar(c0).is_zero()),
        Check("Rstar-a0-model",
              (rstar(a0) - ((F + Fs) @ F + Fs @ (F + Fs))).is_zero()),
        _scan("S-star-image", _pairs(m), lambda a, b: S.matvec(gs.star.c[a][b])),
        Check("S-skew-adjoint", (Ss + S).is_zero()),
        Check("S-squared", (S @ S).is_zero()),
        Check("F-S", (F @ S).is_zero()),
        Check("S-F", (S @ F).is_zero()),
    ]
    return SystemReport("rank-one extension criterion", tuple(checks))


def _rank_one_data(F: Matrix, S: Matrix, a0, b0, lam) -> ExtensionData:
    """(F, S, a0, b0, lambda) as general data with p = 1: G = S - F,
    theta = c0 = (a0 + b0)/2, psi = a0, xi = b0 and Omega = lambda."""
    a0 = tuple(rat(x) for x in a0)
    b0 = tuple(rat(x) for x in b0)
    c0 = vscale(HALF, vadd(a0, b0))
    return ExtensionData(1, [F], [S - F], [[c0]], [[a0]], [[b0]], [[[lam]]])


def rank_one_star(gs: SymplecticLie, F: Matrix, S: Matrix,
                  a0, b0, lam) -> Algebra:
    """Star product of the rank-one extension: the general star table on the
    embedded data, in the basis order (g, e, e*).

    Independent of star_left on purpose: a test oracle, and build_rank_one
    compares the two.
    """
    return _assemble_star(gs, _rank_one_data(F, S, a0, b0, lam), _rank_one_layout(gs.g))


def build_rank_one(gs: SymplecticLie, F: Matrix, S: Matrix,
                   a0, b0, lam) -> tuple[Algebra, SkewForm]:
    """One-dimensional double extension on g + Ke + Ke*."""
    report = check_rank_one(gs, F, S, a0, b0, lam)
    if not report.ok:
        names = ", ".join(c.name for c in report.failed())
        raise ValueError(f"rank-one data fails the criterion: {names}")
    algebra, form = _assemble(gs, _rank_one_data(F, S, a0, b0, lam), _rank_one_layout(gs.g))
    _verify(*_left_symplectic_checks(algebra, form),
            ("closed-form star disagrees with the solved star",
             lambda: _same_product("star", star_left(algebra, form),
                                   rank_one_star(gs, F, S, a0, b0, lam))))
    return algebra, form


# ---------------------------------------------------------------------------
# bi-symplectic constructions


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
    sym = all(cube[i][j][k] == cube[j][i][k] == cube[i][k][j]
              for i in range(m) for j in range(m) for k in range(m))
    if not sym:
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
    """Commutative bi-symplectic algebra on h + B + h* from a symmetric cube."""
    p = h_dim
    cube = _cube(p, T)
    if not b_form.nondegenerate:
        raise ValueError("the middle form must be nondegenerate")
    sym = all(cube[i][j][k] == cube[j][i][k] == cube[i][k][j]
              for i in range(p) for j in range(p) for k in range(p))
    if not sym:
        raise ValueError("T must be fully symmetric")
    layout = _layout(p, b_form.dim)
    algebra = _fill(layout, lambda x, y: ((), cube[x][y]))
    form = _form(layout, b_form.w.entries)
    _verify(("assembled product is not commutative",
             lambda: _same_product("commutativity", algebra, opposite(algebra))),
            ("assembled product is not symmetric Leibniz", lambda: is_symmetric_leibniz(algebra)),
            ("assembled product is not bi-symplectic", lambda: is_bi_symplectic(algebra, form)),
            ("left star disagrees with the product",
             lambda: _same_product("left-star", star_left(algebra, form), algebra)),
            ("right star disagrees with the product",
             lambda: _same_product("right-star", star_right(algebra, form), algebra)))
    return algebra, form
