"""Double extensions of symplectic Lie algebras.

The central object is a symplectic Lie algebra g together with extension data
(F, G, theta, psi, xi, Omega) indexed by a p-dimensional space h.  The data
assembles into a product on h + g + h* which is a symplectic left Leibniz
algebra exactly when a finite list of linear and quadratic equations holds.
Two equivalent forms of that list are implemented as fully separate code
paths (the long direct one and the shorter reduced one) so they can be
cross-checked, together with specialized versions: Lagrangian (g absent),
isotropic-image with inner derivations, rank one (p = 1), and the commutative
bi-symplectic construction from a symmetric cubic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from sympleib.algebra import (
    Algebra,
    center,
    derivations,
    is_left_leibniz,
    is_left_symmetric,
    is_lie,
    is_symmetric_leibniz,
    left_mult,
    leibniz_ideal,
    multiply,
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
        if not is_left_symmetric(star).holds:
            raise ValueError("internal error: star product is not left symmetric")
        for i in range(g.dim):
            for j in range(g.dim):
                if vsub(star.c[i][j], star.c[j][i]) != g.c[i][j]:
                    raise ValueError("internal error: star commutator differs from bracket")
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
    for t, d in enumerate(ops):
        for a in range(g.dim):
            for b in range(g.dim):
                lhs = d.matvec(g.c[a][b])
                rhs = vadd(multiply(g, d.col(a), basis_vector(g.dim, b)),
                           multiply(g, basis_vector(g.dim, a), d.col(b)))
                if lhs != rhs:
                    return Check(name, False, f"operator {t} fails at pair ({a}, {b})")
    return Check(name, True)


# ---------------------------------------------------------------------------
# the two equation systems


def check_full_system(gs: SymplecticLie, d: ExtensionData) -> SystemReport:
    """The long criterion list for (dd) to be symplectic left Leibniz."""
    g, w = gs.g, gs.form
    p, m = d.p, d.gdim
    if m != g.dim:
        raise ValueError("extension data does not match the algebra dimension")
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    Fs = [gs.adjoint(F[i]) for i in range(p)]
    Gs = [gs.adjoint(G[i]) for i in range(p)]
    S = [F[i] + G[i] for i in range(p)]
    K = [S[i].scale(HALF) - F[i] - Fs[i] for i in range(p)]
    Ks = [gs.adjoint(K[i]) for i in range(p)]
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
    """The shorter equivalent criterion list, written independently."""
    g, w = gs.g, gs.form
    p, m = d.p, d.gdim
    if m != g.dim:
        raise ValueError("extension data does not match the algebra dimension")
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    Fs = [gs.adjoint(F[i]) for i in range(p)]
    S = [F[i] + G[i] for i in range(p)]
    Ss = [gs.adjoint(S[i]) for i in range(p)]
    K = [S[i].scale(HALF) - F[i] - Fs[i] for i in range(p)]
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
    return SystemReport("double extension criterion (reduced form)", tuple(checks))


# ---------------------------------------------------------------------------
# assembling the extension


def _block_indices(p: int, m: int):
    h = list(range(p))
    gi = list(range(p, p + m))
    hs = list(range(p + m, p + m + p))
    return h, gi, hs


def _embed_g(vec, p: int, m: int) -> list:
    out = [ZERO] * (p + m + p)
    for a, x in enumerate(vec):
        out[p + a] = x
    return out


def _assemble_double_extension(gs: SymplecticLie, d: ExtensionData) -> tuple[Algebra, SkewForm]:
    """The product and form on h + g + h*, no checks."""
    g, wg = gs.g, gs.form
    p, m = d.p, g.dim
    n = p + m + p
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    Fs = [gs.adjoint(F[i]) for i in range(p)]
    S = [F[i] + G[i] for i in range(p)]
    K = [S[i].scale(HALF) - F[i] - Fs[i] for i in range(p)]
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]

    for i in range(p):
        for j in range(p):
            row = _embed_g(th[i][j], p, m)
            for k in range(p):
                row[p + m + k] += Om[i][j][k]
            c[i][j] = row
    for i in range(p):
        for a in range(m):
            ea = basis_vector(m, a)
            row = _embed_g(F[i].col(a), p, m)
            for k in range(p):
                row[p + m + k] += omega(wg, ps[i][k], ea)
            c[i][p + a] = row
            row = _embed_g(G[i].col(a), p, m)
            for k in range(p):
                row[p + m + k] += omega(wg, xi[i][k], ea)
            c[p + a][i] = row
    for a in range(m):
        for b in range(m):
            eb = basis_vector(m, b)
            row = _embed_g(g.c[a][b], p, m)
            for k in range(p):
                row[p + m + k] += omega(wg, K[k].col(a), eb)
            c[p + a][p + b] = row

    wrows = [[ZERO] * n for _ in range(n)]
    for i in range(p):
        wrows[i][p + m + i] = -ONE
        wrows[p + m + i][i] = ONE
    for a in range(m):
        for b in range(m):
            wrows[p + a][p + b] = wg.w.entries[a][b]
    labels = tuple([f"H{i + 1}" for i in range(p)]
                   + [g.basis_label(a) for a in range(m)]
                   + [f"A{i + 1}" for i in range(p)])
    algebra = Algebra(n, tuple(tuple(tuple(r) for r in row) for row in c), labels)
    return algebra, SkewForm(Matrix.from_rows(wrows))


def build_double_extension(gs: SymplecticLie, d: ExtensionData) -> tuple[Algebra, SkewForm]:
    """Checked assembly: criterion first, identity verification afterwards."""
    report = check_reduced_system(gs, d)
    if not report.ok:
        names = ", ".join(c.name for c in report.failed())
        raise ValueError(f"extension data fails the criterion: {names}")
    algebra, form = _assemble_double_extension(gs, d)
    rep = is_left_leibniz(algebra)
    if not rep.holds:
        raise AssertionError(f"assembled product is not left Leibniz: {rep.witness.describe()}")
    srep = is_symplectic_left(algebra, form)
    if not srep.holds:
        raise AssertionError(f"assembled form is not compatible: {srep.witness.describe()}")
    return algebra, form


def build_left_symmetric(gs: SymplecticLie, d: ExtensionData) -> Algebra:
    """The star product of the extension, written directly from the data.

    Independent of star_left on purpose; tests compare the two routes.
    """
    g, wg = gs.g, gs.form
    p, m = d.p, g.dim
    n = p + m + p
    F, G, th, ps, xi, Om = d.F, d.G, d.theta, d.psi, d.xi, d.omega_cube
    Fs = [gs.adjoint(F[i]) for i in range(p)]
    S = [F[i] + G[i] for i in range(p)]
    K = [S[i].scale(HALF) - F[i] - Fs[i] for i in range(p)]
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]

    for i in range(p):
        for j in range(p):
            row = _embed_g(ps[i][j], p, m)
            for k in range(p):
                row[p + m + k] += Om[i][k][j]
            c[i][j] = row
    for i in range(p):
        for a in range(m):
            ea = basis_vector(m, a)
            row = _embed_g(vscale(-ONE, Fs[i].col(a)), p, m)
            for k in range(p):
                row[p + m + k] += omega(wg, th[i][k], ea)
            c[i][p + a] = row
            row = _embed_g(K[i].col(a), p, m)
            for k in range(p):
                row[p + m + k] += omega(wg, xi[k][i], ea)
            c[p + a][i] = row
    for a in range(m):
        for b in range(m):
            eb = basis_vector(m, b)
            row = _embed_g(gs.star.c[a][b], p, m)
            for k in range(p):
                row[p + m + k] += omega(wg, G[k].col(a), eb)
            c[p + a][p + b] = row

    labels = tuple([f"H{i + 1}" for i in range(p)]
                   + [g.basis_label(a) for a in range(m)]
                   + [f"A{i + 1}" for i in range(p)])
    star = Algebra(n, tuple(tuple(tuple(r) for r in row) for row in c), labels)
    rep = is_left_symmetric(star)
    if not rep.holds:
        raise AssertionError(f"assembled star is not left symmetric: {rep.witness.describe()}")
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
    n = 2 * p
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    cs = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    for i in range(p):
        for j in range(p):
            for k in range(p):
                c[i][j][p + k] = Om[i][j][k]
                cs[i][j][p + k] = Om[i][k][j]
    wrows = [[ZERO] * n for _ in range(n)]
    for i in range(p):
        wrows[i][p + i] = -ONE
        wrows[p + i][i] = ONE
    labels = tuple([f"H{i + 1}" for i in range(p)] + [f"A{i + 1}" for i in range(p)])
    algebra = Algebra(n, tuple(tuple(tuple(r) for r in row) for row in c), labels)
    star = Algebra(n, tuple(tuple(tuple(r) for r in row) for row in cs), labels)
    form = SkewForm(Matrix.from_rows(wrows))

    rep = is_left_leibniz(algebra)
    if not rep.holds:
        raise AssertionError(f"assembled product is not left Leibniz: {rep.witness.describe()}")
    srep = is_symplectic_left(algebra, form)
    if not srep.holds:
        raise AssertionError(f"assembled form is not compatible: {srep.witness.describe()}")
    if not is_left_symmetric(star).holds:
        raise AssertionError("assembled star is not left symmetric")

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

    n = p + m + p
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    for i in range(p):
        for j in range(p):
            for k in range(p):
                c[i][j][p + m + k] = Om[i][j][k]
    for i in range(p):
        for a in range(m):
            ea = basis_vector(m, a)
            for k in range(p):
                x = omega(wg, ps[i][k], ea)
                c[i][p + a][p + m + k] = x
                c[p + a][i][p + m + k] = -x
    for a in range(m):
        for b in range(m):
            row = _embed_g(g.c[a][b], p, m)
            for k in range(p):
                row[p + m + k] += omega(wg, g.c[a][b], H.col(k))
            c[p + a][p + b] = row

    wrows = [[ZERO] * n for _ in range(n)]
    for i in range(p):
        for j in range(p):
            wrows[i][j] = omega(wg, H.col(i), H.col(j))
    for i in range(p):
        for b in range(m):
            x = omega(wg, H.col(i), basis_vector(m, b))
            wrows[i][p + b] = -x
            wrows[p + b][i] = x
    for a in range(m):
        for b in range(m):
            wrows[p + a][p + b] = wg.w.entries[a][b]
    for i in range(p):
        wrows[i][p + m + i] = -ONE
        wrows[p + m + i][i] = ONE

    algebra = Algebra(n, tuple(tuple(tuple(r) for r in row) for row in c))
    form = SkewForm(Matrix.from_rows(wrows))
    rep = is_left_leibniz(algebra)
    if not rep.holds:
        raise AssertionError(f"assembled product is not left Leibniz: {rep.witness.describe()}")
    srep = is_symplectic_left(algebra, form)
    if not srep.holds:
        raise AssertionError(f"assembled form is not compatible: {srep.witness.describe()}")
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


def rank_one_star(gs: SymplecticLie, F: Matrix, S: Matrix,
                  a0, b0, lam) -> Algebra:
    """Star product of the rank-one extension, from its own closed formulas."""
    g, wg = gs.g, gs.form
    m = g.dim
    n = m + 2
    a0 = tuple(rat(x) for x in a0)
    b0 = tuple(rat(x) for x in b0)
    lam = rat(lam)
    c0 = vscale(HALF, vadd(a0, b0))
    Fs = gs.adjoint(F)
    K = S.scale(HALF) - F - Fs
    SmF = S - F
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    # basis order: g block, then e, then e*
    row = [ZERO] * n
    for t, x in enumerate(a0):
        row[t] = x
    row[m + 1] = lam
    c[m][m] = row
    for a in range(m):
        ea = basis_vector(m, a)
        row = [ZERO] * n
        for t, x in enumerate(Fs.col(a)):
            row[t] = -x
        row[m + 1] = omega(wg, c0, ea)
        c[m][a] = row
        row = [ZERO] * n
        for t, x in enumerate(K.col(a)):
            row[t] = x
        row[m + 1] = omega(wg, b0, ea)
        c[a][m] = row
    for a in range(m):
        for b in range(m):
            eb = basis_vector(m, b)
            row = [ZERO] * n
            for t, x in enumerate(gs.star.c[a][b]):
                row[t] = x
            row[m + 1] = omega(wg, SmF.col(a), eb)
            c[a][b] = row
    labels = tuple([g.basis_label(a) for a in range(m)] + ["e", "estar"])
    return Algebra(n, tuple(tuple(tuple(r) for r in row) for row in c), labels)


def build_rank_one(gs: SymplecticLie, F: Matrix, S: Matrix,
                   a0, b0, lam) -> tuple[Algebra, SkewForm]:
    """One-dimensional double extension on g + Ke + Ke*."""
    report = check_rank_one(gs, F, S, a0, b0, lam)
    if not report.ok:
        names = ", ".join(c.name for c in report.failed())
        raise ValueError(f"rank-one data fails the criterion: {names}")
    g, wg = gs.g, gs.form
    m = g.dim
    n = m + 2
    a0 = tuple(rat(x) for x in a0)
    b0 = tuple(rat(x) for x in b0)
    lam = rat(lam)
    c0 = vscale(HALF, vadd(a0, b0))
    Fs = gs.adjoint(F)
    K = S.scale(HALF) - F - Fs
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    row = [ZERO] * n
    for t, x in enumerate(c0):
        row[t] = x
    row[m + 1] = lam
    c[m][m] = row
    for a in range(m):
        ea = basis_vector(m, a)
        row = [ZERO] * n
        for t, x in enumerate(F.col(a)):
            row[t] = x
        row[m + 1] = omega(wg, a0, ea)
        c[m][a] = row
        row = [ZERO] * n
        for t, x in enumerate((S - F).col(a)):
            row[t] = x
        row[m + 1] = omega(wg, b0, ea)
        c[a][m] = row
    for a in range(m):
        for b in range(m):
            eb = basis_vector(m, b)
            row = [ZERO] * n
            for t, x in enumerate(g.c[a][b]):
                row[t] = x
            row[m + 1] = omega(wg, K.col(a), eb)
            c[a][b] = row

    wrows = [[ZERO] * n for _ in range(n)]
    for a in range(m):
        for b in range(m):
            wrows[a][b] = wg.w.entries[a][b]
    wrows[m][m + 1] = -ONE
    wrows[m + 1][m] = ONE
    labels = tuple([g.basis_label(a) for a in range(m)] + ["e", "estar"])
    algebra = Algebra(n, tuple(tuple(tuple(r) for r in row) for row in c), labels)
    form = SkewForm(Matrix.from_rows(wrows))

    rep = is_left_leibniz(algebra)
    if not rep.holds:
        raise AssertionError(f"assembled product is not left Leibniz: {rep.witness.describe()}")
    srep = is_symplectic_left(algebra, form)
    if not srep.holds:
        raise AssertionError(f"assembled form is not compatible: {srep.witness.describe()}")
    expected_star = rank_one_star(gs, F, S, a0, b0, lam)
    if star_left(algebra, form).c != expected_star.c:
        raise AssertionError("closed-form star disagrees with the solved star")
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
    rep = is_symmetric_leibniz(algebra)
    if not rep.holds:
        raise AssertionError(
            f"deformed product is not symmetric Leibniz: {rep.witness.describe()}")
    brep = is_bi_symplectic(algebra, w)
    if not brep.holds:
        raise AssertionError(f"deformed product is not bi-symplectic: {brep.witness.describe()}")
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
    bdim = b_form.dim
    n = p + bdim + p
    c = [[list(vzero(n)) for _ in range(n)] for _ in range(n)]
    for i in range(p):
        for j in range(p):
            for k in range(p):
                c[i][j][p + bdim + k] = cube[i][j][k]
    wrows = [[ZERO] * n for _ in range(n)]
    for i in range(p):
        wrows[i][p + bdim + i] = -ONE
        wrows[p + bdim + i][i] = ONE
    for a in range(bdim):
        for b in range(bdim):
            wrows[p + a][p + b] = b_form.w.entries[a][b]
    algebra = Algebra(n, tuple(tuple(tuple(r) for r in row) for row in c))
    form = SkewForm(Matrix.from_rows(wrows))

    for i in range(n):
        for j in range(n):
            if algebra.c[i][j] != algebra.c[j][i]:
                raise AssertionError("assembled product is not commutative")
    rep = is_symmetric_leibniz(algebra)
    if not rep.holds:
        raise AssertionError(
            f"assembled product is not symmetric Leibniz: {rep.witness.describe()}")
    brep = is_bi_symplectic(algebra, form)
    if not brep.holds:
        raise AssertionError(f"assembled product is not bi-symplectic: {brep.witness.describe()}")
    if star_left(algebra, form).c != algebra.c:
        raise AssertionError("left star disagrees with the product")
    if star_right(algebra, form).c != algebra.c:
        raise AssertionError("right star disagrees with the product")
    return algebra, form
