"""Double extension data, the two criterion routes, and all builders."""

import collections
import itertools
import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympleib import catalog, extension

from sympleib.algebra import (
    Algebra,
    center,
    change_basis,
    derivations,
    is_left_leibniz,
    is_left_symmetric,
    is_symmetric_leibniz,
    leibniz_ideal,
    multiply,
)
from sympleib.exactlin import HALF, Matrix, basis_vector, span, vadd, vector, vscale, vsub
from sympleib.extension import (
    ExtensionData,
    SymplecticLie,
    build_bisymplectic_from_T,
    build_commutative_bisymplectic,
    build_double_extension,
    build_inner_extension,
    build_lagrangian,
    build_left_symmetric,
    build_rank_one,
    check_full_system,
    check_isotropic_system,
    check_rank_one,
    check_reduced_system,
    rank_one_extension,
    rank_one_star,
    zero_cube,
    zero_grid,
)
from sympleib.extension import (_assemble_double_extension, _derivation_check, _same_product,
                                _verify)
from sympleib.symplectic import (
    SkewForm,
    form_from_pairs,
    is_bi_symplectic,
    is_lagrangian,
    is_symplectic_left,
    omega,
    star_left,
    star_right,
)
from sympleib.reporting import Check, SystemReport

from oracles import dense_tables, inner_extension, inner_shear, omega_adjoint

W12 = form_from_pairs(2, {(1, 2): 1})
W14_23 = form_from_pairs(4, {(1, 4): 1, (2, 3): 1})


def _abelian2():
    return SymplecticLie(Algebra.from_table(2, {}), W12)


def _aff1():
    # [e1, e2] = e1, centerless, every derivation inner
    g = Algebra.from_table(2, {(1, 2): {1: 1}, (2, 1): {1: -1}})
    return SymplecticLie(g, W12)


def _rr3():
    g = Algebra.from_table(4, {
        (1, 2): {2: 1}, (2, 1): {2: -1},
        (1, 3): {3: -1}, (3, 1): {3: 1},
    })
    return SymplecticLie(g, W14_23)


def _rr3_scaled():
    # rr3 with its bracket times 3/2 and its form times 2/3: the constants, W
    # and W^-1 all carry denominators
    g = Algebra.from_table(4, {
        (1, 2): {2: Fraction(3, 2)}, (2, 1): {2: Fraction(-3, 2)},
        (1, 3): {3: Fraction(-3, 2)}, (3, 1): {3: Fraction(3, 2)},
    })
    return SymplecticLie(g, form_from_pairs(4, {(1, 4): Fraction(2, 3), (2, 3): Fraction(2, 3)}))


def _case1_data(alpha, beta, psi1, xi1, om):
    # over the 2-dim abelian base: S strictly upper, theta forced by psi and xi
    S = Matrix.from_rows([[0, alpha], [0, 0]])
    F = Matrix.from_rows([[0, beta], [0, 0]])
    return ExtensionData(1, [F], [S - F],
                         [[[Fraction(psi1 + xi1, 2), 0]]],
                         [[[psi1, 0]]], [[[xi1, 0]]], [[[om]]])


def _case2_data(alpha, a11, a12, a21, c1, c2, om):
    A = Matrix.from_rows([[a11, a12], [a21, -a11]])
    F = A.scale(alpha)
    return ExtensionData(1, [F], [F.scale(-1)],
                         [[[0, 0]]], [[[c1, c2]]], [[[-c1, -c2]]], [[[om]]])


def _rr3_rank_one(b1, b2, b3, b, s, x, y, z, lam):
    F = Matrix.from_rows([
        [0, 0, 0, 0],
        [b1, -b, 0, 0],
        [b2, 0, b, 0],
        [b3, 0, 0, 0],
    ])
    S = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [s, 0, 0, 0]])
    a0 = (z, b1 * b, b2 * b, y)
    b0 = tuple(2 * c - a for c, a in zip((0, 0, 0, x), a0))
    return F, S, a0, b0, Fraction(lam)


def _embed_rank_one(F, S, a0, b0, lam):
    c0 = tuple(Fraction(x + y, 2) for x, y in zip(a0, b0))
    return ExtensionData(1, [F], [S - F], [[c0]], [[a0]], [[b0]], [[[lam]]])


def test_symplectic_lie_construction_and_star_cache():
    gs = _rr3()
    assert gs.star.c[0][1] == vector([0, 1, 0, 0])
    with pytest.raises(ValueError):
        SymplecticLie(Algebra.from_table(2, {(1, 1): {2: 1}}), W12)


def test_extension_data_shape_validation():
    with pytest.raises(ValueError):
        ExtensionData(1, [], [], [], [], [], [])
    with pytest.raises(ValueError):
        ExtensionData(1, [Matrix.identity(2)], [Matrix.identity(3)],
                      zero_grid(1, 2), zero_grid(1, 2), zero_grid(1, 2), zero_cube(1))


def test_case1_data_passes_both_systems_and_builds():
    gs = _abelian2()
    d = _case1_data(2, -1, 3, 5, 7)
    assert check_full_system(gs, d).ok
    assert check_reduced_system(gs, d).ok
    alg, form = build_double_extension(gs, d)
    assert alg.dim == 4
    assert is_left_leibniz(alg).holds
    assert is_symplectic_left(alg, form).holds


def test_case2_data_passes_both_systems_and_builds():
    gs = _abelian2()
    d = _case2_data(3, 1, 2, 1, 4, -5, 2)
    assert check_full_system(gs, d).ok
    assert check_reduced_system(gs, d).ok
    build_double_extension(gs, d)


def test_direct_star_assembly_matches_solved_star():
    gs = _abelian2()
    for d in (_case1_data(2, -1, 3, 5, 7), _case2_data(3, 1, 2, 1, 4, -5, 2),
              _case1_data(1, 0, 0, 0, 0), _case2_data(1, 0, 1, -1, 2, 2, -3)):
        alg, form = build_double_extension(gs, d)
        assert build_left_symmetric(gs, d).c == star_left(alg, form).c


def test_two_criterion_routes_agree_with_the_built_identities():
    """Perturbed data: the two lists and the actual identities stay in step."""
    gs = _abelian2()
    rng = random.Random(41)
    base = [_case1_data(2, -1, 3, 5, 7), _case2_data(3, 1, 2, 1, 4, -5, 2)]
    datasets = list(base)
    for d in base:
        for _ in range(6):
            # perturb one random slot
            which = rng.randrange(5)
            F = [Matrix.from_rows([list(r) for r in d.F[0].entries])]
            G = [Matrix.from_rows([list(r) for r in d.G[0].entries])]
            th = [[list(d.theta[0][0])]]
            ps = [[list(d.psi[0][0])]]
            xi = [[list(d.xi[0][0])]]
            bump = rng.choice([1, -1, 2])
            spot = rng.randrange(2)
            if which == 0:
                rows = [list(r) for r in F[0].entries]
                rows[spot][rng.randrange(2)] += bump
                F = [Matrix.from_rows(rows)]
            elif which == 1:
                rows = [list(r) for r in G[0].entries]
                rows[spot][rng.randrange(2)] += bump
                G = [Matrix.from_rows(rows)]
            elif which == 2:
                th[0][0][spot] += bump
            elif which == 3:
                ps[0][0][spot] += bump
            else:
                xi[0][0][spot] += bump
            datasets.append(ExtensionData(1, F, G, th, ps, xi, d.omega_cube))
    agree_failures = 0
    for d in datasets:
        full = check_full_system(gs, d)
        red = check_reduced_system(gs, d)
        assert full.ok == red.ok
        alg, form = _assemble_double_extension(gs, d)
        built_ok = (is_left_leibniz(alg).holds
                    and is_symplectic_left(alg, form).holds)
        assert full.ok == built_ok
        if not full.ok:
            agree_failures += 1
    assert agree_failures > 0  # the perturbations really did break something


def _point_data(p, cube):
    """The 0-dim symplectic Lie algebra and the data build_lagrangian hands
    the one builder: F = G = 0 and theta = psi = xi = 0."""
    point = SymplecticLie(Algebra(0, ()), SkewForm._skew(Matrix(0, 0, ())))
    zero = [Matrix.zero(0, 0)] * p
    return point, ExtensionData(p, zero, zero, zero_grid(p, 0), zero_grid(p, 0),
                                zero_grid(p, 0), cube)


def test_lagrangian_extension():
    alg, form = build_lagrangian(1, [[[3]]])
    assert alg.dim == 2
    assert is_lagrangian(form, leibniz_ideal(alg))
    assert alg.c[0][0] == vector([0, 3])
    assert star_left(alg, form).c == build_left_symmetric(*_point_data(1, [[[3]]])).c

    # the zero cube: the Lagrangian condition is vacuous, the product zero
    valg, vform = build_lagrangian(2, zero_cube(2))
    assert leibniz_ideal(valg).dim == 0
    assert not is_lagrangian(vform, leibniz_ideal(valg))

    cube = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    cube[0][0][0] = 2
    cube[0][0][1] = 1
    cube[0][1][0] = 1
    cube[1][0][0] = 1
    alg2, form2 = build_lagrangian(2, cube)
    assert is_left_leibniz(alg2).holds
    assert is_lagrangian(form2, leibniz_ideal(alg2))
    assert star_left(alg2, form2).c == build_left_symmetric(*_point_data(2, cube)).c


def test_lagrangian_rejects_bad_cube():
    cube = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ValueError, match=r"^cube condition fails at indices \(0, 1, 0\)$"):
        build_lagrangian(2, cube)
    with pytest.raises(ValueError, match="^grid vector has wrong length$"):
        build_lagrangian(2, [[[0, 1], [0, 0]], [[0, 0], [0]]])


def test_isotropic_system_requires_trivial_center():
    with pytest.raises(ValueError):
        check_isotropic_system(_rr3(), [Matrix.zero(4, 4)],
                               zero_grid(1, 4), zero_grid(1, 4), zero_cube(1))


def test_isotropic_system_on_aff1():
    gs = _aff1()
    # inner action by u: F = ad_u is a derivation; psi, theta skew data
    F = Matrix.from_rows([[0, 1], [0, 0]])  # ad of e1
    rep = check_isotropic_system(gs, [F], [[[2, 0]]], [[[0, 0]]], [[[5]]])
    assert rep.ok, str(rep)


def test_inner_extension_on_aff1():
    gs = _aff1()
    H = Matrix.from_rows([[2], [1]])
    alg, form = build_inner_extension(gs, H, [[[3, 0]]], [[[4]]])
    assert alg.dim == 4
    assert is_left_leibniz(alg).holds
    assert is_symplectic_left(alg, form).holds
    # h* is killed on both sides
    n = alg.dim
    for j in range(n):
        assert all(x == 0 for x in alg.c[n - 1][j])
        assert all(x == 0 for x in alg.c[j][n - 1])


def test_inner_extension_reports_all_violated_preconditions():
    gs = _rr3()
    H = Matrix.zero(4, 1)
    with pytest.raises(ValueError) as exc:
        build_inner_extension(gs, H, [[[0, 1, 0, 0]]], [[[0]]])
    msg = str(exc.value)
    assert "trivial-center" in msg
    assert "all-derivations-inner" in msg
    with pytest.raises(ValueError, match="^preconditions violated: omega-cube$"):
        build_inner_extension(_aff1(), Matrix.zero(2, 2), zero_grid(2, 2),
                              [[[0, 1], [0, 0]], [[0, 0], [0, 0]]])


def test_rank_one_criterion_and_build_on_rr3():
    gs = _rr3()
    d = rank_one_extension(*_rr3_rank_one(2, -1, 3, 4, 5, -2, 6, 0, 7))
    rep = check_rank_one(gs, d)
    assert rep.ok, str(rep)
    alg, form = build_rank_one(gs, d)
    assert alg.dim == 6
    assert is_left_leibniz(alg).holds
    assert is_symplectic_left(alg, form).holds


def test_rank_one_displayed_operator_without_correction_fails():
    # dropping the compensating b-block on e3 breaks the right-star equation
    gs = _rr3()
    b1, b2, b3, b = 2, -1, 3, 4
    F_bad = Matrix.from_rows([
        [0, 0, 0, 0],
        [b1, -b, 0, 0],
        [b2, 0, 0, 0],
        [b3, 0, 0, 0],
    ])
    S = Matrix.zero(4, 4)
    a0 = (0, b1 * b, b2 * b, 6)
    b0 = tuple(-x for x in a0)
    rep = check_rank_one(gs, rank_one_extension(F_bad, S, a0, b0, Fraction(7)))
    assert [c.name for c in rep.failed()] == ["Rstar-psi-FF"]
    assert rep.failed()[0].detail == "fails at indices (0, 0)"
    assert [c.name for c in _oracle_rank_one(gs, F_bad, S, a0, b0, 7).failed()] == \
        ["Rstar-a0-model"]


def test_rank_one_embeds_as_general_extension_data():
    gs = _rr3()
    cases = [
        _rr3_rank_one(2, -1, 3, 4, 5, -2, 6, 0, 7),
        _rr3_rank_one(1, 2, -3, -1, 0, 0, 4, 5, -6),
        _rr3_rank_one(0, 0, 1, 2, -2, 3, 0, 0, 1),
    ]
    for F, S, a0, b0, lam in cases:
        d, one = _embed_rank_one(F, S, a0, b0, lam), rank_one_extension(F, S, a0, b0, lam)
        assert one == d
        assert check_rank_one(gs, one).ok
        assert check_full_system(gs, d).ok
        assert check_reduced_system(gs, d).ok
        small, small_form = build_rank_one(gs, one)
        big, big_form = build_double_extension(gs, d)
        # reorder: general layout is (e, g, e*), rank-one layout is (g, e, e*)
        m = gs.dim
        to_big = list(range(1, m + 1)) + [0, m + 1]
        for i in range(m + 2):
            for j in range(m + 2):
                assert [big.c[to_big[i]][to_big[j]][to_big[k]]
                        for k in range(m + 2)] == list(small.c[i][j])
                assert small_form.w.entries[i][j] == big_form.w.entries[to_big[i]][to_big[j]]
        small_star = rank_one_star(gs, one)
        big_star = build_left_symmetric(gs, d)
        for i in range(m + 2):
            for j in range(m + 2):
                assert [big_star.c[to_big[i]][to_big[j]][to_big[k]]
                        for k in range(m + 2)] == list(small_star.c[i][j])


def test_post_build_verifier_raises_with_the_failing_witness():
    lie = _rr3().g
    idempotent = Algebra.from_table(2, {(1, 1): {1: 1}})
    incompatible = Algebra.from_table(2, {(1, 2): {2: 1}})
    cases = [
        ("product", lambda: is_left_leibniz(idempotent)),
        ("form", lambda: is_symplectic_left(incompatible, W12)),
        ("star", lambda: _same_product("star", idempotent, incompatible)),
    ]
    for what, check in cases:
        rep = check()
        assert not rep.holds
        with pytest.raises(AssertionError) as exc:
            _verify(("lie", lambda: is_left_leibniz(lie)), (what, check),
                    ("later", lambda: pytest.fail("a check ran after the first failure")))
        assert str(exc.value) == f"{what}: {rep.witness.describe()}"
    assert str(exc.value) == "star: star fails at (1, 1) with defect (1, 0)"
    _verify(("lie", lambda: is_left_leibniz(lie)))


def test_rank_one_star_closed_form():
    gs = _rr3()
    d = rank_one_extension(*_rr3_rank_one(1, 1, 0, 2, 0, 0, 3, 0, -2))
    alg, form = build_rank_one(gs, d)
    star = rank_one_star(gs, d)
    assert star.c == star_left(alg, form).c
    assert is_left_symmetric(star).holds


def test_rank_one_rejects_bad_data():
    gs = _rr3()
    d = rank_one_extension(*_rr3_rank_one(2, -1, 3, 4, 5, -2, 6, 1, 7))  # z*x != 0
    with pytest.raises(ValueError, match="rank-one data fails the criterion: "
                                         "theta-xi-psi-pairing"):
        build_rank_one(gs, d)
    # a failing report handed in as the gate is refused the same way
    with pytest.raises(ValueError, match="rank-one data fails the criterion"):
        build_rank_one(gs, d, gate=check_rank_one(gs, d))


def test_rank_one_refuses_data_with_more_than_one_e():
    """The layout (g, e, e*) has one e: the check and both builders refuse
    data with p = 2 before they read it."""
    gs, m = _rr3(), 4
    two = ExtensionData(2, [Matrix.zero(m, m)] * 2, [Matrix.zero(m, m)] * 2,
                        zero_grid(2, m), zero_grid(2, m), zero_grid(2, m), zero_cube(2))
    assert check_reduced_system(gs, two).ok
    for run in (check_rank_one, build_rank_one, rank_one_star):
        with pytest.raises(ValueError, match="^rank-one data needs p = 1, got p = 2$"):
            run(gs, two)


def test_build_rank_one_takes_the_reduced_report_as_its_gate(monkeypatch):
    gs = _rr3()
    d = rank_one_extension(*_rr3_rank_one(1, 1, 0, 2, 0, 0, 3, 0, -2))
    report = check_rank_one(gs, d)
    want = build_rank_one(gs, d)
    full = check_full_system(gs, d)
    with pytest.raises(ValueError, match="reduced-system report"):
        build_rank_one(gs, d, gate=full)
    calls = []
    monkeypatch.setattr(extension, "check_reduced_system",
                        lambda *args: calls.append(args) or check_reduced_system(*args))
    assert build_rank_one(gs, d, gate=report) == want
    assert calls == []


def test_bisymplectic_from_cubic_recovers_the_plane_family():
    gs = _abelian2()
    iso = span(2, [basis_vector(2, 0)])
    t = Fraction(5)
    T = [[[0, 0], [0, 0]], [[0, 0], [0, t]]]
    alg = build_bisymplectic_from_T(gs, iso, T)
    assert alg.c == Algebra.from_table(2, {(2, 2): {1: t}}).c


def test_bisymplectic_from_cubic_four_dimensional():
    g = Algebra.from_table(4, {})
    gs = SymplecticLie(g, W14_23)
    iso = span(4, [basis_vector(4, 2), basis_vector(4, 3)])
    T = [[[0] * 4 for _ in range(4)] for _ in range(4)]

    def setsym(i, j, k, v):
        for (a, b, c) in {(i, j, k), (i, k, j), (j, i, k), (j, k, i), (k, i, j), (k, j, i)}:
            T[a][b][c] = v
    setsym(0, 0, 0, 2)
    setsym(0, 0, 1, 1)
    setsym(0, 1, 1, -1)
    setsym(1, 1, 1, 3)
    alg = build_bisymplectic_from_T(gs, iso, T)
    assert is_bi_symplectic(alg, W14_23).holds
    for i in range(4):
        for j in range(4):
            assert iso.contains(alg.c[i][j])
    # omega(e1 * e1, w) = T(e1, e1, w)
    for k in range(4):
        assert omega(W14_23, alg.c[0][0], basis_vector(4, k)) == T[0][0][k]


def test_bisymplectic_from_cubic_rejects_bad_tensors():
    gs = _abelian2()
    iso = span(2, [basis_vector(2, 0)])
    bad = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # not symmetric
    with pytest.raises(ValueError) as exc:
        build_bisymplectic_from_T(gs, iso, bad)
    assert "T-symmetric" in str(exc.value)
    worse = [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]  # nonzero against iso-perp
    with pytest.raises(ValueError):
        build_bisymplectic_from_T(gs, iso, worse)


def test_commutative_bisymplectic_build():
    alg, form = build_commutative_bisymplectic(1, W12, [[[4]]])
    assert alg.dim == 4
    assert alg.c[0][0] == vector([0, 0, 0, 4])
    assert is_bi_symplectic(alg, form).holds
    assert star_left(alg, form).c == alg.c
    with pytest.raises(ValueError):
        bad = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # T(h1,h1,h2) != T(h1,h2,h1)
        build_commutative_bisymplectic(2, W12, bad)


def test_theta_symmetrization_lands_in_center():
    # for data passing the criterion: theta(X,Y) + theta(Y,X) = psi + xi, central
    gs = _abelian2()
    for d in (_case1_data(2, -1, 3, 5, 7), _case2_data(3, 1, 2, 1, 4, -5, 2)):
        assert check_reduced_system(gs, d).ok
        p = d.p
        z = center(gs.g)
        for x in range(p):
            for y in range(p):
                s = vector([a + b for a, b in zip(d.theta[x][y], d.theta[y][x])])
                t = vector([a + b for a, b in zip(d.psi[x][y], d.xi[x][y])])
                assert s == t
                assert z.contains(s)


def test_sum_of_derivation_and_adjoint_acts_as_star_derivation():
    # for any derivation D of a symplectic Lie algebra:
    # (D + D*)[a, b] = a * (D + D*)b - b * (D + D*)a
    for gs in (_abelian2(), _aff1(), _rr3()):
        g = gs.g
        for d in derivations(g):
            dd = d + omega_adjoint(gs.form, d)
            for a in range(g.dim):
                for b in range(g.dim):
                    lhs = dd.matvec(g.c[a][b])
                    rhs = vector([x - y for x, y in zip(
                        multiply(gs.star, basis_vector(g.dim, a), dd.col(b)),
                        multiply(gs.star, basis_vector(g.dim, b), dd.col(a)))])
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# dense oracles for the four criteria
#
# The functions below are the dense check_full_system, check_reduced_system,
# check_isotropic_system, check_rank_one and _derivation_check as they were
# before the criteria read the derived operators, summed over nonzeros only
# and shared one equation table, kept verbatim apart from the names of the
# dense helpers they call.  Every helper sums over every entry, zero or not,
# so the oracles share no arithmetic with the library beyond Fraction,
# vadd/vsub/vscale and the cached inverse of W.


class _Dense:
    """A dense row-major matrix over Fraction for the oracles."""

    def __init__(self, rows):
        self.entries = tuple(tuple(r) for r in rows)

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def __add__(self, other):
        return _Dense([[x + y for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return _Dense([[x - y for x, y in zip(r, s)] for r, s in zip(self.entries, other.entries)])

    def scale(self, c):
        return _Dense([[c * x for x in r] for r in self.entries])

    def __matmul__(self, other):
        cols = [other.col(j) for j in range(len(other.entries[0]))]
        return _Dense([[sum((a * b for a, b in zip(r, c)), Fraction(0)) for c in cols]
                       for r in self.entries])

    def matvec(self, v):
        return tuple(sum((a * b for a, b in zip(r, v)), Fraction(0)) for r in self.entries)

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)


def _dense_stack(mats):
    return _Dense([r for m in mats for r in m.entries])


def _dense_adjoint(gs, m):
    """W^-1 m^T W with dense products."""
    w = gs.form.w
    return _Dense(gs.form.w.inverse().entries) @ _Dense(zip(*m.entries)) @ _Dense(w.entries)


def _dense_multiply(a, u, v):
    n = range(a.dim)
    return tuple(sum((u[i] * v[j] * a.c[i][j][k] for i in n for j in n), Fraction(0))
                 for k in n)


def _dense_left_mult(a, u):
    n = range(a.dim)
    return _Dense([[sum((u[i] * a.c[i][j][k] for i in n), Fraction(0)) for j in n] for k in n])


def _dense_right_mult(a, u):
    n = range(a.dim)
    return _Dense([[sum((u[i] * a.c[j][i][k] for i in n), Fraction(0)) for j in n] for k in n])


def _dense_omega(form, u, v):
    n = range(form.dim)
    return sum((u[a] * form.w.entries[a][b] * v[b] for a in n for b in n), Fraction(0))


def _oracle_is_zero(x):
    if isinstance(x, Fraction):
        return x == 0
    if isinstance(x, tuple):
        return all(a == 0 for a in x)
    return x.is_zero()


def _oracle_scan(name, indices, defect):
    for idx in indices:
        if not _oracle_is_zero(defect(*idx)):
            return Check(name, False, f"fails at indices {idx}")
    return Check(name, True)


def _o_pairs(p):
    return ((i, j) for i in range(p) for j in range(p))


def _o_triples(p):
    return ((i, j, k) for i in range(p) for j in range(p) for k in range(p))


def _o_quads(p):
    return ((i, j, k, l) for i in range(p) for j in range(p)
            for k in range(p) for l in range(p))


def _oracle_derivation_check(g, ops, name):
    """Test oracle: the dense _derivation_check, copied from the library."""
    for t, d in enumerate(ops):
        for a in range(g.dim):
            for b in range(g.dim):
                lhs = d.matvec(g.c[a][b])
                rhs = vadd(_dense_multiply(g, d.col(a), basis_vector(g.dim, b)),
                           _dense_multiply(g, basis_vector(g.dim, a), d.col(b)))
                if lhs != rhs:
                    return Check(name, False, f"operator {t} fails at pair ({a}, {b})")
    return Check(name, True)


def _oracle_full_system(gs, d):
    """Test oracle: the dense check_full_system, copied from the library."""
    g, w = gs.g, gs.form
    p, m = d.p, d.gdim
    F = [_Dense(x.entries) for x in d.F]
    G = [_Dense(x.entries) for x in d.G]
    th, ps, xi, Om = d.theta, d.psi, d.xi, d.omega_cube
    Fs = [_dense_adjoint(gs, F[i]) for i in range(p)]
    Gs = [_dense_adjoint(gs, G[i]) for i in range(p)]
    S = [F[i] + G[i] for i in range(p)]
    K = [S[i].scale(HALF) - F[i] - Fs[i] for i in range(p)]
    Ks = [_dense_adjoint(gs, K[i]) for i in range(p)]
    ad = lambda v: _dense_left_mult(g, v)
    rstar = lambda v: _dense_right_mult(gs.star, v)
    om = lambda u, v: _dense_omega(w, u, v)
    checks = [
        _oracle_derivation_check(g, F, "F-derivations"),
        _oracle_derivation_check(g, G, "G-derivations"),
        _oracle_scan("omega-cube", _o_triples(p), lambda x, y, z:
                     Om[x][z][y] - Om[y][z][x] - HALF * Om[x][y][z] + HALF * Om[y][x][z]),
        _oracle_scan("psi-antisym-theta", _o_pairs(p), lambda x, y:
                     vsub(vsub(ps[x][y], ps[y][x]),
                          vscale(HALF, vsub(th[x][y], th[y][x])))),
        _oracle_scan("theta-from-xi-psi", _o_pairs(p), lambda x, y:
                     vsub(th[x][y], vadd(xi[y][x],
                                         vscale(HALF, vsub(ps[x][y], xi[x][y]))))),
        _oracle_scan("theta-xi-psi-pairing", _o_quads(p), lambda x, y, z, t:
                     om(th[x][y], xi[z][t]) - om(th[y][z], ps[x][t])
                     + om(th[x][z], ps[y][t])),
        _oracle_scan("F-theta-G-theta", _o_triples(p), lambda x, y, z:
                     vsub(vsub(F[x].matvec(th[y][z]), F[y].matvec(th[x][z])),
                          G[z].matvec(th[x][y]))),
        _oracle_scan("Fstar-psi-K-theta", _o_triples(p), lambda x, y, z:
                     vadd(vsub(Fs[x].matvec(ps[y][z]), Fs[y].matvec(ps[x][z])),
                          K[z].matvec(th[x][y]))),
        _oracle_scan("Fstar-xi-Gstar-psi", _o_triples(p), lambda x, y, z:
                     vsub(vsub(Fs[x].matvec(xi[y][z]), Gs[y].matvec(ps[x][z])),
                          Ks[z].matvec(th[x][y]))),
        _oracle_scan("S-xi", _o_triples(p), lambda x, y, z: S[x].matvec(xi[y][z])),
        _oracle_scan("star-sum-skew", ((i,) for i in range(p)),
                     lambda x: Fs[x] + Gs[x] + F[x] + G[x]),
        _oracle_scan("K-S", _o_pairs(p), lambda x, y: K[y] @ S[x]),
        _oracle_scan("G-S", _o_pairs(p), lambda x, y: G[y] @ S[x]),
        _oracle_scan("Rstar-psi-K-F", _o_pairs(p), lambda x, y:
                     rstar(ps[x][y]) + K[y] @ F[x] + Fs[x] @ K[y]),
        _oracle_scan("Rstar-xi-Kstar-G", _o_pairs(p), lambda x, y:
                     rstar(xi[x][y]) + Ks[y] @ G[x] + Gs[x] @ K[y]),
        _oracle_scan("ad-theta-FF", _o_pairs(p), lambda x, y:
                     ad(th[x][y]) - (F[x] @ F[y] - F[y] @ F[x])),
        _oracle_scan("FF-plus-FG", _o_pairs(p), lambda x, y:
                     (F[x] @ F[y] - F[y] @ F[x]) + (F[x] @ G[y] - G[y] @ F[x])),
        _oracle_scan("ad-S-image", ((x, r) for x in range(p) for r in range(m)),
                     lambda x, r: ad(S[x].col(r))),
        _oracle_scan("K-bracket-derivation",
                     ((x, a, b) for x in range(p) for a in range(m) for b in range(m)),
                     lambda x, a, b: vsub(K[x].matvec(g.c[a][b]),
                                          vsub(_dense_multiply(gs.star, basis_vector(m, a),
                                                               K[x].col(b)),
                                               _dense_multiply(gs.star, basis_vector(m, b),
                                                               K[x].col(a))))),
    ]
    return SystemReport("double extension criterion (direct form)", tuple(checks))


def _oracle_reduced_system(gs, d):
    """Test oracle: the dense check_reduced_system, copied from the library."""
    g, w = gs.g, gs.form
    p, m = d.p, d.gdim
    F = [_Dense(x.entries) for x in d.F]
    G = [_Dense(x.entries) for x in d.G]
    th, ps, xi, Om = d.theta, d.psi, d.xi, d.omega_cube
    Fs = [_dense_adjoint(gs, F[i]) for i in range(p)]
    S = [F[i] + G[i] for i in range(p)]
    Ss = [_dense_adjoint(gs, S[i]) for i in range(p)]
    K = [S[i].scale(HALF) - F[i] - Fs[i] for i in range(p)]
    ad = lambda v: _dense_left_mult(g, v)
    rstar = lambda v: _dense_right_mult(gs.star, v)
    om = lambda u, v: _dense_omega(w, u, v)
    checks = [
        _oracle_derivation_check(g, F, "F-derivations"),
        _oracle_derivation_check(g, G, "G-derivations"),
        _oracle_scan("omega-cube", _o_triples(p), lambda x, y, z:
                     Om[x][z][y] - Om[y][z][x] - HALF * Om[x][y][z] + HALF * Om[y][x][z]),
        _oracle_scan("psi-xi-antisym", _o_pairs(p), lambda x, y:
                     vsub(vsub(ps[x][y], ps[y][x]), vsub(xi[y][x], xi[x][y]))),
        _oracle_scan("theta-from-xi-psi", _o_pairs(p), lambda x, y:
                     vsub(th[x][y], vadd(xi[y][x],
                                         vscale(HALF, vsub(ps[x][y], xi[x][y]))))),
        _oracle_scan("theta-xi-psi-pairing", _o_quads(p), lambda x, y, z, t:
                     om(th[x][y], xi[z][t]) - om(th[y][z], ps[x][t])
                     + om(th[x][z], ps[y][t])),
        _oracle_scan("F-theta-cyclic-S", _o_triples(p), lambda x, y, z:
                     vsub(vadd(vsub(F[x].matvec(th[y][z]), F[y].matvec(th[x][z])),
                               F[z].matvec(th[x][y])),
                          S[z].matvec(th[x][y]))),
        _oracle_scan("Fstar-psi-K-theta", _o_triples(p), lambda x, y, z:
                     vadd(vsub(Fs[x].matvec(ps[y][z]), Fs[y].matvec(ps[x][z])),
                          K[z].matvec(th[x][y]))),
        _oracle_scan("Fstar-psi-xi-S", _o_triples(p), lambda x, y, z:
                     vadd(vadd(Fs[x].matvec(vadd(ps[y][z], xi[y][z])),
                               S[y].matvec(ps[x][z])),
                          S[z].matvec(th[x][y]))),
        _oracle_scan("ad-theta-FF", _o_pairs(p), lambda x, y:
                     ad(th[x][y]) - (F[x] @ F[y] - F[y] @ F[x])),
        _oracle_scan("Rstar-psi-FF", _o_pairs(p), lambda x, y:
                     rstar(ps[x][y]) - ((F[y] + Fs[y]) @ F[x] + Fs[x] @ (F[y] + Fs[y]))),
        _oracle_scan("Rstar-psi-xi", _o_pairs(p), lambda x, y:
                     rstar(vadd(ps[x][y], xi[x][y]))),
        _oracle_scan("S-star-image",
                     ((x, a, b) for x in range(p) for a in range(m) for b in range(m)),
                     lambda x, a, b: S[x].matvec(gs.star.c[a][b])),
        _oracle_scan("S-skew-adjoint", ((i,) for i in range(p)), lambda x: Ss[x] + S[x]),
        _oracle_scan("S-xi", _o_triples(p), lambda x, y, z: S[x].matvec(xi[y][z])),
        _oracle_scan("S-F-annihilation", _o_pairs(p), lambda x, y:
                     _dense_stack([S[x] @ S[y], F[x] @ S[y], S[x] @ F[y]])),
    ]
    return SystemReport("double extension criterion (reduced form)", tuple(checks))


def _oracle_grid(entries):
    return tuple(tuple(tuple(Fraction(x) for x in v) for v in row) for row in entries)


def _oracle_isotropic_system(gs, F, psi, theta, omega_cube):
    """Test oracle: the dense check_isotropic_system, copied from the library."""
    g, w = gs.g, gs.form
    if center(g).dim != 0:
        raise ValueError("the base Lie algebra must have trivial center")
    p = len(F)
    F = [_Dense(x.entries) for x in F]
    ps, th, Om = _oracle_grid(psi), _oracle_grid(theta), _oracle_grid(omega_cube)
    Fs = [_dense_adjoint(gs, F[i]) for i in range(p)]
    K = [(F[i] + Fs[i]).scale(-1) for i in range(p)]
    ad = lambda v: _dense_left_mult(g, v)
    rstar = lambda v: _dense_right_mult(gs.star, v)
    om = lambda u, v: _dense_omega(w, u, v)
    checks = [
        _oracle_derivation_check(g, F, "F-derivations"),
        _oracle_scan("omega-cube", _o_triples(p), lambda x, y, z:
                     Om[x][z][y] - Om[y][z][x] - HALF * Om[x][y][z] + HALF * Om[y][x][z]),
        _oracle_scan("theta-psi-antisym", _o_pairs(p), lambda x, y:
                     vsub(th[x][y], vsub(ps[x][y], ps[y][x]))),
        _oracle_scan("cyclic-pairing", _o_quads(p), lambda x, y, z, t:
                     om(th[x][y], ps[z][t]) + om(th[y][z], ps[x][t])
                     + om(th[z][x], ps[y][t])),
        _oracle_scan("Fstar-psi-K-theta", _o_triples(p), lambda x, y, z:
                     vadd(vsub(Fs[x].matvec(ps[y][z]), Fs[y].matvec(ps[x][z])),
                          K[z].matvec(th[x][y]))),
        _oracle_scan("Rstar-psi-K-F", _o_pairs(p), lambda x, y:
                     rstar(ps[x][y]) + K[y] @ F[x] + Fs[x] @ K[y]),
        _oracle_scan("ad-theta-FF", _o_pairs(p), lambda x, y:
                     ad(th[x][y]) - (F[x] @ F[y] - F[y] @ F[x])),
    ]
    return SystemReport("isotropic double extension criterion", tuple(checks))


def _oracle_rank_one(gs, F, S, a0, b0, lam):
    """Test oracle: the hand-written check_rank_one list, copied from the
    library before the criterion became the reduced one on the embedded data."""
    g, w = gs.g, gs.form
    m = g.dim
    F, S = _Dense(F.entries), _Dense(S.entries)
    a0 = tuple(Fraction(x) for x in a0)
    b0 = tuple(Fraction(x) for x in b0)
    c0 = vscale(HALF, vadd(a0, b0))
    Fs = _dense_adjoint(gs, F)
    Ss = _dense_adjoint(gs, S)
    rstar = lambda v: _dense_right_mult(gs.star, v)
    checks = [
        _oracle_derivation_check(g, [F], "F-derivation"),
        _oracle_derivation_check(g, [S], "S-derivation"),
        Check("omega-a0-b0", _dense_omega(w, a0, b0) == 0),
        Check("S-a0", _oracle_is_zero(S.matvec(a0))),
        Check("S-b0", _oracle_is_zero(S.matvec(b0))),
        Check("F-c0", _oracle_is_zero(F.matvec(c0))),
        Check("Fstar-c0", _oracle_is_zero(Fs.matvec(c0))),
        Check("ad-c0", _dense_left_mult(g, c0).is_zero()),
        Check("Rstar-c0", rstar(c0).is_zero()),
        Check("Rstar-a0-model",
              (rstar(a0) - ((F + Fs) @ F + Fs @ (F + Fs))).is_zero()),
        _oracle_scan("S-star-image", ((a, b) for a in range(m) for b in range(m)),
                     lambda a, b: S.matvec(gs.star.c[a][b])),
        Check("S-skew-adjoint", (Ss + S).is_zero()),
        Check("S-squared", (S @ S).is_zero()),
        Check("F-S", (F @ S).is_zero()),
        Check("S-F", (S @ F).is_zero()),
    ]
    return SystemReport("rank-one extension criterion", tuple(checks))


def _assert_criteria_equal_the_oracles(gs, d):
    assert check_full_system(gs, d) == _oracle_full_system(gs, d)
    assert check_reduced_system(gs, d) == _oracle_reduced_system(gs, d)


def _embedded_rank_one(params=None):
    gs, F, S, a0, b0, lam = catalog.rank_one_data(params)
    return gs, _embed_rank_one(F, S, a0, b0, lam)


def _catalog_extension_cases():
    """(id, gs, d): the two extension families and the rank-one rr(3,-1) data,
    at their defaults and at five seeded samples each."""
    rng = random.Random(6)
    for fid in ("ABEL2_CASE1", "ABEL2_CASE2"):
        yield fid, *catalog.extension_data(fid)
        for k in range(5):
            yield f"{fid}-sample{k}", *catalog.extension_data(fid, catalog.get(fid).sample(rng))
    yield "RR3_RANK_ONE", *_embedded_rank_one()
    for k in range(5):
        yield f"RR3_RANK_ONE-sample{k}", *_embedded_rank_one(
            catalog.get("RR3_SIXDIM_RAW").sample(rng))


def _rebuilt(d, slot, index, delta):
    """d with delta added to one entry of one slot; index is the entry's
    position in that slot's nested lists."""
    parts = {"F": [[list(r) for r in m.entries] for m in d.F],
             "G": [[list(r) for r in m.entries] for m in d.G],
             "theta": [[list(v) for v in row] for row in d.theta],
             "psi": [[list(v) for v in row] for row in d.psi],
             "xi": [[list(v) for v in row] for row in d.xi],
             "omega": [[list(r) for r in plane] for plane in d.omega_cube]}
    a, b, c = index
    parts[slot][a][b][c] += delta
    return ExtensionData(d.p, [Matrix.from_rows(m) for m in parts["F"]],
                         [Matrix.from_rows(m) for m in parts["G"]],
                         parts["theta"], parts["psi"], parts["xi"], parts["omega"])


def _one_slot_perturbations(d):
    """Every entry of every slot moved by one; the sign alternates along the
    slot, and a slot with a single entry is moved both ways."""
    p, m = d.p, d.gdim
    shapes = {"F": (p, m, m), "G": (p, m, m), "theta": (p, p, m), "psi": (p, p, m),
              "xi": (p, p, m), "omega": (p, p, p)}
    for slot, shape in shapes.items():
        indices = list(itertools.product(*map(range, shape)))
        for k, index in enumerate(indices):
            for delta in (1, -1) if len(indices) == 1 else (1 - 2 * (k % 2),):
                yield _rebuilt(d, slot, index, delta)


@pytest.mark.parametrize("case", list(_catalog_extension_cases()), ids=lambda c: c[0])
def test_criteria_equal_the_dense_oracles_on_the_catalog(case):
    _, gs, d = case
    assert check_reduced_system(gs, d).ok
    _assert_criteria_equal_the_oracles(gs, d)


@pytest.mark.parametrize("fid", ["ABEL2_CASE1", "ABEL2_CASE2", "RR3_RANK_ONE"])
def test_criteria_equal_the_dense_oracles_on_every_one_slot_perturbation(fid):
    gs, d = _embedded_rank_one() if fid == "RR3_RANK_ONE" else catalog.extension_data(fid)
    failing = set()
    for bumped in _one_slot_perturbations(d):
        _assert_criteria_equal_the_oracles(gs, bumped)
        failing.update(c.name for c in check_full_system(gs, bumped).failed())
    if fid == "RR3_RANK_ONE":
        assert {"F-derivations", "G-derivations", "K-bracket-derivation"} <= failing


_SMALL = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(1, 3)])


@st.composite
def _extension_data_over(draw, gs, max_p=3):
    """p in {1, .., max_p}; F and G are small combinations of derivations of
    g, sometimes with one entry moved, and the other slots are small and sparse."""
    p, m = draw(st.integers(1, max_p)), gs.dim
    basis = derivations(gs.g)

    def operator():
        op = Matrix.zero(m, m)
        for der in basis:
            op = op + der.scale(draw(_SMALL))
        if draw(st.booleans()):
            rows = [list(r) for r in op.entries]
            rows[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] += 1
            op = Matrix.from_rows(rows)
        return op

    def grid(n):
        return [[[draw(_SMALL) for _ in range(n)] for _ in range(p)] for _ in range(p)]
    return ExtensionData(p, [operator() for _ in range(p)], [operator() for _ in range(p)],
                         grid(m), grid(m), grid(m), grid(p))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_criteria_equal_the_dense_oracles_on_random_data(data):
    gs = data.draw(st.sampled_from([_abelian2(), _rr3(), _rr3_scaled()]))
    _assert_criteria_equal_the_oracles(gs, data.draw(_extension_data_over(gs)))


def _assert_int_atoms_are_the_fraction_operators(gs, d):
    """Every int atom of the derived set, divided by its scale, is the
    Fraction operator it stands for: F*, G*, S*, K* through omega_adjoint,
    S = F + G and K = S/2 - F - F*."""
    e = extension._Derived(gs, d)

    def frac(rows):
        return tuple(tuple(Fraction(x, e.scale) for x in r) for r in rows)
    assert frac(e.w.rows) == gs.form.w.entries
    assert tuple(map(frac, e.c)) == gs.g.c and tuple(map(frac, e.cs)) == gs.star.c
    assert [tuple(map(frac, grid)) for grid in (e.th, e.ps, e.xi, e.Om)] == [
        d.theta, d.psi, d.xi, d.omega_cube]
    for x in range(d.p):
        F, G = d.F[x], d.G[x]
        S, Fs = F + G, omega_adjoint(gs.form, F)
        K = S.scale(HALF) - F - Fs
        want = {"F": F, "G": G, "Fs": Fs, "Gs": omega_adjoint(gs.form, G), "S": S,
                "Ss": omega_adjoint(gs.form, S), "K": K, "Ks": omega_adjoint(gs.form, K)}
        for name, op in want.items():
            assert frac(getattr(e, name)[x].rows) == op.entries, name


@pytest.mark.parametrize("case", list(_catalog_extension_cases()), ids=lambda c: c[0])
def test_int_atoms_are_the_fraction_operators_on_the_catalog(case):
    _assert_int_atoms_are_the_fraction_operators(*case[1:])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_int_atoms_are_the_fraction_operators_on_random_data(data):
    gs = data.draw(st.sampled_from([_abelian2(), _aff1(), _rr3(), _rr3_scaled()]))
    _assert_int_atoms_are_the_fraction_operators(gs, data.draw(_extension_data_over(gs)))


@pytest.mark.parametrize("gs", [_abelian2(), _aff1(), _rr3(), _rr3_scaled()],
                         ids=["abelian2", "aff1", "rr3", "rr3-scaled"])
def test_zero_data_pass_both_criteria_for_every_p(gs):
    for p in (1, 2, 3):
        m = gs.dim
        d = ExtensionData(p, [Matrix.zero(m, m)] * p, [Matrix.zero(m, m)] * p,
                          zero_grid(p, m), zero_grid(p, m), zero_grid(p, m), zero_cube(p))
        _assert_criteria_equal_the_oracles(gs, d)
        assert check_reduced_system(gs, d).ok and check_full_system(gs, d).ok


def test_the_equations_with_a_half_hold_where_the_half_matters():
    """p = 2 data over the abelian plane where psi, theta and Omega have
    nonzero antisymmetric parts, so psi-antisym-theta, theta-from-xi-psi and
    omega-cube hold only with their halves; the assembled algebra agrees."""
    gs, zero = _abelian2(), Matrix.zero(2, 2)
    psi = [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
    xi = [[[0, 0], [0, 0]], [[1, 0], [0, 0]]]
    theta = [[[0, 0], [Fraction(3, 2), 0]], [[Fraction(-1, 2), 0], [0, 0]]]
    cube = [[[0, 1], [0, 0]], [[2, 0], [0, 0]]]
    d = ExtensionData(2, [zero] * 2, [zero] * 2, theta, psi, xi, cube)
    assert check_full_system(gs, d).ok and check_reduced_system(gs, d).ok
    _assert_criteria_equal_the_oracles(gs, d)
    build_double_extension(gs, d)


def _assert_isotropic_equals_the_oracle(gs, F, psi, theta, om):
    assert check_isotropic_system(gs, F, psi, theta, om) == \
        _oracle_isotropic_system(gs, F, psi, theta, om)


def _aff1_squared():
    # aff(1) + aff(1): [e1, e2] = e1, [e3, e4] = e3, centerless
    g = Algebra.from_table(4, {(1, 2): {1: 1}, (2, 1): {1: -1}, (3, 4): {3: 1}, (4, 3): {3: -1}})
    return SymplecticLie(g, form_from_pairs(4, {(1, 2): 1, (3, 4): 1}))


# the skew data of test_isotropic_system_on_aff1: F = ad e1, psi, theta, Omega
_AFF1_ISOTROPIC = ([[[0, 1], [0, 0]]], [[[2, 0]]], [[[0, 0]]], [[[5]]])


def test_isotropic_criterion_equals_the_dense_oracle_on_every_one_slot_perturbation():
    """The aff(1) data and each entry of F, psi, theta and Omega moved by +-1."""
    gs = _aff1()
    cases = [_AFF1_ISOTROPIC]
    for slot, part in enumerate(_AFF1_ISOTROPIC):
        for a, b, c in itertools.product(*map(range, (len(part), len(part[0]), len(part[0][0])))):
            for delta in (1, -1):
                bumped = [[[list(v) for v in row] for row in nested] for nested in _AFF1_ISOTROPIC]
                bumped[slot][a][b][c] += delta
                cases.append(bumped)
    failing = set()
    for F, psi, theta, om in cases:
        F = [Matrix.from_rows(rows) for rows in F]
        _assert_isotropic_equals_the_oracle(gs, F, psi, theta, om)
        failing.update(c.name for c in check_isotropic_system(gs, F, psi, theta, om).failed())
    assert len(cases) == 19
    assert failing == {"F-derivations", "theta-psi-antisym", "cyclic-pairing", "Rstar-psi-K-F",
                       "ad-theta-FF"}


@st.composite
def _isotropic_data_over(draw, gs):
    """p in {1, 2}; F is a small combination of derivations of g, sometimes
    with one entry moved, and psi, theta and Omega are small and sparse."""
    d = draw(_extension_data_over(gs, max_p=2))
    return d.F, d.psi, d.theta, d.omega_cube


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_isotropic_criterion_equals_the_dense_oracle_on_random_data(data):
    gs = data.draw(st.sampled_from([_aff1(), _aff1_squared()]))
    _assert_isotropic_equals_the_oracle(gs, *data.draw(_isotropic_data_over(gs)))


def test_isotropic_criterion_needs_a_positive_p():
    # the dense criterion passed p = 0 as an empty, all-ok report
    assert _oracle_isotropic_system(_aff1(), [], [], [], []).ok
    with pytest.raises(ValueError, match="p must be positive"):
        check_isotropic_system(_aff1(), [], [], [], [])


def _rank_one_moves(F, S, a0, b0, lam):
    """Every entry of F, S, a0, b0 and lambda moved by +1 and by -1."""
    for delta in (1, -1):
        for which in (0, 1):
            for r, c in itertools.product(range(F.rows), repeat=2):
                ops = [[list(row) for row in op.entries] for op in (F, S)]
                ops[which][r][c] += delta
                yield Matrix.from_rows(ops[0]), Matrix.from_rows(ops[1]), a0, b0, lam
            for k in range(len(a0)):
                vecs = [list(a0), list(b0)]
                vecs[which][k] += delta
                yield F, S, *vecs, lam
        yield F, S, a0, b0, lam + delta


def test_rank_one_criterion_equals_the_dense_oracle():
    """The reduced criterion on the embedded data decides as the hand-written
    rank-one list did: at the rr(3,-1) defaults, five samples, and every
    one-entry +-1 move of the defaults."""
    rng = random.Random(8)
    gs, *defaults = catalog.rank_one_data()
    cases = [defaults] + [catalog.rank_one_data(catalog.get("RR3_SIXDIM_RAW").sample(rng))[1:]
                          for _ in range(5)]
    cases += _rank_one_moves(*defaults)
    assert len(cases) == 6 + 2 * (2 * 16 + 2 * 4 + 1)
    outcomes = set()
    for case in cases:
        rep = check_rank_one(gs, rank_one_extension(*case))
        assert rep == check_reduced_system(gs, _embed_rank_one(*case))
        assert rep.ok == _oracle_rank_one(gs, *case).ok, case
        outcomes.add(rep.ok)
    assert outcomes == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["LIE_RR3M1", "CORE2_NONABELIAN", "BS4_A", "R4_LEFT"]), st.data())
def test_derivation_check_equals_the_dense_oracle(fid, data):
    g, _ = catalog.instantiate(fid)
    n = g.dim
    ops = []
    for _ in range(data.draw(st.integers(1, 3))):
        rows = [[data.draw(_SMALL) for _ in range(n)] for _ in range(n)]
        ops.append(Matrix.from_rows(rows))
    ops += [d.scale(data.draw(_SMALL)) for d in derivations(g)]
    ops = data.draw(st.permutations(ops))
    assert _derivation_check(g, ops, "D") == _oracle_derivation_check(
        g, [_Dense(op.entries) for op in ops], "D")


def test_symplectic_lie_reports_a_broken_star_with_its_witness(monkeypatch):
    import sympleib.extension as ext
    skewed = Algebra.from_table(2, {(1, 1): {2: 1}, (2, 1): {2: 1}})
    rep = is_left_symmetric(skewed)
    assert rep.witness.describe() == "left-symmetric fails at (1, 2, 1) with defect (0, -1)"
    monkeypatch.setattr(ext, "star_left", lambda g, form: skewed)
    with pytest.raises(ValueError) as exc:
        SymplecticLie(_abelian2().g, W12)
    assert str(exc.value) == ("internal error: star product is not left symmetric: "
                              + rep.witness.describe())
    # the zero product is left symmetric, but its commutator is not [e1, e2] = e1
    monkeypatch.setattr(ext, "star_left", lambda g, form: Algebra.from_table(2, {}))
    with pytest.raises(ValueError) as exc:
        SymplecticLie(_aff1().g, W12)
    assert str(exc.value) == ("internal error: star commutator differs from bracket: "
                              "star-commutator fails at (1, 2) with defect (-1, 0)")


# ---------------------------------------------------------------------------
# the block tables over the int atoms, the kept reports and the built forms


def _assert_tables_equal_the_dense_oracle(gs, d):
    """The product and the star filled from the tables read off the int atoms
    equal those filled from the Fraction tables of the oracle, in the layout
    (h, g, h*) and, at p = 1, in the rank-one layout (g, e, e*)."""
    layouts = [extension._layout(d.p, [gs.g.basis_label(a) for a in range(gs.dim)])]
    if d.p == 1:
        layouts.append(extension._rank_one_layout(gs.g))
    for layout in layouts:
        got = extension._blocks(gs, d), extension._blocks(gs, d, star=True)
        for got, want in zip(got, dense_tables(gs, d)):
            assert extension._fill(layout, *got) == extension._fill(layout, *want)


@pytest.mark.parametrize("case", list(_catalog_extension_cases()), ids=lambda c: c[0])
def test_tables_equal_the_dense_oracle_on_the_catalog(case):
    _assert_tables_equal_the_dense_oracle(*case[1:])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tables_equal_the_dense_oracle_on_random_and_rank_one_data(data):
    """Any data, since assembly needs no criterion, and the rank-one samples
    of RR3_SIXDIM_RAW embedded at p = 1."""
    if data.draw(st.booleans()):
        gs = data.draw(st.sampled_from([_abelian2(), _aff1(), _rr3(), _rr3_scaled()]))
        d = data.draw(_extension_data_over(gs))
    else:
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        gs, d = _embedded_rank_one(catalog.get("RR3_SIXDIM_RAW").sample(rng))
    _assert_tables_equal_the_dense_oracle(gs, d)


def _count_scans(monkeypatch):
    """Count each equation's scans by wrapping the entries of _EQUATIONS."""
    scans = collections.Counter()
    for name, run in list(extension._EQUATIONS.items()):
        def counted(e, eq_name, _run=run):
            scans[eq_name] += 1
            return _run(e, eq_name)
        monkeypatch.setitem(extension._EQUATIONS, name, counted)
    return scans


def test_a_second_criterion_reads_the_shared_equations_back(monkeypatch):
    """On one data object the reduced system rescans none of the 8 equations
    it shares with the direct one; a fresh data object equal in value scans
    on its own."""
    gs, d = catalog.extension_data("ABEL2_CASE1")
    scans = _count_scans(monkeypatch)
    full, reduced = check_full_system(gs, d), check_reduced_system(gs, d)
    full_names, reduced_names = ({c.name for c in r.checks} for r in (full, reduced))
    assert full_names & reduced_names == {
        "F-derivations", "G-derivations", "omega-cube", "theta-from-xi-psi",
        "theta-xi-psi-pairing", "Fstar-psi-K-theta", "S-xi", "ad-theta-FF"}
    assert scans == collections.Counter(full_names | reduced_names)
    assert check_reduced_system(gs, d) == reduced and sum(scans.values()) == 19 + 16 - 8
    twin = catalog.extension_data("ABEL2_CASE1")[1]
    assert twin == d and twin is not d
    assert check_reduced_system(gs, twin) == reduced
    assert scans == collections.Counter(full_names | reduced_names) + \
        collections.Counter(reduced_names)


def test_a_failing_shared_equation_prints_one_line_in_both_reports():
    """The rank-one data with b0 moved along e1 fails four shared equations;
    the direct and the reduced report on one data object print the same
    [FAIL] lines for them as a reduced report scanned on its own."""
    gs, F, S, a0, b0, lam = catalog.rank_one_data()
    bad = (F, S, a0, vadd(b0, [1, 0, 0, 0]), lam)
    d, alone = _embed_rank_one(*bad), _embed_rank_one(*bad)
    full, reduced = check_full_system(gs, d), check_reduced_system(gs, d)

    def fail_lines(report):
        return {c.name: c.line() for c in report.failed()}
    shared = fail_lines(full).keys() & fail_lines(reduced).keys()
    assert shared == {"theta-xi-psi-pairing", "Fstar-psi-K-theta", "S-xi", "ad-theta-FF"}
    for name in shared:
        line = fail_lines(full)[name]
        assert line.startswith(f"[FAIL] {name}  (fails at indices ")
        assert line in full.lines() and line in reduced.lines()
        assert line == fail_lines(reduced)[name] == \
            fail_lines(check_reduced_system(gs, alone))[name]
    assert reduced == check_reduced_system(gs, alone)


def _every_build():
    """(what, build) for each builder of the module, with its inputs made
    before any build runs; all but the two star builders and the deformation
    by a cube return a form."""
    cases = []
    for name, gs, d in _catalog_extension_cases():
        cases.append((name, partial(build_double_extension, gs, d)))
        cases.append((name + "-star", partial(build_left_symmetric, gs, d)))
    for params in (None, catalog.get("RR3_SIXDIM_RAW").sample(random.Random(4))):
        gs, *data = catalog.rank_one_data(params)
        cases.append(("rank-one", partial(build_rank_one, gs, rank_one_extension(*data))))
        cases.append(("rank-one-star", partial(rank_one_star, gs, rank_one_extension(*data))))
    m = 4
    zero = ExtensionData(2, [Matrix.zero(m, m)] * 2, [Matrix.zero(m, m)] * 2,
                         zero_grid(2, m), zero_grid(2, m), zero_grid(2, m), zero_cube(2))
    cases.append(("zero-p2", partial(build_double_extension, _rr3(), zero)))
    cube = [[[2, 1], [1, 0]], [[1, 0], [0, 0]]]
    cases.append(("lagrangian", partial(build_lagrangian, 2, cube)))
    cases.append(("inner", partial(build_inner_extension, _aff1(), Matrix.from_rows([[2], [1]]),
                                   [[[3, 0]]], [[[4]]])))
    cases.append(("inner-p2", partial(build_inner_extension, _aff1_squared(),
                                      Matrix.from_rows([[1, 0], [2, 1], [0, 3], [-1, 1]]),
                                      [[[1, 0, 0, 0], [0, 0, 2, 0]], [[0, 0, 2, 0], [3, 0, 0, 0]]],
                                      zero_cube(2))))
    cases.append(("from-T", partial(build_bisymplectic_from_T, _abelian2(),
                                    span(2, [basis_vector(2, 0)]),
                                    [[[0, 0], [0, 0]], [[0, 0], [0, 5]]])))
    cases.append(("commutative", partial(build_commutative_bisymplectic, 1, W12, [[[4]]])))
    return cases


def _assert_skew(form):
    w = form.w.entries
    assert all(w[i][j] == -w[j][i] for i in range(form.dim) for j in range(form.dim))
    assert SkewForm(form.w) == form


def test_no_builder_runs_the_checked_form_constructor(monkeypatch):
    """The forms the builders assemble are skew by construction: none goes
    through SkewForm.__init__, and each passes its skew scan afterwards."""
    cases = _every_build()
    calls = []
    init = SkewForm.__init__
    monkeypatch.setattr(SkewForm, "__init__", lambda self, w: calls.append(w) or init(self, w))
    built = [build() for _, build in cases]
    assert calls == []
    monkeypatch.undo()
    forms = [out[1] for out in built if isinstance(out, tuple)]
    assert len(forms) == len(list(_catalog_extension_cases())) + 7
    for form in forms:
        _assert_skew(form)


@st.composite
def _symmetric_cubes(draw, p, entries):
    """A fully symmetric p x p x p cube, one drawn entry per sorted index triple."""
    values = {tuple(sorted(idx)): draw(entries) for idx in itertools.product(range(p), repeat=3)}
    return [[[values[tuple(sorted((x, y, z)))] for z in range(p)] for y in range(p)]
            for x in range(p)]


@st.composite
def _inner_inputs(draw):
    """(gs, H, psi, cube) over aff(1) or aff(1)^2, p <= 2: a drawn H, a
    symmetric psi along the directions the star's right product kills and a
    symmetric cube, so every precondition of build_inner_extension holds."""
    gs, free = draw(st.sampled_from([(_aff1(), (0,)), (_aff1_squared(), (0, 2))]))
    m, p = gs.dim, draw(st.integers(1, 2))
    H = Matrix.from_rows([[draw(_SMALL) for _ in range(p)] for _ in range(m)])
    sym = {(x, y): [draw(_SMALL) if k in free else 0 for k in range(m)]
           for x in range(p) for y in range(x, p)}
    psi = [[sym[min(x, y), max(x, y)] for y in range(p)] for x in range(p)]
    return gs, H, psi, draw(_symmetric_cubes(p, _SMALL))


@settings(max_examples=30, deadline=None)
@given(_inner_inputs())
def test_inner_extension_forms_are_skew_with_their_extra_pairs(inputs):
    """Over drawn inputs meeting every precondition, the form
    build_inner_extension returns is skew and the product is left
    symplectic for it."""
    algebra, form = build_inner_extension(*inputs)
    _assert_skew(form)
    assert is_symplectic_left(algebra, form).holds


def _assert_inner_is_the_sheared_oracle(gs, H, psi, cube):
    algebra, form = build_inner_extension(gs, H, psi, cube)
    a, w = inner_extension(gs, H, psi, cube)
    P = inner_shear(gs, H)
    assert change_basis(a, P).c == algebra.c
    assert P.transpose() @ w.w @ P == form.w


@settings(max_examples=30, deadline=None)
@given(_inner_inputs())
def test_inner_extension_is_the_oracle_in_the_adapted_basis(inputs):
    """build_inner_extension returns the product and form of the basis
    (h, g, h*) with the (h, g) pairing omega(H e_i, e_b), carried by the
    shear h_i -> h_i + H e_i into the adapted basis of the one builder."""
    _assert_inner_is_the_sheared_oracle(*inputs)


@pytest.mark.parametrize("name", ["inner", "inner-p2"])
def test_inner_builds_are_the_oracle_in_the_adapted_basis(name):
    build = dict(_every_build())[name]
    _assert_inner_is_the_sheared_oracle(*build.args)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_commutative_bisymplectic_builds_are_commutative_and_their_own_stars(data):
    """Over p <= 3, B in {W12, W14_23} and an integer symmetric T, the build
    is commutative, symmetric Leibniz and bi-symplectic, and both stars are
    the product itself."""
    p, b_form = data.draw(st.integers(1, 3)), data.draw(st.sampled_from([W12, W14_23]))
    alg, form = build_commutative_bisymplectic(
        p, b_form, data.draw(_symmetric_cubes(p, st.integers(-3, 3))))
    n = alg.dim
    assert all(alg.c[i][j] == alg.c[j][i] for i in range(n) for j in range(n))
    assert is_symmetric_leibniz(alg).holds
    assert is_bi_symplectic(alg, form).holds
    assert star_left(alg, form).c == star_right(alg, form).c == alg.c
