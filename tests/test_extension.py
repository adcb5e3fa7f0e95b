"""Double extension data, the two criterion routes, and all builders."""

import random
from fractions import Fraction

import pytest

from sympleib.algebra import (
    Algebra,
    derivations,
    is_left_leibniz,
    is_left_symmetric,
    leibniz_ideal,
    multiply,
)
from sympleib.exactlin import Matrix, basis_vector, span, vector
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
    rank_one_star,
    zero_cube,
    zero_grid,
)
from sympleib.extension import _assemble_double_extension, _same_product, _verify
from sympleib.symplectic import (
    form_from_pairs,
    is_bi_symplectic,
    is_symplectic_left,
    omega,
    omega_adjoint,
    star_left,
)

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


def test_lagrangian_extension():
    res = build_lagrangian(1, [[[3]]])
    assert res.algebra.dim == 2
    assert res.leib_is_lagrangian
    assert res.note == ""
    assert res.algebra.c[0][0] == vector([0, 3])
    assert star_left(res.algebra, res.form).c == res.star.c

    vac = build_lagrangian(2, zero_cube(2))
    assert vac.note == "Lagrangian condition vacuous"
    assert not vac.leib_is_lagrangian
    assert leibniz_ideal(vac.algebra).dim == 0

    cube = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    cube[0][0][0] = 2
    cube[0][0][1] = 1
    cube[0][1][0] = 1
    cube[1][0][0] = 1
    res2 = build_lagrangian(2, cube)
    assert is_left_leibniz(res2.algebra).holds
    assert star_left(res2.algebra, res2.form).c == res2.star.c


def test_lagrangian_rejects_bad_cube():
    cube = [[[0, 1], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ValueError):
        build_lagrangian(2, cube)


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


def test_rank_one_criterion_and_build_on_rr3():
    gs = _rr3()
    F, S, a0, b0, lam = _rr3_rank_one(2, -1, 3, 4, 5, -2, 6, 0, 7)
    rep = check_rank_one(gs, F, S, a0, b0, lam)
    assert rep.ok, str(rep)
    alg, form = build_rank_one(gs, F, S, a0, b0, lam)
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
    rep = check_rank_one(gs, F_bad, S, a0, b0, Fraction(7))
    assert not rep.ok
    failed = {c.name for c in rep.failed()}
    assert "Rstar-a0-model" in failed or "F-derivation" in failed


def test_rank_one_embeds_as_general_extension_data():
    gs = _rr3()
    cases = [
        _rr3_rank_one(2, -1, 3, 4, 5, -2, 6, 0, 7),
        _rr3_rank_one(1, 2, -3, -1, 0, 0, 4, 5, -6),
        _rr3_rank_one(0, 0, 1, 2, -2, 3, 0, 0, 1),
    ]
    for F, S, a0, b0, lam in cases:
        d = _embed_rank_one(F, S, a0, b0, lam)
        assert check_rank_one(gs, F, S, a0, b0, lam).ok
        assert check_full_system(gs, d).ok
        assert check_reduced_system(gs, d).ok
        small, small_form = build_rank_one(gs, F, S, a0, b0, lam)
        big, big_form = build_double_extension(gs, d)
        # reorder: general layout is (e, g, e*), rank-one layout is (g, e, e*)
        m = gs.dim
        to_big = list(range(1, m + 1)) + [0, m + 1]
        for i in range(m + 2):
            for j in range(m + 2):
                assert [big.c[to_big[i]][to_big[j]][to_big[k]]
                        for k in range(m + 2)] == list(small.c[i][j])
                assert small_form.w.entries[i][j] == big_form.w.entries[to_big[i]][to_big[j]]
        small_star = rank_one_star(gs, F, S, a0, b0, lam)
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
    F, S, a0, b0, lam = _rr3_rank_one(1, 1, 0, 2, 0, 0, 3, 0, -2)
    alg, form = build_rank_one(gs, F, S, a0, b0, lam)
    star = rank_one_star(gs, F, S, a0, b0, lam)
    assert star.c == star_left(alg, form).c
    assert is_left_symmetric(star).holds


def test_rank_one_rejects_bad_data():
    gs = _rr3()
    F, S, a0, b0, lam = _rr3_rank_one(2, -1, 3, 4, 5, -2, 6, 1, 7)  # z*x != 0
    with pytest.raises(ValueError):
        build_rank_one(gs, F, S, a0, b0, lam)


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
        from sympleib.algebra import center
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
