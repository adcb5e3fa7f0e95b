"""Acceptance runs, one test and one pass/fail line per published criterion.

Every comparison is exact; nothing here tolerates a nonzero defect.  Each
test stays under five seconds; the randomized suites fix their seeds so a
failure is reproducible bit for bit.
"""

import json
import random
from fractions import Fraction

from sympleib.algebra import (
    Algebra,
    center,
    derivations,
    is_left_leibniz,
    is_left_symmetric,
    is_lie,
    is_symmetric_leibniz,
    leibniz_ideal,
    multiply,
)
from sympleib.catalog import (
    extension_data,
    get,
    instantiate,
    list_families,
    rank_one_data,
    sample_verify,
    verify,
)
from sympleib.cli import main
from sympleib.core import core, verify_core_properties
from sympleib.exactlin import Matrix, basis_vector, intersect, vector
from sympleib.extension import (
    ExtensionData,
    SymplecticLie,
    build_double_extension,
    build_left_symmetric,
    build_rank_one,
    check_full_system,
    check_rank_one,
    check_reduced_system,
    rank_one_extension,
    zero_grid,
)
from sympleib.fileformat import parse_algebra, serialize_algebra
from sympleib.symplectic import (
    SkewForm,
    form_coords,
    form_from_pairs,
    is_bi_symplectic,
    is_symplectic_left,
    is_symplectic_left_split,
    is_symplectic_right,
    is_symplectic_right_split,
    omega,
    orthogonal,
    solve_symplectic_forms,
    star_left,
)

from oracles import omega_adjoint

SEED = 20260815

BS4_IDS = ("BS4_A", "BS4_B", "BS4_C", "BS4_D", "BS4_E", "BS4_F", "BS4_G",
           "BS4_H", "BS4_I", "BS4_J", "BS4_K", "BS4_L", "BS4_M", "BS4_N")


def embed_rank_one(F, S, a0, b0, lam) -> ExtensionData:
    c0 = tuple((x + y) / 2 for x, y in zip(a0, b0))
    return ExtensionData(1, [F], [S - F], [[c0]], [[a0]], [[b0]], [[[lam]]])


def test_criterion_1_r4_star_table():
    a, w = instantiate("R4_LEFT")
    assert is_left_leibniz(a).holds
    assert w.w == form_from_pairs(4, {(1, 4): 1, (2, 3): 1}).w
    assert is_symplectic_left(a, w).holds
    assert solve_symplectic_forms(a, "left").contains(form_coords(w))

    star = star_left(a, w)
    assert star.c[0][1] == vector([0, 0, 1, 0])    # e1*e2 = e3
    assert star.c[1][1] == vector([0, 0, 0, -1])   # e2*e2 = -e4
    assert star.c[2][0] == vector([0, 0, 0, -1])   # e3*e1 = -e4

    # the square of e1, recomputed from the defining relation
    recomputed = star.c[0][0]
    assert recomputed == vector([0, -1, 0, 1])
    printed = vector([0, -1, 1, 0])  # the value the table shows instead

    def relation_defects(candidate):
        return [omega(w, candidate, basis_vector(4, k))
                + omega(w, basis_vector(4, 0), a.c[0][k]) for k in range(4)]

    assert all(d == 0 for d in relation_defects(recomputed))
    assert any(d != 0 for d in relation_defects(printed))
    print("criterion 1: PASS - star table reproduced; the printed square "
          "-e2+e3 violates the defining relation, recomputed value is -e2+e4")


def test_criterion_2_dim2_forms_and_identities():
    a, _ = instantiate("DIM2_NONLIE")
    space = solve_symplectic_forms(a, "left")
    assert space.dim == 1
    assert space.basis.entries == ((Fraction(1),),)  # exactly span{e1^e2}

    rng = random.Random(SEED)
    xs = [Fraction(1), Fraction(-1), Fraction(7, 3)]
    xs += [Fraction(rng.randint(1, 60), rng.randint(1, 9)) * rng.choice((1, -1))
           for _ in range(12)]
    for x in xs:
        a, w = instantiate("DIM2_NONLIE", {"x": x})
        assert is_symmetric_leibniz(a).holds, x
        assert is_bi_symplectic(a, w).holds, x
        assert not is_lie(a).holds, x
    print(f"criterion 2: PASS - the form space is one-dimensional and "
          f"{len(xs)} nonzero parameters verify")


def test_criterion_3_dim4_bisymplectic_families():
    failures = 0
    for fid in BS4_IDS:
        spec = get(fid)
        assert {"symmetric-leibniz", "bi-symplectic", "non-lie"} <= set(spec.claims)
        failures += sum(not report.ok for _, report in sample_verify(fid, seed=SEED, count=10))
    # both signs in the weighted-action family, ten samples each
    rng = random.Random(SEED)
    for sign in (1, -1):
        for _ in range(10):
            x = Fraction(rng.choice([k for k in range(-6, 7) if k]))
            a, w = instantiate("BS4_M", {"x": x, "s": sign})
            ok = (is_symmetric_leibniz(a).holds and is_bi_symplectic(a, w).holds
                  and not is_lie(a).holds)
            failures += not ok
    assert failures == 0
    print("criterion 3: PASS - 14 families x 10 samples plus both signed "
          "variants, 0 failures")


def test_criterion_4_rank_one_pipeline():
    raws = get("RR3_SIXDIM_RAW")
    target = form_from_pairs(6, {(1, 4): 1, (2, 3): 1, (5, 6): -1})
    rng = random.Random(SEED)
    for _ in range(10):
        params = raws.sample(rng)
        assert params["z"] * params["x"] == 0 and params["z"] * params["s"] == 0
        gs, F, S, a0, b0, lam = rank_one_data(params)
        d = rank_one_extension(F, S, a0, b0, lam)
        assert check_rank_one(gs, d).ok
        assert check_reduced_system(gs, embed_rank_one(F, S, a0, b0, lam)).ok

        built, built_form = build_rank_one(gs, d)
        table, table_form = instantiate("RR3_SIXDIM_RAW", params)
        assert built.c == table.c          # entry for entry
        assert built_form.w == table_form.w == target.w
        assert is_left_leibniz(built).holds
        assert is_symplectic_left(built, built_form).holds

    for fid in ("RR3_SIXDIM_B0", "RR3_SIXDIM_BNE0"):
        assert verify(fid).ok
        assert all(report.ok for _, report in sample_verify(fid, seed=SEED, count=10))
    print("criterion 4: PASS - 10 solved samples check, build, and match "
          "the displayed tables; both normal forms verify")


def test_criterion_5_core_round_trip():
    a, w = instantiate("R4_LEFT")
    dec = core(a, w)
    assert dec.ideal.dim == 1
    assert dec.reduced.algebra.dim == 2
    assert all(x == 0 for row in dec.reduced.algebra.c for v in row for x in v)
    assert dec.reduced.form.nondegenerate
    assert dec.h_dim == 1

    raws = get("RR3_SIXDIM_RAW")
    rng = random.Random(SEED)
    for _ in range(10):
        params = raws.sample(rng)
        params["s"] = params["x"] = Fraction(0)
        if params["lam"] == 0:
            params["lam"] = Fraction(3)
        gs, F, S, a0, b0, lam = rank_one_data(params)
        built, built_form = build_rank_one(gs, rank_one_extension(F, S, a0, b0, lam))
        bdec = core(built, built_form)
        assert bdec.ideal.dim == 1
        assert bdec.reduced.algebra.dim == 4

    for fid in list_families():
        report = verify_core_properties(*instantiate(fid))
        assert report.ok, (fid, [c.name for c in report.failed()])
    print("criterion 5: PASS - R4 and 10 built extensions reduce as stated; "
          "core properties hold on all 23 catalog instances")


def test_criterion_6a_star_products_are_left_symmetric():
    rng = random.Random(SEED)
    ids = list_families()
    half = Fraction(1, 2)
    for k in range(200):
        fid = ids[k % len(ids)]
        a, w = instantiate(fid, get(fid).sample(rng))
        star = star_left(a, w)
        assert is_left_symmetric(star).holds, fid
        for i in range(a.dim):
            for j in range(a.dim):
                comm = tuple(x - y for x, y in zip(star.c[i][j], star.c[j][i]))
                skew = tuple(half * (x - y)
                             for x, y in zip(a.c[i][j], a.c[j][i]))
                assert comm == skew, fid
    print("criterion 6a: PASS - 200 star products left symmetric with "
          "commutator half the skew part, 0 failures")


def test_criterion_6b_split_formulations_agree():
    rng = random.Random(SEED)
    ids = [f for f in list_families() if not f.startswith("RR3_SIXDIM")]
    verdicts = {True: 0, False: 0}
    for k in range(200):
        if k % 3 == 0:
            fid = ids[(k // 3) % len(ids)]
            a, w = instantiate(fid, get(fid).sample(rng))
        else:
            n = rng.randint(2, 4)
            c = tuple(tuple(tuple(
                Fraction(rng.randint(-2, 2)) if rng.randint(0, 3) == 0
                else Fraction(0) for _ in range(n))
                for _ in range(n)) for _ in range(n))
            a = Algebra(n, c)
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    v = Fraction(rng.randint(-3, 3))
                    rows[i][j], rows[j][i] = v, -v
            w = SkewForm(Matrix.from_rows(rows))
        left, left2 = is_symplectic_left(a, w), is_symplectic_left_split(a, w)
        right, right2 = is_symplectic_right(a, w), is_symplectic_right_split(a, w)
        assert left.holds == left2.holds
        assert right.holds == right2.holds
        verdicts[left.holds] += 1
    assert verdicts[True] and verdicts[False]  # both outcomes exercised
    print(f"criterion 6b: PASS - 200 pairs, split formulations agree "
          f"({verdicts[True]} hold, {verdicts[False]} fail)")


def test_criterion_6c_derivation_adjoint_identity():
    bases = (
        SymplecticLie(*instantiate("LIE_RR3M1")),
        extension_data("ABEL2_CASE1")[0],
        rank_one_data()[0],
    )
    prepared = [(gs, derivations(gs.g)) for gs in bases]

    def holds(gs, d):
        g = gs.g
        dd = d + omega_adjoint(gs.form, d)
        for a in range(g.dim):
            for b in range(g.dim):
                lhs = dd.matvec(g.c[a][b])
                rhs = tuple(x - y for x, y in zip(
                    multiply(gs.star, basis_vector(g.dim, a), dd.col(b)),
                    multiply(gs.star, basis_vector(g.dim, b), dd.col(a))))
                if lhs != rhs:
                    return False
        return True

    trials = 0
    for gs, ders in prepared:
        for d in ders:  # every basis derivation, exactly
            assert holds(gs, d)
            trials += 1
    rng = random.Random(SEED)
    while trials < 200:
        gs, ders = prepared[trials % len(prepared)]
        combo = Matrix.zero(gs.dim, gs.dim)
        for d in ders:
            combo = combo + d.scale(Fraction(rng.randint(-3, 3)))
        assert holds(gs, combo)
        trials += 1
    print("criterion 6c: PASS - 200 derivations (all basis ones plus random "
          "combinations) satisfy the adjoint-sum identity")


def make_datasets(rng, count):
    """Catalog extension data plus randomized Lagrangian and rank-one data."""
    case1, case2 = get("ABEL2_CASE1"), get("ABEL2_CASE2")
    raws = get("RR3_SIXDIM_RAW")
    abel = extension_data("ABEL2_CASE1")[0]
    zero2 = Matrix.zero(2, 2)

    def lagrangian(p):
        cube = [[[Fraction(0)] * p for _ in range(p)] for _ in range(p)]
        for i in range(p):
            for j in range(i, p):
                for k in range(j, p):
                    v = Fraction(rng.randint(-4, 4))
                    for x, y, z in {(i, j, k), (i, k, j), (j, i, k),
                                    (j, k, i), (k, i, j), (k, j, i)}:
                        cube[x][y][z] = v
        grids = zero_grid(p, 2)
        return abel, ExtensionData(p, [zero2] * p, [zero2] * p,
                                   grids, grids, grids, cube)

    out = []
    for k in range(count):
        if k % 33 == 13:
            gs, F, S, a0, b0, lam = rank_one_data(raws.sample(rng))
            out.append((gs, embed_rank_one(F, S, a0, b0, lam)))
        elif k % 3 == 0:
            out.append(extension_data("ABEL2_CASE1", case1.sample(rng)))
        elif k % 3 == 1:
            out.append(extension_data("ABEL2_CASE2", case2.sample(rng)))
        else:
            # two-dimensional h occasionally; the rest stay cheap
            out.append(lagrangian(2 if k % 45 == 2 else 1))
    return out


def test_criterion_6d_full_and_reduced_systems_agree():
    rng = random.Random(SEED)
    datasets = make_datasets(rng, 200)
    for gs, d in datasets:
        assert check_full_system(gs, d).ok
        assert check_reduced_system(gs, d).ok
        g = gs.g
        center_space = center(g)
        for x in range(d.p):
            for y in range(d.p):
                sym = tuple(u + v for u, v in zip(d.theta[x][y], d.theta[y][x]))
                pair = tuple(u + v for u, v in zip(d.psi[x][y], d.xi[x][y]))
                assert sym == pair
                assert center_space.contains(sym)
                S_x, S_y = d.S(x), d.S(y)
                zero = Matrix.zero(g.dim, g.dim)
                assert S_x @ S_y == zero
                assert d.F[x] @ S_y == zero
                assert S_y @ d.F[x] == zero
    # agreement is two-sided: damaged data must fail both routes alike
    for gs, d in datasets[::5]:
        psi = [list(map(list, row)) for row in d.psi]
        psi[0][0][rng.randrange(gs.dim)] += 1
        bad = ExtensionData(d.p, d.F, d.G, d.theta, psi, d.xi, d.omega_cube)
        assert check_full_system(gs, bad).ok == check_reduced_system(gs, bad).ok
    print("criterion 6d: PASS - 200 datasets pass both systems with the "
          "pairing identities; 40 damaged copies keep the verdicts aligned")


def test_criterion_6e_built_star_equals_recovered_star():
    rng = random.Random(SEED)
    for gs, d in make_datasets(rng, 200):
        built, form = build_double_extension(gs, d)
        assert build_left_symmetric(gs, d).c == star_left(built, form).c
    print("criterion 6e: PASS - 200 extensions: the direct left-symmetric "
          "table equals the star of the built product")


def test_criterion_7_non_lie_instances_have_degenerate_leibniz_span():
    rng = random.Random(SEED)
    non_lie_seen = 0
    for fid in list_families():
        spec = get(fid)
        for params in [spec.default_params()] + [spec.sample(rng)
                                                 for _ in range(5)]:
            a, w = instantiate(fid, params)
            if is_lie(a).holds:
                continue
            non_lie_seen += 1
            leib = leibniz_ideal(a)
            assert intersect(leib, orthogonal(w, leib)).dim > 0, (fid, params)
    assert non_lie_seen >= 100
    print(f"criterion 7: PASS - {non_lie_seen} non-Lie instances all have "
          f"Leib meeting its orthogonal nontrivially")


def test_criterion_8_cli_contract(capsys, tmp_path):
    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    # file round trip is bit exact on every export
    for fid in list_families():
        _, out = run("catalog", "build", fid)
        assert serialize_algebra(*parse_algebra(out)) == out, fid

    # exit codes: 0 pass, 1 mathematical failure, 2 bad input
    path = tmp_path / "a.json"
    path.write_text(run("catalog", "build", "DIM2_NONLIE")[1], encoding="utf-8")
    assert run("check", str(path), "--left", "--right")[0] == 0
    assert run("check", str(path), "--lie")[0] == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert run("check", str(bad))[0] == 2
    assert run("catalog", "build", "NOPE")[0] == 2

    # seeded runs are reproducible bit for bit
    one = run("catalog", "verify", "BS4_M", "--samples", "5", "--seed", "7")
    two = run("catalog", "verify", "BS4_M", "--samples", "5", "--seed", "7")
    assert one == two
    r4 = tmp_path / "r4.json"
    r4.write_text(run("catalog", "build", "R4_LEFT")[1], encoding="utf-8")
    assert run("omega", str(r4), "solve", "--seed", "3") == \
        run("omega", str(r4), "solve", "--seed", "3")
    print("criterion 8: PASS - 23 bit-exact round trips, exit codes 0/1/2, "
          "seeded runs byte-identical")
