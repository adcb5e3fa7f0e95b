"""The one report type: every check returns a ``reporting.Check``."""

from fractions import Fraction

import pytest

from sympleib import algebra, catalog, symplectic
from sympleib.algebra import Algebra
from sympleib.core import core, verify_core_properties
from sympleib.exactlin import Matrix
from sympleib.extension import (ExtensionData, SymplecticLie, check_full_system,
                                check_isotropic_system, check_rank_one, check_reduced_system,
                                rank_one_extension)
from sympleib.reporting import Check, SystemReport, Witness
from sympleib.symplectic import form_from_pairs

W = Witness("jacobi", (0, 1, 2), (Fraction(1), Fraction(-1, 2)))


def test_a_check_that_holds_has_no_witness():
    with pytest.raises(ValueError, match="no witness"):
        Check("lie", True, witness=W)
    assert Check("lie", True).witness is None


def test_a_witness_fills_the_detail():
    check = Check("lie", False, witness=W)
    assert check.detail == W.describe() == "jacobi fails at (1, 2, 3) with defect (1, -1/2)"
    assert check.line() == "[FAIL] lie  (jacobi fails at (1, 2, 3) with defect (1, -1/2))"
    assert check == Check("lie", False, "", W)
    free = Check("I-product-ideal", False, "e1 * (basis vector) escapes")
    assert free.witness is None
    assert free.line() == "[FAIL] I-product-ideal  (e1 * (basis vector) escapes)"


def test_a_system_report_collects_its_failed_checks():
    failed = Check("lie", False, witness=W)
    report = SystemReport("title", (Check("left-leibniz", True), failed))
    assert (report.ok, report.failed()) == (False, (failed,))
    assert str(report) == "title\n[  ok] left-leibniz\n" + failed.line()
    assert SystemReport("empty", ()).ok


IS_CHECKS = (algebra.is_left_leibniz, algebra.is_right_leibniz, algebra.is_symmetric_leibniz,
             algebra.is_left_symmetric, algebra.is_lie)
IS_FORM_CHECKS = (symplectic.is_symplectic_left, symplectic.is_symplectic_right,
                  symplectic.is_bi_symplectic, symplectic.is_symplectic_left_split,
                  symplectic.is_symplectic_right_split)


def _pairs():
    """Every family at its defaults, then R4_LEFT under a form it fails and
    under a degenerate form, and the idempotent e1*e1 = e1, which is neither
    left nor right Leibniz: each check both holds and fails."""
    pairs = [catalog.instantiate(fid) for fid in catalog.list_families()]
    r4 = pairs[catalog.list_families().index("R4_LEFT")][0]
    return pairs + [(r4, form_from_pairs(4, {(1, 2): 1, (3, 4): 1})),
                    (r4, form_from_pairs(4, {(1, 2): 1})),
                    (Algebra.from_table(2, {(1, 1): {1: 1}}), form_from_pairs(2, {(1, 2): 1}))]


def test_every_identity_and_form_check_returns_a_check():
    outcomes = set()
    for a, form in _pairs():
        for fn in IS_CHECKS:
            rep = fn(a)
            assert type(rep) is Check and (rep.witness is None) == rep.holds
            outcomes.add((fn.__name__, rep.holds))
        for fn in IS_FORM_CHECKS:
            rep = fn(a, form)
            assert type(rep) is Check and (rep.witness is None) == rep.holds
            outcomes.add((fn.__name__, rep.holds))
    assert outcomes == {(fn.__name__, holds) for fn in IS_CHECKS + IS_FORM_CHECKS
                        for holds in (True, False)}


def test_every_predicate_returns_a_check_named_after_its_claim():
    for a, form in _pairs():
        for claim, predicate in catalog._PREDICATES.items():
            rep = predicate(a, form)
            assert type(rep) is Check and rep.name == claim


def _criterion_reports():
    for fid in ("ABEL2_CASE1", "ABEL2_CASE2"):
        gs, d = catalog.extension_data(fid)
        bumped = ExtensionData(d.p, d.F, d.G, d.theta, d.psi, d.xi,
                               [[[d.omega_cube[0][0][0] + 1]]])
        for data in (d, bumped):
            yield check_full_system(gs, data)
            yield check_reduced_system(gs, data)
    gs, F, S, a0, b0, lam = catalog.rank_one_data()
    yield check_rank_one(gs, rank_one_extension(F, S, a0, b0, lam))
    yield check_rank_one(gs, rank_one_extension(F + Matrix.identity(4), S, a0, b0, lam))
    aff1 = SymplecticLie(Algebra.from_table(2, {(1, 2): {1: 1}, (2, 1): {1: -1}}),
                         form_from_pairs(2, {(1, 2): 1}))
    for theta in ((0, 0), (1, 0)):
        yield check_isotropic_system(aff1, [Matrix.from_rows([[0, 1], [0, 0]])], [[[2, 0]]],
                                     [[theta]], [[[5]]])


def test_every_criterion_report_item_is_a_check():
    reports = list(_criterion_reports())
    assert {rep.ok for rep in reports} == {True, False}
    for rep in reports:
        assert type(rep) is SystemReport and rep.checks
        assert all(type(c) is Check for c in rep.checks)


def test_every_core_and_catalog_report_item_is_a_check():
    reports = [catalog.verify(fid) for fid in catalog.list_families()]
    for a, form in catalog.instantiate("R4_LEFT"), catalog.instantiate("CORE2_NONABELIAN"):
        reports.append(verify_core_properties(a, form, core(a, form)))
    for rep in reports:
        assert type(rep) is SystemReport and rep.checks and rep.ok
        assert all(type(c) is Check for c in rep.checks)
