"""Family registry: exact tables, constraints, claims, seeded verification."""

import collections
import hashlib
import random
from fractions import Fraction

import pytest

from sympleib.algebra import is_left_leibniz, is_lie
from sympleib.catalog import (
    extension_data,
    get,
    instantiate,
    list_families,
    rank_one_data,
    resolve_params,
    sample_verify,
    verify,
)
from sympleib import algebra, extension, symplectic
from sympleib.core import core
from sympleib.exactlin import vector
from sympleib.fileformat import serialize_algebra
from sympleib.extension import check_rank_one, check_reduced_system, rank_one_extension
from sympleib.reporting import Check
from sympleib.symplectic import form_from_pairs, is_symplectic_left

ALL_IDS = (
    "DIM2_NONLIE", "R4_LEFT",
    "BS4_A", "BS4_B", "BS4_C", "BS4_D", "BS4_E", "BS4_F", "BS4_G",
    "BS4_H", "BS4_I", "BS4_J", "BS4_K", "BS4_L", "BS4_M", "BS4_N",
    "LIE_RR3M1", "CORE2_NONABELIAN", "ABEL2_CASE1", "ABEL2_CASE2",
    "RR3_SIXDIM_RAW", "RR3_SIXDIM_B0", "RR3_SIXDIM_BNE0",
)


def test_family_listing_is_stable_and_complete():
    assert list_families() == ALL_IDS
    assert len(ALL_IDS) == 23
    assert list_families() == list_families()


def test_every_family_verifies_on_its_defaults():
    for fid in list_families():
        report = verify(fid)
        assert report.ok, f"{fid}: {[c.name for c in report.failed()]}"


def test_dim2_instantiation_matches_the_table():
    a, w = instantiate("DIM2_NONLIE", {"x": 1})
    assert a.c[1][1] == vector([1, 0])
    assert all(x == 0 for i, j in ((0, 0), (0, 1), (1, 0)) for x in a.c[i][j])
    assert w.w == form_from_pairs(2, {(1, 2): 1}).w


def test_bs4_a_instantiation_matches_the_table():
    a, w = instantiate("BS4_A", {"x": 1, "y": 2, "z": 3, "t": 4})
    assert a.c[0][0] == vector([0, 0, 1, 2])
    assert a.c[0][1] == vector([0, 0, 2, 3])
    assert a.c[1][0] == vector([0, 0, 2, 3])
    assert a.c[1][1] == vector([0, 0, 3, 4])
    assert w.w == form_from_pairs(4, {(1, 3): 1, (2, 4): 1}).w


def test_rr3_raw_z_branch_has_the_e4_coupling():
    a, _ = instantiate("RR3_SIXDIM_RAW", {"z": 1, "x": 0, "s": 0})
    assert a.c[4][3] == vector([0, 0, 0, 0, 0, 1])
    assert a.c[3][4] == vector([0, 0, 0, 0, 0, -1])


def test_constraint_violations_name_the_predicate():
    with pytest.raises(ValueError, match="x-nonzero"):
        instantiate("DIM2_NONLIE", {"x": 0})
    with pytest.raises(ValueError, match="a-nonzero"):
        instantiate("BS4_E", {"a": 0})
    with pytest.raises(ValueError, match="zx-zero"):
        instantiate("RR3_SIXDIM_RAW", {"z": 1, "x": 2, "s": 0})
    with pytest.raises(ValueError, match="det-A-nonzero"):
        instantiate("ABEL2_CASE2", {"a11": 0, "a12": 1, "a21": 0})
    with pytest.raises(ValueError, match="unknown parameter"):
        instantiate("BS4_B", {"frequency": 3})
    with pytest.raises(ValueError, match="unknown family"):
        instantiate("BS4_Z")


def test_verify_reports_one_check_per_claim():
    report = verify("BS4_D", {"x": 5})
    names = [c.name for c in report.checks]
    assert names == ["symmetric-leibniz", "bi-symplectic", "non-lie"]
    assert report.ok

    lie_report = verify("LIE_RR3M1")
    assert {"lie", "left-symplectic"} <= {c.name for c in lie_report.checks}
    assert lie_report.ok


def test_sample_verify_reproducible_and_green():
    run1 = sample_verify("BS4_A", seed=7, count=20)
    run2 = sample_verify("BS4_A", seed=7, count=20)
    assert all(report.ok for _, report in run1) and len(run1) == 20
    assert [params for params, _ in run1] == [params for params, _ in run2]
    assert all([k for k, _ in params] == ["t", "x", "y", "z"] for params, _ in run1)

    raw = sample_verify("RR3_SIXDIM_RAW", seed=1, count=20)
    assert all(report.ok for _, report in raw)
    for params, _ in raw:
        p = dict(params)
        assert p["z"] * p["x"] == 0 and p["z"] * p["s"] == 0

    assert sample_verify("BS4_B", seed=0, count=0) == []


def test_all_families_pass_sampled_verification():
    for fid in list_families():
        for params, report in sample_verify(fid, seed=11, count=6):
            assert report.ok, f"{fid} at {params}: {report.failed()}"


def test_bs4_m_sampler_hits_both_form_signs():
    rng_run = sample_verify("BS4_M", seed=3, count=16)
    signs = {dict(params)["s"] for params, _ in rng_run}
    assert signs == {Fraction(1), Fraction(-1)}


def test_core2_round_trip_recovers_nonabelian_plane():
    a, w = instantiate("CORE2_NONABELIAN")
    dec = core(a, w)
    g = dec.reduced.algebra
    assert g.dim == 2
    assert any(any(x != 0 for x in g.c[i][j]) for i in range(2) for j in range(2))


def test_extension_data_families_pass_the_reduced_system():
    for fid in ("ABEL2_CASE1", "ABEL2_CASE2"):
        gs, data = extension_data(fid)
        assert check_reduced_system(gs, data).ok
    with pytest.raises(ValueError):
        extension_data("BS4_A")


def test_rank_one_data_passes_the_criterion():
    gs, *data = rank_one_data()
    assert check_rank_one(gs, rank_one_extension(*data)).ok
    gs2, *data2 = rank_one_data({"z": 5, "x": 0, "s": 0})
    assert check_rank_one(gs2, rank_one_extension(*data2)).ok


def test_extension_families_report_their_criterion_as_one_check():
    rr3, abel = get("RR3_SIXDIM_RAW"), get("ABEL2_CASE1")
    checks, (built, built_form) = rr3.extra_checks(rr3.default_params())
    assert [(c.holds, c.detail) for c in checks] == [(True, "")] * 3
    # the build equals the display table, so verify reads the claims off the build
    table, table_form = instantiate("RR3_SIXDIM_RAW")
    assert built.c == table.c and built_form.w == table_form.w
    assert built.labels == ("e1", "e2", "e3", "e4", "e", "estar")
    bad = {**rr3.default_params(), "z": Fraction(1)}  # z * x != 0
    assert rr3.extra_checks(bad) == ([
        Check("rank-one-system", False, "failed: theta-xi-psi-pairing, Fstar-psi-xi-S, S-xi")],
        rr3.builder(bad))
    assert abel.extra_checks(abel.default_params()) == (
        [Check("reduced-system", True)], instantiate("ABEL2_CASE1"))
    # the two bases are built and verified once, then shared
    assert rank_one_data()[0] is rank_one_data()[0]
    assert extension_data("ABEL2_CASE1")[0] is extension_data("ABEL2_CASE2")[0]


def test_rank_one_family_runs_its_criterion_once_per_sample(equation_scans):
    """The rank-one check and the build of one sample scan each equation of
    the reduced list once: the build reads back the reports the check kept
    on the sample's data."""
    gs, *data = rank_one_data()
    report = check_rank_one(gs, rank_one_extension(*data))
    names = collections.Counter(c.name for c in report.checks)
    rng = random.Random(3)
    rr3 = get("RR3_SIXDIM_RAW")
    for params in [rr3.default_params()] + [rr3.sample(rng) for _ in range(4)]:
        equation_scans.clear()
        assert [c.holds for c in rr3.extra_checks(params)[0]] == [True] * 3
        assert equation_scans == names


def test_rank_one_family_builds_one_derived_set_per_sample(monkeypatch):
    """check_rank_one and build_rank_one on one sample take one data object,
    so the criterion and the block tables read one derived set."""
    builds = []
    init = extension._Derived.__init__

    def counted(self, *args):
        builds.append(args)
        init(self, *args)
    monkeypatch.setattr(extension._Derived, "__init__", counted)
    rng = random.Random(3)
    rr3 = get("RR3_SIXDIM_RAW")
    for params in [rr3.default_params()] + [rr3.sample(rng) for _ in range(4)]:
        before = len(builds)
        assert verify("RR3_SIXDIM_RAW", params).ok
        assert len(builds) - before == 1
    # the one data object is the caller's: rank_one_extension keeps nothing
    gs, *data = rank_one_data()
    d = rank_one_extension(*data)
    assert rank_one_extension(*data) == d and rank_one_extension(*data) is not d
    check_rank_one(gs, d)
    assert "_kept" in vars(d) and "_kept" not in vars(data[0])


@pytest.mark.parametrize("fid", ["ABEL2_CASE1", "ABEL2_CASE2"])
def test_extension_family_builds_one_derived_set_and_scans_once_per_sample(
        monkeypatch, equation_scans, fid):
    """The reduced-system check and the build of one sample share one data
    object: one derived set, and each equation of the reduced system scanned
    once."""
    builds, scans = [], equation_scans
    init = extension._Derived.__init__

    def counted_init(self, *args):
        builds.append(args)
        init(self, *args)
    monkeypatch.setattr(extension._Derived, "__init__", counted_init)
    gs, d = extension_data(fid)
    names = [c.name for c in check_reduced_system(gs, d).checks]
    rng = random.Random(5)
    spec = get(fid)
    for params in [spec.default_params()] + [spec.sample(rng) for _ in range(4)]:
        builds.clear()
        scans.clear()
        assert verify(fid, params).ok
        assert len(builds) == 1
        assert scans == collections.Counter(names)


def _count_scans(monkeypatch):
    """Count the identity scans per (algebra, name) and the compatibility
    scans per (algebra, form, name), by wrapping ``algebra._first_failure``
    and ``symplectic._compat_scan``.  The scanned objects are held, so no id
    is reused while the counts live."""
    held, identity, compat = [], collections.Counter(), collections.Counter()
    first_failure, compat_scan = algebra._first_failure, symplectic._compat_scan

    def identity_scan(a, name, *rest):
        held.append(a)
        identity[id(a), name] += 1
        return first_failure(a, name, *rest)

    def form_scan(a, form, name, kinds):
        held.extend((a, form))
        compat[id(a), id(form), name] += 1
        return compat_scan(a, form, name, kinds)
    monkeypatch.setattr(algebra, "_first_failure", identity_scan)
    monkeypatch.setattr(symplectic, "_compat_scan", form_scan)
    return identity, compat


def test_catalog_verify_scans_each_fact_once_per_object(monkeypatch):
    """Over every family, at its defaults and at two seeded samples in one
    process, no algebra object runs one identity scan twice and no (algebra,
    form) pair one compatibility scan twice."""
    identity, compat = _count_scans(monkeypatch)
    for fid in list_families():
        assert verify(fid).ok
        assert all(report.ok for _, report in sample_verify(fid, seed=1, count=2))
    assert identity and compat
    assert [key for key, n in identity.items() if n > 1] == []
    assert [key for key, n in compat.items() if n > 1] == []


@pytest.mark.parametrize("fid", ["RR3_SIXDIM_RAW", "ABEL2_CASE1", "ABEL2_CASE2"])
def test_an_extension_sample_scans_left_leibniz_and_compatibility_once(monkeypatch, fid):
    """The build's post-checks and the claims read one kept report: one
    left-Leibniz scan and one compatibility scan per warm sample, all on the
    build (for RR3_SIXDIM_RAW, not on the equal display table)."""
    verify(fid)  # the shared base is built and checked once
    identity, compat = _count_scans(monkeypatch)
    spec, rng = get(fid), random.Random(2)
    for params in [spec.default_params()] + [spec.sample(rng) for _ in range(2)]:
        identity.clear()
        compat.clear()
        assert verify(fid, params).ok
        assert sum(n for (_, name), n in identity.items() if name == "left-leibniz") == 1
        assert list(compat.values()) == [1] and list(compat)[0][2] == "left-symplectic"


def test_rr3_displayed_forms_carry_their_cross_terms():
    _, w_raw = instantiate("RR3_SIXDIM_RAW")
    assert w_raw.w.entries[4][5] == -1
    assert w_raw.w.entries[0][1] == 0

    _, w_bne0 = instantiate("RR3_SIXDIM_BNE0", {"b1": 3, "b2": -2})
    assert w_bne0.w.entries[0][1] == -2  # b2 pairing between e1 and e2
    assert w_bne0.w.entries[0][2] == 3
    assert w_bne0.w.entries[1][4] == -2
    assert w_bne0.w.entries[2][4] == 3
    assert w_bne0.nondegenerate


def test_rr3_b0_rejects_the_cross_termed_form():
    # adding 2*b2 e2^e5 + 2*b1 e3^e5 on top of the plain form breaks (l1)
    a, _ = instantiate("RR3_SIXDIM_B0", {"b1": 2, "b2": -1})
    wrong = form_from_pairs(6, {(1, 4): 1, (2, 3): 1, (5, 6): -1,
                                (2, 5): -2, (3, 5): 4})
    rep = is_symplectic_left(a, wrong)
    assert not rep.holds
    assert rep.witness.kind == "left-symplectic"


def test_rr3_families_left_symplectic_on_both_branches():
    for fid in ("RR3_SIXDIM_RAW", "RR3_SIXDIM_B0", "RR3_SIXDIM_BNE0"):
        for override in ({"z": 0}, {"z": 4, "x": 0, "s": 0}):
            a, w = instantiate(fid, override)
            assert is_left_leibniz(a).holds, fid
            assert is_symplectic_left(a, w).holds, fid


def test_non_lie_families_really_are_non_lie_at_defaults():
    for fid in ALL_IDS:
        spec = get(fid)
        if "non-lie" in spec.claims:
            a, _ = instantiate(fid)
            assert not is_lie(a).holds, fid


def test_resolve_params_keeps_rationals_exact():
    params = resolve_params("BS4_E", {"x": "2/3", "a": -5})
    assert params["x"] == Fraction(2, 3)
    assert params["a"] == Fraction(-5)
    a, _ = instantiate("BS4_E", params)
    assert a.c[0][0][2] == Fraction(2, 3)


def test_default_parameters_satisfy_constraints():
    for fid in ALL_IDS:
        spec = get(fid)
        params = spec.default_params()
        for constraint in spec.constraints:
            assert constraint.satisfied(params), (fid, constraint.name)


def test_samplers_respect_constraints():
    rng = random.Random(5)
    for fid in ALL_IDS:
        spec = get(fid)
        for _ in range(8):
            params = spec.sample(rng)
            for constraint in spec.constraints:
                assert constraint.satisfied(params), (fid, constraint.name)


def _pinned_params(fid):
    """A family's defaults, then 10 samples drawn with random.Random(fid)."""
    spec = get(fid)
    rng = random.Random(fid)
    return [spec.default_params()] + [spec.sample(rng) for _ in range(10)]


def _digest(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()[:16]


# the first 16 hex digits of sha256 over serialize_algebra(*instantiate(fid, p))
# for p in _pinned_params(fid), each text followed by a NUL byte; recorded
# while every family still had its own builder function, so a coefficient
# moved while the registry is rewritten shows here even where every claim
# still holds
BUILD_GOLDEN = {
    "DIM2_NONLIE": "2c5d5734caaba1d9",
    "R4_LEFT": "bc83cb43135c37a3",
    "BS4_A": "71d8a1b47de429b4",
    "BS4_B": "875506a783c43f24",
    "BS4_C": "182f0d45309978a2",
    "BS4_D": "bc827e3a00d062fe",
    "BS4_E": "27adf045bc044b42",
    "BS4_F": "8dd985b5ce1d619c",
    "BS4_G": "de48a12502312836",
    "BS4_H": "f325bb06724c600d",
    "BS4_I": "d4dc7a7c8e64aa26",
    "BS4_J": "ac03673c1895b210",
    "BS4_K": "17c1e9422a161cd7",
    "BS4_L": "23eaf4475f437022",
    "BS4_M": "e29a894579522bb0",
    "BS4_N": "838a919b1e9fd1a5",
    "LIE_RR3M1": "058c6ff104694afb",
    "CORE2_NONABELIAN": "708762a39d2651cb",
    "ABEL2_CASE1": "bd1c76856adf2872",
    "ABEL2_CASE2": "9004b18559de4685",
    "RR3_SIXDIM_RAW": "47c3b9e7ab2f5d1d",
    "RR3_SIXDIM_B0": "265ba01eeeaf5494",
    "RR3_SIXDIM_BNE0": "e6e5f95286fb136e",
}


@pytest.mark.parametrize("fid", ALL_IDS)
def test_built_tables_are_pinned(fid):
    texts = (serialize_algebra(*instantiate(fid, p)) for p in _pinned_params(fid))
    assert _digest(texts) == BUILD_GOLDEN[fid]


def test_extension_and_rank_one_data_are_pinned():
    """The same digest over the repr of the (core, data) pairs and of the
    solved rank-one data, at the defaults and 10 samples."""
    assert _digest(repr(extension_data("ABEL2_CASE1", p))
                   for p in _pinned_params("ABEL2_CASE1")) == "2452de135d4e3255"
    assert _digest(repr(extension_data("ABEL2_CASE2", p))
                   for p in _pinned_params("ABEL2_CASE2")) == "4911c455801b70c3"
    assert _digest(repr(rank_one_data(p))
                   for p in _pinned_params("RR3_SIXDIM_RAW")) == "6d787fa9286e21c6"


def test_parameters_are_the_keys_of_the_defaults_in_order():
    for fid in ALL_IDS:
        spec = get(fid)
        assert spec.param_names == tuple(k for k, _ in spec.defaults), fid
