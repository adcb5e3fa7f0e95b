"""Command line behaviour: exit codes, pipelines, reproducibility."""

import json
import shutil
import subprocess
import time
from fractions import Fraction

import pytest

from sympleib.algebra import Algebra
from sympleib.catalog import instantiate, list_families
from sympleib.cli import _build_parser, main
from sympleib.fileformat import parse_algebra, serialize_algebra

RR3_BASE = """\
{
  "dim": 4,
  "products": [
    {"left": 1, "right": 2, "value": [0, 1, 0, 0]},
    {"left": 2, "right": 1, "value": [0, -1, 0, 0]},
    {"left": 1, "right": 3, "value": [0, 0, -1, 0]},
    {"left": 3, "right": 1, "value": [0, 0, 1, 0]}
  ],
  "form": [[1, 4, 1], [2, 3, 1]]
}
"""

# the solved one-dimensional extension data at b1=2, b2=-1, b3=3, b=4,
# s=5, x=-2, y=6, z=0, lam=7, embedded as F, G = S - F, theta, psi, xi
RR3_EXTENSION = """\
{
  "g": "rr3_base.json",
  "p": 1,
  "F": [[[0, 0, 0, 0], [2, -4, 0, 0], [-1, 0, 4, 0], [3, 0, 0, 0]]],
  "G": [[[0, 0, 0, 0], [-2, 4, 0, 0], [1, 0, -4, 0], [2, 0, 0, 0]]],
  "theta": [[[0, 0, 0, -2]]],
  "psi": [[[0, 8, -4, 6]]],
  "xi": [[[0, -8, 4, -10]]],
  "omega": [[[7]]]
}
"""

# same shape but z=3 with x=-2, breaking the z*x=0 requirement
RR3_EXTENSION_ZX = """\
{
  "g": "rr3_base.json",
  "p": 1,
  "F": [[[0, 0, 0, 0], [2, -4, 0, 0], [-1, 0, 4, 0], [3, 0, 0, 0]]],
  "G": [[[0, 0, 0, 0], [-2, 4, 0, 0], [1, 0, -4, 0], [-3, 0, 0, 0]]],
  "theta": [[[0, 0, 0, -2]]],
  "psi": [[[3, 8, -4, 6]]],
  "xi": [[[-3, -8, 4, -10]]],
  "omega": [[[7]]]
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def family_file(tmp_path, fid, name="a.json"):
    path = tmp_path / name
    path.write_text(serialize_algebra(*instantiate(fid)), encoding="utf-8")
    return str(path)


@pytest.fixture
def r4(tmp_path):
    return family_file(tmp_path, "R4_LEFT")


def test_check_passes_both_leibniz_identities(capsys, tmp_path):
    path = family_file(tmp_path, "DIM2_NONLIE")
    code, out, _ = run(capsys, "check", path, "--left", "--right")
    assert code == 0
    assert "[  ok] left-leibniz" in out
    assert "[  ok] right-leibniz" in out


def test_check_reports_a_witness_and_exits_1(capsys, r4):
    code, out, _ = run(capsys, "check", r4, "--lie")
    assert code == 1
    assert "[FAIL] lie" in out
    assert "antisymmetry fails at (1, 1)" in out


def test_check_defaults_to_the_left_identity(capsys, r4):
    code, out, _ = run(capsys, "check", r4)
    assert code == 0
    assert out.strip() == "[  ok] left-leibniz"


def test_malformed_file_exits_2_with_the_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,\n "products": [}', encoding="utf-8")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "line 2" in err


def _file_with_value(tmp_path, value):
    path = tmp_path / "value.json"
    doc = {"dim": 2, "products": [{"left": 2, "right": 2, "value": [value, 0]}],
           "form": [[1, 2, 1]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("value", ["1/0", "-3/0", "1e3", "0.5", "1e400", " 2",
                                   "+2", "1/-2", "", "٣"])
def test_rationals_outside_the_grammar_exit_2(capsys, tmp_path, value):
    code, out, err = run(capsys, "check", _file_with_value(tmp_path, value), "--left")
    assert code == 2
    assert out == ""
    assert "products[0].value[0]" in err


def test_fraction_strings_are_still_accepted(capsys, tmp_path):
    path = _file_with_value(tmp_path, "5/3")
    assert parse_algebra(open(path, encoding="utf-8").read())[0].c[1][1][0] == \
        Fraction(5, 3)
    code, out, _ = run(capsys, "omega", path, "verify", "--side", "left")
    assert code == 0
    assert out


@pytest.mark.parametrize("argv", [("check", "--lie"), ("omega", "solve"), ("core",)])
def test_hostile_dimension_exits_2_at_once(capsys, tmp_path, argv):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 400}), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "dim 400 exceeds the limit of 48" in err


def test_dimension_limit_is_inclusive():
    assert parse_algebra(json.dumps({"dim": 48}))[0].dim == 48


def _blocks(a, copies):
    """Direct sum of copies of a, block by block."""
    n = a.dim * copies
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for off in range(0, n, a.dim):
        for i in range(a.dim):
            for j in range(a.dim):
                c[off + i][off + j][off:off + a.dim] = a.c[i][j]
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


def test_identity_checks_at_the_dimension_limit_finish_quickly(capsys, tmp_path):
    empty = tmp_path / "empty48.json"
    empty.write_text(json.dumps({"dim": 48}), encoding="utf-8")
    blocks = tmp_path / "blocks48.json"
    blocks.write_text(serialize_algebra(_blocks(instantiate("RR3_SIXDIM_RAW")[0], 8)),
                      encoding="utf-8")
    for argv in (("check", str(empty), "--left", "--symmetric", "--lsym", "--lie"),
                 ("check", str(blocks), "--left")):
        start = time.perf_counter()
        code, out, _ = run(capsys, *argv)
        assert time.perf_counter() - start < 10
        assert code == 0
        assert "FAIL" not in out


def test_hostile_extension_dimension_exits_2(capsys, tmp_path):
    doc = json.loads(RR3_EXTENSION)
    doc["p"] = 23
    code, out, err = run(capsys, "extend", extension_dir(tmp_path, json.dumps(doc)))
    assert (code, out) == (2, "")
    assert "2p + dim = 50, above the limit of 48" in err
    doc["p"] = 22  # 2p + dim = 48 is allowed; the data then has the wrong shape
    code, out, err = run(capsys, "extend", extension_dir(tmp_path, json.dumps(doc)))
    assert code == 2
    assert "F: expected 22 matrices" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_omega_solve_finds_the_known_form(capsys, r4):
    code, out, _ = run(capsys, "omega", r4, "solve")
    assert code == 0
    assert "solution space dimension: 4" in out
    assert "(1,4)=1" in out and "(2,3)=1" in out
    assert "nondegenerate representative:" in out
    assert "none found" not in out


def test_omega_verify_each_side(capsys, tmp_path):
    path = family_file(tmp_path, "BS4_A")
    for side in ("left", "right", "bi"):
        code, out, _ = run(capsys, "omega", path, "verify", "--side", side)
        assert code == 0, side
        assert "[  ok]" in out


def test_omega_verify_failure_exits_1(capsys, tmp_path):
    a, _ = instantiate("R4_LEFT")
    w = instantiate("BS4_A")[1]  # wrong form for this product
    path = tmp_path / "mismatch.json"
    path.write_text(serialize_algebra(a, w), encoding="utf-8")
    code, out, _ = run(capsys, "omega", str(path), "verify")
    assert code == 1
    assert "[FAIL] left-symplectic" in out


def test_omega_verify_without_form_exits_2(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text('{"dim": 2, "products": []}', encoding="utf-8")
    code, _, err = run(capsys, "omega", str(path), "verify")
    assert code == 2
    assert "needs a form" in err


def test_star_pipeline_round_trip(capsys, r4, tmp_path):
    code, out, _ = run(capsys, "star", r4)
    assert code == 0
    star, form = parse_algebra(out)
    e = {(p, q): star.c[p - 1][q - 1] for p in range(1, 5) for q in range(1, 5)}
    assert e[(1, 2)] == tuple(map(int, "0010"))
    assert e[(2, 2)][3] == -1
    assert e[(3, 1)][3] == -1
    assert e[(1, 1)][1] == -1 and e[(1, 1)][3] == 1  # recomputed square
    assert form is not None
    again = tmp_path / "star.json"
    again.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(again), "--lsym")
    assert code == 0


def test_star_of_an_abelian_algebra_is_zero(capsys, tmp_path):
    path = tmp_path / "abelian.json"
    path.write_text('{"dim": 2, "products": [], "form": [[1, 2, 1]]}',
                    encoding="utf-8")
    code, out, _ = run(capsys, "star", str(path))
    assert code == 0
    assert json.loads(out)["products"] == []


def test_core_splits_the_r4_example(capsys, r4):
    code, out, _ = run(capsys, "core", r4)
    assert code == 0
    assert "dim I: 1" in out
    assert "reduced dim: 2" in out
    assert "reduced product" not in out  # abelian
    assert "reduced form: (1,2)=" in out
    assert "h dim: 1" in out


def test_core_rejects_an_incompatible_pair(capsys, tmp_path):
    a, _ = instantiate("R4_LEFT")
    w = instantiate("BS4_A")[1]
    path = tmp_path / "mismatch.json"
    path.write_text(serialize_algebra(a, w), encoding="utf-8")
    code, _, err = run(capsys, "core", str(path))
    assert code == 1
    assert "not left symplectic" in err
    assert "indices" in err


def test_core_prints_the_witness_as_the_check_does(capsys, tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"dim": 2, "form": [],
                                "products": [{"left": 2, "right": 2, "value": [1, 0]}]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "core", str(path))
    assert (code, out) == (1, "")
    assert "degenerate-form: radical vector (1, 0)" in err
    assert "Fraction(" not in err


def extension_dir(tmp_path, text):
    (tmp_path / "rr3_base.json").write_text(RR3_BASE, encoding="utf-8")
    path = tmp_path / "ext.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_extend_passes_both_systems(capsys, tmp_path):
    path = extension_dir(tmp_path, RR3_EXTENSION)
    code, out, _ = run(capsys, "extend", path)
    assert code == 0
    assert "FAIL" not in out
    code, out, _ = run(capsys, "extend", path, "--system", "full")
    assert code == 0
    assert "FAIL" not in out


def test_extend_build_matches_the_displayed_table(capsys, tmp_path):
    path = extension_dir(tmp_path, RR3_EXTENSION)
    code, out, err = run(capsys, "extend", path, "--build")
    assert code == 0
    assert "[  ok]" in err  # report moves aside, stdout is just the file
    built, built_form = parse_algebra(out)
    raw, raw_form = instantiate("RR3_SIXDIM_RAW")
    # built order (H, e1..e4, A1) vs displayed (e1..e4, e5, e6)
    to_big = [1, 2, 3, 4, 0, 5]
    for i in range(6):
        for j in range(6):
            assert raw.c[i][j] == tuple(
                built.c[to_big[i]][to_big[j]][to_big[k]] for k in range(6))
            assert raw_form.w.entries[i][j] == \
                built_form.w.entries[to_big[i]][to_big[j]]


def test_extend_star_emits_a_left_symmetric_table(capsys, tmp_path):
    path = extension_dir(tmp_path, RR3_EXTENSION)
    code, out, _ = run(capsys, "extend", path, "--star")
    assert code == 0
    star_path = tmp_path / "star.json"
    star_path.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "check", str(star_path), "--lsym")
    assert code == 0


def test_extend_names_the_broken_equation(capsys, tmp_path):
    path = extension_dir(tmp_path, RR3_EXTENSION_ZX)
    code, out, _ = run(capsys, "extend", path)
    assert code == 1
    assert "[FAIL] theta-xi-psi-pairing" in out
    # nothing is built from bad data
    code, out, _ = run(capsys, "extend", path, "--build")
    assert code == 1


def test_catalog_list_names_every_family(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for fid in list_families():
        assert fid in out


def test_catalog_build_honours_params(capsys):
    code, out, _ = run(capsys, "catalog", "build", "DIM2_NONLIE",
                       "--params", "x=5/3")
    assert code == 0
    doc = json.loads(out)
    assert doc["products"] == [{"left": 2, "right": 2, "value": ["5/3", 0]}]


def test_catalog_build_rejects_bad_params(capsys):
    code, _, err = run(capsys, "catalog", "build", "DIM2_NONLIE",
                       "--params", "x=0")
    assert code == 2
    assert "x-nonzero" in err
    code, _, err = run(capsys, "catalog", "build", "DIM2_NONLIE",
                       "--params", "q=1")
    assert code == 2
    assert "unknown parameter" in err
    code, _, err = run(capsys, "catalog", "build", "DIM2_NONLIE",
                       "--params", "x")
    assert code == 2
    assert "name=value" in err
    for value in ("1/0", "1e3", "0.5"):
        code, out, err = run(capsys, "catalog", "build", "DIM2_NONLIE",
                             "--params", f"x={value}")
        assert (code, out) == (2, "")
        assert "parameter x" in err


def test_catalog_verify_samples_pass(capsys):
    code, out, _ = run(capsys, "catalog", "verify", "BS4_G",
                       "--samples", "10", "--seed", "3")
    assert code == 0
    assert "BS4_G: 10/10 pass" in out


def test_catalog_unknown_id_exits_2_with_the_list(capsys):
    code, _, err = run(capsys, "catalog", "verify", "NOPE")
    assert code == 2
    assert "unknown family" in err
    assert "DIM2_NONLIE" in err and "RR3_SIXDIM_BNE0" in err


def test_seed_is_accepted_before_or_after_the_subcommand(capsys, r4):
    _, first, _ = run(capsys, "--seed", "9", "omega", r4, "solve")
    _, second, _ = run(capsys, "omega", r4, "solve", "--seed", "9")
    assert first == second


def test_seeded_runs_are_bit_reproducible(capsys, r4):
    outs = [run(capsys, "catalog", "verify", "BS4_M", "--samples", "6",
                "--seed", "4")[1] for _ in range(2)]
    assert outs[0] == outs[1]
    assert "6/6 pass" in outs[0]
    different = run(capsys, "catalog", "verify", "BS4_M", "--samples", "6",
                    "--seed", "5")[1]
    assert different != outs[0]


def test_json_out_is_a_single_document(capsys, r4):
    code, out, _ = run(capsys, "--json-out", "check", r4, "--left", "--lie")
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    assert [c["ok"] for c in doc["checks"]] == [True, False]

    code, out, _ = run(capsys, "--json-out", "omega", r4, "solve")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 4
    assert [1, 4, 1] in doc["basis"] or any(
        [1, 4, 1] in b for b in doc["basis"])

    code, out, _ = run(capsys, "catalog", "verify", "BS4_A",
                       "--samples", "3", "--json-out")
    assert code == 0
    doc = json.loads(out)
    assert doc["passes"] == 3 and len(doc["outcomes"]) == 3


def test_json_out_extend_bundles_report_and_files(capsys, tmp_path):
    path = extension_dir(tmp_path, RR3_EXTENSION)
    code, out, _ = run(capsys, "--json-out", "extend", path,
                       "--build", "--star")
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["ok"] is True
    assert doc["product"]["dim"] == 6
    assert doc["star"]["dim"] == 6


def test_installed_entry_point_matches_main(tmp_path):
    exe = shutil.which("sympleib")
    if exe is None:
        pytest.skip("console script not installed")
    proc = subprocess.run([exe, "catalog", "build", "DIM2_NONLIE"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
    proc = subprocess.run([exe, "check", str(tmp_path / "nope.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2


def test_main_keeps_no_arguments_between_calls(capsys, r4):
    seeded = run(capsys, "--seed", "5", "omega", r4, "solve")
    after = run(capsys, "omega", r4, "solve")
    subcommand_seeded = run(capsys, "omega", r4, "solve", "--seed", "5")
    after_subcommand = run(capsys, "omega", r4, "solve")
    as_json = run(capsys, "--json-out", "omega", r4, "solve")
    after_json = run(capsys, "omega", r4, "solve")
    _build_parser.cache_clear()
    fresh = run(capsys, "omega", r4, "solve")
    assert seeded == subcommand_seeded != fresh  # the seed changes the representative
    assert after == after_subcommand == after_json == fresh
    assert json.loads(as_json[1])["command"] == "omega"
    assert fresh[1].startswith("side: left\n")
