"""Command line behaviour: exit codes, pipelines, reproducibility."""

import collections
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sympleib import catalog, cli, exactlin, extension, symplectic
from sympleib.algebra import Algebra, change_basis
from sympleib.catalog import instantiate, list_families
from sympleib.cli import _build_parser, main
from sympleib.exactlin import HALF, Matrix, vadd, vscale
from sympleib.extension import ExtensionData, zero_cube, zero_grid
from sympleib.fileformat import (algebra_to_dict, load_extension, parse_algebra, rational_to_json,
                                 serialize_algebra)
from sympleib.reporting import replace
from sympleib.symplectic import SkewForm, form_from_pairs, star_left, star_right

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
    assert parse_algebra(Path(path).read_text(encoding="utf-8"))[0].c[1][1][0] == \
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


def _direct_sum(*blocks):
    """The direct sum of the blocks, in order."""
    n = sum(a.dim for a in blocks)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    off = 0
    for a in blocks:
        for i in range(a.dim):
            for j in range(a.dim):
                c[off + i][off + j][off:off + a.dim] = a.c[i][j]
        off += a.dim
    return Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c))


def test_identity_checks_at_the_dimension_limit_finish_quickly(capsys, tmp_path):
    empty = tmp_path / "empty48.json"
    empty.write_text(json.dumps({"dim": 48}), encoding="utf-8")
    blocks = tmp_path / "blocks48.json"
    blocks.write_text(serialize_algebra(_direct_sum(*[instantiate("RR3_SIXDIM_RAW")[0]] * 8)),
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


_INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LATIN1 = '{"dim": 1, "labels": ["é"]}'.encode("latin-1")


def _deeply_nested(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    return str(path)


def _latin1_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(_LATIN1)
    return str(path)


def _latin1_extension(tmp_path):
    path = tmp_path / "ext.json"
    path.write_bytes(RR3_EXTENSION.replace("rr3_base.json", "é").encode("latin-1"))
    return str(path)


def _latin1_g_file(tmp_path):
    (tmp_path / "latin1.json").write_bytes(_LATIN1)
    return extension_dir(tmp_path, RR3_EXTENSION.replace("rr3_base.json", "latin1.json"))


def _huge_integer(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1' + "0" * _INT_DIGIT_LIMIT + "}", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("make, argv", [
    *(pytest.param(_deeply_nested, argv, id=f"deep-nesting-{argv[0]}")
      for argv in (("check",), ("omega", "verify"), ("core",), ("star",), ("extend",))),
    pytest.param(_latin1_file, ("check",), id="not-utf8"),
    pytest.param(_latin1_extension, ("extend",), id="not-utf8-extension"),
    pytest.param(_latin1_g_file, ("extend",), id="not-utf8-g-path"),
    pytest.param(_huge_integer, ("check",), id="integer-above-the-digit-limit",
                 marks=pytest.mark.skipif(not _INT_DIGIT_LIMIT,
                                          reason="this Python converts integers of any length")),
])
def test_unusable_files_exit_2_without_a_traceback(capsys, tmp_path, make, argv):
    path = make(tmp_path)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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


@pytest.mark.parametrize("side", ["left", "right"])
def test_star_of_a_labelled_file_keeps_its_labels(capsys, tmp_path, side):
    a = Algebra.from_table(2, {(1, 1): {1: 1}, (1, 2): {2: 1}}, labels=("x", "y"))
    w = form_from_pairs(2, {(1, 2): 1})
    path = tmp_path / "labelled.json"
    path.write_text(serialize_algebra(a, w), encoding="utf-8")
    code, out, _ = run(capsys, "star", str(path), "--side", side)
    assert code == 0
    assert json.loads(out)["labels"] == ["x", "y"]
    star = (star_left if side == "left" else star_right)(a, w)
    assert star.labels == ("x", "y")
    assert parse_algebra(out) == (star, w)


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


def test_star_on_a_degenerate_form_names_the_radical_vector(capsys, tmp_path):
    path = tmp_path / "degenerate.json"
    path.write_text('{"dim": 1, "form": []}', encoding="utf-8")
    for side in ("left", "right"):
        code, out, err = run(capsys, "star", str(path), "--side", side)
        assert (code, out) == (1, "")
        assert err == ("error: star product requires a nondegenerate form: "
                       "degenerate-form: radical vector (1)\n")


@pytest.mark.parametrize("entry", [1, "1/2", "-3/4"])
def test_star_on_an_even_degenerate_form_exits_1_with_its_radical_vector(capsys, tmp_path, entry):
    # rank 2 on dim 4: the star's int inverse finds no pivot at e3 and e4
    doc = {"dim": 4, "products": [{"left": 1, "right": 3, "value": [0, 1, 0, "2/3"]}],
           "form": [[1, 2, entry]]}
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    form = parse_algebra(path.read_text(encoding="utf-8"))[1]
    assert form.radical_vector() == (0, 0, 1, 0)
    for side in ("left", "right"):
        code, out, err = run(capsys, "star", str(path), "--side", side)
        assert (code, out) == (1, "")
        assert err == ("error: star product requires a nondegenerate form: "
                       "degenerate-form: radical vector (0, 0, 1, 0)\n")


def extension_dir(tmp_path, text):
    (tmp_path / "rr3_base.json").write_text(RR3_BASE, encoding="utf-8")
    path = tmp_path / "ext.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("g_path", ["a\u0000b.json", "\ud800.json"], ids=["nul", "lone-surrogate"])
def test_a_g_path_that_cannot_be_opened_is_unusable_input(tmp_path, g_path):
    # open refuses both paths with a ValueError, not an OSError; a fresh interpreter
    # writes the lone surrogate of the message to stderr escaped, as a user sees it
    doc = json.loads(RR3_EXTENSION)
    doc["g"] = g_path
    path = extension_dir(tmp_path, json.dumps(doc))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "sympleib.cli", "extend", path],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: cannot read g file ")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_an_unencodable_error_line_is_written_escaped_on_a_strict_stream(tmp_path, monkeypatch):
    # a lone surrogate in the message reaches a stderr that encodes strictly
    doc = json.loads(RR3_EXTENSION)
    doc["g"] = "\ud800.json"
    path = extension_dir(tmp_path, json.dumps(doc))
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(raw, encoding="utf-8", errors="strict"))
    assert main(["extend", path]) == 2
    sys.stderr.flush()
    text = raw.getvalue().decode("utf-8")
    assert text.startswith("error: cannot read g file ") and text.endswith("\n")
    assert text.count("\n") == 1 and "\\ud800.json" in text


def test_an_encodable_error_line_is_written_unchanged_on_a_strict_stream(tmp_path, monkeypatch):
    path = str(tmp_path / "caf\u00e9-missing.json")
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(["check", path]) == 2
    want = sys.stderr.getvalue()
    assert "caf\u00e9-missing.json" in want
    raw = io.BytesIO()
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(raw, encoding="utf-8", errors="strict"))
    assert main(["check", path]) == 2
    sys.stderr.flush()
    assert raw.getvalue() == want.encode("utf-8")


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


@pytest.mark.parametrize("system", ["reduced", "full"])
def test_extend_build_star_prints_both_files_as_json_dumps_nests_them(capsys, tmp_path, system):
    path = extension_dir(tmp_path, RR3_EXTENSION)
    code, out, _ = run(capsys, "extend", path, "--build", "--star", "--system", system)
    assert code == 0
    gs, data = load_extension(path)
    algebra, form = extension.build_double_extension(gs, data)
    emitted = {"product": algebra_to_dict(algebra, form),
               "star": algebra_to_dict(extension.build_left_symmetric(gs, data), form)}
    assert out == json.dumps(emitted, indent=2) + "\n"
    code, out, _ = run(capsys, "extend", path, "--build", "--star", "--json-out")
    assert (code, {key: json.loads(out)[key] for key in emitted}) == (0, emitted)


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


def test_catalog_verify_refuses_a_hostile_sample_count_at_once(capsys, monkeypatch):
    drawn = []

    def sample_verify(fid, seed, count):
        drawn.append(count)
        return []
    monkeypatch.setattr(catalog, "sample_verify", sample_verify)
    for count in ("10001", "1000000000"):
        code, out, err = run(capsys, "catalog", "verify", "BS4_M", "--samples", count)
        assert (code, out) == (2, "")
        assert err == f"error: samples {count} exceeds the limit of 10000\n"
    assert drawn == []
    code, out, _ = run(capsys, "catalog", "verify", "BS4_M", "--samples", "10000")
    assert (code, drawn) == (0, [10000])


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


# ---------------------------------------------------------------------------
# omega solve: pinned output

def _shear(n):
    """An upper triangular P with fractional entries."""
    return Matrix.from_rows([[1 if i == j else Fraction(j - i, 3) if j > i else 0
                              for j in range(n)] for i in range(n)])


def _sheared(a):
    """a in the basis of the columns of _shear."""
    return change_basis(a, _shear(a.dim))


def _moved(a):
    """a with e_1 * e_n moved by one along e_2, as the benchmark perturbs it."""
    c = [[list(v) for v in row] for row in a.c]
    c[0][a.dim - 1][1] += 1
    return Algebra(a.dim, tuple(tuple(tuple(v) for v in row) for row in c))


def _solve_cases():
    r4, b0, dim2, rr3 = (instantiate(fid)[0] for fid in
                         ("R4_LEFT", "RR3_SIXDIM_B0", "DIM2_NONLIE", "LIE_RR3M1"))
    sum8 = _sheared(_direct_sum(b0, dim2))
    return {"R4_LEFT": r4,
            "B0+DIM2 sheared": sum8,
            # no nondegenerate form on any side; every member shares a radical
            "B0+DIM2 sheared+moved": _moved(sum8),
            "odd": _direct_sum(dim2, rr3, Algebra.from_table(1, {}))}


# the first 16 hex digits of sha256(stdout) of `omega FILE solve --side S`
# for S = left, right, bi, then of `--json-out omega FILE solve --side S`,
# recorded before the form rows were read off the nonzeros
SOLVE_GOLDEN = {
    "R4_LEFT": ("bcff5bd93142d7c2", "1473884888fdc048", "fd24c495b9937c5f",
                "cf3a22cce3adb64b", "1f84665bbc7cb524", "312053219701d159"),
    "B0+DIM2 sheared": ("6cb1bced1213ffc4", "42dc65ec1240f2e0", "9732cad006469a32",
                        "07ace1ff7af21721", "8ca16b026d03a64b", "e3e69ca3d2e39170"),
    "B0+DIM2 sheared+moved": ("5731800789c95376", "a33bd038710e1cd2", "0799cf5a482ce47b",
                              "b389f5624085e7cc", "7f6c47ed147a78a1", "3fb5be23222bc293"),
    "odd": ("4ad9688630e436ba", "d547009dfbece8b5", "49b168106873c9b0",
            "b2e5b85c7815a710", "0541ff2701ec8273", "0567fbf3773fe534"),
}


@pytest.mark.parametrize("name", list(_solve_cases()))
def test_omega_solve_output_is_pinned(capsys, tmp_path, name):
    path = tmp_path / "a.json"
    path.write_text(serialize_algebra(_solve_cases()[name]), encoding="utf-8")
    got = []
    for prefix in ((), ("--json-out",)):
        for side in ("left", "right", "bi"):
            code, out, err = run(capsys, *prefix, "omega", str(path), "solve", "--side", side)
            assert (code, err) == (0, "")
            got.append(hashlib.sha256(out.encode()).hexdigest()[:16])
    assert tuple(got) == SOLVE_GOLDEN[name]


def _dense_product(n, seed):
    """Every structure constant drawn from [-3, 3]: the dense case of the form
    solve, whose answer is the zero space."""
    rng = random.Random(seed)
    return Algebra.from_table(n, {(i, j): [rng.randint(-3, 3) for _ in range(n)]
                                  for i in range(1, n + 1) for j in range(1, n + 1)})


def test_omega_solve_on_a_dense_dim_12_product_is_pinned(capsys, tmp_path):
    """About 0.1 s with the fraction-free elimination (0.6 s over Fractions);
    CI runs the same recipe at dim 16 under a time limit."""
    path = tmp_path / "dense.json"
    path.write_text(serialize_algebra(_dense_product(12, 12)), encoding="utf-8")
    outs = []
    for prefix in ((), ("--json-out",)):
        code, out, err = run(capsys, *prefix, "omega", str(path), "solve")
        assert (code, err) == (0, "")
        outs.append(out)
    assert "solution space dimension: 0\n" in outs[0]
    assert [hashlib.sha256(out.encode()).hexdigest()[:16] for out in outs] == [
        "22d9d22835cddfb1", "305caac0f72e1d74"]


# ---------------------------------------------------------------------------
# omega verify: pinned output

def _sheared_pair(*pairs):
    """The direct sum of (algebra, form matrix) pairs, with the block form,
    in the basis of the columns of _shear."""
    a = _direct_sum(*(alg for alg, _ in pairs))
    w = [[Fraction(0)] * a.dim for _ in range(a.dim)]
    off = 0
    for alg, form in pairs:
        for i, row in enumerate(form.entries):
            w[off + i][off:off + alg.dim] = row
        off += alg.dim
    p = _shear(a.dim)
    return _sheared(a), (p.transpose() @ Matrix.from_rows(w) @ p).entries


def _verify_cases():
    def moved(w, i, j):  # form entry (i, j), 1-based, moved by 1/2
        w = [list(r) for r in w]
        w[i - 1][j - 1] += HALF
        w[j - 1][i - 1] -= HALF
        return SkewForm(Matrix.from_rows(w))
    (b0, w_b0), (dim2, w_dim2), (bs4a, w_bs4a) = (
        (a, form.w) for a, form in map(instantiate, ("RR3_SIXDIM_B0", "DIM2_NONLIE", "BS4_A")))
    s8, w8 = _sheared_pair((b0, w_b0), (dim2, w_dim2))
    s6, w6 = _sheared_pair((bs4a, w_bs4a), (dim2, w_dim2))
    return {"B0+DIM2 sheared": (s8, SkewForm(Matrix.from_rows(w8))),
            "B0+DIM2 sheared, d-omega": (s8, moved(w8, 1, 2)),
            "BS4_A+DIM2 sheared, diamond-symmetry": (s6, moved(w6, 1, 2)),
            # the DIM2_NONLIE block of the form is zero
            "B0+DIM2 sheared, degenerate": (s8, SkewForm(Matrix.from_rows(
                _sheared_pair((b0, w_b0), (dim2, Matrix.zero(2, 2)))[1])))}


# exit code and the first 16 hex digits of sha256(stdout) of `omega FILE
# verify --side S` for S = left, right, bi, then of `--json-out omega FILE
# verify --side S`, recorded before the bi check moved onto the templates
VERIFY_GOLDEN = {
    "B0+DIM2 sheared": ("0 f6f3b2d190a9d88a", "0 0af16e729b06bab8", "0 1a0697bf39aaf46c",
                        "0 2c9f7cb7d2ab6589", "0 30b0a234f5af89a7", "0 3db6b64e1c46ad26"),
    "B0+DIM2 sheared, d-omega": (
        "1 b8f48c59a99c16c8", "1 379ffee237f4dff6", "1 a119b3a9175e71ed",
        "1 d481675361711b28", "1 d54287b57ef99bb0", "1 7489c9c01f05a9a9"),
    "BS4_A+DIM2 sheared, diamond-symmetry": (
        "1 7f7a6a5f6cb03b0a", "1 75a3c039e397c826", "1 152a11437ae53250",
        "1 7bfe7b28032599e5", "1 7f74a2e5f3fc44dc", "1 db9c401d3b0ccf9f"),
    "B0+DIM2 sheared, degenerate": (
        "1 75f0e79bb34781ee", "1 f9d6b6616f49f1c7", "1 69956ea9491ebf3c",
        "1 505fcf8708fb954e", "1 c10e7d06bf5b096f", "1 f64f14e09619480a"),
}


def test_degenerate_omega_verify_reduces_the_gram_rows_once(capsys, tmp_path, monkeypatch):
    """The rank that finds the form degenerate and the radical vector that
    the witness prints are read off one reduction of the form's dim Gram rows."""
    a, form = _verify_cases()["B0+DIM2 sheared, degenerate"]
    path = tmp_path / "degenerate.json"
    path.write_text(serialize_algebra(a, form), encoding="utf-8")
    sizes = []
    reduce_rows = exactlin.reduce_rows

    def counted(rows):
        rows = list(rows)
        sizes.append(len(rows))
        return reduce_rows(rows)
    monkeypatch.setattr(exactlin, "reduce_rows", counted)
    monkeypatch.setattr(symplectic, "reduce_rows", counted)
    for side in ("left", "right", "bi"):
        sizes.clear()
        code, out, _ = run(capsys, "omega", str(path), "verify", "--side", side)
        assert code == 1 and "degenerate-form: radical vector (" in out
        assert sizes.count(a.dim) == 1, (side, sizes)


@pytest.mark.parametrize("name", list(_verify_cases()))
def test_omega_verify_output_is_pinned(capsys, tmp_path, name):
    path = tmp_path / "a.json"
    path.write_text(serialize_algebra(*_verify_cases()[name]), encoding="utf-8")
    got = []
    for prefix in ((), ("--json-out",)):
        for side in ("left", "right", "bi"):
            code, out, err = run(capsys, *prefix, "omega", str(path), "verify", "--side", side)
            assert err == ""
            got.append(f"{code} {hashlib.sha256(out.encode()).hexdigest()[:16]}")
    assert tuple(got) == VERIFY_GOLDEN[name]


# ---------------------------------------------------------------------------
# check and star: pinned output

def _kernel_cases():
    """A sheared block sum with its form, the same with one product entry
    moved, and a sheared sum whose form blocks are scaled by 1/2 and 2/3."""
    (b0, w_b0), (dim2, w_dim2), (bs4a, w_bs4a) = (
        (a, form.w) for a, form in map(instantiate, ("RR3_SIXDIM_B0", "DIM2_NONLIE", "BS4_A")))
    s8, w8 = _sheared_pair((b0, w_b0), (dim2, w_dim2))
    s6, w6 = _sheared_pair((bs4a, w_bs4a.scale(HALF)), (dim2, w_dim2.scale(Fraction(2, 3))))
    return {"B0+DIM2 sheared": (s8, SkewForm(Matrix.from_rows(w8))),
            "B0+DIM2 sheared+moved": (_moved(s8), SkewForm(Matrix.from_rows(w8))),
            "BS4_A+DIM2 sheared, scaled form": (s6, SkewForm(Matrix.from_rows(w6)))}


def _pinned(capsys, path, *argv):
    got = []
    for prefix in ((), ("--json-out",)):
        code, out, err = run(capsys, *prefix, *argv[:1], str(path), *argv[1:])
        assert err == ""
        got.append(f"{code} {hashlib.sha256(out.encode()).hexdigest()[:16]}")
    return got


# exit code and the first 16 hex digits of sha256(stdout) of `check FILE
# --left --symmetric --lsym --lie`, then of the same with --json-out,
# recorded before the identity scans skipped untouched triples
CHECK_GOLDEN = {
    "B0+DIM2 sheared": (
        "1 82e2536ea5d84bb3", "1 ab64afecd4208f9f"),
    "B0+DIM2 sheared+moved": (
        "1 99d4f96aaf3bed30", "1 1f2bde7c4121b0c7"),
    "BS4_A+DIM2 sheared, scaled form": (
        "1 5e639f2306af41c4", "1 8b7d5aedf4a5c0e5"),
}

# the same for `star FILE --side S`, S = left, right, each without and with
# --json-out, recorded before the star product was computed over ints
STAR_GOLDEN = {
    "B0+DIM2 sheared": (
        "0 0b0dbb3f6005f396", "0 0b0dbb3f6005f396", "0 d26af93efd09e6d6", "0 d26af93efd09e6d6"),
    "B0+DIM2 sheared+moved": (
        "0 09c81679dc328cb0", "0 09c81679dc328cb0", "0 55e81910a839b5c6", "0 55e81910a839b5c6"),
    "BS4_A+DIM2 sheared, scaled form": (
        "0 aae258a8dd6b88a4", "0 aae258a8dd6b88a4", "0 aae258a8dd6b88a4", "0 aae258a8dd6b88a4"),
}


@pytest.mark.parametrize("name", list(_kernel_cases()))
def test_check_and_star_output_is_pinned(capsys, tmp_path, name):
    path = tmp_path / "a.json"
    path.write_text(serialize_algebra(*_kernel_cases()[name]), encoding="utf-8")
    check = _pinned(capsys, path, "check", "--left", "--symmetric", "--lsym", "--lie")
    star = [h for side in ("left", "right") for h in _pinned(capsys, path, "star", "--side", side)]
    assert (tuple(check), tuple(star)) == (CHECK_GOLDEN[name], STAR_GOLDEN[name])


# ---------------------------------------------------------------------------
# extend: pinned output on the extension families

EXTEND_FLAGS = (("--system", "full"), ("--system", "reduced"),
                ("--system", "reduced", "--build"),
                ("--system", "full", "--build", "--star"),
                ("--system", "reduced", "--build", "--star"))

# exit code and the first 16 hex digits of sha256(stdout + stderr) of
# `extend FILE FLAGS` for each of EXTEND_FLAGS, then of `--json-out extend
# FILE FLAGS`, recorded before the criteria summed over nonzeros only; the
# two p = 2 cases were recorded before the criteria ran over ints
EXTEND_GOLDEN = {
    "ABEL2_CASE1": (
        "0 4cbf9a0a1c403d67", "0 d4f8b8172b594c59", "0 3164e1b6480e9ceb",
        "0 939b77aee05a51df", "0 309b97aebd232f2e",
        "0 e08b60a88248046a", "0 84ef81c1d4f918fb", "0 7af154d7664f3358",
        "0 01e7ba4d46a2b754", "0 332672157c865683"),
    "ABEL2_CASE1+bumped": (
        "1 2b700d821dfd2eef", "1 bb3bf4be8f33c3a2", "1 bb3bf4be8f33c3a2",
        "1 2b700d821dfd2eef", "1 bb3bf4be8f33c3a2",
        "1 427a47547b3df3a3", "1 984f5dca1e52cf05", "1 984f5dca1e52cf05",
        "1 427a47547b3df3a3", "1 984f5dca1e52cf05"),
    "ABEL2_CASE2": (
        "0 4cbf9a0a1c403d67", "0 d4f8b8172b594c59", "0 e9111186bd098541",
        "0 7b32b92066f1f3d1", "0 2d7d11dfe2ed3abe",
        "0 e08b60a88248046a", "0 84ef81c1d4f918fb", "0 73b3bf49702e9922",
        "0 1ba0a44b1772428d", "0 2217a9019254a2ed"),
    "ABEL2_CASE2+bumped": (
        "1 45584a23b252e2d9", "1 80947b6f90d4d7ff", "1 80947b6f90d4d7ff",
        "1 45584a23b252e2d9", "1 80947b6f90d4d7ff",
        "1 ff0fba4e302842a1", "1 a79f20c86283b17a", "1 a79f20c86283b17a",
        "1 ff0fba4e302842a1", "1 a79f20c86283b17a"),
    "RR3_RANK_ONE": (
        "0 4cbf9a0a1c403d67", "0 d4f8b8172b594c59", "0 19280e66e0fc5d94",
        "0 c1e216385e65f4ce", "0 3282fc485562ec99",
        "0 e08b60a88248046a", "0 84ef81c1d4f918fb", "0 f86f79b50aa8ed78",
        "0 f5d64309ea5af2a0", "0 2412c259d6ab2317"),
    "RR3_RANK_ONE+bumped": (
        "1 893c432131add743", "1 97b7332f41f5d3b7", "1 97b7332f41f5d3b7",
        "1 893c432131add743", "1 97b7332f41f5d3b7",
        "1 82a15bdc65aa1b27", "1 bfad424b582f9c39", "1 bfad424b582f9c39",
        "1 82a15bdc65aa1b27", "1 bfad424b582f9c39"),
    "RR3_ZERO_P2": (
        "0 4cbf9a0a1c403d67", "0 d4f8b8172b594c59", "0 d34dbd610540b3ca",
        "0 d3487f845672e94d", "0 eea1e072db192750",
        "0 e08b60a88248046a", "0 84ef81c1d4f918fb", "0 5f80b3948935515c",
        "0 83fc4505ffb6d263", "0 7b1f48fca5b7038c"),
    "RR3_ZERO_P2+moved": (
        "1 264f849486797945", "1 1b0b09453577c866", "1 1b0b09453577c866",
        "1 264f849486797945", "1 1b0b09453577c866",
        "1 f6cba1858ff7846e", "1 10bc8909cec933cb", "1 10bc8909cec933cb",
        "1 f6cba1858ff7846e", "1 10bc8909cec933cb"),
}


def _bumped(name, d):
    """d with one entry moved by one: psi for ABEL2_CASE1, theta for
    ABEL2_CASE2 and F (so that F is no derivation) for the rank-one data."""
    F = [list(r) for r in d.F[0].entries]
    theta = [[list(v) for v in row] for row in d.theta]
    psi = [[list(v) for v in row] for row in d.psi]
    if name == "ABEL2_CASE1":
        psi[0][0][-1] += 1
    elif name == "ABEL2_CASE2":
        theta[0][0][0] += 1
    else:
        F[0][0] += 1
    return ExtensionData(d.p, [Matrix.from_rows(F)], d.G, theta, psi, d.xi, d.omega_cube)


def _extension_cases():
    """The two extension families and the rank-one rr(3,-1) data at their
    defaults, each followed by its bumped copy, then zero data with p = 2
    over rr(3,-1) and the same with theta(h_2, h_1) moved along e_1."""
    rr3, F, S, a0, b0, lam = catalog.rank_one_data()
    c0 = vscale(HALF, vadd(a0, b0))
    cases = {fid: catalog.extension_data(fid) for fid in ("ABEL2_CASE1", "ABEL2_CASE2")}
    cases["RR3_RANK_ONE"] = rr3, ExtensionData(1, [F], [S - F], [[c0]], [[a0]], [[b0]],
                                               [[[lam]]])
    for name, (gs, d) in cases.items():
        yield name, gs, d
        yield name + "+bumped", gs, _bumped(name, d)
    m = rr3.dim
    zero = ExtensionData(2, [Matrix.zero(m, m)] * 2, [Matrix.zero(m, m)] * 2,
                         zero_grid(2, m), zero_grid(2, m), zero_grid(2, m), zero_cube(2))
    yield "RR3_ZERO_P2", rr3, zero
    theta = [[list(v) for v in row] for row in zero.theta]
    theta[1][0][0] += 1
    yield "RR3_ZERO_P2+moved", rr3, ExtensionData(2, zero.F, zero.G, theta, zero.psi, zero.xi,
                                                  zero.omega_cube)


def _extension_text(gs, d) -> str:
    def vec(v):
        return [rational_to_json(x) for x in v]
    return json.dumps({"g": algebra_to_dict(gs.g, gs.form), "p": d.p,
                       "F": [[vec(r) for r in m.entries] for m in d.F],
                       "G": [[vec(r) for r in m.entries] for m in d.G],
                       "theta": [[vec(v) for v in row] for row in d.theta],
                       "psi": [[vec(v) for v in row] for row in d.psi],
                       "xi": [[vec(v) for v in row] for row in d.xi],
                       "omega": [[vec(r) for r in plane] for plane in d.omega_cube]})


@pytest.mark.parametrize("case", list(_extension_cases()), ids=lambda c: c[0])
def test_extend_output_is_pinned(capsys, tmp_path, case):
    name, gs, d = case
    path = tmp_path / "ext.json"
    path.write_text(_extension_text(gs, d), encoding="utf-8")
    got = []
    for prefix in ((), ("--json-out",)):
        for flags in EXTEND_FLAGS:
            code, out, err = run(capsys, *prefix, "extend", str(path), *flags)
            got.append(f"{code} {hashlib.sha256((out + err).encode()).hexdigest()[:16]}")
    assert tuple(got) == EXTEND_GOLDEN[name]


def _equation_names(path) -> dict[str, set[str]]:
    """The equations of the direct and the reduced list, by ``--system``."""
    gs, d = load_extension(path)
    return {system: {c.name for c in check(gs, d).checks} for system, check in (
        ("full", extension.check_full_system), ("reduced", extension.check_reduced_system))}


@pytest.mark.parametrize("flags, want", [
    (("--system", "reduced", "--build", "--star"), ("reduced",)),
    (("--system", "reduced", "--build"), ("reduced",)),
    (("--system", "full", "--build"), ("full", "reduced")),
    (("--system", "full", "--build", "--star"), ("full", "reduced")),
])
def test_extend_runs_each_criterion_once(capsys, tmp_path, equation_scans, flags, want):
    """A request scans each equation of the lists it reads once: the reduced
    criterion the builder runs reads back what the printed report scanned."""
    path = extension_dir(tmp_path, RR3_EXTENSION)
    names = _equation_names(path)
    equation_scans.clear()
    code, out, _ = run(capsys, "extend", path, *flags)
    assert code == 0 and json.loads(out)
    assert equation_scans == collections.Counter(set().union(*(names[s] for s in want)))


@pytest.mark.parametrize("flags", [
    ("--system", "reduced", "--build", "--star"),
    ("--system", "full", "--build", "--star"),
])
def test_extend_builds_the_derived_operators_once(capsys, tmp_path, monkeypatch, flags):
    """The criteria, the builder's criterion, the product and the star of one
    request read one derived set."""
    builds = []

    class Counted(extension._Derived):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)
    monkeypatch.setattr(extension, "_Derived", Counted)
    code, out, _ = run(capsys, "--json-out", "extend", extension_dir(tmp_path, RR3_EXTENSION),
                       *flags)
    assert code == 0 and set(json.loads(out)) >= {"product", "star"}
    assert len(builds) == 1


def test_extend_full_build_star_scans_each_equation_once(capsys, tmp_path, equation_scans):
    """The builder's reduced criterion reads back the equations the direct
    report scanned on the same derived set: each equation of the two lists,
    the 8 they share included, is scanned once."""
    path = extension_dir(tmp_path, RR3_EXTENSION)
    names = _equation_names(path)
    assert len(names["full"] & names["reduced"]) == 8
    equation_scans.clear()
    code, out, _ = run(capsys, "--json-out", "extend", path, "--system", "full", "--build",
                       "--star")
    assert code == 0 and set(json.loads(out)) >= {"product", "star"}
    assert equation_scans == collections.Counter(names["full"] | names["reduced"])


def test_extend_reports_a_broken_star_without_a_traceback(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(extension, "star_left", lambda g, form: Algebra.from_table(4, {}))
    code, out, err = run(capsys, "extend", extension_dir(tmp_path, RR3_EXTENSION))
    assert (code, out) == (1, "")
    assert err.startswith("error: internal error: star commutator differs from bracket: "
                          "star-commutator fails at (1, 2)")
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# catalog verify and core: pinned output

def _digest(code, out):
    return f"{code} {hashlib.sha256(out.encode()).hexdigest()[:16]}"


def _catalog_verify_digests(capsys, fid):
    got = []
    for prefix in ((), ("--json-out",)):
        code, out, err = run(capsys, *prefix, "catalog", "verify", fid,
                             "--samples", "3", "--seed", "5")
        assert err == ""
        got.append(_digest(code, out))
    return tuple(got)


# exit code and the first 16 hex digits of sha256(stdout) of `catalog verify
# FID --samples 3 --seed 5`, then of the same with --json-out, recorded
# before a catalog sample became one SystemReport
CATALOG_GOLDEN = {
    "DIM2_NONLIE": ("0 94a34c2761d943f1", "0 9c11f3840d96a1fc"),
    "R4_LEFT": ("0 73a43646209aafaa", "0 f1473a1536e90b0a"),
    "BS4_A": ("0 57cfe766a7e91ece", "0 dc37d3766c9ebf2c"),
    "BS4_B": ("0 45687c117130a1e1", "0 3e3c8c1d00d20342"),
    "BS4_C": ("0 e5106d425ef07ad8", "0 010f7d99864900f5"),
    "BS4_D": ("0 8a0b3e6126eaa05d", "0 cd1bd64bfce08ce2"),
    "BS4_E": ("0 5bbe0395c6fea6b2", "0 6667d95c2412f799"),
    "BS4_F": ("0 89da80186323bcbd", "0 f06ecf4f167789df"),
    "BS4_G": ("0 17ddf7a9c08ac46a", "0 bb2d1ef421ee65ab"),
    "BS4_H": ("0 317db063b4a0dc2e", "0 2f18bfdcb0460ec2"),
    "BS4_I": ("0 c6802de6fcfadd2f", "0 33ea871e44dd5b7e"),
    "BS4_J": ("0 ba621de92b7111eb", "0 639f30be32189013"),
    "BS4_K": ("0 d8d1d34ca98c9532", "0 21fbb538bc0950a7"),
    "BS4_L": ("0 c9d48e9a809f029d", "0 e997c113660b53c4"),
    "BS4_M": ("0 e09ed9d122d718d7", "0 df1398d6c01208f5"),
    "BS4_N": ("0 f127c5f88a7df58e", "0 dd24a7773bcdbaa0"),
    "LIE_RR3M1": ("0 c33591dab1285e3d", "0 d70fb58ba53d94ae"),
    "CORE2_NONABELIAN": ("0 ea1fec5eee4931bf", "0 c395a6f37fd72cc9"),
    "ABEL2_CASE1": ("0 3a2ff9a3b7cc01fc", "0 c08c3ec3e162a36e"),
    "ABEL2_CASE2": ("0 d51b6ffe68ed2032", "0 6b0de6d9acb0bd90"),
    "RR3_SIXDIM_RAW": ("0 2000e3ca94530765", "0 8baf71b2772c9279"),
    "RR3_SIXDIM_B0": ("0 61152762459b68ce", "0 dd54c88fdabf8cc9"),
    "RR3_SIXDIM_BNE0": ("0 d6c6c801cab20df9", "0 862718f2bf94f33a"),
}


@pytest.mark.parametrize("fid", list_families())
def test_catalog_verify_output_is_pinned(capsys, fid):
    assert _catalog_verify_digests(capsys, fid) == CATALOG_GOLDEN[fid]


def _moved_family(monkeypatch, fid):
    """Rebuild fid with e_1 * e_n moved by one along e_2 (see _moved), in its
    builder and in the table its extra checks return, which verify reads."""
    spec = catalog.get(fid)

    def builder(params):
        a, form = spec.builder(params)
        return _moved(a), form

    def extra(params):
        checks, (a, form) = spec.extra_checks(params)
        return checks, (_moved(a), form)
    monkeypatch.setitem(catalog._BY_ID, fid, replace(
        spec, builder=builder, extra_checks=spec.extra_checks and extra))


# the same on families whose builder moves one product entry, so that the
# [FAIL] lines and their witness details are pinned
MOVED_CATALOG_GOLDEN = {
    "R4_LEFT": ("1 f5587b000df6754f", "1 20ed096cdd90e7fe"),
    "BS4_G": ("1 3c6edef8853ad143", "1 b57a7cbfb8a4945f"),
    "ABEL2_CASE1": ("1 e4a05ae61c8dec52", "1 5ae74267e84256f3"),
    "LIE_RR3M1": ("1 3d18e50fc95aa115", "1 4475c539f363aa23"),
}


@pytest.mark.parametrize("fid", list(MOVED_CATALOG_GOLDEN))
def test_catalog_verify_failures_are_pinned(capsys, monkeypatch, fid):
    _moved_family(monkeypatch, fid)
    code, out, _ = run(capsys, "catalog", "verify", fid, "--samples", "3", "--seed", "5")
    assert code == 1 and "  [FAIL] " in out and "fails at (" in out
    assert _catalog_verify_digests(capsys, fid) == MOVED_CATALOG_GOLDEN[fid]


def test_catalog_verify_pins_a_failed_non_lie_claim(capsys, monkeypatch):
    spec = catalog.get("DIM2_NONLIE")
    monkeypatch.setitem(catalog._BY_ID, "DIM2_NONLIE", replace(
        spec, builder=lambda params: (Algebra.from_table(2, {}), spec.builder(params)[1])))
    code, out, _ = run(capsys, "catalog", "verify", "DIM2_NONLIE", "--samples", "1", "--seed", "5")
    assert (code, out.splitlines()[1:]) == (1, ["  [FAIL] non-lie  (the product is a Lie bracket)",
                                                "DIM2_NONLIE: 0/1 pass"])


def _core_cases():
    s8, form = _kernel_cases()["B0+DIM2 sheared"]
    return {"R4_LEFT": instantiate("R4_LEFT"), "B0+DIM2 sheared": (s8, form),
            "B0+DIM2 sheared, degenerate": _verify_cases()["B0+DIM2 sheared, degenerate"]}


# exit code and the first 16 hex digits of sha256(stdout) of `core FILE`,
# then of `--json-out core FILE`, then the digest of their common stderr,
# recorded before the report types were merged
CORE_GOLDEN = {
    "R4_LEFT": ("0 c83c89f65dbbd967", "0 adfcb119ea31b753", "e3b0c44298fc1c14"),
    "B0+DIM2 sheared": ("0 faf652fe5597c8a6", "0 abd25b099c2b3679", "e3b0c44298fc1c14"),
    "B0+DIM2 sheared, degenerate": ("1 e3b0c44298fc1c14", "1 e3b0c44298fc1c14",
                                    "34ac68b1a1ce8788"),
}


@pytest.mark.parametrize("name", list(_core_cases()))
def test_core_output_is_pinned(capsys, tmp_path, name):
    path = tmp_path / "a.json"
    path.write_text(serialize_algebra(*_core_cases()[name]), encoding="utf-8")
    got, errs = [], []
    for prefix in ((), ("--json-out",)):
        code, out, err = run(capsys, *prefix, "core", str(path))
        got.append(_digest(code, out))
        errs.append(err)
    assert errs[0] == errs[1]
    assert (*got, hashlib.sha256(errs[0].encode()).hexdigest()[:16]) == CORE_GOLDEN[name]
