"""The lazy contract of the package: ``import sympleib`` registers
``extension`` and ``catalog`` in ``sys.modules`` unrun, and each runs on its
first attribute access.

Every test runs its commands in a fresh interpreter, since this process has
loaded every module.  ``type()`` tells an unrun module from a run one without
loading it (attribute access would load it): a run module is a plain
``types.ModuleType``.  The answers of the fresh interpreter are checked
against the pinned digests of ``test_cli`` or against ``cli.main`` here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from sympleib.catalog import extension_data, instantiate
from sympleib.fileformat import serialize_algebra

from test_cli import (CATALOG_GOLDEN, EXTEND_FLAGS, EXTEND_GOLDEN, _digest, _extension_text,
                      run)

ROOT = Path(__file__).resolve().parent.parent

# runs each argv of argv[1] through cli.main, then prints the exit codes and
# outputs and, for extension and catalog, whether the module has run
PROBE = """
import contextlib, io, json, sys, types
from sympleib import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
ran = {name: type(sys.modules["sympleib." + name]) is types.ModuleType
       for name in ("extension", "catalog")}
print(json.dumps({"runs": runs, "ran": ran}))
"""


def _fresh(code: str, *args: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _probe(*argvs: list[str]) -> tuple[list, dict]:
    doc = json.loads(_fresh(PROBE, json.dumps(argvs)))
    return doc["runs"], doc["ran"]


def test_import_registers_every_traced_module_and_runs_neither_lazy_one():
    out = _fresh(f"""
import json, sys, types
sys.path.insert(0, {str(ROOT / "perfbench")!r})
import tracer
names = sorted({{module for targets in tracer.TARGETS.values() for module, _, _ in targets}})
import sympleib
after_package = [n for n in names if "sympleib." + n in sys.modules]
from sympleib import cli
after_cli = [n for n in names if "sympleib." + n in sys.modules]
unrun = [n for n in names if type(sys.modules["sympleib." + n]) is not types.ModuleType]
print(json.dumps([names, after_package, after_cli, unrun]))
""")
    names, after_package, after_cli, unrun = json.loads(out)
    assert len(names) == 8 and "cli" in names
    assert after_package == [n for n in names if n != "cli"]
    assert after_cli == names
    assert unrun == ["catalog", "extension"]


def test_omega_check_star_and_core_run_neither_extension_nor_catalog(capsys, tmp_path):
    path = tmp_path / "bs4c.json"
    path.write_text(serialize_algebra(*instantiate("BS4_C")), encoding="utf-8")
    argvs = [["omega", str(path), "solve"], ["omega", str(path), "verify", "--side", "bi"],
             ["check", str(path)], ["star", str(path)], ["core", str(path)]]
    runs, ran = _probe(*argvs)
    assert ran == {"extension": False, "catalog": False}
    assert runs == [list(run(capsys, *argv)) for argv in argvs]
    assert [code for code, _, _ in runs] == [0] * 5


def test_catalog_verify_on_a_family_without_extension_data_runs_only_catalog():
    runs, ran = _probe(*([*prefix, "catalog", "verify", "DIM2_NONLIE", "--samples", "3",
                          "--seed", "5"] for prefix in ((), ("--json-out",))))
    assert ran == {"extension": False, "catalog": True}
    assert tuple(_digest(code, out) for code, out, _ in runs) == CATALOG_GOLDEN["DIM2_NONLIE"]


def test_extend_runs_extension_with_the_pinned_answers(tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(_extension_text(*extension_data("ABEL2_CASE1")), encoding="utf-8")
    runs, ran = _probe(*([*prefix, "extend", str(path), *flags]
                         for prefix in ((), ("--json-out",)) for flags in EXTEND_FLAGS))
    assert ran == {"extension": True, "catalog": False}
    got = tuple(f"{code} {hashlib.sha256((out + err).encode()).hexdigest()[:16]}"
                for code, out, err in runs)
    assert got == EXTEND_GOLDEN["ABEL2_CASE1"]


def test_catalog_verify_on_an_extension_family_runs_both():
    runs, ran = _probe(["catalog", "verify", "ABEL2_CASE1", "--samples", "3", "--seed", "5"],
                       ["--json-out", "catalog", "verify", "ABEL2_CASE1", "--samples", "3",
                        "--seed", "5"])
    assert ran == {"extension": True, "catalog": True}
    assert tuple(_digest(code, out) for code, out, _ in runs) == CATALOG_GOLDEN["ABEL2_CASE1"]


def test_every_export_resolves_to_its_defining_module():
    out = _fresh("""
import json, sys, types
import sympleib
listed = set(sympleib.__all__) <= set(dir(sympleib))
unrun_at_import = type(sys.modules["sympleib.extension"]) is not types.ModuleType
namespace = {}
exec("from sympleib import *", namespace)
wrong = []
for name in sympleib.__all__:
    obj = getattr(sympleib, name)
    owner = getattr(obj, "__module__", "")  # Rational is fractions.Fraction, named in exactlin
    owner = owner if owner.startswith("sympleib.") else "sympleib.exactlin"
    if vars(sys.modules[owner])[name] is not obj or namespace[name] is not obj:
        wrong.append(name)
from_extension = sorted(n for n in sympleib.__all__
                        if getattr(sympleib, n).__module__ == "sympleib.extension")
from sympleib import core
print(json.dumps([listed, unrun_at_import, wrong, from_extension,
                  core is sys.modules["sympleib.core"].core, isinstance(core, types.FunctionType)]))
""")
    listed, unrun_at_import, wrong, from_extension, core_is_function, is_function = \
        json.loads(out)
    assert listed and unrun_at_import and wrong == []
    assert len(from_extension) == 15
    assert core_is_function and is_function
