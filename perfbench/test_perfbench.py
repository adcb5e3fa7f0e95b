"""Tests of the benchmark itself, on tiny pools (``run.py --smoke``).

    python3 -m pytest perfbench/test_perfbench.py

They check that the emitted metric names and units are the ones
``BENCHMARK.json`` declares, that the default seed's answers match the
committed references, that the per-layer work counts repeat exactly between
two traced runs, and that the benchmark refuses to run without the library.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTS = (".calls", ".cells", ".triples", ".rows", ".cols", ".samples", ".bytes", ".found")

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                 "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_references(workload):
    result = smoke(workload, 0)
    # correct means every answer passed its check and matched its reference
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_counts_repeat(workload):
    first, second = smoke(workload, 1), smoke(workload, 1)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    counts = [k for k in declared if k.endswith(COUNTS)]
    assert {k: first["metrics"][k]["value"] for k in counts} == \
        {k: second["metrics"][k]["value"] for k in counts}
    assert first["metrics"]["cli.main.calls"]["value"] == run.SMOKE_REQUESTS


def test_references_are_consistent():
    for workload in WORKLOADS:
        ref = json.loads((HERE / "references" / f"{workload}.json").read_text())
        assert ref["seed"] == run.DEFAULT_SEED
        assert ref["requests"]
        assert all(set(r) == {"exit", "sha256"} for r in ref["requests"].values())


def test_tail_is_the_eleventh_largest():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
