"""The demos run as scripts and print pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the first 16 hex digits of sha256(stdout) of `python demos/NAME`, recorded
# before the report types were merged
DEMO_GOLDEN = {
    "catalog_tour.py": "c0a96e360db9580b",
    "core_decomposition.py": "36ab1aebb8b127d5",
    "double_extension.py": "e83271c784c66172",
    "leibniz_identities.py": "34ba3d3215677697",
    "solve_forms.py": "1d58583721e24b36",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_GOLDEN)


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_demo_output_is_pinned(name):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == DEMO_GOLDEN[name]
