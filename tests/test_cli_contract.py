"""The CLI contract as a standing property: on broken algebra files,
extension files and ``--params`` values, every subcommand exits 0, 1 or 2,
never raises past ``main`` or prints a traceback, and names the problem in
an ``error:`` line when it exits 2.

The inputs come from ``mangled``; the three properties draw 250, 150 and
150 examples, 3-4 s together on a 2-vCPU Xeon.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympleib.cli import main

from mangled import (damaged, damaged_bytes, params_arguments, valid_algebra_documents,
                     valid_extension_documents)

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _holds_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in out + err, argv
    if code == 2:
        assert any(line.startswith("error: ") or ": error: " in line
                   for line in err.splitlines()), (argv, err)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_every_algebra_subcommand_keeps_the_contract_on_broken_files(workdir, data):
    docs = valid_algebra_documents()
    path = workdir / "a.json"
    path.write_bytes(data.draw(damaged_bytes(data.draw(st.one_of(docs, damaged(docs))))))
    side = data.draw(st.sampled_from(["left", "right", "bi"]))
    json_out = data.draw(st.sampled_from([[], ["--json-out"]]))
    for argv in (["check", "--left", "--right", "--symmetric", "--lsym", "--lie"],
                 ["omega", "solve", "--side", side], ["omega", "verify", "--side", side],
                 ["star", "--side", "right" if side == "right" else "left"], ["core"]):
        _holds_the_contract([argv[0], str(path), *argv[1:], *json_out])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_extend_keeps_the_contract_on_broken_extension_files(workdir, data):
    docs = valid_extension_documents()
    doc = data.draw(st.one_of(docs, damaged(docs)))
    path = workdir / "ext.json"
    if isinstance(doc, dict) and isinstance(doc.get("g"), dict) and data.draw(st.booleans()):
        # the base algebra in a file of its own, damaged there
        (workdir / "g.json").write_bytes(data.draw(damaged_bytes(doc["g"])))
        doc["g"] = "g.json"
    path.write_bytes(data.draw(damaged_bytes(doc)))
    flags = data.draw(st.lists(st.sampled_from(["--build", "--star", "--json-out"]),
                               unique=True))
    system = data.draw(st.sampled_from(["reduced", "full"]))
    _holds_the_contract(["extend", str(path), "--system", system, *flags])


@settings(max_examples=150, deadline=None)
@given(args=params_arguments(), samples=st.integers(-1, 1))
def test_catalog_keeps_the_contract_on_broken_params(args, samples):
    _holds_the_contract(["catalog", "build", *args])
    _holds_the_contract(["catalog", "verify", args[0], "--samples", str(samples)])
