"""Seeded request generator for the three benchmark workloads.

Every input file is built from ``--seed`` with the library's public API only
(``catalog`` sampling and instantiation, ``change_basis``, the extension-data
helpers) plus two operations written here: block direct sums and
one-coefficient perturbations.  Each request carries its own output check,
so any seed can be judged, not just the one with committed references:

* ``omega verify`` answers are written out exactly by ``oracle.verify_text``;
* ``omega solve`` answers must print a canonical (RREF) basis of forms that
  satisfy the requested compatibility, a nondegenerate representative from
  that span, and, on unperturbed inputs, a span holding the form the inputs
  were built with;
* ``star`` answers must satisfy the defining identity against the input form;
* ``core`` answers must add up block by block (the form is block diagonal);
* ``check`` statuses must match the per-block answers (identities survive
  direct sums and changes of basis);
* extension and catalog answers are checked for their exit code, their
  report lines, and the compatibility of any algebra they print;
* malformed files must exit 2 with nothing on stdout, as the README's CLI
  contract says.

Unperturbed blocks are self-checked against their family's claims with
``catalog.verify`` before anything is timed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from sympleib import catalog
from sympleib.algebra import (Algebra, change_basis, is_left_leibniz,
                              is_left_symmetric, is_lie, is_symmetric_leibniz)
from sympleib.core import core
from sympleib.exactlin import Matrix
from sympleib.extension import (ExtensionData, check_full_system,
                                check_reduced_system)

import oracle

WORKLOADS = ("solve", "verify", "catalog-extend")

# A check takes (exit code, stdout) and returns None when the answer is right,
# or a one-line reason when it is not.
Check = Callable[[object, str], Optional[str]]


@dataclass
class Request:
    id: str
    argv: list[str]
    check: Check
    malformed: bool = False


# ---------------------------------------------------------------------------
# plain data: c[i][j] is a list of Fractions, w a list of Fraction rows


def _plain(algebra, form=None):
    c = [[list(v) for v in row] for row in algebra.c]
    w = None if form is None else [list(r) for r in form.w.entries]
    return c, w


def _jrat(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def algebra_doc(c, w=None) -> dict:
    n = len(c)
    doc: dict = {"dim": n, "products": [
        {"left": i + 1, "right": j + 1, "value": [_jrat(x) for x in c[i][j]]}
        for i in range(n) for j in range(n) if any(c[i][j])]}
    if w is not None:
        doc["form"] = [[i + 1, j + 1, _jrat(w[i][j])]
                       for i in range(n) for j in range(i + 1, n) if w[i][j]]
    return doc


def read_algebra(doc: dict):
    """Structure constants and Gram matrix from an algebra document."""
    n = doc["dim"]
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for item in doc.get("products", []):
        c[item["left"] - 1][item["right"] - 1] = [Fraction(x) for x in item["value"]]
    w = None
    if "form" in doc:
        w = [[Fraction(0)] * n for _ in range(n)]
        for i, j, v in doc["form"]:
            w[i - 1][j - 1] = Fraction(v)
            w[j - 1][i - 1] = -Fraction(v)
    return c, w


def direct_sum(blocks):
    n = sum(len(c) for c, _ in blocks)
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    w = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for bc, bw in blocks:
        m = len(bc)
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    c[off + i][off + j][off + k] = bc[i][j][k]
                w[off + i][off:off + m] = bw[i]
        off += m
    return c, w


def shear(n: int, rng: random.Random) -> list[list[int]]:
    """Unimodular P = I + N: column t gains +-e_(t-2) for every third t.

    N is strictly upper triangular, so det P = 1.  The shear positions are
    fixed and only the signs come from the seed, so products spread over the
    same basis vectors on every seed.  Shearing every column makes the form
    system too slow for a run (12 s for one side at dim 14).
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for t in range(2, n, 3):
        p[t - 2][t] = rng.choice((-1, 1))
    return p


def basis_changed(c, w, p):
    """The pair in the basis f_i = P e_i: change_basis for c, P^T W P for w."""
    n = len(c)
    algebra = change_basis(Algebra(n, tuple(tuple(tuple(v) for v in row) for row in c)),
                           Matrix.from_rows(p))
    pw = [[sum((p[a][i] * w[a][b] * p[b][j] for a in range(n) for b in range(n)
                if p[a][i] and p[b][j]), Fraction(0)) for j in range(n)]
          for i in range(n)]
    return _plain(algebra)[0], pw


# ---------------------------------------------------------------------------
# catalog blocks


@dataclass
class Block:
    fid: str
    params: dict
    c: list
    w: list


# Parameters a family's sampler sets to zero on some draws but that stay
# zero here; every other parameter is drawn again until it is nonzero.
ZERO_PARAMS = {"RR3_SIXDIM_RAW": {"z"}, "RR3_SIXDIM_B0": {"z"},
               "RR3_SIXDIM_BNE0": {"z"}}


def sample_params(rng: random.Random, fid: str) -> dict:
    """A catalog sample whose zero parameters are the same on every seed.

    The seed then moves parameter values but not the sparsity pattern, and
    with it neither the size of the form spaces nor the cost of a request.
    """
    spec = catalog.get(fid)
    zeros = ZERO_PARAMS.get(fid, set())
    while True:
        params = spec.sample(rng)
        if {k for k, v in params.items() if v == 0} == zeros:
            return params


def catalog_seed(rng: random.Random, fid: str) -> int:
    """A ``catalog verify --seed`` whose first sample has the fixed zero pattern.

    ``catalog.sample_verify`` draws its samples from ``random.Random(seed)``;
    for the reason given at ``sample_params``, only seeds whose first sample
    keeps the family's zero pattern are used.
    """
    spec = catalog.get(fid)
    zeros = ZERO_PARAMS.get(fid, set())
    while True:
        seed = rng.randrange(10 ** 6)
        params = spec.sample(random.Random(seed))
        if {k for k, v in params.items() if v == 0} == zeros:
            return seed


def sample_block(rng: random.Random, fid: str) -> Block:
    params = sample_params(rng, fid)
    c, w = _plain(*catalog.instantiate(fid, params))
    return Block(fid, params, c, w)


def self_check(blocks) -> None:
    for b in blocks:
        report = catalog.verify(b.fid, b.params)
        if not report.ok:
            raise RuntimeError(f"generator: {b.fid} sample fails its claims: "
                               f"{[c.name for c in report.failed()]}")


def _block_algebra(b: Block) -> Algebra:
    return Algebra(len(b.c), tuple(tuple(tuple(v) for v in row) for row in b.c))


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _perturb_product(c, rng: random.Random) -> None:
    """Move e_1 * e_n by +-1 or +-2 along e_2.

    The position is fixed, like the sparsity pattern, so that the seed moves
    the size of the change but not which equations it breaks.
    """
    n = len(c)
    c[0][n - 1][1] += rng.choice((-2, -1, 1, 2))


def _perturb_form(w, rng: random.Random) -> None:
    """Move the (1, n) form entry by +-1 or +-2, keeping the form nondegenerate.

    The position is fixed for the reason given at ``_perturb_product``.
    """
    n = len(w)
    steps = [-2, -1, 1, 2]
    rng.shuffle(steps)
    for d in steps:
        w[0][n - 1] += d
        w[n - 1][0] -= d
        if oracle.det(w) != 0:
            return
        w[0][n - 1] -= d
        w[n - 1][0] += d
    raise RuntimeError("generator: no nondegenerate perturbation of the form")


def _interleave(groups: list[list[Request]]) -> list[Request]:
    """Spread each group evenly over the pass, so a partial pass is a fair sample."""
    keyed = [((k + 0.5) / len(g), gi, r) for gi, g in enumerate(groups)
             for k, r in enumerate(g)]
    return [r for _, _, r in sorted(keyed, key=lambda t: (t[0], t[1]))]


# ---------------------------------------------------------------------------
# solve: form-less sums of 2-3 blocks, dim 8-12, each also sheared
#
# The families of each sum are fixed and only their parameters, the shear and
# the perturbation are drawn from the seed: with the families drawn too, one
# pass cost anywhere from 0.5x to 1.5x the median, which no run length
# averages out.

SOLVE_SUMS = (
    (("RR3_SIXDIM_B0", "BS4_C"), "left"),
    (("ABEL2_CASE1", "BS4_K", "DIM2_NONLIE"), "left"),
    (("RR3_SIXDIM_BNE0", "DIM2_NONLIE", "DIM2_NONLIE"), "right"),
    (("RR3_SIXDIM_B0", "DIM2_NONLIE"), "bi"),
    (("LIE_RR3M1", "ABEL2_CASE2", "BS4_G"), "right"),
    (("BS4_B", "BS4_I"), "bi"),
    (("BS4_J", "BS4_L", "DIM2_NONLIE"), "bi"),
    (("BS4_D", "BS4_F", "BS4_N"), "left"),
)
# (sum, sheared) pairs whose file gets one product coefficient moved
SOLVE_PERTURBED = ((1, False), (3, False), (5, True), (7, True))

_ENTRY = re.compile(r"\((\d+),(\d+)\)=(\S+)")


def _coords_from_entries(n: int, text: str) -> list[Fraction]:
    w = [[Fraction(0)] * n for _ in range(n)]
    for i, j, v in _ENTRY.findall(text):
        w[int(i) - 1][int(j) - 1] = Fraction(v)
    return [w[i][j] for i in range(n) for j in range(i + 1, n)]


def _form_from_coords(n: int, coords) -> list[list[Fraction]]:
    w = [[Fraction(0)] * n for _ in range(n)]
    it = iter(coords)
    for i in range(n):
        for j in range(i + 1, n):
            x = next(it)
            w[i][j], w[j][i] = x, -x
    return w


def _reduce(basis, v):
    """v minus its projection along an RREF basis (zero iff v is in the span)."""
    v = list(v)
    for row in basis:
        p = next(k for k, x in enumerate(row) if x)
        if v[p]:
            f = v[p]
            v = [a - f * b for a, b in zip(v, row)]
    return v


def _solve_check(c, side, known: Optional[list], rid: str) -> Check:
    n = len(c)
    sides = ("left", "right") if side == "bi" else (side,)

    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if len(lines) < 3 or lines[0] != f"side: {side}" \
                or not lines[1].startswith("solution space dimension: "):
            return "unexpected layout"
        dim = int(lines[1].split(": ")[1])
        if len(lines) != dim + 3:
            return "basis line count differs from the stated dimension"
        basis = [_coords_from_entries(n, ln.split(": ", 1)[1])
                 for ln in lines[2:2 + dim]]
        pivots = []
        for row in basis:
            p = next((k for k, x in enumerate(row) if x), None)
            if p is None or row[p] != 1 or (pivots and p <= pivots[-1]):
                return "basis is not in reduced row echelon form"
            pivots.append(p)
        if any(row[p] for a, row in enumerate(basis)
               for b, p in enumerate(pivots) if a != b):
            return "basis is not in reduced row echelon form"
        probe = random.Random(rid)
        mix = [Fraction(0)] * (n * (n - 1) // 2)
        for row in basis:
            f = probe.randint(1, 10 ** 9)
            mix = [a + f * b for a, b in zip(mix, row)]
        mixed = _form_from_coords(n, mix)
        for s in sides:
            if dim and oracle.compat_witness(c, mixed, s) is not None:
                return f"a basis form fails the {s} compatibility"
        rep = lines[-1]
        if rep == "nondegenerate representative: none found":
            pass
        elif rep.startswith("nondegenerate representative: "):
            coords = _coords_from_entries(n, rep.split(": ", 1)[1])
            if any(_reduce(basis, coords)):
                return "representative lies outside the printed span"
            if oracle.det(_form_from_coords(n, coords)) == 0:
                return "representative is degenerate"
        else:
            return "missing representative line"
        if known is not None:
            flat = [known[i][j] for i in range(n) for j in range(i + 1, n)]
            if any(_reduce(basis, flat)):
                return "the generating form is missing from the solution space"
        return None
    return check


def gen_solve(rng: random.Random, out: Path) -> list[Request]:
    reqs = []
    for k, (fids, side) in enumerate(SOLVE_SUMS):
        blocks = [sample_block(rng, fid) for fid in fids]
        self_check(blocks)
        sparse = direct_sum([(b.c, b.w) for b in blocks])
        for dense in (False, True):
            c, w = basis_changed(*sparse, shear(len(sparse[0]), rng)) if dense else sparse
            perturbed = (k, dense) in SOLVE_PERTURBED
            if perturbed:
                c = [[list(v) for v in row] for row in c]
                _perturb_product(c, rng)
            name = f"solve{k}{'d' if dense else 's'}.json"
            _write(out / name, algebra_doc(c))
            known = None
            sides = ("left", "right") if side == "bi" else (side,)
            if not perturbed and all(oracle.compat_witness(c, w, s) is None for s in sides):
                known = w
            rid = f"solve{k}{'d' if dense else 's'}-{side}"
            reqs.append(Request(rid, ["omega", name, "solve", "--side", side],
                                _solve_check(c, side, known, rid)))
    return reqs


# ---------------------------------------------------------------------------
# verify: sums with their form, dim 6-10, a quarter with one form entry moved

# (families, sheared, form perturbed, requests); families are fixed for the
# reason given at SOLVE_SUMS, and the dim-8 and dim-10 files get few of the
# O(n^5) scans so that one pass stays near four seconds.  Five requests are
# cheaper than the dim-6 scans, so the median falls inside their cluster
# rather than at its edge.
VERIFY_SLOTS = (
    (("BS4_B", "DIM2_NONLIE"), False, False, ("verify-left", "core")),
    (("BS4_D", "DIM2_NONLIE"), True, False, ("verify-right", "star-left")),
    (("RR3_SIXDIM_RAW", "DIM2_NONLIE"), False, False, ("verify-bi", "check")),
    (("BS4_F", "CORE2_NONABELIAN"), True, True, ("verify-left", "core")),
    (("DIM2_NONLIE",) * 3, False, True, ("verify-bi", "star-right")),
    (("BS4_J", "DIM2_NONLIE"), True, False, ("verify-bi", "verify-right")),
    (("BS4_L", "DIM2_NONLIE"), False, False, ("verify-left", "core")),
    (("RR3_SIXDIM_BNE0", "BS4_N"), True, False, ("check", "star-right")),
)
IDENTITIES = (("left-leibniz", is_left_leibniz),
              ("symmetric-leibniz", is_symmetric_leibniz),
              ("left-symmetric", is_left_symmetric), ("lie", is_lie))


def _exact(expected: str, code0: int) -> Check:
    def check(code, out):
        if code != code0:
            return f"exit {code}, expected {code0}"
        return None if out == expected else "stdout differs from the oracle"
    return check


def _identity_check(statuses: list[bool]) -> Check:
    want = 0 if all(statuses) else 1

    def check(code, out):
        if code != want:
            return f"exit {code}, expected {want}"
        lines = out.splitlines()
        if len(lines) != len(IDENTITIES):
            return "unexpected layout"
        for line, (name, _), ok in zip(lines, IDENTITIES, statuses):
            head = f"[  ok] {name}" if ok else f"[FAIL] {name}  ("
            if not (line == head if ok else line.startswith(head)):
                return f"status of {name} differs from the per-block answer"
        return None
    return check


def _star_check(c, w, side) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        sc, sw = read_algebra(json.loads(out))
        if sw != w or len(sc) != len(c):
            return "star file does not carry the input form"
        bad = oracle.star_defect(c, w, sc, side)
        return None if bad is None else f"star identity fails at {bad}"
    return check


def _core_check(expected_dims: Optional[tuple], compatible: bool) -> Check:
    def check(code, out):
        if not compatible:
            if code != 1 or out:
                return f"exit {code}, expected 1 for a form that is not left compatible"
            return None
        if code != 0:
            return f"exit {code}, expected 0"
        if expected_dims is None:
            return None
        got = {}
        for line in out.splitlines():
            for key in ("dim I", "reduced dim", "h dim"):
                if line.startswith(key + ": "):
                    got[key] = int(line.split(": ")[1])
        dims = (got.get("dim I"), got.get("reduced dim"), got.get("h dim"))
        return None if dims == expected_dims else \
            f"core dims {dims}, blocks add up to {expected_dims}"
    return check


def gen_verify(rng: random.Random, out: Path) -> list[Request]:
    reqs = []
    for slot, (fids, dense, perturbed, kinds) in enumerate(VERIFY_SLOTS):
        blocks = [sample_block(rng, fid) for fid in fids]
        self_check(blocks)
        c, w = direct_sum([(b.c, b.w) for b in blocks])
        if dense:
            c, w = basis_changed(c, w, shear(len(c), rng))
        if perturbed:
            _perturb_form(w, rng)
        name = f"verify{slot}.json"
        _write(out / name, algebra_doc(c, w))
        algebras = [_block_algebra(b) for b in blocks]
        statuses = [all(fn(a).holds for a in algebras) for _, fn in IDENTITIES]
        compatible = oracle.compat_witness(c, w, "left") is None
        dims = None
        if compatible and not perturbed:
            parts = []
            for b, a in zip(blocks, algebras):
                dec = core(a, catalog.instantiate(b.fid, b.params)[1])
                parts.append((dec.ideal.dim, dec.reduced.algebra.dim, dec.h_dim))
            dims = tuple(sum(p[k] for p in parts) for k in range(3))
        for kind in kinds:
            if kind.startswith("verify-"):
                side = kind.split("-")[1]
                code, text = oracle.verify_text(c, w, side)
                argv, check = ["omega", name, "verify", "--side", side], _exact(text, code)
            elif kind == "check":
                argv = ["check", name, "--left", "--symmetric", "--lsym", "--lie"]
                check = _identity_check(statuses)
            elif kind.startswith("star-"):
                side = kind.split("-")[1]
                argv, check = ["star", name, "--side", side], _star_check(c, w, side)
            else:
                argv, check = ["core", name], _core_check(dims, compatible)
            reqs.append(Request(f"verify{slot}-{kind}", argv, check))
    return reqs


# ---------------------------------------------------------------------------
# catalog-extend: many small requests over the catalog and p=1 extensions

EXTENSION_KINDS = ("ABEL2_CASE1", "ABEL2_CASE2", "RANK_ONE")
EXTENSION_FLAGS = (("--system", "full"), ("--system", "reduced"),
                   ("--system", "reduced", "--build"),
                   ("--system", "full", "--build", "--star"),
                   ("--system", "reduced", "--build", "--star"))
EXTENSION_PERTURBED = (1, 5)
MALFORMED = ("invalid-json", "index-out-of-range", "float", "one-over-zero",
             "exponent")


def extension_doc(gs, d: ExtensionData) -> dict:
    def mat(m):
        return [[_jrat(x) for x in row] for row in m.entries]

    def grid(g):
        return [[[_jrat(x) for x in v] for v in row] for row in g]
    g_c, g_w = _plain(gs.g, gs.form)
    return {"g": algebra_doc(g_c, g_w), "p": d.p,
            "F": [mat(m) for m in d.F], "G": [mat(m) for m in d.G],
            "theta": grid(d.theta), "psi": grid(d.psi), "xi": grid(d.xi),
            "omega": [[[_jrat(x) for x in row] for row in plane]
                      for plane in d.omega_cube]}


def _extension_data(kind: str, rng: random.Random):
    if kind == "RANK_ONE":
        gs, F, S, a0, b0, lam = catalog.rank_one_data(sample_params(rng, "RR3_SIXDIM_RAW"))
        c0 = [(x + y) / 2 for x, y in zip(a0, b0)]
        return gs, ExtensionData(1, [F], [S - F], [[c0]], [[list(a0)]],
                                 [[list(b0)]], [[[lam]]])
    return catalog.extension_data(kind, sample_params(rng, kind))


def _perturbed_extension(gs, d: ExtensionData, rng: random.Random) -> ExtensionData:
    while True:
        psi = [[list(v) for v in row] for row in d.psi]
        psi[0][0][rng.randrange(d.gdim)] += rng.choice((-1, 1))
        bad = ExtensionData(d.p, d.F, d.G, d.theta, psi, d.xi, d.omega_cube)
        if not check_reduced_system(gs, bad).ok:
            return bad


def _report_check(ok: bool) -> Check:
    def check(code, out):
        want = 0 if ok else 1
        if code != want:
            return f"exit {code}, expected {want}"
        marks = [ln[:6] for ln in out.splitlines()[1:]]
        if not marks or (ok and any(m != "[  ok]" for m in marks)) \
                or (not ok and "[FAIL]" not in marks):
            return "report lines do not match the expected outcome"
        return None
    return check


def _build_check(m: int, star: bool, build: bool) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        doc = json.loads(out)
        if star and build:
            pc, pw = read_algebra(doc["product"])
            sc, _ = read_algebra(doc["star"])
        else:
            pc, pw = read_algebra(doc)
            sc = None
        if len(pc) != m + 2:
            return "built algebra has the wrong dimension"
        if oracle.det(pw) == 0 or oracle.compat_witness(pc, pw, "left") is not None:
            return "built form is not a left compatible symplectic form"
        if sc is not None and oracle.star_defect(pc, pw, sc, "left") is not None:
            return "emitted star product is not the star of the built algebra"
        return None
    return check


def _catalog_verify_check(fid: str, samples: int) -> Check:
    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        lines = out.splitlines()
        if lines[-1] != f"{fid}: {samples}/{samples} pass" \
                or sum(ln.startswith("sample") for ln in lines) != samples:
            return "catalog verify did not pass every sample"
        return None
    return check


def _catalog_build_check(fid: str) -> Check:
    claims = catalog.get(fid).claims
    sides = [s for s in ("left", "right", "bi") if f"{s}-symplectic" in claims]

    def check(code, out):
        if code != 0:
            return f"exit {code}, expected 0"
        c, w = read_algebra(json.loads(out))
        for s in sides:
            if oracle.compat_witness(c, w, s) is not None:
                return f"built instance fails its {s}-symplectic claim"
        return None
    return check


def _malformed_check(code, out):
    if code != 2 or out:
        return f"exit {code}, expected 2 (unusable input) with empty stdout"
    return None


def malformed_text(kind: str, rng: random.Random) -> str:
    n = rng.choice((2, 3, 4))
    value = [0] * n
    slot = rng.randrange(n)
    product = {"left": rng.randint(1, n), "right": rng.randint(1, n), "value": value}
    if kind == "invalid-json":
        text = json.dumps({"dim": n, "products": [product]})
        return text[:rng.randrange(8, len(text) - 2)]
    if kind == "index-out-of-range":
        value[slot] = 1
        product["left"] = n + rng.randint(1, 3)
    elif kind == "float":
        value[slot] = rng.choice((0.5, 1.25, -2.0))
    elif kind == "one-over-zero":
        value[slot] = rng.choice(("1/0", "-3/0"))
    else:
        value[slot] = rng.choice(("1e3", "2e5", "-1e2"))
    return json.dumps({"dim": n, "products": [product]}, indent=2) + "\n"


def gen_catalog_extend(rng: random.Random, out: Path) -> list[Request]:
    verify_reqs, build_reqs, ext_reqs, bad_reqs = [], [], [], []
    for fid in catalog.list_families():
        verify_reqs.append(Request(
            f"catalog-verify-{fid}",
            ["catalog", "verify", fid, "--samples", "1", "--seed", str(catalog_seed(rng, fid))],
            _catalog_verify_check(fid, 1)))
    # every other family, so that a quarter of the pass is cheaper than the
    # median and the median falls inside the cluster of extension checks
    for k, fid in enumerate(catalog.list_families()[::2]):
        params = sample_params(rng, fid)
        argv = ["catalog", "build", fid]
        if params:
            argv += ["--params"] + [f"{p}={_jrat(v)}" for p, v in sorted(params.items())]
        build_reqs.append(Request(f"catalog-build{k:02d}-{fid}", argv,
                                  _catalog_build_check(fid)))
    for k in range(8):
        kind = EXTENSION_KINDS[k % 3]
        gs, d = _extension_data(kind, rng)
        perturbed = k in EXTENSION_PERTURBED
        if perturbed:
            d = _perturbed_extension(gs, d, rng)
        ok = check_reduced_system(gs, d).ok
        if ok != check_full_system(gs, d).ok or ok == perturbed:
            raise RuntimeError(f"generator: extension {kind} is not what it should be")
        name = f"ext{k:02d}.json"
        _write(out / name, extension_doc(gs, d))
        for v, flags in enumerate(EXTENSION_FLAGS):
            build, star = "--build" in flags, "--star" in flags
            check = _build_check(gs.dim, star, build) if ok and (build or star) \
                else _report_check(ok)
            ext_reqs.append(Request(f"ext{k:02d}-{v}", ["extend", name, *flags], check))
    for kind in MALFORMED:
        name = f"bad-{kind}.json"
        (out / name).write_text(malformed_text(kind, rng), encoding="utf-8")
        bad_reqs.append(Request(f"malformed-{kind}", ["check", name, "--left"],
                                _malformed_check, malformed=True))
    return _interleave([verify_reqs, build_reqs, ext_reqs, bad_reqs])


# ---------------------------------------------------------------------------


def warmup(workload: str, out: Path) -> list[str]:
    """Argv of one cheap request through the workload's code path (exit 0)."""
    c, w = _plain(*catalog.instantiate("BS4_C"))
    _write(out / "warmup.json", algebra_doc(c, w))
    return {"solve": ["omega", "warmup.json", "solve", "--side", "left"],
            "verify": ["omega", "warmup.json", "verify", "--side", "left"],
            "catalog-extend": ["catalog", "verify", "DIM2_NONLIE", "--samples", "1"],
            }[workload]


def generate(workload: str, seed: int, out: Path) -> tuple[list[str], list[Request]]:
    """Write the workload's files into ``out``; return (warm-up argv, pool)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    make = {"solve": gen_solve, "verify": gen_verify,
            "catalog-extend": gen_catalog_extend}[workload]
    return warmup(workload, out), make(rng, out)
