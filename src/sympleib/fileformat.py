"""JSON files for algebras, forms and extension data.

Rationals travel as integers or "p/q" strings; floats are refused.  Basis
indices are 1-based in files, matching how product tables are written.
Serialization is canonical (sorted sparse entries, two-space indent), so
parse/serialize round trips are bit-exact.  Dimensions above ``MAX_DIM`` are
refused before any structure tensor is allocated: every check and solve is
at least cubic in the dimension, so a hostile size would otherwise run for
minutes before failing.

A file is decoded once from its bytes, parsed by ``json.loads`` and read in
one pass that checks each entry once and fills the sparse view, the Gram rows
and the int views ``Algebra.int_nz`` and ``SkewForm.int_w``.  ``serialize_algebra``
writes the canonical text straight from ``Algebra.nz``; the dict route
``dumps(algebra_to_dict(...))`` stays for ``--json-out`` as the writer's test oracle.
"""

from __future__ import annotations

import functools
import json
import re
from bisect import insort
from collections.abc import Iterable, Mapping
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from . import extension
from .algebra import Algebra
from .exactlin import ZERO, Matrix, Rational, int_scaled_pairs, rat
from .symplectic import SkewForm


MAX_DIM = 48


class FileFormatError(ValueError):
    """Malformed input file; maps to the usage exit code."""


def rational_to_json(value: Rational) -> int | str:
    frac = value if type(value) is Fraction else Fraction(value)
    if frac.denominator == 1:
        return frac.numerator
    return f"{frac.numerator}/{frac.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")
# one shared Fraction per small JSON int, the common entry of every file; 0
# maps to exactlin.ZERO, which Algebra.nz skips without arithmetic
_SMALL_INTS = {x: Fraction(x) if x else ZERO for x in range(-64, 65)}


def rational_from_json(value: object, where: str, *index: int) -> Fraction:
    """A JSON integer or a string "p" or "p/q" with q != 0; nothing else.  ``where``
    names the entry on rejection, formatted then with ``index`` if one is given."""
    try:
        if isinstance(value, str) and not _RATIONAL.fullmatch(value):
            raise ValueError(f"{value!r} is not an integer or a fraction p/q "
                             f"with a nonzero denominator")
        return rat(value)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where.format(*index) if index else where}: {exc}") from None


@functools.cache
def _cells(dim: int) -> tuple[tuple[int, int], ...]:
    """The 1-based cells (i, j), i < j, in upper-triangle coordinate order."""
    return tuple((i + 1, j + 1) for i in range(dim) for j in range(i + 1, dim))


def coords_to_entries(dim: int, coords) -> list[list[int | str]]:
    """File entries of the skew form whose strict upper-triangle coordinates
    are the pairs (position, value) of ``coords``, in position order; zero
    values are skipped."""
    cells = _cells(dim)
    return [[*cells[k], rational_to_json(x)] for k, x in coords if x]


def form_to_entries(form: SkewForm) -> list[list[int | str]]:
    """File entries of a skew form: its strict upper-triangle nonzeros, read
    off the Gram matrix row by row (the shared ZERO skipped by identity)."""
    return [[i + 1, j + 1, rational_to_json(x)] for i, row in enumerate(form.w.entries)
            for j, x in enumerate(row[i + 1:], i + 1) if x is not ZERO and x]


def algebra_to_dict(algebra: Algebra, form: SkewForm | None = None
                    ) -> dict[str, Any]:
    doc: dict[str, Any] = {"dim": algebra.dim}
    if algebra.labels:
        doc["labels"] = list(algebra.labels)
    products = []
    for i, row in enumerate(algebra.nz):
        for j, pairs in enumerate(row):
            if pairs:
                value = [0] * algebra.dim
                for k, x in pairs:
                    value[k] = rational_to_json(x)
                products.append({"left": i + 1, "right": j + 1, "value": value})
    doc["products"] = products
    if form is not None:
        doc["form"] = form_to_entries(form)
    return doc


def dumps(doc: Mapping[str, Any]) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _json_rational(x: Rational) -> str:
    """The JSON text of ``rational_to_json(x)``."""
    return str(x.numerator) if x.denominator == 1 else f'"{x.numerator}/{x.denominator}"'


def serialize_algebra(algebra: Algebra, form: SkewForm | None = None, pad: str = "") -> str:
    """``dumps(algebra_to_dict(algebra, form))``, written straight from ``Algebra.nz`` and
    the form's upper triangle; each line after the first starts with ``pad``."""
    i1, i2, i3, i4 = ("\n" + pad + " " * k for k in (2, 4, 6, 8))

    def array(items, inner, outer):  # json.dumps's indented layout
        return f"[{inner}{(',' + inner).join(items)}{outer}]" if items else "[]"
    text = f'{{{i1}"dim": {algebra.dim}'
    if algebra.labels:
        text += f',{i1}"labels": {array([*map(encode_basestring_ascii, algebra.labels)], i2, i1)}'
    products = []
    for i, row in enumerate(algebra.nz):
        for j, pairs in enumerate(row):
            if pairs:
                value = ["0"] * algebra.dim
                for k, x in pairs:
                    value[k] = _json_rational(x)
                products.append(f'{{{i3}"left": {i + 1},{i3}"right": {j + 1},'
                                f'{i3}"value": {array(value, i4, i3)}{i2}}}')
    text += f',{i1}"products": {array(products, i2, i1)}'
    if form is not None:
        entries = [f"[{i3}{i + 1},{i3}{j + 1},{i3}{_json_rational(x)}{i2}]"
                   for i, row in enumerate(form.w.entries)
                   for j, x in enumerate(row[i + 1:], i + 1) if x is not ZERO and x]
        text += f',{i1}"form": {array(entries, i2, i1)}'
    return f"{text}\n{pad}}}\n"


def loads(text: str) -> dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise FileFormatError("invalid JSON: nested too deeply") from None
    except ValueError:  # an integer literal above Python's int conversion limit
        raise FileFormatError("invalid JSON: an integer literal has too many digits") from None
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be an object")
    return doc


def algebra_from_dict(doc: Mapping[str, Any]
                      ) -> tuple[Algebra, SkewForm | None]:
    """The algebra and form of a parsed file, in one pass that checks each entry once."""
    if "dim" not in doc:
        raise FileFormatError("missing field: dim")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise FileFormatError("dim must be a non-negative integer")
    if dim > MAX_DIM:
        raise FileFormatError(f"dim {dim} exceeds the limit of {MAX_DIM}")
    labels = doc.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise FileFormatError("labels must be a list of strings")
    if labels and len(labels) != dim:
        raise FileFormatError("labels must have one entry per basis vector")

    products = doc.get("products", [])
    if not isinstance(products, Iterable):  # any iterable is read as the list it must be
        raise FileFormatError("products must be a list")
    # each product's nonzero pairs (k, x), 0-based and in k order: the algebra's sparse view
    small = _SMALL_INTS
    table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    t, s = [[()] * dim for _ in range(dim)], 1  # and times s, the lcm of the denominators so far
    for k, item in enumerate(products):
        if not isinstance(item, dict):
            raise FileFormatError(f"products[{k}]: must be an object")
        if "left" not in item or "right" not in item or "value" not in item:
            key = next(key for key in ("left", "right", "value") if key not in item)
            raise FileFormatError(f"products[{k}]: missing field: {key}")
        i, j, value = item["left"], item["right"], item["value"]
        if not (isinstance(i, int) and not isinstance(i, bool) and 0 < i <= dim):
            raise FileFormatError(f"products[{k}]: left index out of range 1..{dim}")
        if not (isinstance(j, int) and not isinstance(j, bool) and 0 < j <= dim):
            raise FileFormatError(f"products[{k}]: right index out of range 1..{dim}")
        if (i - 1, j - 1) in table:
            raise FileFormatError(f"products[{k}]: duplicate product ({i}, {j})")
        if not isinstance(value, list) or len(value) != dim:
            raise FileFormatError(f"products[{k}]: value must be a vector of length {dim}")
        pairs = table[(i - 1, j - 1)] = []
        int_pairs = t[i - 1][j - 1] = []
        for n, x in enumerate(value):
            if type(x) is not int:  # false and 0.0 are refused here
                x = rational_from_json(x, "products[{}].value[{}]", k, n)
                if x:
                    if (f := (x * s).denominator) > 1:  # a new lcm s, f times the old one:
                        s *= f  # the int pairs read so far are rescaled to it
                        for rescaled in (p for row in t for p in row if p):
                            rescaled[:] = [(m, v * f) for m, v in rescaled]
                    pairs.append((n, x))
                    int_pairs.append((n, int(x * s)))
            elif x:  # a JSON 0, most entries, is passed over at once
                pairs.append((n, small[x] if x in small else Fraction(x)))
                int_pairs.append((n, x * s))

    algebra = Algebra._sparse(dim, table, labels, (s, tuple(tuple(map(tuple, r)) for r in t)))
    if "form" not in doc:
        return algebra, None

    if not isinstance(doc["form"], Iterable):
        raise FileFormatError("form must be a list")
    rows = [[ZERO] * dim for _ in range(dim)]  # the Gram rows, filled in as the entries are read
    int_rows, fractions = [[] for _ in range(dim)], False  # and the pairs (y, x as read)
    seen = set()
    for k, item in enumerate(doc["form"]):
        if not isinstance(item, list) or len(item) != 3:
            raise FileFormatError(f"form[{k}]: must be [i, j, value]")
        i, j, value = item
        if not (isinstance(i, int) and not isinstance(i, bool) and 0 < i <= dim
                and isinstance(j, int) and not isinstance(j, bool) and 0 < j <= dim):
            raise FileFormatError(f"form[{k}]: index out of range 1..{dim}")
        if i >= j:
            raise FileFormatError(f"form[{k}]: only strict upper-triangle entries")
        if (i, j) in seen:
            raise FileFormatError(f"form[{k}]: duplicate entry ({i}, {j})")
        seen.add((i, j))
        x = small[value] if type(value) is int and value in small \
            else rational_from_json(value, "form[{}][2]", k)
        if x:
            rows[i - 1][j - 1], rows[j - 1][i - 1] = x, -x
            if type(value) is not int:
                value, fractions = x, True
            insort(int_rows[i - 1], (j - 1, value))
            insort(int_rows[j - 1], (i - 1, -value))
    d, (int_w,) = int_scaled_pairs([int_rows]) if fractions else (1, [tuple(map(tuple, int_rows))])
    return algebra, SkewForm._skew(Matrix(dim, dim, tuple(map(tuple, rows))), int_w=(d, int_w))


def parse_algebra(text: str) -> tuple[Algebra, SkewForm | None]:
    return algebra_from_dict(loads(text))


def _read_text(path: Path) -> str:
    """The file's text, decoded once from its bytes, with text mode's line ends so
    JSON error positions do not move; bytes that are not UTF-8 are unusable input."""
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_algebra(path: str | Path) -> tuple[Algebra, SkewForm | None]:
    return parse_algebra(_read_text(Path(path)))


_MATRICES = ("expected {} matrices", "expected {} rows", "expected {} entries")
_VECTORS = ("expected {} rows", "expected {} entries", "expected a vector of length {}")


def _grid(data: object, shape: tuple[int, ...], where: str, expected: tuple[str, ...]) -> list:
    """Nested lists of the given shape; ``expected`` says what each level, outermost first,
    must be.  A small int entry is read off ``_SMALL_INTS`` inline, the rest as rationals."""
    if not isinstance(data, list) or len(data) != shape[0]:
        raise FileFormatError(f"{where}: " + expected[0].format(shape[0]))
    if len(shape) > 1:
        return [_grid(x, shape[1:], f"{where}[{i}]", expected[1:]) for i, x in enumerate(data)]
    return [_SMALL_INTS[x] if type(x) is int and x in _SMALL_INTS
            else rational_from_json(x, where + "[{}]", n) for n, x in enumerate(data)]


def parse_extension(text: str, base_dir: str | Path = "."
                    ) -> tuple[extension.SymplecticLie, extension.ExtensionData]:
    doc = loads(text)
    for key in ("g", "p", "F", "G", "theta", "psi", "xi", "omega"):
        if key not in doc:
            raise FileFormatError(f"missing field: {key}")

    g_entry = doc["g"]
    if isinstance(g_entry, str):
        g_path = Path(base_dir) / g_entry
        try:
            g_text = _read_text(g_path)
        except (OSError, ValueError) as exc:  # open refuses a NUL or a lone surrogate
            raise exc if isinstance(exc, FileFormatError) else FileFormatError(  # not UTF-8
                f"cannot read g file {g_path}: {exc}") from None
        algebra, form = parse_algebra(g_text)
    elif isinstance(g_entry, dict):
        algebra, form = algebra_from_dict(g_entry)
    else:
        raise FileFormatError("g must be an inline algebra object or a path")
    if form is None:
        raise FileFormatError("the g algebra needs a form")

    p = doc["p"]
    if not isinstance(p, int) or isinstance(p, bool) or p < 1:
        raise FileFormatError("p must be a positive integer")
    m = algebra.dim
    if 2 * p + m > MAX_DIM:
        raise FileFormatError(f"the extension has dimension 2p + dim = {2 * p + m}, "
                              f"above the limit of {MAX_DIM}")

    def matrices(key: str) -> list[Matrix]:
        return [Matrix(m, m, tuple(map(tuple, rows)))
                for rows in _grid(doc[key], (p, m, m), key, _MATRICES)]

    gs = extension.SymplecticLie(algebra, form)
    try:
        data = extension.ExtensionData(p, matrices("F"), matrices("G"), *(
            _grid(doc[key], (p, p, p if key == "omega" else m), key, _VECTORS)
            for key in ("theta", "psi", "xi", "omega")))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return gs, data


def load_extension(path: str | Path
                   ) -> tuple[extension.SymplecticLie, extension.ExtensionData]:
    p = Path(path)
    return parse_extension(_read_text(p), p.parent)
