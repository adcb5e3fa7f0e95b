"""JSON files for algebras, forms and extension data.

Rationals travel as integers or "p/q" strings; floats are refused.  Basis
indices are 1-based in files, matching how product tables are written.
Serialization is canonical (sorted sparse entries, two-space indent), so
parse/serialize round trips are bit-exact.  Dimensions above ``MAX_DIM`` are
refused before any structure tensor is allocated: every check and solve is
at least cubic in the dimension, so a hostile size would otherwise run for
minutes before failing.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

from .algebra import Algebra
from .exactlin import ZERO, Matrix, Rational, rat
from .extension import ExtensionData, SymplecticLie
from .symplectic import SkewForm, form_from_pairs


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


def _rational(value: object) -> Fraction:
    if type(value) is int and value in _SMALL_INTS:
        return _SMALL_INTS[value]
    if isinstance(value, str) and not _RATIONAL.fullmatch(value):
        raise ValueError(f"{value!r} is not an integer or a fraction p/q "
                         f"with a nonzero denominator")
    return rat(value)


def rational_from_json(value: object, where: str, *index: int) -> Fraction:
    """A JSON integer or a string "p" or "p/q" with q != 0; nothing else.

    ``where`` names the entry in the message of a rejected value; given an
    ``index``, it is a format string for it, formatted only on rejection.
    """
    try:
        return _rational(value)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{where.format(*index) if index else where}: {exc}") from None


def _expect(condition: bool, message: str, *args) -> None:
    """Refuse the input unless ``condition``; given ``args``, ``message`` is a
    format string for them, formatted only on refusal."""
    if not condition:
        raise FileFormatError(message.format(*args) if args else message)


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


def serialize_algebra(algebra: Algebra, form: SkewForm | None = None) -> str:
    return dumps(algebra_to_dict(algebra, form))


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
    _expect(isinstance(doc, dict), "top level must be an object")
    return doc


def algebra_from_dict(doc: Mapping[str, Any]
                      ) -> tuple[Algebra, SkewForm | None]:
    _expect("dim" in doc, "missing field: dim")
    dim = doc["dim"]
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
            "dim must be a non-negative integer")
    _expect(dim <= MAX_DIM, f"dim {dim} exceeds the limit of {MAX_DIM}")
    labels = doc.get("labels", [])
    _expect(isinstance(labels, list) and all(isinstance(s, str) for s in labels),
            "labels must be a list of strings")
    _expect(not labels or len(labels) == dim,
            "labels must have one entry per basis vector")

    # each product's nonzero pairs, 0-based: from_table fills in the sparse view from them
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for k, item in enumerate(doc.get("products", [])):
        _expect(isinstance(item, dict), "products[{}]: must be an object", k)
        for key in ("left", "right", "value"):
            _expect(key in item, "products[{}]: missing field: {}", k, key)
        i, j = item["left"], item["right"]
        for name, idx in (("left", i), ("right", j)):
            _expect(isinstance(idx, int) and not isinstance(idx, bool)
                    and 1 <= idx <= dim,
                    "products[{}]: {} index out of range 1..{}", k, name, dim)
        _expect((i - 1, j - 1) not in table, "products[{}]: duplicate product ({}, {})", k, i, j)
        value = item["value"]
        _expect(isinstance(value, list) and len(value) == dim,
                "products[{}]: value must be a vector of length {}", k, dim)
        nonzero = table[(i - 1, j - 1)] = {}
        for n, x in enumerate(value):
            if type(x) is int and not x:  # a JSON 0, most entries; false and 0.0 are refused
                continue
            x = rational_from_json(x, "products[{}].value[{}]", k, n)
            if x is not ZERO and x:
                nonzero[n] = x

    algebra = Algebra.from_table(dim, table, labels=tuple(labels), one_based=False)

    form = None
    if "form" in doc:
        pairs: dict[tuple[int, int], Fraction] = {}
        for k, item in enumerate(doc["form"]):
            _expect(isinstance(item, list) and len(item) == 3, "form[{}]: must be [i, j, value]", k)
            i, j, value = item
            for idx in (i, j):
                _expect(isinstance(idx, int) and not isinstance(idx, bool)
                        and 1 <= idx <= dim,
                        "form[{}]: index out of range 1..{}", k, dim)
            _expect(i < j, "form[{}]: only strict upper-triangle entries", k)
            _expect((i, j) not in pairs, "form[{}]: duplicate entry ({}, {})", k, i, j)
            pairs[(i, j)] = rational_from_json(value, "form[{}][2]", k)
        form = form_from_pairs(dim, pairs)
    return algebra, form


def parse_algebra(text: str) -> tuple[Algebra, SkewForm | None]:
    return algebra_from_dict(loads(text))


def _read_text(path: Path) -> str:
    """The file's text; bytes that are not UTF-8 make it unusable input."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path} is not UTF-8 text: {exc.reason} "
                              f"at byte {exc.start}") from None


def load_algebra(path: str | Path) -> tuple[Algebra, SkewForm | None]:
    return parse_algebra(_read_text(Path(path)))


def _matrix_from_json(rows: object, m: int, where: str) -> Matrix:
    _expect(isinstance(rows, list) and len(rows) == m,
            f"{where}: expected {m} rows")
    parsed = []
    for r, row in enumerate(rows):
        _expect(isinstance(row, list) and len(row) == m, "{}[{}]: expected {} entries", where, r, m)
        parsed.append(tuple(rational_from_json(x, where + "[{}][{}]", r, c)
                            for c, x in enumerate(row)))
    return Matrix(m, m, tuple(parsed))


def _vector_table_from_json(data: object, p: int, m: int, where: str) -> list:
    _expect(isinstance(data, list) and len(data) == p,
            f"{where}: expected {p} rows")
    out = []
    for i, row in enumerate(data):
        _expect(isinstance(row, list) and len(row) == p, "{}[{}]: expected {} entries", where, i, p)
        vecs = []
        for j, vec in enumerate(row):
            _expect(isinstance(vec, list) and len(vec) == m,
                    "{}[{}][{}]: expected a vector of length {}", where, i, j, m)
            vecs.append([rational_from_json(x, where + "[{}][{}][{}]", i, j, n)
                         for n, x in enumerate(vec)])
        out.append(vecs)
    return out


def parse_extension(text: str, base_dir: str | Path = "."
                    ) -> tuple[SymplecticLie, ExtensionData]:
    doc = loads(text)
    for key in ("g", "p", "F", "G", "theta", "psi", "xi", "omega"):
        _expect(key in doc, f"missing field: {key}")

    g_entry = doc["g"]
    if isinstance(g_entry, str):
        g_path = Path(base_dir) / g_entry
        try:
            g_text = _read_text(g_path)
        except OSError as exc:
            raise FileFormatError(f"cannot read g file {g_path}: {exc}") from None
        algebra, form = parse_algebra(g_text)
    elif isinstance(g_entry, dict):
        algebra, form = algebra_from_dict(g_entry)
    else:
        raise FileFormatError("g must be an inline algebra object or a path")
    _expect(form is not None, "the g algebra needs a form")

    p = doc["p"]
    _expect(isinstance(p, int) and not isinstance(p, bool) and p >= 1,
            "p must be a positive integer")
    m = algebra.dim
    _expect(2 * p + m <= MAX_DIM,
            f"the extension has dimension 2p + dim = {2 * p + m}, "
            f"above the limit of {MAX_DIM}")

    def matrices(key: str) -> list[Matrix]:
        data = doc[key]
        _expect(isinstance(data, list) and len(data) == p,
                f"{key}: expected {p} matrices")
        return [_matrix_from_json(rows, m, f"{key}[{i}]")
                for i, rows in enumerate(data)]

    gs = SymplecticLie(algebra, form)
    try:
        data = ExtensionData(
            p, matrices("F"), matrices("G"),
            _vector_table_from_json(doc["theta"], p, m, "theta"),
            _vector_table_from_json(doc["psi"], p, m, "psi"),
            _vector_table_from_json(doc["xi"], p, m, "xi"),
            _vector_table_from_json(doc["omega"], p, p, "omega"),
        )
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return gs, data


def load_extension(path: str | Path) -> tuple[SymplecticLie, ExtensionData]:
    p = Path(path)
    return parse_extension(_read_text(p), p.parent)
