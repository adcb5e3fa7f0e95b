"""Algebra and extension files: canonical round trips and input validation."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from mangled import damaged, python_fraction_documents, valid_algebra_documents, \
    valid_extension_documents
from sympleib.algebra import Algebra, change_basis
from sympleib.catalog import get, instantiate, list_families
from sympleib.fileformat import (
    _MATRICES,
    _VECTORS,
    FileFormatError,
    _grid,
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    load_algebra,
    parse_algebra,
    parse_extension,
    serialize_algebra,
)
from sympleib.exactlin import Matrix
from sympleib.symplectic import SkewForm, form_from_pairs


def roundtrip(algebra, form):
    text = serialize_algebra(algebra, form)
    parsed_a, parsed_w = parse_algebra(text)
    return text, parsed_a, parsed_w


def test_every_catalog_instance_round_trips_bit_exactly():
    for fid in list_families():
        algebra, form = instantiate(fid)
        text, parsed_a, parsed_w = roundtrip(algebra, form)
        assert parsed_a.c == algebra.c, fid
        assert parsed_a.labels == algebra.labels, fid
        assert parsed_w.w == form.w, fid
        assert serialize_algebra(parsed_a, parsed_w) == text, fid


def test_fractional_constants_travel_as_strings():
    a = Algebra.from_table(2, {(1, 1): {2: Fraction(2, 3)}})
    doc = algebra_to_dict(a, form_from_pairs(2, {(1, 2): Fraction(-1, 2)}))
    assert doc["products"][0]["value"] == [0, "2/3"]
    assert doc["form"] == [[1, 2, "-1/2"]]
    parsed_a, parsed_w = parse_algebra(dumps(doc))
    assert parsed_a.c == a.c
    assert parsed_w.w.entries[0][1] == Fraction(-1, 2)


def test_form_is_optional_and_absent_products_are_zero():
    a, w = parse_algebra('{"dim": 3, "products": []}')
    assert w is None
    assert all(x == 0 for row in a.c for v in row for x in v)
    assert "form" not in algebra_to_dict(a)


def test_invalid_json_reports_the_position():
    with pytest.raises(FileFormatError, match=r"line 2, column"):
        parse_algebra('{"dim": 2,\n "products": [}')


@pytest.mark.parametrize("doc, message", [
    ({}, "missing field: dim"),
    ({"dim": -1}, "non-negative"),
    ({"dim": True}, "non-negative"),
    ({"dim": 2, "labels": ["a"]}, "one entry per basis vector"),
    ({"dim": 2, "labels": "ab"}, "list of strings"),
    ({"dim": 2, "products": [{"left": 1, "value": [0, 0]}]},
     "missing field: right"),
    ({"dim": 2, "products": [{"left": 3, "right": 1, "value": [0, 0]}]},
     "left index out of range"),
    ({"dim": 2, "products": [{"left": 1, "right": 1, "value": [1]}]},
     "length 2"),
    ({"dim": 2, "products": [{"left": 1, "right": 1, "value": [1, 0]},
                             {"left": 1, "right": 1, "value": [0, 1]}]},
     "duplicate product"),
    ({"dim": 2, "products": [{"left": 1, "right": 1, "value": [0.5, 0]}]},
     "floats are not allowed"),
    ({"dim": 2, "form": [[2, 1, 1]]}, "strict upper-triangle"),
    ({"dim": 2, "form": [[1, 2, 1], [1, 2, 2]]}, "duplicate entry"),
    ({"dim": 2, "form": [[1, 5, 1]]}, "out of range"),
])
def test_malformed_algebra_documents_are_named(doc, message):
    with pytest.raises(FileFormatError, match=message):
        algebra_from_dict(doc)


_Z2 = [[0, 0], [0, 0]]


def extension_doc():
    return {
        "g": {"dim": 2, "products": [], "form": [[1, 2, 1]]},
        "p": 1,
        "F": [[[0, 0], [0, 0]]],
        "G": [[[0, 0], [0, 0]]],
        "theta": [[[0, 0]]],
        "psi": [[[0, 0]]],
        "xi": [[[0, 0]]],
        "omega": [[[0]]],
    }


def test_extension_file_with_inline_algebra():
    gs, data = parse_extension(dumps(extension_doc()))
    assert gs.dim == 2
    assert data.p == 1
    assert data.F[0].rows == 2


def test_extension_file_with_path_reference(tmp_path):
    (tmp_path / "g.json").write_text(
        '{"dim": 2, "products": [], "form": [[1, 2, 1]]}', encoding="utf-8")
    doc = extension_doc()
    doc["g"] = "g.json"
    gs, data = parse_extension(dumps(doc), base_dir=tmp_path)
    assert gs.dim == 2
    with pytest.raises(FileFormatError, match="cannot read g file"):
        doc["g"] = "missing.json"
        parse_extension(dumps(doc), base_dir=tmp_path)


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d.pop("omega"), "missing field: omega"),
    (lambda d: d.update(p=0), "positive integer"),
    (lambda d: d.update(p=True), "positive integer"),
    (lambda d: d.update(F=[[[0, 0]]]), "expected 2 rows"),
    (lambda d: d.update(F=[]), "expected 1 matrices"),
    (lambda d: d.update(theta=[[[0]]]), "theta"),
    (lambda d: d.update(omega=[[0]]), "omega"),
    (lambda d: d.update(omega=[[[0]], [[0]]]), r"^omega: expected 1 rows$"),
    (lambda d: d.update(omega=[[[0], [0]]]), r"^omega\[0\]: expected 1 entries$"),
    (lambda d: d.update(p=2, F=[_Z2] * 2, G=[_Z2] * 2, theta=[_Z2] * 2, psi=[_Z2] * 2,
                        xi=[_Z2] * 2, omega=[[[0], [0]], [[0], [0]]]),
     r"^omega\[0\]\[0\]: expected a vector of length 2$"),
    (lambda d: d["g"].pop("form"), "needs a form"),
    (lambda d: d.update(g=7), "inline algebra object or a path"),
])
def test_malformed_extension_documents_are_named(mangle, message):
    doc = extension_doc()
    mangle(doc)
    with pytest.raises(FileFormatError, match=message):
        parse_extension(dumps(doc))


def test_extension_g_must_be_lie_with_a_closed_form():
    doc = extension_doc()
    doc["g"]["products"] = [{"left": 1, "right": 1, "value": [0, 1]}]
    with pytest.raises(ValueError, match="not a Lie algebra") as err:
        parse_extension(dumps(doc))
    assert not isinstance(err.value, FileFormatError)


def _entry_sites():
    """(site, document with `bad` at one entry of that site, parser)."""
    def product(bad):
        return {"dim": 2, "products": [{"left": 1, "right": 2, "value": [0, bad]}]}

    def form(bad):
        return {"dim": 2, "form": [[1, 2, bad]]}

    def extension(key, bad):
        doc = extension_doc()
        doc[key][0][-1][-1] = bad
        return doc
    yield "products[0].value[1]", product, algebra_from_dict
    yield "form[0][2]", form, algebra_from_dict
    yield "F[0][1][1]", lambda bad: extension("F", bad), lambda d: parse_extension(dumps(d))
    yield "psi[0][0][1]", lambda bad: extension("psi", bad), lambda d: parse_extension(dumps(d))
    yield "omega[0][0][0]", lambda bad: extension("omega", bad), lambda d: parse_extension(dumps(d))


@pytest.mark.parametrize("site, make, parse", list(_entry_sites()), ids=lambda v: v
                         if isinstance(v, str) else "")
@pytest.mark.parametrize("bad, reason", [
    ("1/0", "'1/0' is not an integer or a fraction p/q with a nonzero denominator"),
    (0.5, "cannot interpret 0.5 as a rational (floats are not allowed)"),
    (True, "cannot interpret a bool as a rational"),
    (None, "cannot interpret None as a rational (floats are not allowed)"),
    # equal to the JSON 0 that the product parse skips, and still refused
    (False, "cannot interpret a bool as a rational"),
    (0.0, "cannot interpret 0.0 as a rational (floats are not allowed)"),
    (-0.0, "cannot interpret -0.0 as a rational (floats are not allowed)"),
])
def test_a_rejected_entry_names_its_position(site, make, parse, bad, reason):
    with pytest.raises(FileFormatError) as err:
        parse(make(bad))
    assert str(err.value) == f"{site}: {reason}"


@pytest.mark.parametrize("value", [0, 1, -64, 64, -65, 65, 10 ** 30, "-7/3"])
def test_entries_inside_and_outside_the_small_int_table_parse_exactly(value):
    doc = {"dim": 2, "products": [{"left": 1, "right": 2, "value": [0, value]}],
           "form": [[1, 2, value]]}
    algebra, form = algebra_from_dict(doc)
    assert algebra.c[0][1][1] == form.w.entries[0][1] == Fraction(value)
    assert type(algebra.c[0][1][1]) is Fraction


# file entries: JSON ints inside and far outside the small-int table, strings,
# and zeros written as "0", "-0" and "0/7"
_FILE_ENTRY = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70),
                        st.sampled_from(["0", "-0", "0/7", "-0/3", "5", "-2/6", "3/4", "65"]))


@st.composite
def algebra_files(draw, max_dim=5):
    n = draw(st.integers(1, max_dim))
    index = st.integers(1, n)
    cells = draw(st.lists(st.tuples(index, index), unique=True, max_size=n * n))
    doc = {"dim": n, "products": [
        {"left": i, "right": j, "value": draw(st.lists(_FILE_ENTRY, min_size=n, max_size=n))}
        for i, j in cells]}
    if n > 1 and draw(st.booleans()):
        upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        doc["form"] = [[i, j, draw(_FILE_ENTRY)]
                       for i, j in draw(st.lists(st.sampled_from(upper), unique=True))]
    return doc


@settings(max_examples=150, deadline=None)
@given(algebra_files())
def test_a_parsed_file_seeds_the_sparse_view_the_cache_would_compute(doc):
    a, form = algebra_from_dict(doc)
    assert "nz" in vars(a)
    plain = Algebra(a.dim, a.c, a.labels)
    assert a.nz == plain.nz
    # the int view at every scale, not only at 1
    assert a.int_nz == plain.int_nz
    assert a.int_nz[0] == math.lcm(*(x.denominator for row in a.c for v in row for x in v))
    assert all(x for row in a.nz for pairs in row for _, x in pairs)  # no zero enters
    for item in doc["products"]:
        assert a.c[item["left"] - 1][item["right"] - 1] == tuple(map(Fraction, item["value"]))
    if "form" in doc:
        want = form_from_pairs(a.dim, {(i, j): Fraction(x) for i, j, x in doc["form"]})
        assert form == want and form.nondegenerate == want.nondegenerate
    text = serialize_algebra(a, form)
    assert serialize_algebra(*parse_algebra(text)) == text


def _int_view(view):
    """The int values of a seeded int view (s, table): each an int, never a Fraction."""
    s, table = view
    assert type(s) is int
    return [v for row in table for pairs in row for _, v in pairs]


@settings(max_examples=300, deadline=None)
@given(st.one_of(algebra_files(max_dim=7), python_fraction_documents()))
def test_the_reader_seeds_the_int_views_the_lazy_ones_would_give(doc):
    """``int_nz`` and ``int_w`` come seeded from the reader, equal to what the
    lazy views give on the same algebra and form, tuples and ints alike, on
    files that mix JSON ints, "p/q" strings and (from Python) Fractions."""
    try:
        a, form = algebra_from_dict(doc)
    except FileFormatError:  # a damaged Python document
        assume(False)
    assert "int_nz" in vars(a)
    assert a.int_nz == Algebra(a.dim, a.c, a.labels).int_nz
    assert all(type(v) is int for v in _int_view(a.int_nz))
    if form is not None:
        assert "int_w" in vars(form)
        lazy = SkewForm._skew(form.w)
        assert form.int_w == lazy.int_w
        assert all(type(v) is int for v in _int_view((form.int_w[0], [form.int_w[1]])))
        assert form.nondegenerate == lazy.nondegenerate


def _sheared(a, form):
    """a and its form in the basis of an upper triangular P with fractional entries."""
    n = a.dim
    p = Matrix.from_rows([[1 if i == j else Fraction(j - i, 3) if j > i else 0
                           for j in range(n)] for i in range(n)])
    return change_basis(a, p), SkewForm(p.transpose() @ form.w @ p)


@pytest.mark.parametrize("fid", list_families())
def test_every_family_and_its_shear_round_trip_through_the_seeded_parse(fid):
    for algebra, form in (instantiate(fid), _sheared(*instantiate(fid))):
        text = serialize_algebra(algebra, form)
        parsed_a, parsed_w = parse_algebra(text)
        assert parsed_a == algebra and parsed_a.labels == algebra.labels
        assert parsed_w == form and parsed_w.nondegenerate == form.nondegenerate
        assert parsed_a.nz == algebra.nz and parsed_a.int_nz == algebra.int_nz
        assert serialize_algebra(parsed_a, parsed_w) == text


# ---------------------------------------------------------------------------
# the one-pass reader against the checked reader it replaced (tests/oracles.py)

def _read(reader, doc):
    """(c, nz, labels, Gram matrix or None) of the algebra read, or the message of a refusal."""
    try:
        a, form = reader(doc)
    except FileFormatError as exc:
        return str(exc)
    return a.c, a.nz, a.labels, None if form is None else form.w


@settings(max_examples=400, deadline=None)
@given(st.one_of(valid_algebra_documents(), damaged(valid_algebra_documents()),
                 python_fraction_documents()))
def test_the_one_pass_reader_reads_and_refuses_as_the_checked_oracle(doc):
    try:
        want = _read(oracles.algebra_from_dict, doc)
    except TypeError:  # the oracle iterates products and form without a check
        with pytest.raises(FileFormatError, match=r"^(products|form) must be a list$"):
            algebra_from_dict(doc)
    else:
        assert _read(algebra_from_dict, doc) == want


@pytest.mark.parametrize("key", ["products", "form"])
@pytest.mark.parametrize("value", [None, 5, 0.5, True])
def test_an_entry_list_that_cannot_be_iterated_is_refused(key, value):
    with pytest.raises(FileFormatError, match=f"^{key} must be a list$"):
        algebra_from_dict({"dim": 2, key: value})


def _table(reader, *args):
    try:
        return reader(*args)
    except FileFormatError as exc:
        return str(exc)


def _oracle_matrices(data, p, m, key):
    """The F or G list of an extension file as ``parse_extension`` read it before."""
    if not isinstance(data, list) or len(data) != p:
        raise FileFormatError(f"{key}: expected {p} matrices")
    return [oracles.matrix_from_json(rows, m, f"{key}[{i}]") for i, rows in enumerate(data)]


@settings(max_examples=200, deadline=None)
@given(st.one_of(valid_extension_documents(), damaged(valid_extension_documents(), fractions=True)))
def test_the_extension_grids_read_and_refuse_as_the_checked_oracles(doc):
    p = doc.get("p") if type(doc.get("p")) is int and 1 <= doc.get("p") <= 2 else 1
    for key in ("F", "G"):
        got = _table(_grid, doc.get(key), (p, 2, 2), key, _MATRICES)
        want = _table(_oracle_matrices, doc.get(key), p, 2, key)
        assert got == (want if isinstance(want, str) else [list(map(list, f.entries)) for f in want])
    for key, m in (("theta", 2), ("psi", 2), ("xi", 2), ("omega", p)):
        assert _table(_grid, doc.get(key), (p, p, m), key, _VECTORS) == \
            _table(oracles.vector_table_from_json, doc.get(key), p, m, key)


# ---------------------------------------------------------------------------
# the direct writer against the dict route, dumps(algebra_to_dict(...))

def _dict_route(algebra, form=None):
    return dumps(algebra_to_dict(algebra, form))


@pytest.mark.parametrize("fid", list_families())
def test_the_writer_equals_the_dict_route_on_every_family(fid):
    spec = get(fid)
    rng = random.Random(fid)
    for params in [spec.default_params()] + [spec.sample(rng) for _ in range(6)]:
        algebra, form = instantiate(fid, params)
        assert serialize_algebra(algebra, form) == _dict_route(algebra, form), params
        assert serialize_algebra(algebra) == _dict_route(algebra), params


_LABEL = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x7f", "é", "ω", "𝔤", '\\"', "e1"])


@st.composite
def fraction_algebras(draw, max_dim=5):
    n = draw(st.integers(0, max_dim))
    index = st.integers(1, max(n, 1))
    cells = draw(st.lists(st.tuples(index, index), unique=True, max_size=n * n)) if n else []
    value = st.fractions(max_denominator=7) | st.integers(-2 ** 70, 2 ** 70).map(Fraction)
    a = Algebra.from_table(n, {cell: {k: draw(value) for k in draw(st.sets(index, max_size=n))}
                               for cell in cells},
                           labels=draw(st.lists(_LABEL, min_size=n, max_size=n)) if n and
                           draw(st.booleans()) else ())
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    form = draw(st.sampled_from([None, "zero", "pairs"]))
    if form == "zero":
        form = form_from_pairs(n, {})
    elif form == "pairs":
        form = form_from_pairs(n, {cell: draw(value) for cell in
                                   draw(st.lists(st.sampled_from(upper), unique=True))}
                               if upper else {})
    return a, form


@settings(max_examples=200, deadline=None)
@given(fraction_algebras())
def test_the_writer_equals_the_dict_route_on_sparse_fraction_algebras(pair):
    algebra, form = pair
    text = serialize_algebra(algebra, form)
    assert text == _dict_route(algebra, form)
    # nested one level into another document, as extend --build --star prints two
    assert serialize_algebra(algebra, form, pad="  ") == text[:-1].replace("\n", "\n  ") + "\n"
    assert json.loads(text) == json.loads(_dict_route(algebra, form))


@pytest.mark.parametrize("algebra, form", [
    (Algebra(0, ()), None),
    (Algebra(0, ()), form_from_pairs(0, {})),
    (Algebra.from_table(3, {}), None),
    (Algebra.from_table(3, {}), form_from_pairs(3, {})),
    (Algebra.from_table(2, {}, labels=['say "hi"', "back\\slash"]), form_from_pairs(2, {(1, 2): 0})),
    (Algebra.from_table(2, {(1, 1): [0, 0]}, labels=["\x01", "ünï"]), form_from_pairs(2, {(1, 2): 3})),
], ids=["dim-0", "dim-0-form", "no-products", "zero-form", "escaped-labels", "zero-product"])
def test_the_writer_equals_the_dict_route_on_empty_cases(algebra, form):
    assert serialize_algebra(algebra, form) == _dict_route(algebra, form)


# ---------------------------------------------------------------------------
# the byte read keeps text mode's line ends and the UTF-8 refusal

_LINE3_ERROR = '{\n  "dim": 2,\n  "products": [}\n}\n'


def _text_mode_message(path):
    """The refusal the file got when it was read with ``Path.read_text``."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        return f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
    with pytest.raises(FileFormatError) as err:
        parse_algebra(text)
    return str(err.value)


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
def test_an_error_on_line_3_is_placed_as_text_mode_placed_it(tmp_path, end):
    path = tmp_path / "a.json"
    path.write_bytes(_LINE3_ERROR.replace("\n", end).encode())
    with pytest.raises(FileFormatError) as err:
        load_algebra(path)
    assert str(err.value) == _text_mode_message(path)
    assert str(err.value).startswith("invalid JSON at line 3, column 16: ")


@pytest.mark.parametrize("data", [
    b'{"dim": 1, "labels": ["\xe9"]}', b'{"dim": 1}\xc3', b'\xef\xbb\xbf{"dim": 1, "x": "\xed\xa0\x80"}',
], ids=["latin-1", "truncated-sequence", "surrogate"])
def test_bytes_that_are_not_utf8_keep_their_message(tmp_path, data):
    path = tmp_path / "a.json"
    path.write_bytes(data)
    with pytest.raises(FileFormatError) as err:
        load_algebra(path)
    assert str(err.value) == _text_mode_message(path)
    assert " is not UTF-8 text: " in str(err.value)


def test_a_bom_is_refused_as_text_mode_refused_it(tmp_path):
    path = tmp_path / "a.json"
    path.write_bytes(b'\xef\xbb\xbf{"dim": 1}')
    with pytest.raises(FileFormatError) as err:
        load_algebra(path)
    assert str(err.value) == _text_mode_message(path)
