"""Hypothesis strategies for broken input: valid algebra files, extension
files and ``--params`` values, each damaged the way a hand-edited or hostile
file is.

Document damage (``damaged``) replaces a value anywhere in the tree with one
of the wrong types, bools, floats, bad rationals, out-of-range or huge
indices of ``BAD_VALUES``, drops a key or an entry, doubles an entry, or
nests a value one level deeper.  Byte damage
(``damaged_bytes``) then truncates the text, switches its line ends to
"\\r\\n" or a lone "\\r", prepends a BOM, inserts bytes that are not UTF-8,
nests a value too deeply for the JSON parser, or writes an integer literal
of 4301 digits.
"""

import copy
import json
from fractions import Fraction

from hypothesis import strategies as st

from sympleib.catalog import extension_data, get, instantiate, list_families
from sympleib.fileformat import algebra_to_dict, rational_to_json

# 4301 digits: one above Python's default limit for converting a string to an int
HUGE_DIGITS = "9" * 4301

BAD_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0.5, -0.0, 2.0, "1/0", "-3/0", "1e3", "0.5", "",
                     "-", "1/-2", " 1", "x", "0x10", [], {}, [1], {"a": 1}, "1/2", "-7",
                     HUGE_DIGITS, 10 ** 40, -1, 0, 48, 49]),
    st.integers(-3, 60),
    st.text(max_size=4),
)

_ENTRY = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-2/3", "0", "5", "0/4"]))

# the small catalog instances (dim at most 4), whose products and forms are compatible
_CATALOG_DOCS = [algebra_to_dict(*pair) for pair in map(instantiate, list_families())
                 if pair[0].dim <= 4]


@st.composite
def random_algebra_documents(draw, max_dim=4):
    """A well-formed algebra document with a few random products and form entries."""
    n = draw(st.integers(0, max_dim))
    doc = {"dim": n}
    if n and draw(st.booleans()):
        doc["labels"] = [f"x{i}" for i in range(1, n + 1)]
    index = st.integers(1, max(n, 1))
    cells = draw(st.lists(st.tuples(index, index), unique=True, max_size=4)) if n else []
    doc["products"] = [{"left": i, "right": j,
                        "value": draw(st.lists(_ENTRY, min_size=n, max_size=n))}
                       for i, j in cells]
    upper = [[i, j] for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    if draw(st.booleans()):
        doc["form"] = [[*cell, draw(_ENTRY)] for cell in
                       draw(st.lists(st.sampled_from(upper), unique_by=tuple, max_size=4))] \
            if upper else []
    return doc


def valid_algebra_documents():
    return st.one_of(st.sampled_from(_CATALOG_DOCS).map(copy.deepcopy),
                     random_algebra_documents())


def _extension_doc(fid: str) -> dict:
    gs, d = extension_data(fid)

    def vectors(grid):
        return [[[rational_to_json(x) for x in v] for v in row] for row in grid]
    return {"g": algebra_to_dict(gs.g, gs.form), "p": d.p,
            "F": [[[rational_to_json(x) for x in row] for row in f.entries] for f in d.F],
            "G": [[[rational_to_json(x) for x in row] for row in g.entries] for g in d.G],
            "theta": vectors(d.theta), "psi": vectors(d.psi), "xi": vectors(d.xi),
            "omega": vectors(d.omega_cube)}


_EXTENSION_DOCS = [_extension_doc(fid) for fid in ("ABEL2_CASE1", "ABEL2_CASE2")]


def _zero_extension_doc(p: int) -> dict:
    """Zero data over the abelian plane with its standard form."""
    def zeros(m):
        return [[[0] * m for _ in range(p)] for _ in range(p)]
    return {"g": {"dim": 2, "products": [], "form": [[1, 2, 1]]}, "p": p,
            "F": [[[0, 0], [0, 0]] for _ in range(p)], "G": [[[0, 0], [0, 0]] for _ in range(p)],
            "theta": zeros(2), "psi": zeros(2), "xi": zeros(2), "omega": zeros(p)}


def valid_extension_documents():
    return st.one_of(st.sampled_from(_EXTENSION_DOCS).map(copy.deepcopy),
                     st.integers(1, 2).map(_zero_extension_doc))


def _slots(node, out):
    """Every (container, key) pair in the tree below node."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = list(range(len(node)))
    else:
        return out
    for key in keys:
        out.append((node, key))
        _slots(node[key], out)
    return out


@st.composite
def damaged(draw, documents, fractions=False):
    """A document of ``documents`` with one to three slots damaged; with
    ``fractions``, a replaced value may also be a Python Fraction."""
    doc = draw(documents)
    values = st.one_of(BAD_VALUES, st.fractions(max_denominator=5)) if fractions else BAD_VALUES
    for _ in range(draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = draw(st.sampled_from(slots))
        how = draw(st.sampled_from(["replace", "replace", "drop", "double", "nest"]))
        if how == "replace":  # a copy: the sampled lists and dicts are shared
            node[key] = copy.deepcopy(draw(values))
        elif how == "drop":
            del node[key]
        elif how == "double" and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        else:
            node[key] = [node[key]]
    return doc


def python_fraction_documents():
    """Algebra documents as a Python caller may hand them in: entries that are
    Fractions, some of them damaged as well."""
    @st.composite
    def with_fractions(draw):
        doc = draw(random_algebra_documents())
        for item in doc["products"]:
            item["value"] = [Fraction(x) if draw(st.booleans()) else x for x in item["value"]]
        for entry in doc.get("form", []):
            entry[2] = Fraction(entry[2]) if draw(st.booleans()) else entry[2]
        return doc
    return st.one_of(with_fractions(), damaged(with_fractions(), fractions=True))


@st.composite
def damaged_bytes(draw, doc):
    """The file bytes of ``doc`` (indent-2 JSON), damaged at the byte level or not."""
    text = json.dumps(doc, indent=2)
    how = draw(st.sampled_from(["none", "none", "truncate", "crlf", "cr", "bom",
                                "not-utf8", "deep", "huge-int"]))
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    elif how == "crlf":
        text = text.replace("\n", "\r\n")
    elif how == "cr":
        text = text.replace("\n", "\r")
    elif how in ("deep", "huge-int"):
        digits = [k for k, ch in enumerate(text) if ch.isdigit()]
        if digits:
            k = draw(st.sampled_from(digits))
            text = text[:k] + ("[" * 5000 + "0" + "]" * 5000 if how == "deep"
                               else HUGE_DIGITS) + text[k + 1:]
    data = text.encode("utf-8")
    if how == "bom":
        data = b"\xef\xbb\xbf" + data
    elif how == "not-utf8":
        k = draw(st.integers(0, len(data)))
        data = data[:k] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe9t\xe9", b"\xed\xa0\x80"])) \
            + data[k:]
    return data


@st.composite
def params_arguments(draw):
    """``catalog build`` arguments: a family id (or an unknown one) and
    ``--params`` values that are often wrong."""
    fids = list_families()
    fid = draw(st.sampled_from(fids + ("NO_SUCH_FAMILY",)))
    names = list(get(fid).param_names) if fid in fids else []
    name = st.sampled_from(names + ["zz", ""]) if names else st.sampled_from(["zz", ""])
    value = st.one_of(st.integers(-3, 3).map(str),
                      st.sampled_from(["1/0", "1e3", "0.5", "", "-", "1/2", "-2/3", "x", "True",
                                       HUGE_DIGITS, "=", "0/5", " 2"]),
                      st.text(max_size=4))
    pair = st.builds(lambda n, v, sep: f"{n}{sep}{v}", name, value,
                     st.sampled_from(["=", "=", ":", ""]))
    return [fid, "--params", *draw(st.lists(pair, max_size=3))]
