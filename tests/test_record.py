"""The frozen-record contract of the value classes (``reporting.Record``).

Every value class is a ``Record``: a field can be neither assigned nor
deleted, ``==`` and ``hash`` follow the tuple of fields and refuse another
class, the repr is the one ``dataclasses`` printed for the same fields, and
``replace`` builds a new object through the class's constructor.  The
``dataclasses`` oracle lives here only: the package does not import it.
"""

import dataclasses
from fractions import Fraction

import pytest

from sympleib.algebra import Algebra
from sympleib.catalog import Constraint, FamilySpec, extension_data, get, instantiate
from sympleib.core import CoreDecomposition, core
from sympleib.exactlin import Matrix, Subspace, span
from sympleib.extension import ExtensionData, SymplecticLie, _Layout, _layout, zero_grid
from sympleib.reporting import Check, Record, SystemReport, Witness, replace
from sympleib.symplectic import SkewForm, SymplecticAlgebra, form_from_pairs


def _x(params):
    return params["x"]


def _witness():
    return Witness("antisymmetry", (0, 1), (Fraction(0), Fraction(1, 2)))


# class -> (its fields in order, a maker that builds an equal object on each
# call, and a field with a new value for replace, or None where the
# constructor does not take the fields: Algebra takes the dense tensor c,
# SymplecticLie derives its star)
CASES = {
    Matrix: (("rows", "cols", "entries"), lambda: Matrix.identity(2),
             ("entries", Matrix.from_rows([[1, 2], [0, 1]]).entries)),
    Subspace: (("ambient_dim", "basis"), lambda: span(3, [[1, 0, 2]]),
               ("basis", span(3, [[0, 1, 0]]).basis)),
    Witness: (("kind", "indices", "defect"), _witness, ("indices", (1, 1))),
    Check: (("name", "holds", "detail", "witness"),
            lambda: Check("lie", False, witness=_witness()), ("name", "reduced-algebra-is-lie")),
    SystemReport: (("title", "checks"), lambda: SystemReport("t", (Check("x", True),)),
                   ("title", "u")),
    Algebra: (("dim", "nz", "labels"), lambda: Algebra.from_table(2, {(1, 2): {1: "1/2"}}),
              None),
    SkewForm: (("w",), lambda: form_from_pairs(2, {(1, 2): 1}),
               ("w", form_from_pairs(2, {(1, 2): 3}).w)),
    SymplecticAlgebra: (("algebra", "form", "side"),
                        lambda: SymplecticAlgebra(*instantiate("R4_LEFT")),
                        ("form", SkewForm(instantiate("R4_LEFT")[1].w.scale(2)))),
    CoreDecomposition: (("ideal", "ideal_perp", "reduced", "reduced_lift", "h_dim", "h_lift"),
                        lambda: core(*instantiate("R4_LEFT")), ("h_dim", 7)),
    SymplecticLie: (("g", "form", "star"), lambda: extension_data("ABEL2_CASE1")[0], None),
    ExtensionData: (("p", "F", "G", "theta", "psi", "xi", "omega_cube"),
                    lambda: extension_data("ABEL2_CASE1")[1], ("theta", zero_grid(1, 2))),
    _Layout: (("h", "g", "hs", "labels"), lambda: _layout(1, ("x", "y")), ("hs", (9,))),
    Constraint: (("name", "kind", "value"), lambda: Constraint("x-zero", "zero", _x),
                 ("kind", "nonzero")),
    FamilySpec: (("id", "description", "param_names", "defaults", "constraints", "builder",
                  "claims", "sampler", "extra_checks"), lambda: get("BS4_G"),
                 ("description", "another description")),
}

CLASSES = list(CASES)


def _values(obj):
    return tuple(getattr(obj, f) for f in CASES[type(obj)][0])


def test_every_value_class_is_a_record_with_its_fields():
    assert {cls for cls in CLASSES if issubclass(cls, Record)} == set(CLASSES)
    assert all(cls._fields == CASES[cls][0] for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_no_field_can_be_assigned_or_deleted(cls):
    fields, make, _ = CASES[cls]
    obj = make()
    before = _values(obj)
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(obj, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(obj, field)
    assert _values(obj) == before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_fields_and_refuse_another_class(cls):
    obj, again = CASES[cls][1](), CASES[cls][1]()
    assert obj == again and hash(obj) == hash(again) == hash(_values(obj))
    assert obj != _values(obj) and obj.__eq__(_values(obj)) is NotImplemented
    other = CASES[CLASSES[CLASSES.index(cls) - 1]][1]()
    assert obj != other and obj.__eq__(other) is NotImplemented


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not Algebra],
                         ids=lambda cls: cls.__name__)
def test_repr_is_the_one_dataclasses_printed(cls):
    fields, make, _ = CASES[cls]
    obj = make()
    oracle = dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)
    assert repr(obj) == repr(oracle(*_values(obj)))
    assert repr(obj).startswith(f"{cls.__qualname__}({fields[0]}=")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_replace_builds_an_equal_object_that_carries_the_change(cls):
    fields, make, change = CASES[cls]
    obj = make()
    if change is None:
        # as dataclasses.replace did: the constructor takes other arguments
        with pytest.raises(TypeError):
            replace(obj)
        return
    field, value = change
    same = replace(obj)
    assert same == obj and same is not obj
    changed = replace(obj, **{field: value})
    assert getattr(changed, field) == value and changed != obj
    assert replace(changed, **{field: getattr(obj, field)}) == obj
    assert all(getattr(changed, f) == getattr(obj, f) for f in fields if f != field)


def test_replace_runs_the_constructor_checks():
    with pytest.raises(ValueError, match="row count mismatch"):
        replace(Matrix.identity(2), rows=3)
    with pytest.raises(ValueError, match="side must be"):
        replace(SymplecticAlgebra(*instantiate("R4_LEFT")), side="up")
