"""Exact-arithmetic toolkit for symplectic left and right Leibniz algebras.

Everything runs over the rationals: identity checks return witnesses at
exact basis triples, compatible skew forms are solved for as linear
systems, star products and core decompositions come out of exact solves,
and double extensions are checked and rebuilt entry for entry.  The
``catalog`` module carries the verified example families; ``cli`` exposes
the whole kernel on files.

``extension``, ``catalog`` and ``core`` are registered unrun and run on their
first attribute access, so ``omega``, ``check`` and ``star`` compile none of
them; their re-exports resolve through the module ``__getattr__`` (PEP 562),
and ``sympleib.core`` is the function.  An import statement that names a
lazy module runs it, so ``fileformat``, ``catalog`` and ``cli`` reach
``extension`` as ``extension.name``, and ``cli`` imports ``core``, at call time.
"""

import importlib.util
import sys


def _lazy(name: str):
    """``sympleib.<name>``, registered in ``sys.modules`` unrun: it compiles
    and runs on its first attribute access (``importlib.util.LazyLoader``)."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


# registered before fileformat imports, which reaches extension through the module
extension = _lazy("extension")
catalog = _lazy("catalog")
_core = _lazy("core")  # not bound as ``core``: that name is the function

from sympleib.algebra import (
    Algebra,
    center,
    change_basis,
    derivations,
    is_left_leibniz,
    is_left_symmetric,
    is_lie,
    is_right_leibniz,
    is_symmetric_leibniz,
    leibniz_ideal,
    multiply,
    opposite,
    quotient,
)
from sympleib.exactlin import (
    Matrix,
    Rational,
    Subspace,
    basis_vector,
    intersect,
    kernel,
    rat,
    rref,
    solve,
    span,
    vector,
)
from sympleib.fileformat import (
    FileFormatError,
    load_algebra,
    load_extension,
    parse_algebra,
    parse_extension,
    serialize_algebra,
)
from sympleib.reporting import Check, SystemReport, Witness
from sympleib.symplectic import (
    SkewForm,
    SymplecticAlgebra,
    find_nondegenerate,
    form_from_pairs,
    is_bi_symplectic,
    is_isotropic,
    is_lagrangian,
    is_symplectic_left,
    is_symplectic_right,
    omega,
    orthogonal,
    solve_symplectic_forms,
    star_left,
    star_right,
)


def __getattr__(name: str):
    # the names of __all__ that no import above binds are core's or extension's
    if name in {"CoreDecomposition", "CoreError", "core", "verify_core_properties"}:
        return getattr(_core, name)
    if name in __all__:
        return getattr(extension, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


__all__ = [
    "Algebra",
    "Check",
    "CoreDecomposition",
    "CoreError",
    "ExtensionData",
    "FileFormatError",
    "Matrix",
    "Rational",
    "SkewForm",
    "Subspace",
    "SymplecticAlgebra",
    "SymplecticLie",
    "SystemReport",
    "Witness",
    "basis_vector",
    "build_bisymplectic_from_T",
    "build_commutative_bisymplectic",
    "build_double_extension",
    "build_inner_extension",
    "build_lagrangian",
    "build_left_symmetric",
    "build_rank_one",
    "center",
    "change_basis",
    "check_full_system",
    "check_isotropic_system",
    "check_rank_one",
    "check_reduced_system",
    "core",
    "derivations",
    "find_nondegenerate",
    "form_from_pairs",
    "intersect",
    "is_bi_symplectic",
    "is_isotropic",
    "is_lagrangian",
    "is_left_leibniz",
    "is_left_symmetric",
    "is_lie",
    "is_right_leibniz",
    "is_symmetric_leibniz",
    "is_symplectic_left",
    "is_symplectic_right",
    "kernel",
    "leibniz_ideal",
    "load_algebra",
    "load_extension",
    "multiply",
    "omega",
    "opposite",
    "orthogonal",
    "parse_algebra",
    "parse_extension",
    "quotient",
    "rank_one_extension",
    "rank_one_star",
    "rat",
    "rref",
    "serialize_algebra",
    "solve",
    "solve_symplectic_forms",
    "span",
    "star_left",
    "star_right",
    "vector",
    "verify_core_properties",
]
