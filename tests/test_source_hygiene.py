"""Source hygiene of the package, read with the stdlib ``ast`` module.

No module of ``src/sympleib`` imports a name it never uses, and no private
top-level function goes unreferenced across the package (dunder hooks such
as a module ``__getattr__`` are called by the interpreter).  ``from __future__``
imports and the re-exports of ``__init__.py`` are exempt.  Only ``exactlin``
scales a Fraction table to ints (``int_scaled``): no other module divides by
a ``.denominator``.  In ``catalog``, every family written down as a table
goes through the one builder ``_table``: no other code there builds an
algebra or a form from a table, except the two shared bases.  In
``extension``, every h + g + h* construction goes through one block filler
and one form helper.  Every keyed fact is kept by ``reporting.kept``: no
other code writes an instance's attributes past its class, except the
constructors of the frozen classes, ``Algebra._sparse`` (which sets the
fields and seeds ``int_nz``) and two seeds of cached views.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sympleib"


def _unused_imports(tree: ast.Module) -> list[str]:
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in loaded:
                    unused.append(name)
    return unused


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_no_unused_imports_or_unreferenced_private_functions():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "extension.py" in trees
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    problems = []
    for name, tree in trees.items():
        if name != "__init__.py":
            problems += [f"{name}: unused import {imp}" for imp in _unused_imports(tree)]
        problems += [f"{name}: unreferenced private function {node.name}"
                     for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                     and not (node.name.startswith("__") and node.name.endswith("__"))
                     and node.name not in referenced]
    assert problems == []


def _denominator_divisions(tree: ast.Module) -> list[int]:
    """The lines of each ``//`` whose right operand is a ``.denominator`` attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
            and isinstance(node.right, ast.Attribute) and node.right.attr == "denominator"]


def test_only_exactlin_scales_fractions_to_ints():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py")) if path.name != "exactlin.py"
             for line in _denominator_divisions(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def _owners(tree: ast.Module, hit, methods: bool = False) -> set[str | None]:
    """The top-level definitions holding a node for which ``hit`` holds; with
    ``methods``, a method of a class is named ``Class.method``.  None stands
    for module-level code."""
    found = set()
    for top in tree.body:
        if methods and isinstance(top, ast.ClassDef):
            parts = [(f"{top.name}.{part.name}" if isinstance(part, ast.FunctionDef)
                      else top.name, part) for part in top.body]
        else:
            parts = [(top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None,
                      top)]
        found.update(owner for owner, part in parts if any(map(hit, ast.walk(part))))
    return found


def _callers(tree: ast.Module, names: set[str]) -> set[str | None]:
    """The top-level definitions (``_owners``) that call one of ``names``, as
    a bare name or an attribute."""
    def calls(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) in names
    return _owners(tree, calls)


def test_catalog_builds_its_tables_through_one_builder():
    tree = ast.parse((SRC / "catalog.py").read_text(encoding="utf-8"))
    assert _callers(tree, {"from_table", "form_from_pairs"}) == \
        {"_table", "_abelian2_base", "_rr3_base"}


def test_every_h_g_hstar_build_fills_through_the_one_assembly():
    """In ``extension``, the block filler serves the double extension, its
    star and the rank-one layout only, and the form helper the double
    extension and the rank-one build only: the special builders hand their
    data to ``build_double_extension``."""
    tree = ast.parse((SRC / "extension.py").read_text(encoding="utf-8"))
    assert _callers(tree, {"_fill"}) == \
        {"_assemble_double_extension", "build_left_symmetric", "rank_one_star", "build_rank_one"}
    assert _callers(tree, {"_form"}) == {"_assemble_double_extension", "build_rank_one"}


def _instance_dict(node) -> bool:
    """Whether node is ``x.__dict__`` or ``vars(x)``."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or \
        (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars")


def _sets_attributes(node) -> bool:
    """A store into ``x.__dict__`` or ``vars(x)``, a write through one of their
    methods, or a call of ``object.__setattr__``."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _instance_dict(node.value)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        func = node.func
        if func.attr == "__setattr__":
            return getattr(func.value, "id", None) == "object"
        return func.attr in {"update", "setdefault", "pop", "popitem", "clear", "__setitem__"} \
            and _instance_dict(func.value)
    return False


def _frozen_classes(tree: ast.Module) -> set[str]:
    """The classes built on the frozen-record base ``Record``."""
    return {top.name for top in tree.body if isinstance(top, ast.ClassDef)
            and any(getattr(base, "id", None) == "Record" for base in top.bases)}


def test_every_keyed_fact_is_kept_by_the_one_helper():
    """Writes to an instance's ``__dict__`` or ``vars(...)``, and calls of
    ``object.__setattr__``, appear in ``src`` only in ``reporting.kept``, the
    ``__init__`` of a frozen class, ``Check.__init__``, ``Algebra._sparse``,
    which sets the fields and seeds the cached ``int_nz``, and the seeds of
    cached views ``exactlin.row_space`` (``int_pivots``) and
    ``SkewForm._skew`` (``w`` and ``nondegenerate``): no hand-written memo
    is left beside ``kept``."""
    seeds = {"algebra.Algebra._sparse", "exactlin.row_space", "symplectic.SkewForm._skew"}
    allowed = seeds | {"reporting.kept", "reporting.Check.__init__"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree, module = ast.parse(path.read_text(encoding="utf-8")), path.stem
        allowed |= {f"{module}.{name}.__init__" for name in _frozen_classes(tree)}
        found |= {f"{module}.{owner}" for owner in _owners(tree, _sets_attributes, methods=True)}
    assert found - allowed == set()
    assert seeds | {"reporting.kept", "extension.ExtensionData.__init__"} <= found
