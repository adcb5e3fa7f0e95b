"""Named algebra families with constraints, claims and a seeded verifier.

Each family packages one of the concrete models the library is built
around: the two- and four-dimensional bi-symplectic classification, the
flat example on the plane and on four-space, the solvable Lie algebra
rr(3,-1), and the parameterized extension families over two-dimensional
and four-dimensional cores.

A family is one ``_family`` row of the registry: its id, a description,
its defaults, whose keys in order are its parameter names, its
constraints, its builder and its claims.  Most families are written down
as a table: their builder is ``_table(dim, form, products)``, where
``products`` takes the parameters by name and returns the 1-based sparse
product table of ``Algebra.from_table``, and ``form`` is the
upper-triangle pairs of the form, or a function of the parameters giving
them.  The extension families over the abelian plane are declared by
their data maker in ``_EXTENSION_DATA``, and the rank-one family over
rr(3,-1) is a table checked against its solved data.  Extra checks build
what ``verify`` reads the claims off: the table, or an equal kept build.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from typing import Callable, Mapping

from . import extension
from .algebra import (
    Algebra,
    is_left_leibniz,
    is_lie,
    is_right_leibniz,
    is_symmetric_leibniz,
)
from .exactlin import HALF, Matrix, Rational, rat
from .reporting import Check, Record, SystemReport
from .symplectic import (
    SkewForm,
    form_from_pairs,
    is_bi_symplectic,
    is_symplectic_left,
    is_symplectic_right,
)

Params = dict[str, Rational]


class Constraint(Record):
    """A polynomial predicate on parameters, required =0 or !=0."""

    name: str
    kind: str  # "nonzero" or "zero"
    value: Callable[[Params], Rational]

    def __init__(self, name: str, kind: str, value: Callable[[Params], Rational]):
        self.__dict__.update(name=name, kind=kind, value=value)

    def satisfied(self, params: Params) -> bool:
        v = self.value(params)
        return v != 0 if self.kind == "nonzero" else v == 0


class FamilySpec(Record):
    id: str
    description: str
    defaults: tuple[tuple[str, Rational], ...]
    constraints: tuple[Constraint, ...]
    builder: Callable[[Params], tuple[Algebra, SkewForm]]
    claims: tuple[str, ...]
    sampler: Callable[[random.Random], Params] | None
    # params -> (checks, (algebra, form)): its own checks and the pair verify reads claims off
    extra_checks: Callable[[Params], tuple[list[Check], tuple[Algebra, SkewForm]]] | None

    def __init__(self, id, description, defaults, constraints, builder, claims, sampler,
                 extra_checks):
        self.__dict__.update(id=id, description=description, defaults=defaults,
                             constraints=constraints, builder=builder, claims=claims,
                             sampler=sampler, extra_checks=extra_checks)

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.defaults)

    def default_params(self) -> Params:
        return dict(self.defaults)

    def sample(self, rng: random.Random) -> Params:
        if self.sampler is not None:
            return self.sampler(rng)
        return _generic_sample(self, rng)


def _generic_sample(spec: FamilySpec, rng: random.Random,
                    attempts: int = 400) -> Params:
    for _ in range(attempts):
        params: Params = {name: Fraction(rng.randint(-6, 6))
                          for name in spec.param_names}
        if all(c.satisfied(params) for c in spec.constraints):
            return params
    raise RuntimeError(f"could not sample parameters for {spec.id}")


def _nonzero(name: str) -> Constraint:
    return Constraint(f"{name}-nonzero", "nonzero", lambda p, n=name: p[n])


# ---------------------------------------------------------------------------
# shared bases


@cache
def _abelian2_base() -> extension.SymplecticLie:
    g = Algebra.from_table(2, {}, labels=("e1", "e2"))
    return extension.SymplecticLie(g, form_from_pairs(2, {(1, 2): 1}))


@cache
def _rr3_base() -> extension.SymplecticLie:
    g = Algebra.from_table(4, {
        (1, 2): {2: 1}, (2, 1): {2: -1},
        (1, 3): {3: -1}, (3, 1): {3: 1},
    }, labels=("e1", "e2", "e3", "e4"))
    return extension.SymplecticLie(g, form_from_pairs(4, {(1, 4): 1, (2, 3): 1}))


# ---------------------------------------------------------------------------
# builders

W_14_23 = {(1, 4): 1, (2, 3): 1}
W_12_34 = {(1, 2): 1, (3, 4): 1}
W_13_24 = {(1, 3): 1, (2, 4): 1}


def _table(dim: int, form, products: Callable[..., Mapping], labels: tuple[str, ...] = ()
           ) -> Callable[[Params], tuple[Algebra, SkewForm]]:
    """The builder of a family written down as a table: ``products(**params)``
    is its 1-based sparse product table and ``form`` its upper-triangle pairs,
    or a function of the parameters giving them; the labels default to e1, e2, ..."""
    labels = labels or tuple(f"e{i + 1}" for i in range(dim))

    def build(p: Params) -> tuple[Algebra, SkewForm]:
        return (Algebra.from_table(dim, products(**p), labels=labels),
                form_from_pairs(dim, form(**p) if callable(form) else form))
    return build


def _abel2_case1_data(p: Params) -> extension.ExtensionData:
    al, be, psi1, xi1 = p["alpha"], p["beta"], p["psi1"], p["xi1"]
    S = Matrix.from_rows([[0, al], [0, 0]])
    F = Matrix.from_rows([[0, be], [0, 0]])
    return extension.ExtensionData(1, [F], [S - F],
                                   [[[HALF * (psi1 + xi1), 0]]],
                                   [[[psi1, 0]]], [[[xi1, 0]]], [[[p["om"]]]])


def _abel2_case2_data(p: Params) -> extension.ExtensionData:
    A = Matrix.from_rows([[p["a11"], p["a12"]], [p["a21"], -p["a11"]]])
    F = A.scale(p["alpha"])
    c = [p["c1"], p["c2"]]
    return extension.ExtensionData(1, [F], [F.scale(-1)], [[[0, 0]]], [[c]],
                                   [[[-x for x in c]]], [[[p["om"]]]])


# the extension families over the abelian plane, each declared by its data
_EXTENSION_DATA: dict[str, Callable[[Params], extension.ExtensionData]] = {
    "ABEL2_CASE1": _abel2_case1_data, "ABEL2_CASE2": _abel2_case2_data}


def _rr3_solution(p: Params) -> tuple[Matrix, Matrix, tuple, tuple, Rational]:
    b1, b2, b3, b = p["b1"], p["b2"], p["b3"], p["b"]
    F = Matrix.from_rows([
        [0, 0, 0, 0],
        [b1, -b, 0, 0],
        [b2, 0, b, 0],
        [b3, 0, 0, 0],
    ])
    S = Matrix.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                          [p["s"], 0, 0, 0]])
    a0 = (p["z"], b1 * b, b2 * b, p["y"])
    c0 = (0, 0, 0, p["x"])
    b0 = tuple(2 * c - a for c, a in zip(c0, a0))
    return F, S, a0, b0, p["lam"]


_RR3_FORM = {(1, 4): 1, (2, 3): 1, (5, 6): -1}
_RR3_RAW_DEFAULTS = {"b1": 2, "b2": -1, "b3": 3, "b": 4, "s": 5, "x": -2, "y": 6, "z": 0,
                     "lam": 7}
_RR3_DEFAULTS = {"b1": 2, "b2": -1, "b3": 3, "s": 5, "x": -2, "y": 6, "z": 0, "lam": 7}
_RR3_CONSTRAINTS = (Constraint("zx-zero", "zero", lambda p: p["z"] * p["x"]),
                    Constraint("zs-zero", "zero", lambda p: p["z"] * p["s"]))

_RR3_RAW = _table(6, _RR3_FORM, lambda b1, b2, b3, b, s, x, y, z, lam: {
    (5, 1): {2: b1, 3: b2, 4: b3, 6: -y},
    (5, 2): {2: -b, 6: -b2 * b},
    (5, 3): {3: b, 6: b1 * b},
    (1, 5): {2: -b1, 3: -b2, 4: s - b3, 6: y - 2 * x},
    (2, 5): {2: b, 6: b2 * b},
    (3, 5): {3: -b, 6: -b1 * b},
    (5, 4): {6: z}, (4, 5): {6: -z},
    (1, 2): {2: 1, 6: b2}, (2, 1): {2: -1, 6: -b2},
    (1, 3): {3: -1, 6: -b1}, (3, 1): {3: 1, 6: b1},
    (1, 1): {6: -HALF * s},
    (5, 5): {4: x, 6: lam},
})


def _rr3_b0_products(b1, b2, b3, s, x, y, z, lam) -> dict:
    """The table of RR3_SIXDIM_B0; RR3_SIXDIM_BNE0 adds the action of e5 on e2, e3."""
    yy = y + 2 * b2 * b1
    return {
        (5, 1): {4: b3, 6: -yy},
        (1, 5): {4: s - b3, 6: yy - 2 * x},
        (5, 4): {6: z}, (4, 5): {6: -z},
        (1, 2): {2: 1}, (2, 1): {2: -1},
        (1, 3): {3: -1}, (3, 1): {3: 1},
        (1, 1): {6: -HALF * s},
        (5, 5): {4: x, 6: lam},
    }


# ---------------------------------------------------------------------------
# samplers and extra verification routes


def _rr3_sampler(names):
    def draw(rng: random.Random) -> Params:
        params: Params = {n: Fraction(rng.randint(-6, 6)) for n in names}
        if rng.choice((True, False)):
            params["z"] = Fraction(0)
        else:
            params["x"] = Fraction(0)
            params["s"] = Fraction(0)
        return params
    return draw


def _bs4_m_sampler(rng: random.Random) -> Params:
    x = Fraction(0)
    while x == 0:
        x = Fraction(rng.randint(-6, 6))
    return {"x": x, "s": Fraction(rng.choice((1, -1)))}


def _system_check(name: str, rep: SystemReport) -> Check:
    """One catalog check for a whole criterion report, naming its failed equations."""
    return Check(name, rep.ok, "" if rep.ok else
                 "failed: " + ", ".join(c.name for c in rep.failed()))


def _rr3_raw_checks(params: Params) -> tuple[list[Check], tuple[Algebra, SkewForm]]:
    """The rank-one criterion on the solved data and, when it holds, the
    build compared with the display table; returned with the checks is the
    build when it equals the table (its reports are kept), else the table."""
    gs, table = _rr3_base(), _RR3_RAW(params)
    d = extension.rank_one_extension(*_rr3_solution(params))
    rep = extension.check_rank_one(gs, d)
    checks = [_system_check("rank-one-system", rep)]
    if rep.ok:
        built = extension.build_rank_one(gs, d)
        checks += [Check("construction-matches-display", built[0].nz == table[0].nz),
                   Check("form-matches-display", built[1].w == table[1].w)]
        table = built if all(c.holds for c in checks) else table
    return checks, table


# ---------------------------------------------------------------------------
# the registry

BISYM = ("symmetric-leibniz", "bi-symplectic", "non-lie")
_LEFT = ("left-leibniz", "left-symplectic")
_X, _XA = {"x": 1}, {"x": 1, "a": 2}
_X_NONZERO, _XA_NONZERO = [_nonzero("x")], [_nonzero("x"), _nonzero("a")]


def _family(fid, description, defaults, constraints, builder, claims,
            sampler=None, extra=None) -> FamilySpec:
    return FamilySpec(fid, description, tuple((k, rat(v)) for k, v in defaults.items()),
                      tuple(constraints), builder, tuple(claims), sampler, extra)


def _extension_family(fid, description, defaults, constraints, claims) -> FamilySpec:
    """A family over the abelian plane built from its ``_EXTENSION_DATA``; its
    extra check is the reduced system, which the build of the same data reads back."""
    data = _EXTENSION_DATA[fid]

    def checked(p: Params) -> tuple[list[Check], tuple[Algebra, SkewForm]]:
        gs, d = _abelian2_base(), data(p)
        rep = extension.check_reduced_system(gs, d)
        built = extension.build_double_extension(gs, d)
        return [_system_check("reduced-system", rep)], built
    return _family(fid, description, defaults, constraints, lambda p: checked(p)[1], claims,
                   extra=checked)


_FAMILIES: tuple[FamilySpec, ...] = (
    _family("DIM2_NONLIE", "plane with a single square e2*e2 = x e1", _X, _X_NONZERO,
            _table(2, {(1, 2): 1}, lambda x: {(2, 2): {1: x}}), BISYM),
    _family("R4_LEFT",
            "four-dimensional left and right Leibniz algebra that is "
            "neither Lie nor left symmetric", {}, [],
            _table(4, W_14_23, lambda: {
                (1, 1): {4: 1}, (1, 2): {3: 1}, (1, 3): {4: 1},
                (2, 1): {3: -1}, (3, 1): {4: -1}}),
            ("left-leibniz", "right-leibniz", "symmetric-leibniz",
             "left-symplectic", "right-symplectic", "bi-symplectic",
             "non-lie")),
    _family("BS4_A", "totally symmetric products into the span of e3, e4",
            {"x": 1, "y": 2, "z": 3, "t": 4}, [],
            _table(4, W_13_24, lambda x, y, z, t: {
                (1, 1): {3: x, 4: y},
                (1, 2): {3: y, 4: z}, (2, 1): {3: y, 4: z},
                (2, 2): {3: z, 4: t}}), BISYM),
    _family("BS4_B", "one square e1*e1 = x e4", _X, _X_NONZERO,
            _table(4, W_14_23, lambda x: {(1, 1): {4: x}}), BISYM),
    _family("BS4_C", "skew part e3 between e1 and e2 over a symmetric layer",
            {"x": 1, "y": 2, "z": 3, "t": 4}, [],
            _table(4, W_14_23, lambda x, y, z, t: {
                (1, 2): {3: 1 + z, 4: y}, (2, 1): {3: z - 1, 4: y},
                (1, 1): {3: y, 4: x},
                (2, 2): {3: t, 4: z}}), BISYM),
    _family("BS4_D", "commutator e3 with a single square e2*e2 = x e3", _X, _X_NONZERO,
            _table(4, W_14_23, lambda x: {(1, 2): {3: 1}, (2, 1): {3: -1}, (2, 2): {3: x}}),
            BISYM),
    _family("BS4_E", "commutator e3 with squares scaled by x and a", _XA, _XA_NONZERO,
            _table(4, W_14_23, lambda x, a: {
                (1, 2): {3: 1 + x / a, 4: x}, (2, 1): {3: x / a - 1, 4: x},
                (1, 1): {3: x, 4: a * x},
                (2, 2): {3: x / (a * a), 4: x / a}}), BISYM),
    _family("BS4_F", "commutator e3 with a single square e1*e1 = x e4", _X, _X_NONZERO,
            _table(4, W_14_23, lambda x: {(1, 2): {3: 1}, (2, 1): {3: -1}, (1, 1): {4: x}}),
            BISYM),
    _family("BS4_G", "commutator e3 with squares scaled by x and a, dual weights",
            _XA, _XA_NONZERO,
            _table(4, W_14_23, lambda x, a: {
                (1, 2): {3: 1 + x, 4: x / a}, (2, 1): {3: x - 1, 4: x / a},
                (1, 1): {3: x / a, 4: x / (a * a)},
                (2, 2): {3: a * x, 4: x}}), BISYM),
    _family("BS4_H", "non-abelian plane plus a square e4*e4 = x e3", _X, _X_NONZERO,
            _table(4, W_12_34, lambda x: {(1, 2): {2: 1}, (2, 1): {2: -1}, (4, 4): {3: x}}),
            BISYM),
    _family("BS4_I", "non-abelian plane plus a rank-one symmetric block on e3, e4",
            _XA, _XA_NONZERO,
            _table(4, W_12_34, lambda x, a: {
                (1, 2): {2: 1}, (2, 1): {2: -1},
                (3, 3): {3: x, 4: -a * x},
                (3, 4): {3: x / a, 4: -x}, (4, 3): {3: x / a, 4: -x},
                (4, 4): {3: x / (a * a), 4: -x / a}}), BISYM),
    _family("BS4_J", "non-abelian plane plus a square e3*e3 = x e4", _X, _X_NONZERO,
            _table(4, W_12_34, lambda x: {(1, 2): {2: 1}, (2, 1): {2: -1}, (3, 3): {4: x}}),
            BISYM),
    _family("BS4_K", "non-abelian plane plus a symmetric block weighted by a",
            _XA, _XA_NONZERO,
            _table(4, W_12_34, lambda x, a: {
                (1, 2): {2: 1}, (2, 1): {2: -1},
                (3, 3): {3: x, 4: -x / a},
                (3, 4): {3: a * x, 4: -x}, (4, 3): {3: a * x, 4: -x},
                (4, 4): {3: a * a * x, 4: -a * x}}), BISYM),
    _family("BS4_L", "rr(3,-1) bracket on e1, e2, e3 plus a square e1*e1 = x e4",
            _X, _X_NONZERO,
            _table(4, W_14_23, lambda x: {
                (1, 2): {2: 1}, (2, 1): {2: -1},
                (1, 3): {3: -1}, (3, 1): {3: 1},
                (1, 1): {4: x}}), BISYM),
    _family("BS4_M",
            "weighted action of e4 with a square e3*e3 = x e2; the form "
            "carries a sign s",
            {"x": 1, "s": 1},
            [_nonzero("x"),
             Constraint("sign-square-one", "zero", lambda p: p["s"] * p["s"] - 1)],
            _table(4, lambda x, s: {(1, 4): 1, (2, 3): s}, lambda x, s: {
                (4, 1): {1: 1}, (1, 4): {1: -1},
                (4, 3): {2: 1}, (3, 4): {2: -1},
                (3, 3): {2: x}}), BISYM, sampler=_bs4_m_sampler),
    _family("BS4_N", "nilpotent action of e4 with a square e4*e4 = x e3", _X, _X_NONZERO,
            _table(4, W_12_34, lambda x: {
                (4, 1): {2: 1}, (1, 4): {2: -1},
                (4, 2): {3: 1}, (2, 4): {3: -1},
                (4, 4): {3: x}}), BISYM),
    _family("LIE_RR3M1", "the solvable Lie algebra rr(3,-1) with its flat form", {}, [],
            lambda p: (_rr3_base().g, _rr3_base().form),
            ("lie", "left-symplectic", "right-symplectic", "bi-symplectic")),
    _family("CORE2_NONABELIAN", "one-dimensional extension over the non-abelian plane",
            {"alpha": 1, "beta": 2, "lam": 3, "mu": -1, "om": 2},
            [_nonzero("lam"), _nonzero("om")],
            _table(4, {(1, 4): -1, (2, 3): 1}, lambda alpha, beta, lam, mu, om: {
                (1, 1): {4: om},
                (1, 2): {2: alpha, 4: -alpha * alpha / lam},
                (2, 1): {2: -alpha, 4: alpha * alpha / lam},
                (1, 3): {2: beta, 4: mu}, (3, 1): {2: -beta, 4: -mu},
                (2, 3): {2: lam, 4: -alpha}, (3, 2): {2: -lam, 4: alpha},
            }, labels=("H", "e", "f", "estar")),
            _LEFT + ("non-lie",)),
    _extension_family("ABEL2_CASE1",
                      "extension data over the abelian plane with a nonzero "
                      "symmetrized action",
                      {"alpha": 2, "beta": -1, "psi1": 3, "xi1": 5, "om": 7},
                      [_nonzero("alpha")], _LEFT + ("non-lie",)),
    _extension_family("ABEL2_CASE2",
                      "extension data over the abelian plane driven by a traceless "
                      "invertible operator",
                      {"alpha": 3, "a11": 1, "a12": 2, "a21": 1, "c1": 4, "c2": -5, "om": 2},
                      [_nonzero("alpha"),
                       Constraint("det-A-nonzero", "nonzero",
                                  lambda p: p["a11"] * p["a11"] + p["a12"] * p["a21"])],
                      _LEFT),
    _family("RR3_SIXDIM_RAW", "six-dimensional extension of rr(3,-1), as first derived",
            _RR3_RAW_DEFAULTS, _RR3_CONSTRAINTS, _RR3_RAW, _LEFT,
            sampler=_rr3_sampler(_RR3_RAW_DEFAULTS), extra=_rr3_raw_checks),
    _family("RR3_SIXDIM_B0",
            "six-dimensional extension of rr(3,-1), vanishing diagonal action",
            _RR3_DEFAULTS, _RR3_CONSTRAINTS, _table(6, _RR3_FORM, _rr3_b0_products), _LEFT,
            sampler=_rr3_sampler(_RR3_DEFAULTS)),
    _family("RR3_SIXDIM_BNE0",
            "six-dimensional extension of rr(3,-1), diagonal action normalized to one",
            _RR3_DEFAULTS, _RR3_CONSTRAINTS,
            _table(6, lambda b1, b2, **_: {
                (1, 2): b2, (1, 3): b1, (1, 4): 1, (2, 3): 1,
                (5, 6): -1, (2, 5): b2, (3, 5): b1,
            }, lambda **p: {**_rr3_b0_products(**p),
                            (5, 2): {2: -1}, (2, 5): {2: 1}, (5, 3): {3: 1}, (3, 5): {3: -1}}),
            _LEFT, sampler=_rr3_sampler(_RR3_DEFAULTS)),
)

_BY_ID = {spec.id: spec for spec in _FAMILIES}


def list_families() -> tuple[str, ...]:
    return tuple(spec.id for spec in _FAMILIES)


def get(family_id: str) -> FamilySpec:
    try:
        return _BY_ID[family_id]
    except KeyError:
        raise ValueError(f"unknown family: {family_id}") from None


def resolve_params(family_id: str, params: Mapping[str, object] | None = None
                   ) -> Params:
    """Merge user parameters over the family defaults and check constraints."""
    spec = get(family_id)
    merged = spec.default_params()
    for key, value in (params or {}).items():
        if key not in spec.param_names:
            raise ValueError(f"unknown parameter for {family_id}: {key}")
        merged[key] = rat(value)
    for c in spec.constraints:
        if not c.satisfied(merged):
            raise ValueError(f"constraint violated: {c.name}")
    return merged


def instantiate(family_id: str, params: Mapping[str, object] | None = None
                ) -> tuple[Algebra, SkewForm]:
    spec = get(family_id)
    return spec.builder(resolve_params(family_id, params))


def _non_lie(a: Algebra, w: SkewForm) -> Check:
    holds = not is_lie(a).holds
    return Check("non-lie", holds, "" if holds else "the product is a Lie bracket")


# claim -> check(algebra, form); each check is named after its claim
_PREDICATES = {
    "left-leibniz": lambda a, w: is_left_leibniz(a),
    "right-leibniz": lambda a, w: is_right_leibniz(a),
    "symmetric-leibniz": lambda a, w: is_symmetric_leibniz(a),
    "left-symplectic": is_symplectic_left,
    "right-symplectic": is_symplectic_right,
    "bi-symplectic": is_bi_symplectic,
    "lie": lambda a, w: is_lie(a),
    "non-lie": _non_lie,
}


def verify(family_id: str, params: Mapping[str, object] | None = None
           ) -> SystemReport:
    spec = get(family_id)
    resolved = resolve_params(family_id, params)
    if spec.extra_checks is None:
        checks, (algebra, form) = [], spec.builder(resolved)
    else:  # the extra checks build what the claims read, once
        checks, (algebra, form) = spec.extra_checks(resolved)
    checks.extend(_PREDICATES[c](algebra, form) for c in spec.claims)
    return SystemReport(family_id, tuple(checks))


def sample_verify(family_id: str, seed: int = 0, count: int = 20
                  ) -> list[tuple[tuple[tuple[str, Rational], ...], SystemReport]]:
    """count samples drawn with random.Random(seed): each is its parameters,
    sorted by name, and their verify report."""
    spec = get(family_id)
    rng = random.Random(seed)
    return [(tuple(sorted(params.items())), verify(family_id, params))
            for params in (spec.sample(rng) for _ in range(count))]


def extension_data(family_id: str, params: Mapping[str, object] | None = None
                   ) -> tuple[extension.SymplecticLie, extension.ExtensionData]:
    """The (core, data) pair behind the extension-generator families."""
    if family_id not in _EXTENSION_DATA:
        raise ValueError(f"{family_id} does not carry extension data")
    return _abelian2_base(), _EXTENSION_DATA[family_id](resolve_params(family_id, params))


def rank_one_data(params: Mapping[str, object] | None = None
                  ) -> tuple[extension.SymplecticLie, Matrix, Matrix, tuple, tuple, Rational]:
    """The solved one-dimensional extension data over rr(3,-1)."""
    resolved = resolve_params("RR3_SIXDIM_RAW", params)
    return (_rr3_base(),) + _rr3_solution(resolved)
