"""The one report type: every check the library runs returns a ``Check``.

A ``Check`` names what was checked and whether it holds.  A failed identity
carries a ``Witness`` (the basis indices and the exact defect), which fills
in its detail; other failures give their detail as text.  A
``SystemReport`` is a titled list of checks: a criterion system, the core
properties, or one catalog sample.  ``kept`` keeps every keyed fact, a
report or a derived set, on its owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import is_
from typing import Optional


def kept(owner, key: str, make, *held):
    """``make()`` the first time, then the value kept under ``key`` in the one
    dict of facts on ``owner``.  Each object in ``held`` is kept with the
    value and matched by identity, so no key hashes a tensor or a form by
    value; another object in its place makes the value anew."""
    facts = owner.__dict__.get("_kept") or owner.__dict__.setdefault("_kept", {})
    hit = facts.get(key)
    if hit is None or held and not all(map(is_, hit[1:], held)):
        facts[key] = hit = (make(), *held)
    return hit[0]


def first_failure(name: str, defects) -> Check:
    """The check ``name`` of a scan: the first of the (indices, defect) pairs
    with a nonzero entry is its witness, and no pair after it is drawn."""
    for indices, defect in defects:
        if any(defect):
            return Check(name, False, witness=Witness(name, indices, defect))
    return Check(name, True)


@dataclass(frozen=True)
class Witness:
    """Where an identity fails: which check, at which basis indices, by how much."""

    kind: str
    indices: tuple[int, ...]
    defect: tuple[Fraction, ...]

    def describe(self) -> str:
        """One line with 1-based indices, e.g. ``jacobi fails at (1, 2, 3) with defect (1, 0)``.

        A witness without indices is a degenerate form, and its vector is a
        radical vector: ``degenerate-form: radical vector (1, 0)``.
        """
        vector = ", ".join(str(x) for x in self.defect)
        if not self.indices:
            return f"{self.kind}: radical vector ({vector})"
        spot = ", ".join(str(i + 1) for i in self.indices)
        return f"{self.kind} fails at ({spot}) with defect ({vector})"


@dataclass(frozen=True, init=False)
class Check:
    """One named check; a witness, only on a failure, gives the detail."""

    name: str
    holds: bool
    detail: str = ""
    witness: Optional[Witness] = None

    def __init__(self, name: str, holds: bool, detail: str = "",
                 witness: Optional[Witness] = None):
        if witness is not None:
            if holds:
                raise ValueError("a check that holds has no witness")
            detail = detail or witness.describe()
        # one dict update, not a frozen setattr per field: the criteria make
        # dozens of checks per request
        self.__dict__.update(name=name, holds=holds, detail=detail, witness=witness)

    def line(self) -> str:
        mark = "ok" if self.holds else "FAIL"
        suffix = f"  ({self.detail})" if self.detail and not self.holds else ""
        return f"[{mark:>4}] {self.name}{suffix}"


@dataclass(frozen=True)
class SystemReport:
    title: str
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.holds for c in self.checks)

    def failed(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.holds)

    def lines(self) -> list[str]:
        return [self.title] + [c.line() for c in self.checks]

    def __str__(self) -> str:
        return "\n".join(self.lines())
