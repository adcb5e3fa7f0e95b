"""Core reduction of a symplectic left Leibniz algebra.

Writing Leib for the span of all symmetrized products, the subspace
I = Leib intersect Leib-orthogonal is isotropic, and its orthogonal I-perp is
a subalgebra containing every product.  Quotienting I-perp by I leaves a Lie
algebra with an induced nondegenerate form; the codimension of I-perp equals
dim I and measures how far the input is from that symplectic Lie algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product

from sympleib.algebra import (
    Algebra,
    ideal_check,
    is_lie,
    leibniz_ideal,
    multiply,
)
from sympleib.exactlin import (
    Matrix,
    Subspace,
    basis_vector,
    intersect,
    is_zero_vector,
    vzero,
)
from sympleib.reporting import Check, SystemReport, Witness
from sympleib.symplectic import (
    SkewForm,
    SymplecticAlgebra,
    is_symplectic_left,
    omega,
    orthogonal,
    star_left,
)


class CoreError(ValueError):
    """An internal consequence of the core construction failed to hold."""


@dataclass(frozen=True)
class CoreDecomposition:
    ideal: Subspace            # I = Leib ∩ Leib-orthogonal
    ideal_perp: Subspace       # its orthogonal, a subalgebra containing all products
    reduced: SymplecticAlgebra  # the symplectic Lie algebra on ideal_perp / ideal
    reduced_lift: Matrix       # rows: representatives in the ambient algebra
    h_dim: int                 # dim A - dim ideal_perp, always equals dim ideal
    h_lift: Matrix             # rows: a complement of ideal_perp in the ambient algebra


def _complement_rows(inner: Subspace, outer: Subspace) -> list[tuple[Fraction, ...]]:
    """Rows of outer's canonical basis whose pivot is not a pivot of inner.

    Valid whenever inner is contained in outer: both bases are in RREF, so the
    pivots of inner form a subset of the pivots of outer and the remaining rows
    represent a complement of inner inside outer.
    """
    inner_pivots = set(inner.pivots)
    outer_pivots = outer.pivots
    if not inner_pivots <= set(outer_pivots):
        raise CoreError("pivot containment failed; inner subspace is not inside outer")
    return [row for row, p in zip(outer.basis.entries, outer_pivots)
            if p not in inner_pivots]


def core(a: Algebra, form: SkewForm) -> CoreDecomposition:
    """Carry out the reduction; raises CoreError if any step fails to verify."""
    rep = is_symplectic_left(a, form)
    if not rep.holds:
        note = " (basis indices count from 1)" if rep.witness.indices else ""
        raise ValueError(f"input is not left symplectic: {rep.detail}{note}")
    n = a.dim
    leib = leibniz_ideal(a)
    ideal = intersect(leib, orthogonal(form, leib))
    ideal_perp = orthogonal(form, ideal)
    if not ideal_perp.contains_subspace(ideal):
        raise CoreError("isotropy failed: I is not inside its own orthogonal")

    reps = _complement_rows(ideal, ideal_perp)
    m = len(reps)
    rep_pivots = [p for p in ideal_perp.pivots if p not in set(ideal.pivots)]

    # induced product: multiply representatives, kill the I coordinates, read
    # off the coefficients at the representative pivot columns
    c = []
    for ra in reps:
        row = []
        for rb in reps:
            prod = multiply(a, ra, rb)
            if not ideal_perp.contains(prod):
                raise CoreError("products do not land in the orthogonal of I")
            red = ideal.reduce(prod)
            coords = tuple(red[p] for p in rep_pivots)
            rebuilt = list(vzero(n))
            for x, r in zip(coords, reps):
                rebuilt = [u + x * v for u, v in zip(rebuilt, r)]
            if tuple(rebuilt) != red:
                raise CoreError("reduced product left the chosen complement")
            row.append(coords)
        c.append(tuple(row))
    reduced_algebra = Algebra(m, tuple(c))

    # induced form on representatives; well-definedness means representative
    # shifts by I cannot change it, which needs omega(I, I-perp) = 0
    for z in ideal.basis.entries:
        for r in reps:
            if omega(form, z, r) != 0:
                raise CoreError("induced form depends on the choice of representatives")
        for z2 in ideal.basis.entries:
            if omega(form, z, z2) != 0:
                raise CoreError("I is not isotropic")
    gram = Matrix.from_rows([[omega(form, ra, rb) for rb in reps] for ra in reps])
    reduced_form = SkewForm(gram)
    if not reduced_form.nondegenerate:
        raise CoreError("induced form is degenerate")

    lie_rep = is_lie(reduced_algebra)
    if not lie_rep.holds:
        raise CoreError(f"reduced algebra is not Lie: {lie_rep.detail}")

    h_dim = n - ideal_perp.dim
    if h_dim != ideal.dim:
        raise CoreError("codimension of I-perp does not match dim I")
    perp_pivots = set(ideal_perp.pivots)
    h_rows = [basis_vector(n, j) for j in range(n) if j not in perp_pivots]
    h_lift = Matrix.from_rows(h_rows) if h_rows else Matrix.zero(0, n)
    reduced_lift = Matrix.from_rows(reps) if reps else Matrix.zero(0, n)

    return CoreDecomposition(
        ideal=ideal,
        ideal_perp=ideal_perp,
        reduced=SymplecticAlgebra(reduced_algebra, reduced_form, side="left"),
        reduced_lift=reduced_lift,
        h_dim=h_dim,
        h_lift=h_lift,
    )


def _first_nonzero(name: str, defects) -> Check:
    """The first nonzero defect of the (indices, defect) pairs is the witness."""
    for idx, d in defects:
        if not is_zero_vector(d):
            return Check(name, False, witness=Witness(name, idx, d))
    return Check(name, True)


def verify_core_properties(a: Algebra, form: SkewForm,
                           dec: CoreDecomposition | None = None) -> SystemReport:
    """Re-check every structural consequence of the reduction, named one by one.

    Witnesses: (i, j) with e_i e_j modulo I-perp, or its quotient coordinates
    for the projected star; (t, j) with e_j z, z e_j for z the t-th basis vector of I.
    """
    if dec is None:
        dec = core(a, form)
    star = star_left(a, form)
    leib = leibniz_ideal(a)
    checks = [ideal_check(b, s, f"{what}-{kind}-ideal")
              for what, s in (("leibniz-span", leib), ("I", dec.ideal), ("I-perp", dec.ideal_perp))
              for kind, b in (("product", a), ("star", star))]

    n = a.dim
    pairs = list(product(range(n), repeat=2))
    e = [basis_vector(n, j) for j in range(n)]
    for name, b in (("products-inside-I-perp", a), ("star-products-inside-I-perp", star)):
        checks.append(_first_nonzero(name, (((i, j), dec.ideal_perp.reduce(b.c[i][j]))
                                            for i, j in pairs)))
    for name, b in (("products-with-I-vanish", a), ("star-products-with-I-vanish", star)):
        checks.append(_first_nonzero(name, (((t, j), multiply(b, e[j], z) + multiply(b, z, e[j]))
                                            for t, z in enumerate(dec.ideal.basis.entries)
                                            for j in range(n))))

    checks.append(replace(is_lie(dec.reduced.algebra), name="reduced-algebra-is-lie"))
    checks.append(replace(is_symplectic_left(dec.reduced.algebra, dec.reduced.form),
                          name="reduced-form-is-symplectic"))

    # the star product must die in the quotient by I-perp; inclusion already
    # says so, recheck through the quotient coordinates
    perp_pivots = set(dec.ideal_perp.pivots)
    comp = [j for j in range(n) if j not in perp_pivots]

    def projected(v):  # the coordinates of v in the quotient by I-perp
        red = dec.ideal_perp.reduce(v)
        return tuple(red[k] for k in comp)
    checks.append(_first_nonzero("projected-star-is-zero",
                                 (((i, j), projected(star.c[i][j])) for i, j in pairs)))

    return SystemReport("core reduction properties", tuple(checks))
