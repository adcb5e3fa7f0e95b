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
    ZERO,
    Matrix,
    Subspace,
    basis_vector,
    intersect,
    row_space,
)
from sympleib.reporting import SystemReport, first_failure
from sympleib.symplectic import (
    SkewForm,
    SymplecticAlgebra,
    is_symplectic_left,
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


def _complement_positions(inner: Subspace, outer: Subspace) -> list[int]:
    """Positions of the rows of outer's canonical basis whose pivot is not a pivot of inner.

    Valid whenever inner is contained in outer: both bases are in RREF, so the
    pivots of inner form a subset of the pivots of outer and the remaining rows
    represent a complement of inner inside outer.
    """
    inner_pivots = set(inner.pivots)
    if not inner_pivots <= set(outer.pivots):
        raise CoreError("pivot containment failed; inner subspace is not inside outer")
    return [t for t, p in enumerate(outer.pivots) if p not in inner_pivots]


def _pairing(covector: dict[int, int], u) -> int:
    """The covector {column: value} at the int vector u, given as its pairs (column, value)."""
    return sum(covector.get(j, 0) * y for j, y in u)


def core(a: Algebra, form: SkewForm) -> CoreDecomposition:
    """Carry out the reduction; raises CoreError if any step fails to verify.

    Past the subspaces, everything runs on int data: the representatives are
    the int basis rows of I-perp (``Subspace.int_basis``, at one scale d), the
    products are taken over ``Algebra.int_nz``, reduced modulo I-perp and I
    by ``Subspace.int_reduce``, and the pairings read ``SkewForm.int_covectors``;
    each value in the answer is one Fraction of an int over the product of
    the scales.
    """
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

    kept = _complement_positions(ideal, ideal_perp)
    d, perp_rows = ideal_perp.int_basis
    reps = [perp_rows[t] for t in kept]  # d times the representatives
    rep_pivots = [ideal_perp.pivots[t] for t in kept]
    complement = row_space(n, map(dict, reps))  # its RREF rows are the representatives
    m = len(reps)

    # induced product: multiply representatives, kill the I coordinates, read
    # off the coefficients at the representative pivot columns; the product
    # of two representatives is s d^2 times the true one, and its reduction
    # modulo I is e s d^2 times the true one, (e, _) the int basis of I
    s, t = a.int_nz
    scale = ideal.int_basis[0] * s * d * d
    c = []
    for ra in reps:
        row = []
        for rb in reps:
            prod: dict[int, int] = {}
            for i, x in ra:
                products = t[i]
                for j, y in rb:
                    f = x * y
                    for k, z in products[j]:
                        prod[k] = prod.get(k, 0) + f * z
            if ideal_perp.int_reduce(prod.items()):
                raise CoreError("products do not land in the orthogonal of I")
            red = ideal.int_reduce(prod.items())
            if complement.int_reduce(red.items()):
                raise CoreError("reduced product left the chosen complement")
            row.append(tuple(Fraction(red[p], scale) if p in red else ZERO for p in rep_pivots))
        c.append(tuple(row))
    reduced_algebra = Algebra(m, tuple(c))

    # induced form on representatives; well-definedness means representative
    # shifts by I cannot change it, which needs omega(I, I-perp) = 0
    zs = ideal.int_basis[1]
    for z in form.int_covectors(zs):
        for r in reps:
            if _pairing(z, r):
                raise CoreError("induced form depends on the choice of representatives")
        for z2 in zs:
            if _pairing(z, z2):
                raise CoreError("I is not isotropic")
    gram_scale = form.int_w[0] * d * d
    gram = tuple(tuple(Fraction(v, gram_scale) if v else ZERO
                       for v in (_pairing(ra, rb) for rb in reps))
                 for ra in form.int_covectors(reps))
    reduced_form = SkewForm._skew(Matrix(m, m, gram))  # omega is skew over ints
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
    reduced_lift = Matrix.from_rows([ideal_perp.basis.entries[t] for t in kept]) if kept \
        else Matrix.zero(0, n)

    return CoreDecomposition(
        ideal=ideal,
        ideal_perp=ideal_perp,
        reduced=SymplecticAlgebra(reduced_algebra, reduced_form, side="left"),
        reduced_lift=reduced_lift,
        h_dim=h_dim,
        h_lift=h_lift,
    )


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
        checks.append(first_failure(name, (((i, j), dec.ideal_perp.reduce(b.c[i][j]))
                                           for i, j in pairs)))
    for name, b in (("products-with-I-vanish", a), ("star-products-with-I-vanish", star)):
        checks.append(first_failure(name, (((t, j), multiply(b, e[j], z) + multiply(b, z, e[j]))
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
    checks.append(first_failure("projected-star-is-zero",
                                (((i, j), projected(star.c[i][j])) for i, j in pairs)))

    return SystemReport("core reduction properties", tuple(checks))
