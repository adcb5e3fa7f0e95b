"""Test oracles: dense Fraction routes that no library path calls.

Each one recomputes by plain matrix arithmetic what the library computes
another way, so the tests can compare the two.
"""

from fractions import Fraction
from typing import Sequence

from sympleib.algebra import Algebra
from sympleib.exactlin import ZERO, Matrix, Subspace, full_subspace, kernel
from sympleib.symplectic import SkewForm, form_from_coords


def vstack(mats: Sequence[Matrix]) -> Matrix:
    """The rows of the nonempty matrices, stacked in order; the column counts must agree."""
    mats = [m for m in mats if m.rows > 0]
    if not mats:
        raise ValueError("nothing to stack")
    cols = mats[0].cols
    for m in mats:
        if m.cols != cols:
            raise ValueError("column counts differ")
    return Matrix.from_rows([r for m in mats for r in m.entries])


def left_mult(a: Algebra, u: Sequence[Fraction]) -> Matrix:
    """Matrix of v -> u * v in the standard basis, summed over the nonzero u_i only."""
    n = a.dim
    if len(u) != n:
        raise ValueError("vector length does not match algebra dimension")
    m = [[ZERO] * n for _ in range(n)]
    for i, x in enumerate(u):
        if x:
            for j, pairs in enumerate(a.nz[i]):  # e_i * e_j
                for k, z in pairs:
                    m[k][j] += x * z
    return Matrix(n, n, tuple(map(tuple, m)))


def omega_adjoint(form: SkewForm, m: Matrix) -> Matrix:
    """The adjoint m* with omega(m* u, v) = omega(u, m v).

    Because the form is skew, the same matrix also satisfies the mirrored
    convention omega(u, m* v) = omega(m u, v).
    """
    if not form.nondegenerate:
        raise ValueError("adjoint requires a nondegenerate form")
    if m.rows != form.dim or m.cols != form.dim:
        raise ValueError("operator shape does not match the form")
    return form.w_inv @ m.transpose() @ form.w


def common_radical(space: Subspace, dim: int) -> Subspace:
    """The vectors in the radical of every form of the space: the kernel of the
    dense Gram matrices of its basis forms, stacked.  The zero space holds
    only the zero form, whose radical is everything."""
    grams = [form_from_coords(dim, row).w for row in space.basis.entries]
    return kernel(vstack(grams)) if grams else full_subspace(dim)
