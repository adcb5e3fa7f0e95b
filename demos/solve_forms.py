"""
Solving for compatible symplectic forms
=======================================

Given an algebra, the skew forms omega satisfying

    omega(x * y, z) = omega(x, y * z) - omega(y, x * z)

form a linear subspace of the strict upper triangle of omega's matrix.
sympleib solves that system exactly and can search the solution space
for a nondegenerate representative.
"""

from sympleib import (
    find_nondegenerate,
    is_symplectic_left,
    solve_symplectic_forms,
)
from sympleib.catalog import instantiate
from sympleib.symplectic import form_coords, form_from_pairs

a, published_form = instantiate("BS4_A")

space = solve_symplectic_forms(a, side="left")
print(f"solution space dimension: {space.dim}")
for i in range(space.basis.rows):
    print("  basis vector:", tuple(str(v) for v in space.basis.row(i)))

# The form the family ships with must lie in the solution space.
coords = form_coords(published_form)
print("published form in space:", space.contains(coords))

# Most vectors in the space are degenerate as forms; scan random
# rational combinations until one has full rank.
form = find_nondegenerate(space, a.dim, seed=11)
assert form is not None
print("nondegenerate:", form.nondegenerate)

report = is_symplectic_left(a, form)
print(f"{report.name}: holds={report.holds}")

# Round trip between a form and its strict-upper coordinate vector: the
# coordinates, put back at the positions (i, j), i < j, rebuild the
# representative's own Gram matrix.
upper = [(i + 1, j + 1) for i in range(a.dim) for j in range(i + 1, a.dim)]
again = form_from_pairs(a.dim, dict(zip(upper, form_coords(form))))
print("coordinate round trip exact:", again.w == form.w)
