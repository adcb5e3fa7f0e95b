"""
Building a double extension and its left symmetric product
==========================================================

Starting from a symplectic Lie algebra g and extension data
(F, G, theta, psi, xi, omega), a compatibility system decides whether
the 2p-dimensional enlargement of g carries a left symplectic
structure.  When it does, build_double_extension() assembles the big
algebra and form, and build_left_symmetric() returns the associated
left symmetric product, solved on that same assembled pair.
"""

from sympleib import (
    build_double_extension,
    build_left_symmetric,
    check_full_system,
    check_reduced_system,
    is_left_leibniz,
    is_left_symmetric,
    is_symplectic_left,
    star_left,
)
from sympleib.catalog import extension_data

# Catalog data: a two-dimensional abelian base extended by one
# hyperbolic plane (p = 1), so the result is four-dimensional.
gs, data = extension_data("ABEL2_CASE1")

print("base dimension:", gs.dim, " p =", data.p)

reduced = check_reduced_system(gs, data)
full = check_full_system(gs, data)
print("reduced system:", f"{len(reduced.checks)} checks, ok={reduced.ok}")
print("full system   :", f"{len(full.checks)} checks, ok={full.ok}")
for check in reduced.failed():
    print("   ", check.line())

big, form = build_double_extension(gs, data)
print("extension dimension:", big.dim)
print("left Leibniz:", is_left_leibniz(big).holds)
print("left symplectic:", is_symplectic_left(big, form).holds)

# Nonzero products of the big algebra, 1-based, sparse.
for i in range(big.dim):
    for j in range(big.dim):
        row = big.c[i][j]
        if any(v != 0 for v in row):
            terms = " + ".join(
                f"{v}*{big.labels[k]}" for k, v in enumerate(row) if v != 0
            )
            print(f"  {big.labels[i]} . {big.labels[j]} = {terms}")

# The star that build_left_symmetric() returns is the one star_left()
# solves on the big algebra and its form.
direct = build_left_symmetric(gs, data)
derived = star_left(big, form)
print("star products agree:", direct.c == derived.c)
print("star is left symmetric:", is_left_symmetric(direct).holds)
