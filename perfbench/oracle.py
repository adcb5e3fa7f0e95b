"""Independent exact checks the benchmark uses to judge the library's answers.

Nothing here imports ``sympleib``: algebras are plain nested lists of
``Fraction`` (``c[i][j]`` is the coefficient vector of ``e_i * e_j``, 0-based)
and forms are full Gram matrices ``W`` with ``omega(u, v) = u^T W v``.  The
compatibility identities are evaluated through the contraction
``M[j][k] = W c[j][k]``, so one check costs O(n^3) lookups after an O(n^4)
set-up, whatever the order in which the library scans.  The scan order and
the witness conventions (first failing basis triple in lexicographic order,
the defect as one scalar) match the library's documented behaviour, so the
expected text of an ``omega verify`` answer can be written out exactly.
"""

from __future__ import annotations

from fractions import Fraction

HALF = Fraction(1, 2)


def contract(c, w):
    """M[j][k][i] = (W c[j][k])_i."""
    n = len(w)
    rows = [[(a, x) for a, x in enumerate(row) if x] for row in w]
    return [[[sum((x * c[j][k][a] for a, x in rows[i]), Fraction(0))
              for i in range(n)] for k in range(n)] for j in range(n)]


def det(w) -> Fraction:
    rows = [list(r) for r in w]
    n = len(rows)
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            d = -d
        d *= rows[col][col]
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return d


def _first(n, defect):
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = defect(i, j, k)
                if d != 0:
                    return (i, j, k), d
    return None


def compat_witness(c, w, side):
    """First failing triple of the left, right or bi compatibility, or None.

    Returns ``(kind, (i, j, k), defect)``; the form must be nondegenerate.
    """
    n = len(w)
    m = contract(c, w)
    if side == "left":
        hit = _first(n, lambda i, j, k: m[j][k][i] - m[i][k][j]
                     + HALF * m[i][j][k] - HALF * m[j][i][k])
        return hit and ("left-symplectic",) + hit
    if side == "right":
        hit = _first(n, lambda i, j, k: m[k][j][i] - m[k][i][j]
                     + HALF * m[j][i][k] - HALF * m[i][j][k])
        return hit and ("right-symplectic",) + hit
    # closedness for the bracket, then symmetry of the anticommutator
    hit = _first(n, lambda i, j, k: HALF * (m[j][k][i] - m[k][j][i]
                                            + m[k][i][j] - m[i][k][j]
                                            + m[i][j][k] - m[j][i][k]))
    if hit:
        return ("d-omega",) + hit
    hit = _first(n, lambda i, j, k: HALF * (m[j][k][i] + m[k][j][i]
                                            - m[i][k][j] - m[k][i][j]))
    return hit and ("diamond-symmetry",) + hit


VERIFY_NAMES = {"left": "left-symplectic", "right": "right-symplectic",
                "bi": "bi-symplectic"}


def verify_text(c, w, side) -> tuple[int, str]:
    """Exit code and exact stdout of ``omega FILE verify --side SIDE``."""
    name = VERIFY_NAMES[side]
    hit = compat_witness(c, w, side)
    if hit is None:
        return 0, f"[  ok] {name}\n"
    kind, idx, d = hit
    spot = ", ".join(str(x + 1) for x in idx)
    return 1, f"[FAIL] {name}  ({kind} fails at ({spot}) with defect ({d}))\n"


def star_defect(c, w, s, side):
    """First (i, j, k) where s is not the left/right star of (c, W), or None.

    Left:  omega(e_i * e_j, e_k) = -omega(e_j, e_i . e_k)
    Right: omega(e_i * e_j, e_k) = -omega(e_j, e_k . e_i)
    Both sides reduce to (W s_ij)_k == (W c_..)_j with the product order
    given by the side.
    """
    n = len(w)
    ms = contract(s, w)
    mc = contract(c, w)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                rhs = mc[i][k][j] if side == "left" else mc[k][i][j]
                if ms[i][j][k] != rhs:
                    return i, j, k
    return None
