"""
Touring the catalog of verified families
========================================

The catalog registers parametrized families of algebra/form pairs,
each with defaults, parameter constraints, and a list of structural
claims (symmetric Leibniz, bi-symplectic, non-Lie, ...).  verify()
checks one instance exhaustively; sample_verify() draws random
rational parameters and re-checks every claim per sample.
"""

from fractions import Fraction

from sympleib.catalog import get, instantiate, list_families, sample_verify, verify

families = list_families()
print(f"{len(families)} families registered")
for fid in families:
    spec = get(fid)
    names = ", ".join(spec.param_names) if spec.param_names else "-"
    print(f"  {fid:<18} params: {names:<14} {spec.description}")

# Instantiate one family at explicit parameter values.
print()
a, form = instantiate("BS4_G", {"x": Fraction(5, 3)})
print("BS4_G at x=5/3: dim", a.dim)
print("  e1.e1 =", tuple(str(v) for v in a.c[0][0]))

report = verify("BS4_G", {"x": Fraction(5, 3)})
print("  verified:", report.ok, f"({len(report.checks)} checks)")

# Constraint violations are rejected before any checking runs.
try:
    instantiate("BS4_G", {"x": 0})
except ValueError as exc:
    print("  rejected x=0:", exc)

# Randomized verification over a family's parameter space.
print()
samples = sample_verify("BS4_M", seed=2, count=8)
for index, (params, sample_report) in enumerate(samples):
    shown = " ".join(f"{k}={v}" for k, v in params)
    print(f"  sample {index} [{'ok' if sample_report.ok else 'FAIL':>4}] {shown}")
passes = sum(sample_report.ok for _, sample_report in samples)
print(f"BS4_M: {passes}/{len(samples)} pass")
