#!/usr/bin/env python3
"""The interpolation function phi and the scalar probe chi.

phi(t) connects the trivial t = 0 case to the full dominated-pair bound
at t = 1 and is nondecreasing in between; its endpoint difference equals
the inequality gap.  chi shows why the same one-parameter trick fails
for the conjugate-exponent bound: it changes sign.
"""

import numpy as np

from clarkson import (
    ChiContext,
    InequalityId,
    NonnegVector,
    PhiContext,
    chi,
    chi_sign_scan,
    evaluate,
    monotonicity_scan,
    phi,
    phi_prime,
)

ctx = PhiContext(NonnegVector((2.0, 1.0, 1.5)), NonnegVector((1.0, 1.0, 0.5)), 2.0, 4.0)

print("phi along [0, 1]:")
for t in np.linspace(0.0, 1.0, 6):
    d = f"{phi_prime(ctx, float(t)):10.4f}" if 0.0 < t < 1.0 else "     --   "
    print(f"  t = {t:.1f}  phi = {phi(ctx, float(t)):10.4f}  phi' = {d}")

report = monotonicity_scan(ctx, 257)
print(f"257-point scan: min increment = {report.min_increment:.3e}, "
      f"nondecreasing = {report.is_nondecreasing}")

gap = evaluate(InequalityId.PROP_14, ctx.u, ctx.v, ctx.p, ctx.q).gap
print(f"endpoint identity: phi(1) - phi(0) = {phi(ctx, 1.0) - phi(ctx, 0.0):.6f} "
      f"vs inequality gap = {gap:.6f}")
print()

print("chi on [0, c] for q = 4, p = 4/3, c = 1:")
probe = ChiContext(4.0 / 3.0, 4.0, 1.0)
for s in (0.05, 0.1, 0.3, 0.5, 0.9):
    print(f"  chi({s}) = {chi(probe, s):+.4f}")
scan = chi_sign_scan(probe, 1001)
print(f"sign scan: positive = {scan.has_positive}, negative = {scan.has_negative}")
print(f"sign changes bracketed in: {scan.sign_change_intervals}")
print("both signs occur, so the one-parameter monotonicity argument cannot work there.")
