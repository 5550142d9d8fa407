#!/usr/bin/env python3
"""Why the nonneg extension works: the dominance re-pairing argument.

Swapping each coordinate pair into (max, min) order leaves x+y and |x-y|
untouched but never decreases (sum x)^r + (sum y)^r.  The brute-force
oracle enumerates all 2^n swap patterns to certify the claim.
"""

from clarkson import (
    InequalityId,
    NonnegVector,
    brute_force_swap_oracle,
    dominance_rearrange,
    evaluate,
    sum_power_rearrangement_gap,
)

x = NonnegVector((1.0, 3.0, 0.5))
y = NonnegVector((2.0, 2.0, 1.5))

pair = dominance_rearrange(x, y)
print(f"x = {x.entries}")
print(f"y = {y.entries}")
print(f"u = {pair.u.entries}  (componentwise max)")
print(f"v = {pair.v.entries}  (componentwise min)")
print(f"swapped positions: {sorted(pair.swapped_indices)}")
print()

for r in (1.0, 1.5, 2.0, 3.0):
    rep = sum_power_rearrangement_gap(x, y, r)
    best = brute_force_swap_oracle(x, y, r)
    print(
        f"r = {r}: original sum-power = {rep.lhs:.4f}, re-paired = {rep.rhs:.4f}, "
        f"exhaustive max over {2**len(x)} patterns = {best:.4f}"
    )
print()

print("the single-swap engine behind the argument:")
# (A+a)^r + (B+b)^r >= (A+b)^r + (B+a)^r is sumpow-2.12 on x = (A, b), y = (B, a)
A, a, B, b = 2.0, 3.0, 1.0, 1.0
rep = evaluate(InequalityId.SUMPOW_212, NonnegVector((A, b)), NonnegVector((B, a)), 2.0, 2.0)
print(f"  (A+a)^r + (B+b)^r = {rep.rhs:.0f} > (A+b)^r + (B+a)^r = {rep.lhs:.0f}")

rep = evaluate(InequalityId.SUMPOW_212, NonnegVector((A, b)), NonnegVector((B, a)), 1.0, 1.0)
print(f"  at r = 1 both sides agree exactly: gap = {rep.gap}")
