#!/usr/bin/env python3
"""Tour of the inequality catalog: each bound as an oriented gap.

A gap report carries lhs, rhs, gap = rhs - lhs, and a tri-state verdict;
gap >= 0 always means "holds as stated for the regime", including the
flipped direction for 1 < p < 2.
"""

from clarkson import InequalityId, NonnegVector, RealVector, evaluate

x = RealVector((2.0, -1.0, 0.5))
y = RealVector((1.0, 1.0, -0.25))

print("classical conjugate-exponent bound, p = 4 (q = 4/3):")
rep = evaluate(InequalityId.C11, x, y, 4.0)
print(f"  lhs = {rep.lhs:.6f}  rhs = {rep.rhs:.6f}  gap = {rep.gap:.6f}  -> {rep.verdict.value}")

print("same bound in the reverse regime, p = 1.5:")
rep = evaluate(InequalityId.C11, x, y, 1.5)
print(f"  lhs = {rep.lhs:.6f}  rhs = {rep.rhs:.6f}  gap = {rep.gap:.6f}  -> {rep.verdict.value}")

print("two-sided p-th power bounds at p = 3 (two entries, c-1.3-left and c-1.3-right):")
left = evaluate(InequalityId.C13_LEFT, x, y, 3.0)
right = evaluate(InequalityId.C13_RIGHT, x, y, 3.0)
print(f"  left  gap = {left.gap:.6f} ({left.verdict.value})")
print(f"  right gap = {right.gap:.6f} ({right.verdict.value})")

print("nonneg extension with independent exponents, p = 2, q = 3:")
u = NonnegVector((1.0, 1.0))
v = NonnegVector((1.0, 0.0))
rep = evaluate(InequalityId.MAIN_17, u, v, 2.0, 3.0)
print(f"  lhs = {rep.lhs:.6f}  rhs = {rep.rhs:.6f}  gap = {rep.gap:.6f}")

print("improved bound for dominated pairs (extra 2^(q-2) factor):")
rep = evaluate(InequalityId.PROP_14, NonnegVector((2.0, 1.0)), NonnegVector((1.0, 1.0)),
               2.0, 3.0)
print(f"  lhs = {rep.lhs:.6f}  rhs = {rep.rhs:.6f}  gap = {rep.gap:.6f}")

print("scalar corollary at integers, x=2, y=1, q=3 (one-entry vectors):")
rep = evaluate(InequalityId.COR_16, NonnegVector((2.0,)), NonnegVector((1.0,)), 3.0, 3.0)
print(f"  2(x^q + 2^(q-2) y^q) = {rep.lhs:.0f} <= (x+y)^q + (x-y)^q = {rep.rhs:.0f}")

print()
print("equality cases sit exactly at gap 0:")
for label, rep in [
    ("y = 0      ", evaluate(InequalityId.MAIN_17, u, NonnegVector((0.0, 0.0)), 2.0, 3.0)),
    ("p = q = 2  ", evaluate(InequalityId.MAIN_17, u, v, 2.0, 2.0)),
]:
    print(f"  {label} gap = {rep.gap:.2e} -> {rep.verdict.value}")
