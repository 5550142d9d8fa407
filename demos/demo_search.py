#!/usr/bin/env python3
"""Seeded search: falsification attempts and near-equality hunting.

Counterexample search hammers an inequality with deterministic random
pairs; extremal search minimizes the normalized gap to locate sharpness
configurations.  Both are exact functions of their seed.
"""

from clarkson import (
    Constraint,
    InequalityId,
    SampleSpec,
    counterexample_search,
    extremal_search,
    scan_grid,
)

spec = SampleSpec(dim_range=(1, 12))

print("counterexample search, main-1.7 at (p, q) = (2.5, 4), 20k samples:")
out = counterexample_search(
    InequalityId.MAIN_17, 2.5, 4.0, spec, 20_000, seed=42
)
print(f"  status = {out.status.value}, most adverse normalized gap = {out.normalized_gap:.3e}")
print()

print("extremal search, main-1.7 at (p, q) = (2, 3): where is the bound tight?")
out = extremal_search(
    InequalityId.MAIN_17, 2.0, 3.0,
    SampleSpec(dim_range=(2, 4)), 5_000, seed=42,
)
x, y, *_ = out.witness
print(f"  minimal normalized gap = {out.normalized_gap:.3e} after {out.evaluations} evaluations")
print(f"  witness y = {tuple(round(e, 6) for e in y.entries)} (driven toward the y = 0 equality case)")
print()

print("grid scan, main-1.7 over p, q in {2, 3, 4}:")
cells = scan_grid(InequalityId.MAIN_17, [2.0, 3.0, 4.0], [2.0, 3.0, 4.0], spec, 500, seed=42)
for c in cells:
    if c.skipped:
        print(f"  p={c.p} q={c.q}: skipped (needs q >= p)")
    else:
        print(f"  p={c.p} q={c.q}: min normalized gap = {c.min_normalized_gap:.3e}, "
              f"violations = {c.violations}")
print()

print("signed inputs, main-1.7 at (p, q) = (2, 4): checking a proved statement")
print("  (main-1.7 holds for every real pair; the README gives the proof)")
out = counterexample_search(
    InequalityId.MAIN_17, 2.0, 4.0,
    SampleSpec(dim_range=(1, 12), constraint=Constraint.SIGNED),
    20_000, seed=42,
)
print(f"  status = {out.status.value}, most adverse normalized gap = {out.normalized_gap:.3e}")
