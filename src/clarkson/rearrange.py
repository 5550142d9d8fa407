"""Dominance rearrangement.

Re-pairing two nonnegative sequences into componentwise (max, min) leaves
the multisets {x_i + y_i} and {|x_i - y_i|} untouched while never
decreasing (sum x)^r + (sum y)^r for r >= 1.  A brute-force enumeration
over all componentwise swap patterns serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet

from . import catalog
from ._numpy import np
from .catalog import DEFAULT_POLICY, GapReport, InequalityId, TolerancePolicy
from .core import NonnegVector, _check_pair
from .errors import DomainError

ORACLE_MAX_LEN = 16


@dataclass(frozen=True)
class RearrangedPair:
    u: NonnegVector
    v: NonnegVector
    swapped_indices: FrozenSet[int]


def dominance_rearrange(x: NonnegVector, y: NonnegVector) -> RearrangedPair:
    """Componentwise (max, min) re-pairing; ties keep (x_i, y_i) unswapped."""
    _check_pair(x.entries, y.entries)
    u, v, swapped = [], [], []
    for i, (a, b) in enumerate(zip(x.entries, y.entries)):
        if a >= b:
            u.append(a)
            v.append(b)
        else:
            u.append(b)
            v.append(a)
            swapped.append(i)
    return RearrangedPair(NonnegVector(tuple(u)), NonnegVector(tuple(v)), frozenset(swapped))


def sum_power_rearrangement_gap(
    x: NonnegVector,
    y: NonnegVector,
    r: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """(sum u)^r + (sum v)^r >= (sum x)^r + (sum y)^r for the (max, min) pair."""
    return catalog.evaluate(InequalityId.SUMPOW_212, x, y, r, r, policy=policy)


def brute_force_swap_oracle(x: NonnegVector, y: NonnegVector, r: float) -> float:
    """Maximum of (sum a)^r + (sum b)^r over all 2^n componentwise swaps.

    Independent oracle certifying that the dominance re-pairing attains
    the maximum; guarded to n <= 16.  r is checked as sumpow-2.12's r:
    finite and >= 1.
    """
    _check_pair(x.entries, y.entries)
    catalog._sum_power_exponents(r, r)
    n = len(x)
    if n > ORACLE_MAX_LEN:
        raise DomainError(f"oracle limited to n <= {ORACLE_MAX_LEN}, got {n}")
    sx = math.fsum(x.entries)
    sy = math.fsum(y.entries)
    deltas = np.array(y.entries) - np.array(x.entries)
    # shift[mask] = sum of deltas over set bits, built by subset DP
    shift = np.zeros(1 << n)
    for i in range(n):
        bit = 1 << i
        shift[bit : bit << 1] = shift[:bit] + deltas[i]
    values = (sx + shift) ** r + (sy - shift) ** r
    return float(values.max())
