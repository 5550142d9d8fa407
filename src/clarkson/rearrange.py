"""Dominance rearrangement and the pairwise swap machinery.

Re-pairing two nonnegative sequences into componentwise (max, min) leaves
the multisets {x_i + y_i} and {|x_i - y_i|} untouched while never
decreasing (sum x)^r + (sum y)^r for r >= 1.  A brute-force enumeration
over all componentwise swap patterns serves as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet

import numpy as np

from .catalog import (
    DEFAULT_POLICY,
    GapReport,
    InequalityId,
    TolerancePolicy,
    evaluate,
    report,
)
from .core import NonnegVector
from .errors import (
    DominanceViolation,
    ExponentOutOfRange,
    LengthMismatch,
    TooLarge,
)

ORACLE_MAX_LEN = 16


@dataclass(frozen=True)
class SwapInstance:
    """Nonnegative reals with A >= B and a > b, plus an exponent r >= 1."""

    A: float
    a: float
    B: float
    b: float
    r: float

    def __post_init__(self):
        for name in ("A", "a", "B", "b", "r"):
            val = getattr(self, name)
            if not math.isfinite(val) or val < 0.0:
                raise ValueError(f"{name} must be finite and nonnegative, got {val}")
        if self.A < self.B:
            raise DominanceViolation(0, f"need A >= B, got A={self.A}, B={self.B}")
        if self.a <= self.b:
            raise DominanceViolation(1, f"need a > b, got a={self.a}, b={self.b}")
        if self.r < 1.0:
            raise ExponentOutOfRange(f"need r >= 1, got {self.r}")


@dataclass(frozen=True)
class RearrangedPair:
    u: NonnegVector
    v: NonnegVector
    swapped_indices: FrozenSet[int]


def dominance_rearrange(x: NonnegVector, y: NonnegVector) -> RearrangedPair:
    """Componentwise (max, min) re-pairing; ties keep (x_i, y_i) unswapped."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
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


def check_swap_inequality(
    inst: SwapInstance, policy: TolerancePolicy = DEFAULT_POLICY
) -> GapReport:
    """(A+a)^r + (B+b)^r >= (A+b)^r + (B+a)^r, strict for r > 1, A > B."""
    r = inst.r
    lhs = (inst.A + inst.b) ** r + (inst.B + inst.a) ** r
    rhs = (inst.A + inst.a) ** r + (inst.B + inst.b) ** r
    return report(InequalityId.SWAP_28, r, r, lhs, rhs, policy)


def sum_power_rearrangement_gap(
    x: NonnegVector,
    y: NonnegVector,
    r: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """(sum u)^r + (sum v)^r >= (sum x)^r + (sum y)^r for the (max, min) pair."""
    return evaluate(InequalityId.SUMPOW_212, x, y, r, r, policy=policy)


def rearrangement_norm_gain(
    x: NonnegVector,
    y: NonnegVector,
    p: float,
    q: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """Dominance re-pairing does not decrease ||x||_p^q + ||y||_p^q.

    Equals sum_power_rearrangement_gap applied to the p-th powers with
    exponent r = q/p; the cross norms ||x+y||_p and ||x-y||_p are
    invariant under the re-pairing.
    """
    return evaluate(InequalityId.REARR_GAIN_217, x, y, p, q, policy=policy)


def brute_force_swap_oracle(x: NonnegVector, y: NonnegVector, r: float) -> float:
    """Maximum of (sum a)^r + (sum b)^r over all 2^n componentwise swaps.

    Independent oracle certifying that the dominance re-pairing attains
    the maximum; guarded to n <= 16.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    if r < 1.0:
        raise ExponentOutOfRange(f"need r >= 1, got {r}")
    n = len(x)
    if n > ORACLE_MAX_LEN:
        raise TooLarge(f"oracle limited to n <= {ORACLE_MAX_LEN}, got {n}")
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
