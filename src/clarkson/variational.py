"""Variational functions behind the dominated-pair bound and the sign-scan.

phi(t) interpolates between the trivial t = 0 case and the full
inequality at t = 1 for a dominated pair; it is nondecreasing on [0, 1]
and piecewise differentiable away from the ratios u_i / v_i.  psi and chi
probe the scalar conjugate-exponent inequality, where chi changes sign
and monotonicity genuinely fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .core import NonnegVector
from .errors import (
    AtBreakpoint,
    DomainError,
    DominanceViolation,
    LengthMismatch,
    RegimeViolation,
)

# phi is continuous but not differentiable at t = u_i / v_i; analytic
# derivatives are refused inside this radius, finite differences need a
# wider berth (set by callers).
BREAKPOINT_RADIUS = 1e-9

# chi_sign_scan counts a value within this of 0 as no sign.
_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class PhiContext:
    """Frozen inputs for phi: a dominated nonneg pair and 2 <= p <= q.

    strict=False drops the dominance requirement for exploration; in the
    dominated case no ratio u_i / v_i can fall inside (0, 1), so phi is
    differentiable on all of (0, 1) and breakpoints only appear in
    exploration contexts.
    """

    u: NonnegVector
    v: NonnegVector
    p: float
    q: float
    strict: bool = True

    def __post_init__(self):
        if len(self.u) != len(self.v):
            raise LengthMismatch(f"lengths {len(self.u)} and {len(self.v)} differ")
        if self.strict:
            for i, (a, b) in enumerate(zip(self.u.entries, self.v.entries)):
                if a < b:
                    raise DominanceViolation(i)
        if not (2.0 <= self.p <= self.q):
            raise RegimeViolation(f"need 2 <= p <= q, got ({self.p}, {self.q})")


def phi(ctx: PhiContext, t: float, relaxed: bool = False) -> float:
    """(sum |u+tv|^p)^(q/p) + (sum |u-tv|^p)^(q/p)
    - 2^(q-1) ((sum u^p)^(q/p) + (sum v^p)^(q/p) t^q).

    Absolute values make the formula total in t; the standard domain is
    [0, 1] unless relaxed.
    """
    if not relaxed and not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    p, q = ctx.p, ctx.q
    e = q / p
    plus = math.fsum(abs(a + b * t) ** p for a, b in zip(ctx.u.entries, ctx.v.entries))
    minus = math.fsum(abs(a - b * t) ** p for a, b in zip(ctx.u.entries, ctx.v.entries))
    su = math.fsum(a**p for a in ctx.u.entries)
    sv = math.fsum(b**p for b in ctx.v.entries)
    return plus**e + minus**e - 2.0 ** (q - 1.0) * (su**e + sv**e * abs(t) ** q)


def breakpoints(ctx: PhiContext) -> Tuple[float, ...]:
    """Sorted ratios u_i / v_i (v_i != 0) falling inside (0, 1)."""
    ratios = {
        a / b for a, b in zip(ctx.u.entries, ctx.v.entries) if b != 0.0 and 0.0 < a / b < 1.0
    }
    return tuple(sorted(ratios))


def phi_prime(ctx: PhiContext, t: float) -> float:
    """Analytic derivative of phi, valid away from breakpoints."""
    if not (0.0 < t < 1.0):
        raise DomainError(f"phi_prime needs t in (0, 1), got {t}")
    for bp in breakpoints(ctx):
        if abs(t - bp) <= BREAKPOINT_RADIUS:
            raise AtBreakpoint(f"t={t} within {BREAKPOINT_RADIUS} of breakpoint {bp}")
    p, q = ctx.p, ctx.q
    e = q / p - 1.0
    us, vs = ctx.u.entries, ctx.v.entries
    # sign-aware terms reduce to the plain powers in the dominated case,
    # where u_i - v_i t >= u_i - v_i >= 0 on (0, 1)
    splus = math.fsum(abs(a + b * t) ** p for a, b in zip(us, vs))
    sminus = math.fsum(abs(a - b * t) ** p for a, b in zip(us, vs))
    dplus = math.fsum(
        b * math.copysign(abs(a + b * t) ** (p - 1.0), a + b * t) for a, b in zip(us, vs)
    )
    dminus = math.fsum(
        b * math.copysign(abs(a - b * t) ** (p - 1.0), a - b * t) for a, b in zip(us, vs)
    )
    sv = math.fsum(b**p for b in vs)
    return q * (
        splus**e * dplus
        - sminus**e * dminus
        - 2.0 ** (q - 1.0) * sv ** (q / p) * t ** (q - 1.0)
    )


@dataclass(frozen=True)
class MonotonicityReport:
    min_increment: float
    argmin: float
    is_nondecreasing: bool
    scale: float


def monotonicity_scan(ctx: PhiContext, grid_size: int) -> MonotonicityReport:
    """Check phi for nondecrease on a uniform grid over [0, 1]."""
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    ts = [k / (grid_size - 1) for k in range(grid_size)]
    vals = [phi(ctx, t) for t in ts]
    scale = max(1.0, max(abs(v) for v in vals))
    min_inc = math.inf
    argmin = 0.0
    for k in range(grid_size - 1):
        inc = vals[k + 1] - vals[k]
        if inc < min_inc:
            min_inc = inc
            argmin = ts[k]
    return MonotonicityReport(min_inc, argmin, min_inc >= -1e-8 * scale, scale)


@dataclass(frozen=True)
class ChiContext:
    """Exponents and the scalar ratio c for the psi / chi pair."""

    p: float
    q: float
    c: float

    def __post_init__(self):
        if self.p <= 1.0 or self.q <= 1.0:
            raise RegimeViolation(f"need p > 1 and q > 1, got ({self.p}, {self.q})")
        if not (0.0 < self.c <= 1.0):
            raise DomainError(f"need 0 < c <= 1, got c={self.c}")


def psi(ctx: ChiContext, t: float) -> float:
    """(1+ct)^q + (1-ct)^q - 2(1 + c^p t^p)^(q-1) on [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    c, p, q = ctx.c, ctx.p, ctx.q
    return (1.0 + c * t) ** q + (1.0 - c * t) ** q - 2.0 * (1.0 + c**p * t**p) ** (q - 1.0)


def psi_prime(ctx: ChiContext, t: float) -> float:
    """qc(1+ct)^(q-1) - qc(1-ct)^(q-1) - 2p(q-1)(1+c^p t^p)^(q-2) c^p t^(p-1).

    Continuous at t = 0 with limit 0 for p > 1.
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    c, p, q = ctx.c, ctx.p, ctx.q
    if t == 0.0:
        return 0.0
    return (
        q * c * (1.0 + c * t) ** (q - 1.0)
        - q * c * (1.0 - c * t) ** (q - 1.0)
        - 2.0 * p * (q - 1.0) * (1.0 + c**p * t**p) ** (q - 2.0) * c**p * t ** (p - 1.0)
    )


def chi(ctx: ChiContext, s: float) -> float:
    """qc((1+s)^(q-1) - (1-s)^(q-1) - 2(1+s^p)^(q-2) s^(p-1)) on [0, c].

    When p(q-1) = q this equals psi_prime at t = s/c.
    """
    if not (0.0 <= s <= ctx.c):
        raise DomainError(f"s must lie in [0, {ctx.c}], got {s}")
    c, p, q = ctx.c, ctx.p, ctx.q
    if s == 0.0:
        return 0.0
    return q * c * (
        (1.0 + s) ** (q - 1.0)
        - (1.0 - s) ** (q - 1.0)
        - 2.0 * (1.0 + s**p) ** (q - 2.0) * s ** (p - 1.0)
    )


@dataclass(frozen=True)
class SignScanReport:
    has_positive: bool
    has_negative: bool
    sign_change_intervals: Tuple[Tuple[float, float], ...]


def chi_sign_scan(ctx: ChiContext, grid_size: int) -> SignScanReport:
    """Scan chi over a uniform grid on [0, c] for sign behaviour."""
    if grid_size < 3:
        raise DomainError(f"grid_size must be >= 3, got {grid_size}")
    ss = [ctx.c * k / (grid_size - 1) for k in range(grid_size)]
    vals = [chi(ctx, s) for s in ss]
    has_pos = any(v > _ZERO_TOL for v in vals)
    has_neg = any(v < -_ZERO_TOL for v in vals)
    intervals: List[Tuple[float, float]] = []
    prev_sign = 0
    prev_s = ss[0]
    for s, v in zip(ss, vals):
        sign = 1 if v > _ZERO_TOL else (-1 if v < -_ZERO_TOL else 0)
        if sign != 0:
            if prev_sign != 0 and sign != prev_sign:
                intervals.append((prev_s, s))
            prev_sign = sign
            prev_s = s
    return SignScanReport(has_pos, has_neg, tuple(intervals))
