"""Variational functions behind the dominated-pair bound and the sign-scan.

phi(t) interpolates between the trivial t = 0 case and the full
inequality at t = 1 for a dominated pair; it is nondecreasing on [0, 1]
and, since u >= v entrywise, differentiable on all of (0, 1): every
u_i - v_i t stays >= 0 there.  psi and chi probe the scalar
conjugate-exponent inequality, where chi changes sign and monotonicity
genuinely fails.

phi, phi_prime, psi, psi_prime and chi each have one grid evaluator
(`_phi_values`, `_phi_prime_values`, `_psi_values`, `_psi_prime_values`,
`_chi_values`).  It computes the constants of the context once, then
each point with the formula in the same association order, all powers
in Python `**`.  The public functions check their domain and call it on
one point; `monotonicity_scan`, `chi_sign_scan` and `phi_prime_values`
call it on their whole grid, so a value has the bits of the public call
at that point.  Each scan's report carries its grid and values, which
the CLI prints, so a table takes one pass.  Each call goes through
`_finite_values`, so all of them raise NonFiniteGap on an overflow or a
non-finite value.

phi and phi_prime are sums over the entries, and most of their time is
Python's fixed cost per comprehension and per math.fsum call.  So
`_phi_values` and `_phi_prime_values` take the grid in chunks of
m = max(1, _CHUNK_TERMS // n) points, and build each sum's terms for a
whole chunk in one entry-major comprehension,
`[(a + b * t) ** p for a, b in pairs for t in chunk]`: point j's n terms
sit at terms[j::m].  A term is the same expression on the same floats as
at one point, and math.fsum rounds the exact sum of its terms once,
whatever their order, so no value moves by a bit whether a point is
evaluated alone or in a chunk, first or last.  A chunk holds at most
_CHUNK_TERMS terms a side, or n when n exceeds it, so memory does not
grow with the grid.  The public phi and phi_prime evaluate one point,
a chunk of one, and pay the chunk's set-up for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from .core import MAX_GRID_CELLS, NonnegVector, _check_integer, _check_pair, main_exponents
from .errors import DomainError, NonFiniteGap

# chi_sign_scan counts a value within this of 0 as no sign.
_ZERO_TOL = 1e-12

# The most terms a side that _phi_values and _phi_prime_values hold at once.
_CHUNK_TERMS = 1024


@dataclass(frozen=True)
class PhiContext:
    """Frozen inputs for phi: a dominated nonneg pair u >= v and 2 <= p <= q."""

    u: NonnegVector
    v: NonnegVector
    p: float
    q: float

    def __post_init__(self):
        _check_pair(self.u.entries, self.v.entries, dominated=True)
        main_exponents(self.p, self.q)


def phi(ctx: PhiContext, t: float) -> float:
    """(sum (u+tv)^p)^(q/p) + (sum (u-tv)^p)^(q/p)
    - 2^(q-1) ((sum u^p)^(q/p) + (sum v^p)^(q/p) t^q), t in [0, 1].
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return _finite_values("phi", _phi_values, ctx, (t,))[0]


def _phi_values(ctx: PhiContext, ts: Sequence[float]) -> List[float]:
    """phi at each t of ts in [0, 1], without the domain check.

    Every base is >= 0 (u >= v >= 0, 0 <= t <= 1), so no power takes an
    absolute value; a -0.0 base only gives a zero term, and math.fsum
    returns +0.0 for a sum of zeros.  Each side's terms for a chunk of
    points come from one entry-major comprehension, point j's at
    terms[j::m]; see the module docstring.
    """
    p, q = ctx.p, ctx.q
    e = q / p
    us, vs = ctx.u.entries, ctx.v.entries
    pairs = list(zip(us, vs))
    su_e = math.fsum([a**p for a in us]) ** e
    sv_e = math.fsum([b**p for b in vs]) ** e
    k = 2.0 ** (q - 1.0)
    out: List[float] = []
    for chunk in _chunks(ts, len(pairs)):
        m = len(chunk)
        plus = [(a + b * t) ** p for a, b in pairs for t in chunk]
        minus = [(a - b * t) ** p for a, b in pairs for t in chunk]
        out += [
            math.fsum(plus[j::m]) ** e + math.fsum(minus[j::m]) ** e
            - k * (su_e + sv_e * t**q)
            for j, t in enumerate(chunk)
        ]
    return out


def phi_prime(ctx: PhiContext, t: float) -> float:
    """Analytic derivative of phi on (0, 1)."""
    return phi_prime_values(ctx, (t,))[0]


def phi_prime_values(ctx: PhiContext, ts: Sequence[float]) -> List[float]:
    """phi_prime at each t of ts, all in (0, 1); an overflow or a non-finite
    value raises NonFiniteGap."""
    bad = next((t for t in ts if not 0.0 < t < 1.0), None)
    if bad is not None:
        raise DomainError(f"phi_prime needs t in (0, 1), got {bad}")
    return _finite_values("phi_prime", _phi_prime_values, ctx, ts)


def _phi_prime_values(ctx: PhiContext, ts: Sequence[float]) -> List[float]:
    """phi_prime at each t of ts in (0, 1), without the domain check.

    As in _phi_values, every base is >= 0, the powers are plain and each
    of the four sums takes its terms for a chunk of points from one
    entry-major comprehension.
    """
    p, q = ctx.p, ctx.q
    e = q / p - 1.0
    p1 = p - 1.0
    q1 = q - 1.0
    us, vs = ctx.u.entries, ctx.v.entries
    pairs = list(zip(us, vs))
    k = 2.0**q1 * math.fsum([b**p for b in vs]) ** (q / p)
    out: List[float] = []
    for chunk in _chunks(ts, len(pairs)):
        m = len(chunk)
        splus = [(a + b * t) ** p for a, b in pairs for t in chunk]
        sminus = [(a - b * t) ** p for a, b in pairs for t in chunk]
        dplus = [b * (a + b * t) ** p1 for a, b in pairs for t in chunk]
        dminus = [b * (a - b * t) ** p1 for a, b in pairs for t in chunk]
        out += [
            q * (math.fsum(splus[j::m]) ** e * math.fsum(dplus[j::m])
                 - math.fsum(sminus[j::m]) ** e * math.fsum(dminus[j::m]) - k * t**q1)
            for j, t in enumerate(chunk)
        ]
    return out


def _chunks(ts: Sequence[float], n: int) -> List[Sequence[float]]:
    """ts cut into runs of max(1, _CHUNK_TERMS // n) points, n entries a point."""
    m = max(1, _CHUNK_TERMS // n)
    return [ts[i : i + m] for i in range(0, len(ts), m)]


def _finite_values(
    name: str,
    values: Callable[[object, Sequence[float]], List[float]],
    ctx: object,
    points: Sequence[float],
) -> List[float]:
    """values(ctx, points); an overflow or a non-finite value raises NonFiniteGap."""
    try:
        vals = values(ctx, points)
    except OverflowError as exc:  # Python's float ** and math.fsum
        raise NonFiniteGap(f"{name}: non-finite value (overflow)") from exc
    if not all(map(math.isfinite, vals)):
        x, v = next((x, v) for x, v in zip(points, vals) if not math.isfinite(v))
        raise NonFiniteGap(f"{name}: non-finite value {v!r} at {x!r}")
    return vals


@dataclass(frozen=True)
class MonotonicityReport:
    """The smallest step of phi over its grid; values holds phi on grid."""

    min_increment: float
    argmin: float
    is_nondecreasing: bool
    scale: float
    grid: Tuple[float, ...]
    values: Tuple[float, ...]


def monotonicity_scan(ctx: PhiContext, grid_size: int) -> MonotonicityReport:
    """Check phi for nondecrease on a uniform grid over [0, 1]."""
    grid_size = _check_integer("grid_size", grid_size)
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    if grid_size > MAX_GRID_CELLS:
        raise DomainError(f"grid_size {grid_size} is more than {MAX_GRID_CELLS}")
    d = grid_size - 1
    ts = [k / d for k in range(grid_size)]
    vals = _finite_values("phi", _phi_values, ctx, ts)
    scale = max(1.0, max(map(abs, vals)))
    incs = [b - a for a, b in zip(vals, vals[1:])]
    min_inc = min(incs)  # min and index both take the first of equal minima
    argmin = ts[incs.index(min_inc)]
    return MonotonicityReport(
        min_inc, argmin, min_inc >= -1e-8 * scale, scale, tuple(ts), tuple(vals))


@dataclass(frozen=True)
class ChiContext:
    """Exponents and the scalar ratio c for the psi / chi pair."""

    p: float
    q: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError(f"need finite p and q, got ({self.p}, {self.q})")
        if self.p <= 1.0 or self.q <= 1.0:
            raise DomainError(f"need p > 1 and q > 1, got ({self.p}, {self.q})")
        if not (0.0 < self.c <= 1.0):
            raise DomainError(f"need 0 < c <= 1, got c={self.c}")


def psi(ctx: ChiContext, t: float) -> float:
    """(1+ct)^q + (1-ct)^q - 2(1 + c^p t^p)^(q-1) on [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return _finite_values("psi", _psi_values, ctx, (t,))[0]


def _psi_values(ctx: ChiContext, ts: Sequence[float]) -> List[float]:
    """psi at each t of ts, without the domain check."""
    c, p, q = ctx.c, ctx.p, ctx.q
    return [
        (1.0 + c * t) ** q + (1.0 - c * t) ** q - 2.0 * (1.0 + c**p * t**p) ** (q - 1.0)
        for t in ts
    ]


def psi_prime(ctx: ChiContext, t: float) -> float:
    """qc(1+ct)^(q-1) - qc(1-ct)^(q-1) - 2p(q-1)(1+c^p t^p)^(q-2) c^p t^(p-1).

    Continuous at t = 0 with limit 0 for p > 1.
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"t must lie in [0, 1], got {t}")
    return _finite_values("psi_prime", _psi_prime_values, ctx, (t,))[0]


def _psi_prime_values(ctx: ChiContext, ts: Sequence[float]) -> List[float]:
    """psi_prime at each t of ts, without the domain check."""
    c, p, q = ctx.c, ctx.p, ctx.q
    return [
        q * c * (1.0 + c * t) ** (q - 1.0)
        - q * c * (1.0 - c * t) ** (q - 1.0)
        - 2.0 * p * (q - 1.0) * (1.0 + c**p * t**p) ** (q - 2.0) * c**p * t ** (p - 1.0)
        if t != 0.0  # where 2p(q-1) overflows (q = 1e308), inf * 0.0 would be nan
        else 0.0
        for t in ts
    ]


def chi(ctx: ChiContext, s: float) -> float:
    """qc((1+s)^(q-1) - (1-s)^(q-1) - 2(1+s^p)^(q-2) s^(p-1)) on [0, c].

    When p(q-1) = q this equals psi_prime at t = s/c.
    """
    if not (0.0 <= s <= ctx.c):
        raise DomainError(f"s must lie in [0, {ctx.c}], got {s}")
    return _finite_values("chi", _chi_values, ctx, (s,))[0]


def _chi_values(ctx: ChiContext, ss: Sequence[float]) -> List[float]:
    """chi at each s of ss, without the domain check."""
    p = ctx.p
    qc = ctx.q * ctx.c
    p1, q1, q2 = p - 1.0, ctx.q - 1.0, ctx.q - 2.0
    return [
        qc * ((1.0 + s) ** q1 - (1.0 - s) ** q1 - 2.0 * (1.0 + s**p) ** q2 * s**p1)
        for s in ss
    ]


@dataclass(frozen=True)
class SignScanReport:
    """The signs of chi over its grid; values holds chi on grid."""

    has_positive: bool
    has_negative: bool
    sign_change_intervals: Tuple[Tuple[float, float], ...]
    grid: Tuple[float, ...]
    values: Tuple[float, ...]


def chi_sign_scan(ctx: ChiContext, grid_size: int) -> SignScanReport:
    """Scan chi over a uniform grid on [0, c] for sign behaviour."""
    grid_size = _check_integer("grid_size", grid_size)
    if grid_size < 3:
        raise DomainError(f"grid_size must be >= 3, got {grid_size}")
    if grid_size > MAX_GRID_CELLS:
        raise DomainError(f"grid_size {grid_size} is more than {MAX_GRID_CELLS}")
    c, d = ctx.c, grid_size - 1
    ss = [c * k / d for k in range(grid_size)]
    # c * d / d can round one ulp past c, outside chi's domain
    ss[-1] = min(ss[-1], c)
    vals = _finite_values("chi", _chi_values, ctx, ss)
    tol = _ZERO_TOL
    has_pos = has_neg = False
    intervals: List[Tuple[float, float]] = []
    prev_sign = 0
    prev_s = ss[0]
    for s, v in zip(ss, vals):
        if v > tol:
            sign = 1
            has_pos = True
        elif v < -tol:
            sign = -1
            has_neg = True
        else:
            continue
        if prev_sign != 0 and sign != prev_sign:
            intervals.append((prev_s, s))
        prev_sign = sign
        prev_s = s
    return SignScanReport(has_pos, has_neg, tuple(intervals), tuple(ss), tuple(vals))
