"""Oriented gap functionals for the Clarkson-type norm inequalities.

Every evaluation returns a GapReport whose gap (rhs - lhs) is oriented so
that gap >= 0 means "the inequality holds in its stated regime".  For the
three classical two-sided inequalities the 1 < p < 2 reverse regime is
absorbed by exchanging lhs and rhs inside the statement, so callers see a
single uniform verdict rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import (
    NonnegVector,
    RealVector,
    Weights,
    _abs_powers,
    _check_entries,
    _p_norm,
    combine,
    conjugate_exponent,
    main_exponents,
)
from .errors import (
    ClarksonError,
    ConstraintMismatch,
    DominanceViolation,
    ExponentOutOfRange,
    LengthMismatch,
    NonFiniteGap,
    RegimeViolation,
)


class InequalityId(enum.Enum):
    C11 = "c-1.1"
    C12 = "c-1.2"
    C13_LEFT = "c-1.3-left"
    C13_RIGHT = "c-1.3-right"
    MAIN_17 = "main-1.7"
    PROP_14 = "prop-1.4"
    COR_16 = "cor-1.6"
    SWAP_28 = "swap-2.8"
    SUMPOW_212 = "sumpow-2.12"
    REARR_GAIN_217 = "rearr-2.17"

    @classmethod
    def from_cli(cls, name: str) -> "InequalityId":
        for member in cls:
            if member.value == name:
                return member
        raise ClarksonError(f"unknown inequality id {name!r}")


class Constraint(enum.Enum):
    NONNEGATIVE = "nonnegative"
    SIGNED = "signed"
    DOMINATED_PAIR = "dominated"

    def within(self, other: "Constraint") -> bool:
        """True when every input meeting self also meets other."""
        narrowing = (Constraint.SIGNED, Constraint.NONNEGATIVE, Constraint.DOMINATED_PAIR)
        return narrowing.index(self) >= narrowing.index(other)


class Verdict(enum.Enum):
    HOLDS = "holds"
    BORDERLINE = "borderline"
    VIOLATED = "violated"


@dataclass(frozen=True)
class TolerancePolicy:
    rel_tol: float = 1e-9
    borderline_band: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= self.borderline_band):
            raise ValueError("need 0 < rel_tol <= borderline_band")


DEFAULT_POLICY = TolerancePolicy()


def classify(gap: float, scale: float, policy: TolerancePolicy = DEFAULT_POLICY) -> Verdict:
    """Tri-state verdict: clear hold, clear violation, or borderline.

    Equality cases (e.g. y = 0) sit exactly at gap 0 and must not be
    reported as violations under roundoff, hence the borderline band.
    """
    if gap >= policy.rel_tol * scale:
        return Verdict.HOLDS
    if gap <= -policy.borderline_band * scale:
        return Verdict.VIOLATED
    return Verdict.BORDERLINE


@dataclass(frozen=True)
class GapReport:
    """One inequality evaluation: sides, oriented gap, and verdict."""

    id: InequalityId
    p: float
    q: float
    lhs: float
    rhs: float
    gap: float
    scale: float
    verdict: Verdict

    @property
    def normalized_gap(self) -> float:
        return self.gap / self.scale


def report(
    id: InequalityId,
    p: float,
    q: float,
    lhs: float,
    rhs: float,
    policy: TolerancePolicy,
) -> GapReport:
    """The report on lhs <= rhs; a non-finite gap or scale raises NonFiniteGap."""
    gap = rhs - lhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    if not (math.isfinite(gap) and math.isfinite(scale)):
        raise NonFiniteGap(f"{id.value}: non-finite gap (lhs={lhs!r}, rhs={rhs!r})")
    # The same object GapReport(...) builds.  Its frozen __init__ sets each
    # field through object.__setattr__; one dict update costs a third.
    rep = object.__new__(GapReport)
    rep.__dict__.update(id=id, p=p, q=q, lhs=lhs, rhs=rhs, gap=gap, scale=scale,
                        verdict=classify(gap, scale, policy))
    return rep


def _evaluate(id, x, y, p, q, w, policy, entry=None) -> GapReport:
    """The report on entry's statement, by default id's as stated here.

    The exponents come first: entry.exponents raises outside the regime
    and gives the (p, q) the rest is taken at.  x, y and w are validated
    vectors and weights; the quantities see their plain float tuples.
    """
    if entry is None:
        entry = _STATEMENTS[id]
    p, q = entry.exponents(p, q)
    try:
        quantities = entry.quantities(
            x.entries, y.entries, p, q, None if w is None else w.masses)
        lhs, rhs = entry.sides(*quantities, p, q)
    except OverflowError as exc:  # Python's float ** and math.fsum; numpy gives inf
        raise NonFiniteGap(f"{id.value}: non-finite gap (overflow)") from exc
    return report(id, p, q, lhs, rhs, policy)


def _pair_norms(x, y, p: float, q: Optional[float], w) -> Tuple[float, float, float, float]:
    """(||x||, ||y||, ||x+y||, ||x-y||) at exponent p, on float sequences."""
    nx, ny = _p_norm(x, p, w), _p_norm(y, p, w)
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    # x + y and x - y are checked as RealVector checks them: an overflow
    # raises NonFiniteEntry at its index.
    ns = _p_norm(_check_entries([a + b for a, b in zip(x, y)]), p, w)
    return nx, ny, ns, _p_norm(_check_entries([a - b for a, b in zip(x, y)]), p, w)


def _batch_power_sums(z: np.ndarray, k: float, w: Optional[np.ndarray]) -> np.ndarray:
    """Sum over the last axis of w|z|^k, for k >= 1, raising only nonzero entries.

    Zeros, the padding among them, stay 0, which is what |0|^k gives, so
    the sums equal the dense ones bit for bit.  Sums are numpy's, not
    math.fsum; see search._SCREEN_MARGIN for how far they may differ.
    """
    terms = np.power(np.abs(z), k, where=z != 0, out=np.zeros(z.shape))
    if w is not None:
        terms *= w
    return terms.sum(axis=-1)


def _batch_pair_norms(
    x: np.ndarray, y: np.ndarray, p: float, q: Optional[float], w: Optional[np.ndarray]
) -> Tuple[np.ndarray, ...]:
    """_pair_norms per row of zero-padded (B, nmax) arrays."""
    sums = _batch_power_sums(np.stack((x, y, x + y, x - y)), p, w)
    return tuple(sums ** (1.0 / p))


def _batch_repaired_sums(x: np.ndarray, y: np.ndarray, k: float, e: float) -> tuple:
    """Per row, the sums of x^k, y^k, max(x, y)^k and min(x, y)^k; then e."""
    return (*_batch_power_sums(np.stack((x, y, np.maximum(x, y), np.minimum(x, y))), k, None),
            e)


# Each statement below is written once, as (lhs, rhs) of the four norms
# (nx, ny, ns, nd) = (||x||, ||y||, ||x+y||, ||x-y||), oriented so that
# rhs - lhs >= 0 means "holds".  The same function serves the scalar
# path (floats) and the batch screen ((B,) arrays), at the (p, q) its
# entry's exponent builder returned, so no side checks a regime itself.


def _c11_sides(nx, ny, ns, nd, p: float, q: float):
    """2(||x||^p + ||y||^p)^(q-1) <= ||x+y||^q + ||x-y||^q, q conjugate to p."""
    lhs = 2.0 * (nx**p + ny**p) ** (q - 1.0)
    rhs = ns**q + nd**q
    return (rhs, lhs) if p < 2.0 else (lhs, rhs)


def _c12_sides(nx, ny, ns, nd, p: float, q: float):
    """||x+y||^p + ||x-y||^p <= 2(||x||^q + ||y||^q)^(p-1), q conjugate to p."""
    lhs = ns**p + nd**p
    rhs = 2.0 * (nx**q + ny**q) ** (p - 1.0)
    return (rhs, lhs) if p < 2.0 else (lhs, rhs)


def _c13_sides(nx, ny, ns, nd, p: float, q: float):
    """(left, right) sides of 2(||x||^p + ||y||^p) <= mid <= 2^(p-1)(...)."""
    base = nx**p + ny**p
    mid = ns**p + nd**p
    left, right = (2.0 * base, mid), (mid, 2.0 ** (p - 1.0) * base)
    if p < 2.0:
        return left[::-1], right[::-1]
    return left, right


def _main_sides(nx, ny, ns, nd, p: float, q: float):
    """2(||x||^q + ||y||^q) <= ||x+y||^q + ||x-y||^q, 2 <= p <= q."""
    return 2.0 * (nx**q + ny**q), ns**q + nd**q


def _prop_sides(nu, nv, ns, nd, p: float, q: float):
    """2(||u||^q + 2^(q-2) ||v||^q) <= ||u+v||^q + ||u-v||^q, u >= v."""
    return 2.0 * (nu**q + 2.0 ** (q - 2.0) * nv**q), ns**q + nd**q


# The re-pairing statements compare power sums instead: (a, b, u, v) are
# the sums of f(x), f(y), f(max(x, y)) and f(min(x, y)) for an entrywise
# f, and re-pairing (x, y) into (max, min) never decreases a^e + b^e.
# Their quantities carry e, taken from the checked pair: r = q for
# sumpow-2.12 on the plain sums (f(t) = t), q/p for rearr-2.17 on the
# p-th power sums (f(t) = t^p).


def _repaired_sides(a, b, u, v, e: float, p=None, q=None):
    """a^e + b^e <= u^e + v^e for the (max, min) re-pairing, e >= 1."""
    return a**e + b**e, u**e + v**e


def eval_clarkson_1_1(
    x: RealVector,
    y: RealVector,
    p: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """2(||x||_p^p + ||y||_p^p)^(q-1) <= ||x+y||_p^q + ||x-y||_p^q.

    q is the conjugate of p; the inequality reverses for 1 < p < 2.
    """
    return _evaluate(InequalityId.C11, x, y, p, None, w, policy)


def eval_clarkson_1_2(
    x: RealVector,
    y: RealVector,
    p: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """||x+y||_p^p + ||x-y||_p^p <= 2(||x||_p^q + ||y||_p^q)^(p-1)."""
    return _evaluate(InequalityId.C12, x, y, p, None, w, policy)


def eval_clarkson_1_3(
    x: RealVector,
    y: RealVector,
    p: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Tuple[GapReport, GapReport]:
    """Two-sided parallelogram-type bounds on ||x+y||_p^p + ||x-y||_p^p."""
    return tuple(_evaluate(id, x, y, p, None, w, policy)
                 for id in (InequalityId.C13_LEFT, InequalityId.C13_RIGHT))


def eval_main_1_7(
    x: NonnegVector,
    y: NonnegVector,
    p: float,
    q: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """2(||x||_p^q + ||y||_p^q) <= ||x+y||_p^q + ||x-y||_p^q on nonneg pairs.

    The formula is total on signed inputs, but only guaranteed to hold
    for nonnegative ones; the signed case is exploration territory.
    """
    return _evaluate(InequalityId.MAIN_17, x, y, p, q, w, policy)


def _dominated_norms(u, v, p, q, w):
    if len(u) != len(v):
        raise LengthMismatch(f"lengths {len(u)} and {len(v)} differ")
    for i, (a, b) in enumerate(zip(u, v)):
        if a < b:
            raise DominanceViolation(i)
    return _pair_norms(u, v, p, q, w)


def eval_prop_1_4(
    u: NonnegVector,
    v: NonnegVector,
    p: float,
    q: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """Improved bound 2(||u||^q + 2^(q-2) ||v||^q) for dominated pairs u >= v."""
    return _evaluate(InequalityId.PROP_14, u, v, p, q, w, policy)


def eval_corollary_1_6(
    x: float,
    y: float,
    q: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """Scalar case: 2(x^q + 2^(q-2) y^q) <= (x+y)^q + (x-y)^q for x >= y >= 0."""
    return _evaluate(InequalityId.COR_16, RealVector((x,)), RealVector((y,)), q, q, None, policy)


def halving_substitution(x: RealVector, y: RealVector) -> Tuple[RealVector, RealVector]:
    """(x, y) -> (x+y, x-y); applying it twice gives (2x, 2y)."""
    return combine(x, y, "plus"), combine(x, y, "minus")


def _check_weights(id: InequalityId, entry: Inequality, w) -> None:
    if w is not None and not entry.weighted:
        raise ConstraintMismatch(f"{id.value} is stated without weights")


def _one_entry_terms(x, y, p, q, w):
    """(x, y, x+y, x-y): the four norms of one-entry vectors x >= y >= 0."""
    if len(x) != 1 or len(y) != 1:
        raise LengthMismatch("cor-1.6 takes scalars (1-entry vectors)")
    (a,), (b,) = x, y
    if b < 0.0 or a < b:
        raise DominanceViolation(0, f"need x >= y >= 0, got x={a}, y={b}")
    return a, b, a + b, a - b


def _repaired_sums(x, y, k: float, e: float) -> tuple:
    """Sums of |.|^k over x, y and their (max, min) re-pairing; then e.

    Ties keep (x_i, y_i) unswapped, as in rearrange.dominance_rearrange.
    The re-paired sums pick their terms from those of x and y.
    """
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    px, py = _abs_powers(x, k), _abs_powers(y, k)
    swap = [a < b for a, b in zip(x, y)]
    pu = [t if s else r for s, r, t in zip(swap, px, py)]
    pv = [r if s else t for s, r, t in zip(swap, px, py)]
    return math.fsum(px), math.fsum(py), math.fsum(pu), math.fsum(pv), e


# The exponent builders.  Each raises outside its statement's regime,
# non-finite exponents included, and otherwise returns the (p, q) the
# statement is taken at.  Built on a pair one returned, it returns that
# pair again: search hands the resolved pair back to evaluate.


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise RegimeViolation(f"need finite {name}, got {value}")
    return value


def _conjugate_exponents(p: float, q: Optional[float]) -> Tuple[float, float]:
    """(p, p/(p-1)) for c-1.1 and c-1.2; the q passed is ignored."""
    return p, conjugate_exponent(_finite("p", p))


def _c13_exponents(p: float, q: Optional[float]) -> Tuple[float, float]:
    """(p, p) for c-1.3, p > 1; the q passed is ignored."""
    if _finite("p", p) <= 1.0:
        raise ExponentOutOfRange(f"need p > 1, got {p}")
    return p, p


def _cor_exponents(p: float, q: float) -> Tuple[float, float]:
    """(q, q) for cor-1.6, q >= 2; the p passed is ignored."""
    if _finite("q", q) < 2.0:
        raise RegimeViolation(f"need q >= 2, got {q}")
    return q, q


def _sum_power_exponents(p: float, q: float) -> Tuple[float, float]:
    """(r, r) for sumpow-2.12 with r = q >= 1; the p passed is ignored."""
    if _finite("r", q) < 1.0:
        raise ExponentOutOfRange(f"need r >= 1, got {q}")
    return q, q


@dataclass(frozen=True)
class Inequality:
    """One inequality as plain data.

    exponents(p, q) is the one regime check: it raises outside the
    regime, non-finite exponents included, and otherwise returns the
    (p, q) the statement is taken at, which everything after it uses and
    the report records.  At that (p, q) the statement is
    sides(*quantities(x, y, p, q, w), p, q) -> (lhs, rhs).  quantities
    are those of one pair, given as the float tuples of validated
    vectors and weights (w None when unweighted), exact (math.fsum
    sums), after the checks the statement needs; batch_quantities takes
    the same arguments on (B, nmax) blocks and is None where a block
    cannot be screened (cor-1.6 needs one-entry rows).  constraint is the
    widest input set covered; explore admits signed inputs in
    exploration mode; weighted=False rejects weights.
    """

    constraint: Constraint
    exponents: Callable[[float, Optional[float]], Tuple[float, float]]
    sides: Callable[..., tuple]
    quantities: Callable[..., tuple] = _pair_norms
    batch_quantities: Optional[Callable[..., tuple]] = _batch_pair_norms
    weighted: bool = True
    explore: bool = False


REGISTRY: Dict[InequalityId, Inequality] = {
    InequalityId.C11: Inequality(Constraint.SIGNED, _conjugate_exponents, _c11_sides),
    InequalityId.C12: Inequality(Constraint.SIGNED, _conjugate_exponents, _c12_sides),
    InequalityId.C13_LEFT: Inequality(
        Constraint.SIGNED, _c13_exponents, lambda *norms_p_q: _c13_sides(*norms_p_q)[0]),
    InequalityId.C13_RIGHT: Inequality(
        Constraint.SIGNED, _c13_exponents, lambda *norms_p_q: _c13_sides(*norms_p_q)[1]),
    InequalityId.MAIN_17: Inequality(
        Constraint.NONNEGATIVE, main_exponents, _main_sides, explore=True),
    InequalityId.PROP_14: Inequality(
        Constraint.DOMINATED_PAIR, main_exponents, _prop_sides, _dominated_norms),
    InequalityId.COR_16: Inequality(
        Constraint.DOMINATED_PAIR, _cor_exponents, _prop_sides, _one_entry_terms,
        batch_quantities=None, weighted=False),
    InequalityId.SUMPOW_212: Inequality(
        Constraint.NONNEGATIVE, _sum_power_exponents, _repaired_sides,
        lambda x, y, p, q, w: _repaired_sums(x, y, 1.0, q),
        lambda x, y, p, q, w: _batch_repaired_sums(x, y, 1.0, q), weighted=False),
    InequalityId.REARR_GAIN_217: Inequality(
        Constraint.NONNEGATIVE, main_exponents, _repaired_sides,
        lambda x, y, p, q, w: _repaired_sums(x, y, p, q / p),
        lambda x, y, p, q, w: _batch_repaired_sums(x, y, p, q / p), weighted=False),
}

# The statements as stated here.  The eval_* functions read them, so a
# REGISTRY entry swapped at run time (as tests do) leaves them unchanged.
_STATEMENTS = dict(REGISTRY)


def lookup(id: InequalityId) -> Inequality:
    """The registry entry for id; SWAP_28 has no vector-pair form."""
    try:
        return REGISTRY[id]
    except KeyError:
        raise ClarksonError(f"{id.value} cannot be evaluated on a vector pair") from None


def _nonneg(v: RealVector) -> NonnegVector:
    return v if isinstance(v, NonnegVector) else NonnegVector(v.entries)


def evaluate(
    id: InequalityId,
    x: RealVector,
    y: RealVector,
    p: float,
    q: Optional[float] = None,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
    strict: bool = True,
) -> GapReport:
    """The report on registry entry id's statement for the pair (x, y).

    The signed-input inequalities (c-1.x) take their exponents from p
    alone and ignore any passed q.  The others need q (sumpow-2.12 uses
    r = q) and nonnegative inputs; strict=False lets the entry marked
    explore (MAIN_17 only) run on signed ones.
    """
    entry = lookup(id)
    if entry.constraint is not Constraint.SIGNED:
        if q is None:
            raise RegimeViolation(f"{id.value} requires an explicit q")
        if strict or not entry.explore:
            x, y = _nonneg(x), _nonneg(y)
    _check_weights(id, entry, w)
    return _evaluate(id, x, y, p, q, w, policy, entry)


def batch_normalized_gaps(
    id: InequalityId,
    x: np.ndarray,
    y: np.ndarray,
    p: float,
    q: Optional[float],
    w: Optional[np.ndarray] = None,
) -> np.ndarray:
    """gap / scale of entry id's statement on each row of (B, nmax) arrays.

    Rows are zero-padded pairs meeting the entry's constraint; w holds the
    weights on the same layout.  Overflow gives inf or nan instead of
    raising, so a non-finite value marks a row whose scalar evaluation
    may raise.  Only a screen: every verdict comes from evaluate.
    """
    entry = lookup(id)
    p, q = entry.exponents(p, q)
    if entry.batch_quantities is None:
        raise ClarksonError(f"{id.value} has no batch form")
    _check_weights(id, entry, w)
    with np.errstate(all="ignore"):
        lhs, rhs = entry.sides(*entry.batch_quantities(x, y, p, q, w), p, q)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        return (rhs - lhs) / scale
