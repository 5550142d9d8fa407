"""Oriented gap functionals for the Clarkson-type norm inequalities.

Every evaluator returns a GapReport whose gap (rhs - lhs) is oriented so
that gap >= 0 means "the inequality holds in its stated regime".  For the
three classical two-sided inequalities the 1 < p < 2 reverse regime is
absorbed by exchanging lhs and rhs inside the evaluator, so callers see a
single uniform verdict rule.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .core import (
    ExponentPair,
    NonnegVector,
    RealVector,
    Weights,
    combine,
    conjugate_exponent,
    p_norm,
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


def _report(
    id: InequalityId,
    p: float,
    q: float,
    lhs: float,
    rhs: float,
    policy: TolerancePolicy,
) -> GapReport:
    gap = rhs - lhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    if not (math.isfinite(gap) and math.isfinite(scale)):
        raise NonFiniteGap(f"{id.value}: non-finite gap (lhs={lhs!r}, rhs={rhs!r})")
    return GapReport(id, p, q, lhs, rhs, gap, scale, classify(gap, scale, policy))


def _pair_norms(
    x: RealVector, y: RealVector, p: float, w: Optional[Weights]
) -> Tuple[float, float, float, float]:
    """(||x||, ||y||, ||x+y||, ||x-y||) at exponent p."""
    return (
        p_norm(x, p, w),
        p_norm(y, p, w),
        p_norm(combine(x, y, "plus"), p, w),
        p_norm(combine(x, y, "minus"), p, w),
    )


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
    x: np.ndarray, y: np.ndarray, p: float, w: Optional[np.ndarray]
) -> Tuple[np.ndarray, ...]:
    """_pair_norms per row of zero-padded (B, nmax) arrays."""
    sums = _batch_power_sums(np.stack((x, y, x + y, x - y)), p, w)
    return tuple(sums ** (1.0 / p))


def _batch_repaired_sums(x: np.ndarray, y: np.ndarray, k: float) -> Tuple[np.ndarray, ...]:
    """Per row, the sums of x^k, y^k, max(x, y)^k and min(x, y)^k."""
    return tuple(_batch_power_sums(np.stack((x, y, np.maximum(x, y), np.minimum(x, y))),
                                   k, None))


# Each statement below is written once, as (lhs, rhs) of the four norms
# (nx, ny, ns, nd) = (||x||, ||y||, ||x+y||, ||x-y||), oriented so that
# rhs - lhs >= 0 means "holds".  The same function serves the scalar
# evaluators (floats) and the batch screen ((B,) arrays), and raises for
# exponents outside its regime on both paths.


def _c11_sides(nx, ny, ns, nd, p: float, q: Optional[float] = None):
    """2(||x||^p + ||y||^p)^(q-1) <= ||x+y||^q + ||x-y||^q, q conjugate to p."""
    q = conjugate_exponent(p)
    lhs = 2.0 * (nx**p + ny**p) ** (q - 1.0)
    rhs = ns**q + nd**q
    return (rhs, lhs) if p < 2.0 else (lhs, rhs)


def _c12_sides(nx, ny, ns, nd, p: float, q: Optional[float] = None):
    """||x+y||^p + ||x-y||^p <= 2(||x||^q + ||y||^q)^(p-1), q conjugate to p."""
    q = conjugate_exponent(p)
    lhs = ns**p + nd**p
    rhs = 2.0 * (nx**q + ny**q) ** (p - 1.0)
    return (rhs, lhs) if p < 2.0 else (lhs, rhs)


def _c13_sides(nx, ny, ns, nd, p: float, q: Optional[float] = None):
    """(left, right) sides of 2(||x||^p + ||y||^p) <= mid <= 2^(p-1)(...)."""
    if p <= 1.0:
        raise ExponentOutOfRange(f"need p > 1, got {p}")
    base = nx**p + ny**p
    mid = ns**p + nd**p
    left, right = (2.0 * base, mid), (mid, 2.0 ** (p - 1.0) * base)
    if p < 2.0:
        return left[::-1], right[::-1]
    return left, right


def _check_main_regime(p: float, q: float) -> None:
    if not (2.0 <= p <= q):
        raise RegimeViolation(f"need 2 <= p <= q, got ({p}, {q})")


def _main_sides(nx, ny, ns, nd, p: float, q: float):
    """2(||x||^q + ||y||^q) <= ||x+y||^q + ||x-y||^q, 2 <= p <= q."""
    _check_main_regime(p, q)
    return 2.0 * (nx**q + ny**q), ns**q + nd**q


def _prop_sides(nu, nv, ns, nd, p: float, q: float):
    """2(||u||^q + 2^(q-2) ||v||^q) <= ||u+v||^q + ||u-v||^q, u >= v."""
    _check_main_regime(p, q)
    return 2.0 * (nu**q + 2.0 ** (q - 2.0) * nv**q), ns**q + nd**q


# The re-pairing statements compare power sums instead: (a, b, u, v) are
# the sums of f(x), f(y), f(max(x, y)) and f(min(x, y)) for an entrywise
# f, and re-pairing (x, y) into (max, min) never decreases a^e + b^e.


def _repaired_sides(a, b, u, v, e: float):
    """a^e + b^e <= u^e + v^e for the (max, min) re-pairing, e >= 1."""
    return a**e + b**e, u**e + v**e


def _sumpow_exponent(r: float) -> float:
    """e = r for sumpow-2.12 on the plain sums (f(t) = t)."""
    if r < 1.0:
        raise ExponentOutOfRange(f"need r >= 1, got {r}")
    return r


def _rearr_exponent(p: float, q: float) -> float:
    """e = q/p for rearr-2.17 on the p-th power sums (f(t) = t^p)."""
    _check_main_regime(p, q)
    return q / p


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
    lhs, rhs = _c11_sides(*_pair_norms(x, y, p, w), p)
    return _report(InequalityId.C11, p, conjugate_exponent(p), lhs, rhs, policy)


def eval_clarkson_1_2(
    x: RealVector,
    y: RealVector,
    p: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """||x+y||_p^p + ||x-y||_p^p <= 2(||x||_p^q + ||y||_p^q)^(p-1)."""
    lhs, rhs = _c12_sides(*_pair_norms(x, y, p, w), p)
    return _report(InequalityId.C12, p, conjugate_exponent(p), lhs, rhs, policy)


def eval_clarkson_1_3(
    x: RealVector,
    y: RealVector,
    p: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> Tuple[GapReport, GapReport]:
    """Two-sided parallelogram-type bounds on ||x+y||_p^p + ||x-y||_p^p."""
    left, right = _c13_sides(*_pair_norms(x, y, p, w), p)
    return (
        _report(InequalityId.C13_LEFT, p, p, *left, policy),
        _report(InequalityId.C13_RIGHT, p, p, *right, policy),
    )


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
    lhs, rhs = _main_sides(*_pair_norms(x, y, p, w), p, q)
    return _report(InequalityId.MAIN_17, p, q, lhs, rhs, policy)


def _check_dominance(u: NonnegVector, v: NonnegVector) -> None:
    if len(u) != len(v):
        raise LengthMismatch(f"lengths {len(u)} and {len(v)} differ")
    for i, (a, b) in enumerate(zip(u.entries, v.entries)):
        if a < b:
            raise DominanceViolation(i)


def eval_prop_1_4(
    u: NonnegVector,
    v: NonnegVector,
    p: float,
    q: float,
    w: Optional[Weights] = None,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """Improved bound 2(||u||^q + 2^(q-2) ||v||^q) for dominated pairs u >= v."""
    _check_dominance(u, v)
    lhs, rhs = _prop_sides(*_pair_norms(u, v, p, w), p, q)
    return _report(InequalityId.PROP_14, p, q, lhs, rhs, policy)


def eval_corollary_1_6(
    x: float,
    y: float,
    q: float,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> GapReport:
    """Scalar case: 2(x^q + 2^(q-2) y^q) <= (x+y)^q + (x-y)^q for x >= y >= 0."""
    if q < 2.0:
        raise RegimeViolation(f"need q >= 2, got {q}")
    if y < 0.0 or x < y:
        raise DominanceViolation(0, f"need x >= y >= 0, got x={x}, y={y}")
    lhs = 2.0 * (x**q + 2.0 ** (q - 2.0) * y**q)
    rhs = (x + y) ** q + (x - y) ** q
    return _report(InequalityId.COR_16, q, q, lhs, rhs, policy)


def halving_substitution(x: RealVector, y: RealVector) -> Tuple[RealVector, RealVector]:
    """(x, y) -> (x+y, x-y); applying it twice gives (2x, 2y)."""
    return combine(x, y, "plus"), combine(x, y, "minus")


def _unweighted(id: InequalityId, w: Optional[Weights]) -> None:
    if w is not None:
        raise ConstraintMismatch(f"{id.value} is stated without weights")


def _eval_cor_1_6(x, y, p, q, w, policy) -> GapReport:
    _unweighted(InequalityId.COR_16, w)
    if len(x) != 1 or len(y) != 1:
        raise LengthMismatch("cor-1.6 takes scalars (1-entry vectors)")
    return eval_corollary_1_6(x.entries[0], y.entries[0], q, policy)


def _eval_sumpow_2_12(x, y, p, q, w, policy) -> GapReport:
    _unweighted(InequalityId.SUMPOW_212, w)
    return rearrange.sum_power_rearrangement_gap(x, y, q, policy)


def _eval_rearr_2_17(x, y, p, q, w, policy) -> GapReport:
    _unweighted(InequalityId.REARR_GAIN_217, w)
    return rearrange.rearrangement_norm_gain(x, y, p, q, policy)


def _sumpow_quantities(x, y, p, w):
    _unweighted(InequalityId.SUMPOW_212, w)
    return _batch_repaired_sums(x, y, 1.0)


def _rearr_quantities(x, y, p, w):
    _unweighted(InequalityId.REARR_GAIN_217, w)
    return _batch_repaired_sums(x, y, p)


def _conjugate_exponents(p: float, q: float) -> ExponentPair:
    return ExponentPair.conjugate(p) if p >= 2.0 else ExponentPair.reverse(p)


def _cor_1_6_exponents(p: float, q: float) -> ExponentPair:
    if q < 2.0:
        raise RegimeViolation(f"need q >= 2, got {q}")
    return ExponentPair.scalar(q)


@dataclass(frozen=True)
class Inequality:
    """Everything the package needs to know about one inequality.

    evaluate(x, y, p, q, w, policy) gives the report on inputs meeting
    constraint, the widest input set the statement covers.
    exponents(p, q) builds the ExponentPair to sample at and raises
    ClarksonError outside the stated regime.  explore, when present, is
    the formula run on signed inputs in exploration mode.  sides, when
    present, is the statement as (lhs, rhs) of four quantities of the
    pair; it is what evaluate (and explore) compute, and
    batch_normalized_gaps runs it on whole blocks of pairs, with the
    quantities computed per row by quantities(x, y, p, w): the
    pair norms by default, the re-paired power sums for sumpow-2.12 and
    rearr-2.17.
    """

    evaluate: Callable[..., GapReport]
    constraint: Constraint
    exponents: Callable[[float, float], ExponentPair]
    explore: Optional[Callable[..., GapReport]] = None
    sides: Optional[Callable[..., tuple]] = None
    quantities: Callable[..., tuple] = _batch_pair_norms


REGISTRY: Dict[InequalityId, Inequality] = {
    InequalityId.C11: Inequality(
        lambda x, y, p, q, w, policy: eval_clarkson_1_1(x, y, p, w, policy),
        Constraint.SIGNED, _conjugate_exponents, sides=_c11_sides),
    InequalityId.C12: Inequality(
        lambda x, y, p, q, w, policy: eval_clarkson_1_2(x, y, p, w, policy),
        Constraint.SIGNED, _conjugate_exponents, sides=_c12_sides),
    InequalityId.C13_LEFT: Inequality(
        lambda x, y, p, q, w, policy: eval_clarkson_1_3(x, y, p, w, policy)[0],
        Constraint.SIGNED, _conjugate_exponents,
        sides=lambda *norms_p_q: _c13_sides(*norms_p_q)[0]),
    InequalityId.C13_RIGHT: Inequality(
        lambda x, y, p, q, w, policy: eval_clarkson_1_3(x, y, p, w, policy)[1],
        Constraint.SIGNED, _conjugate_exponents,
        sides=lambda *norms_p_q: _c13_sides(*norms_p_q)[1]),
    InequalityId.MAIN_17: Inequality(
        eval_main_1_7, Constraint.NONNEGATIVE, ExponentPair.main, eval_main_1_7, _main_sides),
    InequalityId.PROP_14: Inequality(
        eval_prop_1_4, Constraint.DOMINATED_PAIR, ExponentPair.main, sides=_prop_sides),
    InequalityId.COR_16: Inequality(
        _eval_cor_1_6, Constraint.DOMINATED_PAIR, _cor_1_6_exponents),
    InequalityId.SUMPOW_212: Inequality(
        _eval_sumpow_2_12, Constraint.NONNEGATIVE, lambda p, q: ExponentPair.scalar(q),
        sides=lambda a, b, u, v, p, q: _repaired_sides(a, b, u, v, _sumpow_exponent(q)),
        quantities=_sumpow_quantities),
    InequalityId.REARR_GAIN_217: Inequality(
        _eval_rearr_2_17, Constraint.NONNEGATIVE, ExponentPair.main,
        sides=lambda a, b, u, v, p, q: _repaired_sides(a, b, u, v, _rearr_exponent(p, q)),
        quantities=_rearr_quantities),
}


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
    """Dispatch a pair (x, y) to the evaluator registered for id.

    The signed-input inequalities are the conjugate-pair ones: they derive
    q from p and ignore any passed q.  The rearrangement ids use r = q.
    strict=False runs the signed exploration formula where the entry has
    one (MAIN_17 only).
    """
    entry = lookup(id)
    if entry.constraint is Constraint.SIGNED:
        return entry.evaluate(x, y, p, q, w, policy)
    if q is None:
        raise RegimeViolation(f"{id.value} requires an explicit q")
    if not strict and entry.explore is not None:
        return entry.explore(x, y, p, q, w, policy)
    return entry.evaluate(_nonneg(x), _nonneg(y), p, q, w, policy)


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
    if entry.sides is None:
        raise ClarksonError(f"{id.value} has no batch form")
    with np.errstate(all="ignore"):
        lhs, rhs = entry.sides(*entry.quantities(x, y, p, w), p, q)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        return (rhs - lhs) / scale


# rearrange builds its reports with _report, so it can only be imported
# once this module's names exist; the evaluators above look it up per call.
from . import rearrange  # noqa: E402
