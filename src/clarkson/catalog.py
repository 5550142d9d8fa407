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
from operator import add, sub
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from ._numpy import np
from .core import (
    _MIN_NORMAL,
    NonnegVector,
    RealVector,
    Weights,
    _abs_powers,
    _check_pair,
    _p_norm,
    conjugate_exponent,
    main_exponents,
)
from .errors import DomainError, NonFiniteGap


class InequalityId(enum.Enum):
    C11 = "c-1.1"
    C12 = "c-1.2"
    C13_LEFT = "c-1.3-left"
    C13_RIGHT = "c-1.3-right"
    MAIN_17 = "main-1.7"
    PROP_14 = "prop-1.4"
    COR_16 = "cor-1.6"
    SUMPOW_212 = "sumpow-2.12"
    REARR_GAIN_217 = "rearr-2.17"

    # Members are singletons and compare by identity, so they hash by it:
    # Enum's own __hash__ runs in Python, and evaluate looks REGISTRY up
    # once a pair.
    __hash__ = object.__hash__


class Constraint(enum.Enum):
    NONNEGATIVE = "nonnegative"
    SIGNED = "signed"
    DOMINATED_PAIR = "dominated"

    def within(self, other: "Constraint") -> bool:
        """True when every input meeting self also meets other."""
        narrowing = (Constraint.SIGNED, Constraint.NONNEGATIVE, Constraint.DOMINATED_PAIR)
        return narrowing.index(self) >= narrowing.index(other)


# search.SampleSpec's entry distributions, defined here so that the CLI
# lists them without importing search.
class Distribution(enum.Enum):
    UNIFORM_01 = "uniform"
    EXPONENTIAL_1 = "exponential"
    SPARSE = "sparse"


class Verdict(enum.Enum):
    HOLDS = "holds"
    BORDERLINE = "borderline"
    VIOLATED = "violated"


# An Enum attribute lookup costs several times a global's; evaluate and
# classify, which run once a pair, read these.
_SIGNED, _DOMINATED = Constraint.SIGNED, Constraint.DOMINATED_PAIR
_HOLDS, _BORDERLINE, _VIOLATED = Verdict.HOLDS, Verdict.BORDERLINE, Verdict.VIOLATED


@dataclass(frozen=True)
class TolerancePolicy:
    rel_tol: float = 1e-9
    borderline_band: float = 1e-7

    def __post_init__(self):
        if not (0.0 < self.rel_tol <= self.borderline_band < math.inf):
            raise DomainError(f"rel_tol {self.rel_tol!r}, borderline_band {self.borderline_band!r}:"
                              " need 0 < rel_tol <= borderline_band < inf")


DEFAULT_POLICY = TolerancePolicy()


def classify(gap: float, scale: float, policy: TolerancePolicy = DEFAULT_POLICY) -> Verdict:
    """Tri-state verdict: clear hold, clear violation, or borderline.

    Equality cases (e.g. y = 0) sit exactly at gap 0 and must not be
    reported as violations under roundoff, hence the borderline band.
    The normalized gap gap / scale is tested, the quantity the search's
    screen bounds: rel_tol * scale would underflow to 0 for a subnormal
    scale, and an exact zero gap would then hold.  scale must be positive
    and finite.
    """
    if not 0.0 < scale < math.inf:
        raise DomainError(f"scale must be positive and finite, got {scale!r}")
    ng = gap / scale
    if ng >= policy.rel_tol:
        return _HOLDS
    if ng <= -policy.borderline_band:
        return _VIOLATED
    return _BORDERLINE


class GapReport(NamedTuple):
    """One inequality evaluation: sides, oriented gap, and verdict.

    A tuple: it equals the plain tuple of its fields, in this order.
    """

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
    """The report on lhs <= rhs, with scale = max(|lhs|, |rhs|, 1.0) and the
    verdict classify gives; a non-finite gap raises NonFiniteGap.

    Only the gap is checked: rhs - lhs is finite only when both sides
    are, and then so is the scale.
    """
    gap = rhs - lhs
    if not math.isfinite(gap):
        raise NonFiniteGap(f"{id.value}: non-finite gap (lhs={lhs!r}, rhs={rhs!r})")
    a, b = abs(lhs), abs(rhs)
    scale = a if a > b else b  # max() with its 1.0 floor, without the call
    if scale < 1.0:
        scale = 1.0
    return GapReport(id, p, q, lhs, rhs, gap, scale, classify(gap, scale, policy))


def _pair_norms(x, y, p: float, q: Optional[float], w) -> Tuple[float, float, float, float]:
    """(||x||, ||y||, ||x+y||, ||x-y||) at exponent p, on float sequences.

    An entry of x + y or x - y that overflows is inf, which makes its
    norm inf or its power sum raise OverflowError; evaluate raises
    NonFiniteGap either way.
    """
    s, d = list(map(add, x, y)), list(map(sub, x, y))
    return _p_norm(x, p, w), _p_norm(y, p, w), _p_norm(s, p, w), _p_norm(d, p, w)


def _batch_abs_powers(z: np.ndarray, k: float) -> np.ndarray:
    """|z|^k entrywise, for k >= 1, path for path as core._abs_powers, so
    at k = 1, 2, 3 and 4 the terms equal the scalar path's bit for bit.
    At any other k every entry is raised by numpy's power; a zero entry
    gives +0.0, as on the scalar path.
    """
    if k == 2.0:
        return z * z
    if k == 3.0:
        return np.abs(z) * z * z
    if k == 4.0:
        squares = z * z
        return squares * squares
    a = np.abs(z)
    if k == 1.0:
        return a
    return np.power(a, k, out=a)


def _batch_pair_norms(
    x: np.ndarray, y: np.ndarray, starts: np.ndarray, p: float, q: Optional[float],
    w: Optional[np.ndarray],
) -> Tuple[np.ndarray, ...]:
    """_pair_norms per row of flat arrays whose rows begin at starts.

    Sums are np.add.reduceat's, not math.fsum; see
    search._SCREEN_MARGIN for how far they may differ.  A power sum
    below the smallest normal float, of entries not all 0, has lost bits
    to underflow, which core._p_norm restores by rescaling and numpy's
    sum does not: its norm is nan, so the screen keeps the row for the
    scalar path.
    """
    z = np.stack((x, y, x + y, x - y))
    terms = _batch_abs_powers(z, p)
    if w is not None:
        terms *= w
    sums = np.add.reduceat(terms, starts, axis=-1)
    lost = sums < _MIN_NORMAL
    if lost.any():
        sums[lost & np.logical_or.reduceat(z != 0.0, starts, axis=-1)] = math.nan
    return tuple(sums ** (1.0 / p))


def _batch_repaired_sums(x: np.ndarray, y: np.ndarray, starts: np.ndarray, k: float,
                         e: float) -> tuple:
    """Per row, the sums of x^k, y^k, max(x, y)^k and min(x, y)^k; then e.

    As in _repaired_sums, x and y are raised once and the re-paired
    terms are picked from theirs, and at e = 1 both sides are the one
    sum of all 2n terms, so the gap is 0.0 on every finite row.
    """
    px, py = _batch_abs_powers(x, k), _batch_abs_powers(y, k)
    if e == 1.0:
        s = np.add.reduceat(px + py, starts)
        return s, 0.0, s, 0.0, e
    swap = x < y
    terms = (px, py, np.where(swap, py, px), np.where(swap, px, py))
    return (*(np.add.reduceat(t, starts) for t in terms), e)


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


def _c13_left_sides(nx, ny, ns, nd, p: float, q: float):
    """2(||x||^p + ||y||^p) <= ||x+y||^p + ||x-y||^p."""
    lhs = 2.0 * (nx**p + ny**p)
    rhs = ns**p + nd**p
    return (rhs, lhs) if p < 2.0 else (lhs, rhs)


def _c13_right_sides(nx, ny, ns, nd, p: float, q: float):
    """||x+y||^p + ||x-y||^p <= 2^(p-1)(||x||^p + ||y||^p)."""
    lhs = ns**p + nd**p
    rhs = 2.0 ** (p - 1.0) * (nx**p + ny**p)
    return (rhs, lhs) if p < 2.0 else (lhs, rhs)


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


def _check_weights(id: InequalityId, entry: "Inequality", weighted: bool) -> None:
    """The weights rule: weights only where entry id's statement has them."""
    if weighted and not entry.weighted:
        raise DomainError(f"{id.value} is stated without weights")


def _check_q(id: InequalityId, entry: "Inequality", q: Optional[float]) -> None:
    """The q rule: every entry reads q but those whose exponents come from p alone."""
    if q is None and entry.exponents not in _P_ONLY_EXPONENTS:
        raise DomainError(f"{id.value} requires an explicit q")


def _check_one_entry(id: InequalityId, lo: int, hi: int) -> None:
    """The length rule: cor-1.6 takes a pair's lengths, or a run's dim_range, of (1, 1)."""
    if id is InequalityId.COR_16 and (lo, hi) != (1, 1):
        raise DomainError("cor-1.6 takes scalars (1-entry vectors)")


def _one_entry_terms(x, y, p, q, w):
    """(x, y, x+y, x-y): the four norms of one-entry vectors x >= y >= 0."""
    _check_one_entry(InequalityId.COR_16, len(x), len(y))
    (a,), (b,) = x, y
    return a, b, a + b, a - b


def _batch_one_entry_terms(x, y, starts, p, q, w):
    """_one_entry_terms per row, each row one entry: a run's dim_range is (1, 1)."""
    return x, y, x + y, x - y


def _repaired_sums(x, y, k: float, e: float) -> tuple:
    """Sums of |.|^k over x, y and their (max, min) re-pairing; then e.

    Ties keep (x_i, y_i) unswapped, as in rearrange.dominance_rearrange.
    The re-paired sums pick their terms from those of x and y.

    The statement is an identity on two kinds of cell (Inequality.identity),
    and there the gap is exactly 0.0.  At e = 1 (r = 1 for sumpow-2.12,
    p == q for rearr-2.17) both sides are the sum of the same 2n terms:
    each is taken as one math.fsum S of them, returned as (S, 0.0, S, 0.0),
    so both are the same correctly rounded float.  Should S overflow
    math.fsum, the OverflowError reaches evaluate, which raises
    NonFiniteGap.  On a dominated pair (x >= y) the re-pairing swaps
    nothing, so u == a and v == b bit for bit.
    """
    px, py = list(_abs_powers(x, k)), list(_abs_powers(y, k))
    if e == 1.0:
        s = math.fsum(px + py)
        return s, 0.0, s, 0.0, e
    pu = [t if a < b else r for a, b, r, t in zip(x, y, px, py)]
    pv = [r if a < b else t for a, b, r, t in zip(x, y, px, py)]
    return math.fsum(px), math.fsum(py), math.fsum(pu), math.fsum(pv), e


# The exponent builders.  Each raises outside its statement's regime,
# non-finite exponents included, and otherwise returns the (p, q) the
# statement is taken at.  Built on a pair one returned, it returns that
# pair again: search hands the resolved pair back to evaluate.


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise DomainError(f"need finite {name}, got {value}")
    return value


def _conjugate_exponents(p: float, q: Optional[float]) -> Tuple[float, float]:
    """(p, p/(p-1)) for c-1.1 and c-1.2; the q passed is ignored."""
    return p, conjugate_exponent(_finite("p", p))


def _c13_exponents(p: float, q: Optional[float]) -> Tuple[float, float]:
    """(p, p) for c-1.3, p > 1; the q passed is ignored."""
    if _finite("p", p) <= 1.0:
        raise DomainError(f"need p > 1, got {p}")
    return p, p


# The builders of the c-1.x entries, stated in p alone.
_P_ONLY_EXPONENTS = (_conjugate_exponents, _c13_exponents)


def _cor_exponents(p: float, q: float) -> Tuple[float, float]:
    """(q, q) for cor-1.6, q >= 2; the p passed is ignored."""
    if _finite("q", q) < 2.0:
        raise DomainError(f"need q >= 2, got {q}")
    return q, q


def _sum_power_exponents(p: float, q: float) -> Tuple[float, float]:
    """(r, r) for sumpow-2.12 with r = q >= 1; the p passed is ignored."""
    if _finite("r", q) < 1.0:
        raise DomainError(f"need r >= 1, got {q}")
    return q, q


@dataclass(frozen=True)
class Inequality:
    """One inequality as plain data, read by evaluate (one pair) and
    batch_normalized_gaps (a block); nothing else restates it.

    exponents(p, q) is the one regime check: it raises outside the
    regime, non-finite exponents included, and otherwise returns the
    (p, q) the statement is taken at, which everything after it uses and
    the report records.  At that (p, q) the statement is
    sides(*quantities(x, y, p, q, w), p, q) -> (lhs, rhs).  quantities
    are those of one pair, exact (math.fsum sums): plain arithmetic on
    the float tuples of vectors and weights (w None when unweighted)
    that evaluate has already checked, the pair by core._check_pair
    (x >= y when constraint is DOMINATED_PAIR); batch_quantities(x, y,
    starts, p, q, w) gives them per row of flat arrays of the entries
    of several pairs, row r beginning at starts[r].  constraint is the
    widest input set covered; weighted=False rejects weights.
    identity(p, q, constraint) is True on the cells where the statement
    is an identity, at a (p, q) exponents returned and on inputs meeting
    constraint: there every scalar gap that evaluate does not raise on is
    exactly 0.0, and every finite batch gap is 0.0 (search reads it).
    """

    constraint: Constraint
    exponents: Callable[[float, Optional[float]], Tuple[float, float]]
    sides: Callable[..., tuple]
    quantities: Callable[..., tuple] = _pair_norms
    batch_quantities: Callable[..., tuple] = _batch_pair_norms
    weighted: bool = True
    identity: Callable[[float, float, Constraint], bool] = lambda p, q, constraint: False


REGISTRY: Dict[InequalityId, Inequality] = {
    InequalityId.C11: Inequality(Constraint.SIGNED, _conjugate_exponents, _c11_sides),
    InequalityId.C12: Inequality(Constraint.SIGNED, _conjugate_exponents, _c12_sides),
    InequalityId.C13_LEFT: Inequality(Constraint.SIGNED, _c13_exponents, _c13_left_sides),
    InequalityId.C13_RIGHT: Inequality(Constraint.SIGNED, _c13_exponents, _c13_right_sides),
    InequalityId.MAIN_17: Inequality(Constraint.SIGNED, main_exponents, _main_sides),
    InequalityId.PROP_14: Inequality(
        Constraint.DOMINATED_PAIR, main_exponents, _prop_sides),
    InequalityId.COR_16: Inequality(
        Constraint.DOMINATED_PAIR, _cor_exponents, _prop_sides, _one_entry_terms,
        _batch_one_entry_terms, weighted=False),
    InequalityId.SUMPOW_212: Inequality(
        Constraint.NONNEGATIVE, _sum_power_exponents, _repaired_sides,
        lambda x, y, p, q, w: _repaired_sums(x, y, 1.0, q),
        lambda x, y, starts, p, q, w: _batch_repaired_sums(x, y, starts, 1.0, q),
        weighted=False,
        identity=lambda p, q, constraint: q == 1.0 or constraint is _DOMINATED),
    InequalityId.REARR_GAIN_217: Inequality(
        Constraint.NONNEGATIVE, main_exponents, _repaired_sides,
        lambda x, y, p, q, w: _repaired_sums(x, y, p, q / p),
        lambda x, y, starts, p, q, w: _batch_repaired_sums(x, y, starts, p, q / p),
        weighted=False,
        identity=lambda p, q, constraint: p == q or constraint is _DOMINATED),
}


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
) -> GapReport:
    """The report on registry entry id's statement for the pair (x, y).

    The c-1.x inequalities take their exponents from p alone and ignore
    any passed q.  The others need q (sumpow-2.12 uses r = q), and all
    but the signed-input ones (c-1.x and main-1.7) need nonnegative
    inputs.  After the input checks the exponents come first:
    entry.exponents raises outside the regime and gives the (p, q) the
    rest is taken at.  Then core._check_pair checks the pair once, and
    the quantities see the plain float tuples of the checked vectors and
    weights.
    """
    entry = REGISTRY[id]
    constraint = entry.constraint
    _check_q(id, entry, q)
    if constraint is not _SIGNED:
        x, y = _nonneg(x), _nonneg(y)
    _check_weights(id, entry, w is not None)
    p, q = entry.exponents(p, q)
    masses = None if w is None else w.masses
    _check_pair(x.entries, y.entries, masses, constraint is _DOMINATED)
    try:
        quantities = entry.quantities(x.entries, y.entries, p, q, masses)
        lhs, rhs = entry.sides(*quantities, p, q)
    except OverflowError as exc:  # Python's float ** and math.fsum; numpy gives inf
        raise NonFiniteGap(f"{id.value}: non-finite gap (overflow)") from exc
    return report(id, p, q, lhs, rhs, policy)


# Sides above this screen as nan (batch_normalized_gaps).
_NEAR_OVERFLOW = 2.0**1000


def batch_normalized_gaps(
    id: InequalityId,
    x: np.ndarray,
    y: np.ndarray,
    starts: np.ndarray,
    p: float,
    q: float,
    w: Optional[np.ndarray] = None,
) -> np.ndarray:
    """gap / scale of entry id's statement on each row of flat arrays.

    Row r is the pair whose entries are x, y and w from starts[r] up to
    the next row's start (the end for the last row); starts[0] is 0 and
    the starts ascend strictly, as every pair has an entry.  Rows are
    pairs meeting the entry's constraint, w their weights (None unless
    the entry is weighted) and (p, q) a pair its exponent builder
    returned; search checks these once a run, and
    nothing here checks them again.  Overflow gives inf or nan instead
    of raising, so a non-finite value marks a row whose scalar
    evaluation may raise.  A row whose sides come within 2^24 of
    overflow is nan too: there numpy's rounding may stay finite where
    the scalar path overflows.  Only a screen: every verdict comes from
    evaluate.
    """
    entry = REGISTRY[id]
    with np.errstate(all="ignore"):
        lhs, rhs = entry.sides(*entry.batch_quantities(x, y, starts, p, q, w), p, q)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        ng = (rhs - lhs) / scale
    ng[scale > _NEAR_OVERFLOW] = math.nan
    return ng
