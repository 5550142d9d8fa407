"""evaluate against a reference evaluator written in its plainest form.

The reference below restates the scalar path: each norm takes its power
sum as one math.fsum of core._abs_powers' terms, rescaled in a second
sum when it underflows, and the report floors the scale with max() and
checks both the gap and the scale.  evaluate checks only the gap; both
must give the same bits, or raise the same exception, index and text,
on every registry entry.  The inputs reach 1e154 and 1e308, where
x + y, x - y, the power terms and math.fsum overflow; an overflowing
entry of x + y or x - y is never named, and its pair raises
NonFiniteGap.
"""

import math
import sys
from operator import add, mul, sub

from hypothesis import example, given, settings, strategies as st

from clarkson.catalog import (
    DEFAULT_POLICY,
    REGISTRY,
    Constraint,
    InequalityId,
    _pair_norms,
    classify,
    evaluate,
)
from clarkson.core import (
    NonnegVector,
    RealVector,
    Weights,
    _abs_powers,
    _check_pair,
)
from clarkson.errors import DomainError, NonFiniteGap

# The entries stated in p alone; every other one needs q.
P_ONLY_IDS = (InequalityId.C11, InequalityId.C12, InequalityId.C13_LEFT, InequalityId.C13_RIGHT)


def ref_power_sum(entries, p, masses):
    terms = _abs_powers(entries, p)
    return math.fsum(terms if masses is None else map(mul, masses, terms))


def ref_p_norm(entries, p, masses=None):
    s = ref_power_sum(entries, p, masses)
    k = 0
    if s < sys.float_info.min:
        k = math.frexp(max(map(abs, entries)))[1]
        if k:
            s = ref_power_sum([math.ldexp(x, -k) for x in entries], p, masses)
    if s == 0.0 or p == 1.0:
        norm = s
    elif p == 2.0:
        norm = math.sqrt(s)
    else:
        norm = s ** (1.0 / p)
    return math.ldexp(norm, k) if k else norm


def ref_pair_norms(x, y, p, q, w):
    nx, ny = ref_p_norm(x, p, w), ref_p_norm(y, p, w)
    ns = ref_p_norm(list(map(add, x, y)), p, w)
    return nx, ny, ns, ref_p_norm(list(map(sub, x, y)), p, w)


def ref_evaluate(id, x, y, p, q, w):
    """(lhs, rhs, gap, scale, verdict) of entry id's statement on (x, y)."""
    entry = REGISTRY[id]
    if q is None and id not in P_ONLY_IDS:
        raise DomainError(f"{id.value} requires an explicit q")
    if entry.constraint is not Constraint.SIGNED:
        x, y = (v if isinstance(v, NonnegVector) else NonnegVector(v.entries) for v in (x, y))
    if w is not None and not entry.weighted:
        raise DomainError(f"{id.value} is stated without weights")
    p, q = entry.exponents(p, q)
    masses = None if w is None else w.masses
    _check_pair(x.entries, y.entries, masses, entry.constraint is Constraint.DOMINATED_PAIR)
    quantities = ref_pair_norms if entry.quantities is _pair_norms else entry.quantities
    try:
        lhs, rhs = entry.sides(*quantities(x.entries, y.entries, p, q, masses), p, q)
    except OverflowError as exc:
        raise NonFiniteGap(f"{id.value}: non-finite gap (overflow)") from exc
    gap = rhs - lhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    if not (math.isfinite(gap) and math.isfinite(scale)):
        raise NonFiniteGap(f"{id.value}: non-finite gap (lhs={lhs!r}, rhs={rhs!r})")
    return lhs, rhs, gap, scale, classify(gap, scale, DEFAULT_POLICY)


def fields(rep):
    return rep.lhs, rep.rhs, rep.gap, rep.scale, rep.verdict


def outcome(fn):
    """The floats of fn()'s result as hex, or the exception's type and text."""
    try:
        result = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return tuple(v.hex() if isinstance(v, float) else v for v in result)


# Near 1e154 a square overflows and near 1e308 a sum does; near 1e-200
# a power sum underflows, and the norm is rescaled.
moderate = st.floats(min_value=0.0, max_value=1e3)
extreme = st.one_of(
    st.sampled_from([1e154, 1.5e154, 3e154, 1e308, 1.7e308]),
    st.floats(min_value=1e153, max_value=1e155),
    st.floats(min_value=1e307, max_value=1.7976931348623157e308),
)
tiny = st.one_of(st.just(1e-200), st.floats(min_value=0.0, max_value=1e-150))
MAGNITUDES = [moderate, moderate | extreme, extreme, moderate | tiny, tiny]
# p = 1 and p = 1.5 lie outside some entries' regimes.
EXPONENTS = [2.0, 2.5, 3.0, 4.0, 6.0, 1.5, 1.0]


@st.composite
def cases(draw):
    """(id, x, y, p, q, w): mostly valid inputs for entry id, with
    negative entries, broken dominance, a second cor-1.6 entry, weights
    on an unweighted entry and a missing q among them."""
    id = draw(st.sampled_from(sorted(REGISTRY, key=lambda i: i.value)))
    entry = REGISTRY[id]
    n = 1 if id is InequalityId.COR_16 and draw(st.integers(0, 9)) else draw(st.integers(1, 6))
    magnitudes = draw(st.sampled_from(MAGNITUDES))
    x = draw(st.lists(magnitudes, min_size=n, max_size=n))
    y = draw(st.lists(magnitudes, min_size=n, max_size=n))
    signed = entry.constraint is Constraint.SIGNED or draw(st.integers(0, 4)) == 0
    if signed:
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2 * n, max_size=2 * n))
        x = [s * a for s, a in zip(signs, x)]
        y = [s * b for s, b in zip(signs[n:], y)]
    if entry.constraint is Constraint.DOMINATED_PAIR and draw(st.integers(0, 4)):
        x, y = [max(a, b) for a, b in zip(x, y)], [min(a, b) for a, b in zip(x, y)]
    vec = RealVector if signed else NonnegVector
    weighted = draw(st.integers(0, 3)) == 0 if entry.weighted else draw(st.integers(0, 9)) == 0
    w = Weights(draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))) if weighted else None
    p = draw(st.sampled_from(EXPONENTS))
    q = None if draw(st.integers(0, 19)) == 0 else p + draw(st.sampled_from([0.0, 0.7, 1.0, 2.0]))
    return id, vec(x), vec(y), p, q, w


def nonneg(*entries):
    return NonnegVector(entries)


def real(*entries):
    return RealVector(entries)


@given(cases())
@settings(max_examples=500, deadline=None)
# x + y overflows at index 1: its norm is inf, a non-finite gap
@example((InequalityId.MAIN_17, nonneg(1.0, 1e308), nonneg(1.0, 1e308), 2.0, 3.0, None))
# x - y overflows at index 0; the squares of x already overflow to inf
# (at p = 2.5 builtin pow would raise on x first)
@example((InequalityId.C11, real(1e308, 1.0), real(-1e308, 1.0), 2.0, None, None))
@example((InequalityId.MAIN_17, real(1e308, 1.0), real(-1e308, 1.0), 2.0, 3.0, None))
# the squares of x + y overflow math.fsum before the norm of x - y,
# whose last entry overflows, is taken
@example((InequalityId.C12, real(5e153, 5e153, 1e308), real(5e153, 5e153, -1e308), 2.0, None,
          None))
# both x + y and x - y overflow
@example((InequalityId.C13_LEFT, real(1.0, 1e308, 1e308), real(1.0, 1e308, -1e308), 3.0,
          None, None))
# x + y is finite, but its norm is inf: a non-finite gap, not an entry error
@example((InequalityId.MAIN_17, nonneg(1e200, 1.0), nonneg(1e200, 0.0), 2.0, 3.0, None))
# builtin pow overflows on x
@example((InequalityId.PROP_14, nonneg(1e200, 2.0), nonneg(1e200, 1.0), 2.5, 3.0, None))
# weights of the wrong length, and weights on an unweighted entry
@example((InequalityId.MAIN_17, nonneg(1.0, 2.0), nonneg(0.5, 1.0), 2.0, 3.0, Weights((1.0,))))
@example((InequalityId.REARR_GAIN_217, nonneg(1e308), nonneg(1e308), 2.0, 3.0, Weights((1.0,))))
# an underflowing power sum of x + y, rescaled
@example((InequalityId.MAIN_17, nonneg(1e-200, 0.0), nonneg(1e-200, 1e-200), 3.0, 4.0, None))
def test_evaluate_matches_the_eager_reference(case):
    id, x, y, p, q, w = case
    want = outcome(lambda: ref_evaluate(id, x, y, p, q, w))
    got = outcome(lambda: fields(evaluate(id, x, y, p, q, w, DEFAULT_POLICY)))
    assert got == want
