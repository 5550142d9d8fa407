"""A 50-digit reference for every registry entry.

The three shapes of registry quantities are restated here in mpmath at
50 significant digits: the four pair norms, the re-paired power sums and
cor-1.6's one-entry terms.  Each entry's own sides take them unchanged,
at the (p, q) its exponent builder resolved, so the reference checks the
float arithmetic of evaluate and nothing else.  A float report must lie
within 1e-9 scale of the reference gap and give the same verdict.
"""

import mpmath
import pytest

from clarkson.catalog import REGISTRY, InequalityId, classify, evaluate
from clarkson.core import RealVector
from clarkson.search import Distribution, SampleSpec, sample_block

DIGITS = 50
GAP_TOL = 1e-9
ROWS = 64  # pairs per distribution and exponent pair


def _mp_norm(entries, p, masses):
    terms = [abs(t) ** p for t in entries]
    if masses is not None:
        terms = [m * t for m, t in zip(masses, terms)]
    return mpmath.fsum(terms) ** (1 / p)


def mp_pair_norms(x, y, p, q, w):
    """(||x||, ||y||, ||x+y||, ||x-y||) at exponent p."""
    s = [a + b for a, b in zip(x, y)]
    d = [a - b for a, b in zip(x, y)]
    return tuple(_mp_norm(v, p, w) for v in (x, y, s, d))


def mp_one_entry_terms(x, y, p, q, w):
    """(x, y, x+y, x-y) of one-entry vectors."""
    (a,), (b,) = x, y
    return a, b, a + b, a - b


def mp_repaired_sums(x, y, k, e):
    """Sums of |.|^k over x, y, max(x, y) and min(x, y); then e."""
    parts = (x, y, list(map(max, x, y)), list(map(min, x, y)))
    return (*(mpmath.fsum(abs(t) ** k for t in v) for v in parts), e)


MP_QUANTITIES = {
    **{id: mp_pair_norms for id in (
        InequalityId.C11, InequalityId.C12, InequalityId.C13_LEFT, InequalityId.C13_RIGHT,
        InequalityId.MAIN_17, InequalityId.PROP_14)},
    InequalityId.COR_16: mp_one_entry_terms,
    InequalityId.SUMPOW_212: lambda x, y, p, q, w: mp_repaired_sums(x, y, 1, q),
    InequalityId.REARR_GAIN_217: lambda x, y, p, q, w: mp_repaired_sums(x, y, p, q / p),
}


def mp_gap_and_scale(id, x, y, w, p, q):
    """(gap, scale) of entry id's statement at 50 digits, as floats."""
    with mpmath.workdps(DIGITS):
        mx, my = [mpmath.mpf(t) for t in x.entries], [mpmath.mpf(t) for t in y.entries]
        mw = None if w is None else [mpmath.mpf(m) for m in w.masses]
        mp, mq = mpmath.mpf(p), mpmath.mpf(q)
        lhs, rhs = REGISTRY[id].sides(*MP_QUANTITIES[id](mx, my, mp, mq, mw), mp, mq)
        return float(rhs - lhs), float(max(abs(lhs), abs(rhs), 1))


def check_against_reference(id, x, y, w, p, q):
    rep = evaluate(id, x, y, p, q, w)
    gap, scale = mp_gap_and_scale(id, x, y, w, rep.p, rep.q)
    assert abs(rep.gap - gap) <= GAP_TOL * rep.scale, (x, y, w, rep, gap)
    assert classify(gap, scale) is rep.verdict, (x, y, w, rep, gap)


# (p, q) grids per entry; c-1.x ignore q, cor-1.6 and sumpow-2.12 ignore p.
_C1X = [(p, None) for p in (1.25, 1.5, 2.0, 3.0, 4.5)]
_MAIN = [(2.0, 2.0), (2.0, 3.0), (2.5, 3.7), (3.0, 6.0), (4.0, 10.0)]
GRIDS = {
    InequalityId.C11: _C1X,
    InequalityId.C12: _C1X,
    InequalityId.C13_LEFT: _C1X,
    InequalityId.C13_RIGHT: _C1X,
    InequalityId.MAIN_17: _MAIN,
    InequalityId.PROP_14: _MAIN,
    InequalityId.REARR_GAIN_217: _MAIN,
    InequalityId.COR_16: [(2.0, q) for q in (2.0, 3.0, 4.5, 10.0)],
    InequalityId.SUMPOW_212: [(2.0, r) for r in (1.0, 1.5, 2.0, 3.5)],
}
CASES = [(id, p, q) for id, grid in GRIDS.items() for p, q in grid]


def test_every_entry_has_a_reference():
    assert set(MP_QUANTITIES) == set(GRIDS) == set(REGISTRY)


@pytest.mark.parametrize("id, p, q", CASES, ids=[f"{id.value}-{p}-{q}" for id, p, q in CASES])
def test_float_gap_matches_reference(id, p, q):
    entry = REGISTRY[id]
    seed = CASES.index((id, p, q))
    for dist in (Distribution.UNIFORM_01, Distribution.EXPONENTIAL_1):
        spec = SampleSpec(
            dim_range=(1, 1) if id is InequalityId.COR_16 else (1, 8),
            distribution=dist,
            constraint=entry.constraint,
            weights=entry.weighted,
        )
        block = sample_block(spec, seed, 0)
        for row in range(ROWS):
            check_against_reference(id, *block.pair(row), p, q)


# At p = 1e300 the resolved q = p/(p - 1) rounds to 1.0, so even 50
# digits at the resolved exponents say violated: that case belongs to
# the exponent-bound half of the same ROADMAP item, not to this reference.
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 'Verdicts that depend only on the pair's direction', underflow at huge "
    "finite p: 0.7^3000 underflows, so the float gap is 0.79994 and the 50-digit gap 4.78e-6"))
def test_underflow_at_huge_p():
    x, y = RealVector((0.3, -0.7)), RealVector((0.2, 0.1))
    check_against_reference(InequalityId.C11, x, y, None, 3000.0, None)
