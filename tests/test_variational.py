import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clarkson.catalog import InequalityId, evaluate
from clarkson import variational
from clarkson.core import MAX_GRID_CELLS, NonnegVector
from clarkson.errors import DomainError, NonFiniteGap
from clarkson.variational import (
    ChiContext,
    PhiContext,
    _chi_values,
    _phi_prime_values,
    _phi_values,
    chi,
    chi_sign_scan,
    monotonicity_scan,
    phi,
    phi_prime,
    phi_prime_values,
    psi,
    psi_prime,
)


def _dominated_ctx(draw_entries, p, q):
    n = len(draw_entries) // 2
    us = draw_entries[:n]
    vs = draw_entries[n : 2 * n]
    u = NonnegVector(tuple(max(a, b) for a, b in zip(us, vs)))
    v = NonnegVector(tuple(min(a, b) for a, b in zip(us, vs)))
    return PhiContext(u, v, p, q)


entry_lists = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=2, max_size=12
)
pq = st.tuples(st.floats(min_value=2.0, max_value=5.0), st.floats(min_value=0.0, max_value=3.0))


class TestPhiContext:
    def test_rejects_non_dominated(self):
        with pytest.raises(DomainError, match="^dominance violated at index 0$"):
            PhiContext(NonnegVector((1.0,)), NonnegVector((2.0,)), 2.0, 3.0)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(DomainError, match="^lengths 1 and 2 differ$"):
            PhiContext(NonnegVector((2.0,)), NonnegVector((1.0, 0.5)), 2.0, 3.0)

    def test_rejects_bad_regime(self):
        with pytest.raises(DomainError, match=r"^need 2 <= p <= q, got \(1\.5, 3\.0\)$"):
            PhiContext(NonnegVector((2.0,)), NonnegVector((1.0,)), 1.5, 3.0)

    @pytest.mark.parametrize("p, q", [(math.inf, math.inf), (2.0, math.inf),
                                      (math.nan, 3.0), (2.0, math.nan)])
    def test_rejects_non_finite_exponents(self, p, q):
        with pytest.raises(DomainError, match=re.escape(f"need finite p and q, got ({p}, {q})")):
            PhiContext(NonnegVector((2.0,)), NonnegVector((1.0,)), p, q)


class TestPhi:
    def test_zero_v_is_constant(self):
        ctx = PhiContext(NonnegVector((1.0, 2.0)), NonnegVector((0.0, 0.0)), 2.0, 3.0)
        expected = (2.0 - 2.0**2) * math.sqrt(5.0) ** 3
        for t in (0.0, 0.3, 1.0):
            assert phi(ctx, t) == pytest.approx(expected, rel=1e-13)

    def test_t0_value(self):
        # phi(0) = 2 ||u||^q - 2^(q-1) ||u||^q
        ctx = PhiContext(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 1.0)), 2.0, 4.0)
        nu_q = math.sqrt(5.0) ** 4
        assert phi(ctx, 0.0) == pytest.approx(2.0 * nu_q - 8.0 * nu_q, rel=1e-13)

    def test_endpoint_example(self):
        ctx = PhiContext(NonnegVector((1.0, 0.0)), NonnegVector((1.0, 0.0)), 2.0, 3.0)
        assert phi(ctx, 1.0) == pytest.approx(0.0, abs=1e-12)
        assert phi(ctx, 0.0) == pytest.approx(-2.0, rel=1e-14)

    def test_domain_enforced(self):
        ctx = PhiContext(NonnegVector((1.0,)), NonnegVector((1.0,)), 2.0, 3.0)
        for t in (1.5, -0.5):
            with pytest.raises(DomainError):
                phi(ctx, t)

    @given(entry_lists, pq)
    @settings(max_examples=100, deadline=None)
    def test_endpoint_identity_matches_prop_1_4(self, entries, pdq):
        p, dq = pdq
        ctx = _dominated_ctx(entries, p, p + dq)
        rep = evaluate(InequalityId.PROP_14, ctx.u, ctx.v, ctx.p, ctx.q)
        diff = phi(ctx, 1.0) - phi(ctx, 0.0)
        assert diff == pytest.approx(rep.gap, abs=1e-10 * max(rep.scale, 1.0))


class TestPhiPrime:
    def test_zero_v_derivative_zero(self):
        ctx = PhiContext(NonnegVector((1.0, 2.0)), NonnegVector((0.0, 0.0)), 2.0, 3.0)
        assert phi_prime(ctx, 0.5) == 0.0

    def test_matches_finite_difference(self):
        ctx = PhiContext(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 1.0)), 2.0, 4.0)
        h = 1e-6
        t = 0.5
        fd = (phi(ctx, t + h) - phi(ctx, t - h)) / (2.0 * h)
        an = phi_prime(ctx, t)
        assert an == pytest.approx(fd, rel=1e-6)

    def test_q_equals_p_specialization(self):
        # exponents (q/p - 1) collapse to zero
        ctx = PhiContext(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 0.5)), 3.0, 3.0)
        t = 0.4
        p = 3.0
        us, vs = ctx.u.entries, ctx.v.entries
        expected = p * (
            math.fsum(b * (a + b * t) ** (p - 1) for a, b in zip(us, vs))
            - math.fsum(b * (a - b * t) ** (p - 1) for a, b in zip(us, vs))
            - 2.0 ** (p - 1) * math.fsum(b**p for b in vs) * t ** (p - 1)
        )
        assert phi_prime(ctx, t) == pytest.approx(expected, rel=1e-12)

    def test_domain_enforced(self):
        ctx = PhiContext(NonnegVector((3.0, 1.0)), NonnegVector((2.0, 1.0)), 2.0, 3.0)
        for t in (0.0, 1.0):
            with pytest.raises(DomainError):
                phi_prime(ctx, t)

    def test_values_check_every_point(self):
        ctx = PhiContext(NonnegVector((3.0, 1.0)), NonnegVector((2.0, 1.0)), 2.0, 3.0)
        for ts in ([0.5, 1.0], [0.0, 0.5], [0.5, math.nan]):
            with pytest.raises(DomainError, match="phi_prime needs t in"):
                phi_prime_values(ctx, ts)
        assert phi_prime_values(ctx, []) == []

    def test_values_equal_the_per_point_derivative(self):
        ctx = PhiContext(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 0.5)), 2.5, 4.0)
        ts = [k / 16 for k in range(1, 16)]
        assert _hex(phi_prime_values(ctx, ts)) == _hex(_phi_prime_values(ctx, ts))

    def test_overflow_raises_non_finite_gap(self):
        ctx = PhiContext(NonnegVector((1.0, 2.0)), NonnegVector((0.5, 1.0)), 2.0, 900.0)
        with pytest.raises(NonFiniteGap, match="phi_prime: non-finite value"):
            phi_prime_values(ctx, [0.5])
        with pytest.raises(NonFiniteGap, match="phi_prime: non-finite value"):
            phi_prime(ctx, 0.5)

    @given(entry_lists, pq, st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_the_open_interval(self, entries, pdq, t):
        # u >= v keeps every u_i - v_i t >= 0, so phi has no breakpoint in (0, 1)
        p, dq = pdq
        ctx = _dominated_ctx(entries, p, p + dq)
        d = phi_prime(ctx, t)
        scale = max(abs(phi(ctx, 1.0)), abs(phi(ctx, 0.0)), 1.0)
        assert d >= -1e-10 * scale


class TestMonotonicityScan:
    def test_zero_v(self):
        ctx = PhiContext(NonnegVector((1.0, 2.0)), NonnegVector((0.0, 0.0)), 2.0, 3.0)
        report = monotonicity_scan(ctx, 65)
        assert report.min_increment == 0.0
        assert report.is_nondecreasing

    def test_endpoint_jump_positive(self):
        ctx = PhiContext(NonnegVector((1.0, 0.0)), NonnegVector((1.0, 0.0)), 2.0, 3.0)
        assert phi(ctx, 1.0) - phi(ctx, 0.0) == pytest.approx(2.0, rel=1e-13)

    def test_grid_size_guard(self):
        ctx = PhiContext(NonnegVector((1.0,)), NonnegVector((1.0,)), 2.0, 3.0)
        with pytest.raises(DomainError):
            monotonicity_scan(ctx, 1)

    def test_grid_size_takes_integers(self):
        """range would raise a bare TypeError."""
        ctx = PhiContext(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 1.0)), 2.0, 4.0)
        with pytest.raises(DomainError) as info:
            monotonicity_scan(ctx, 2.5)
        assert str(info.value) == "grid_size must be an integer, got 2.5"
        report = monotonicity_scan(ctx, np.int64(17))  # runs as the int: float grid points
        assert report == monotonicity_scan(ctx, 17)
        assert {type(t) for t in report.grid} == {float}

    def test_grid_size_cap(self, monkeypatch):
        """Raised before any point is evaluated."""
        grid_size = MAX_GRID_CELLS + 1
        ctx = PhiContext(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 1.0)), 2.0, 4.0)
        monkeypatch.setattr(variational, "_phi_values", None)
        with pytest.raises(DomainError) as info:
            monotonicity_scan(ctx, grid_size)
        assert str(info.value) == f"grid_size {grid_size} is more than {MAX_GRID_CELLS}"

    @given(entry_lists, pq)
    @settings(max_examples=50, deadline=None)
    def test_random_contexts_nondecreasing(self, entries, pdq):
        p, dq = pdq
        ctx = _dominated_ctx(entries, p, p + dq)
        assert monotonicity_scan(ctx, 257).is_nondecreasing

    def test_overflow_is_an_error(self):
        ctx = PhiContext(NonnegVector((1.0, 2.0)), NonnegVector((0.5, 1.0)), 2.0, 900.0)
        with pytest.raises(NonFiniteGap, match="overflow"):
            monotonicity_scan(ctx, 257)
        # the one-point phi takes the same check
        ctx = PhiContext(NonnegVector((1e10,)), NonnegVector((1.0,)), 2.0, 900.0)
        with pytest.raises(NonFiniteGap, match=r"phi: non-finite value \(overflow\)"):
            phi(ctx, 0.5)

    def test_non_finite_value_is_an_error(self):
        # 2^999 (sum u^p)^(q/p) is inf with no exception, so phi(0) = -inf; the
        # increment -inf - -inf is nan, which the parent scan reported as a pass
        ctx = PhiContext(NonnegVector((1.0, 1.0)), NonnegVector((0.1, 0.1)), 2.0, 1000.0)
        with pytest.raises(NonFiniteGap, match="-inf at 0.0"):
            monotonicity_scan(ctx, 2)


def _hex(values):
    return [v.hex() for v in values]


def _phi_per_point(ctx, t):
    """phi at t as a single-point formula, for the grid evaluator to match.

    It takes |.| of every base, and _phi_prime_per_point copysign as well;
    the evaluators' plain powers must give the same bits.
    """
    p, q = ctx.p, ctx.q
    e = q / p
    plus = math.fsum(abs(a + b * t) ** p for a, b in zip(ctx.u.entries, ctx.v.entries))
    minus = math.fsum(abs(a - b * t) ** p for a, b in zip(ctx.u.entries, ctx.v.entries))
    su = math.fsum(a**p for a in ctx.u.entries)
    sv = math.fsum(b**p for b in ctx.v.entries)
    return plus**e + minus**e - 2.0 ** (q - 1.0) * (su**e + sv**e * abs(t) ** q)


def _phi_prime_per_point(ctx, t):
    p, q = ctx.p, ctx.q
    e = q / p - 1.0
    us, vs = ctx.u.entries, ctx.v.entries
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


def _chi_per_point(ctx, s):
    c, p, q = ctx.c, ctx.p, ctx.q
    if s == 0.0:
        return 0.0
    return q * c * (
        (1.0 + s) ** (q - 1.0)
        - (1.0 - s) ** (q - 1.0)
        - 2.0 * (1.0 + s**p) ** (q - 2.0) * s ** (p - 1.0)
    )


@st.composite
def phi_contexts(draw):
    """Dominated contexts, n 1..16, p in {2, 2.5, 3}, p = q included; entries may be -0.0."""
    n = draw(st.integers(min_value=1, max_value=16))
    entries = st.floats(min_value=0.0, max_value=5.0, allow_nan=False) | st.just(-0.0)
    us = draw(st.lists(entries, min_size=n, max_size=n))
    vs = draw(st.lists(entries, min_size=n, max_size=n))
    p = draw(st.sampled_from([2.0, 2.5, 3.0]))
    q = p + draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)))
    return PhiContext(NonnegVector(tuple(max(a, b) for a, b in zip(us, vs))),
                      NonnegVector(tuple(min(a, b) for a, b in zip(us, vs))), p, q)


unit_points = st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=8)


class TestGridEvaluators:
    """Each grid evaluator gives, point for point, the bits of the public function."""

    @given(phi_contexts(), unit_points, st.integers(min_value=2, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_phi_values(self, ctx, extra, grid_size):
        ts = [k / (grid_size - 1) for k in range(grid_size)] + extra
        got = _hex(_phi_values(ctx, ts))
        assert got == _hex([phi(ctx, t) for t in ts])
        assert got == _hex([_phi_per_point(ctx, t) for t in ts])

    @given(phi_contexts(), st.lists(st.floats(min_value=0.001, max_value=0.999), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_phi_prime_values(self, ctx, ts):
        got = _hex(_phi_prime_values(ctx, ts))
        assert got == _hex([phi_prime(ctx, t) for t in ts])
        assert got == _hex([_phi_prime_per_point(ctx, t) for t in ts])

    @given(phi_contexts())
    @settings(max_examples=50, deadline=None)
    def test_scan_reports_the_values_of_phi(self, ctx):
        ts = [k / 64 for k in range(65)]
        vals = [phi(ctx, t) for t in ts]
        min_inc, argmin = math.inf, 0.0
        for k in range(64):
            if vals[k + 1] - vals[k] < min_inc:
                min_inc, argmin = vals[k + 1] - vals[k], ts[k]
        report = monotonicity_scan(ctx, 65)
        assert report.grid == tuple(ts)
        assert _hex(report.values) == _hex(vals)
        assert report.min_increment.hex() == min_inc.hex()
        assert report.argmin == argmin
        assert report.scale == max(1.0, max(abs(v) for v in vals))

    @given(st.floats(min_value=1.01, max_value=6.0), st.floats(min_value=1.01, max_value=6.0),
           st.floats(min_value=0.01, max_value=1.0), st.lists(st.floats(0.0, 1.0), max_size=8),
           st.integers(min_value=3, max_value=40))
    @settings(max_examples=200, deadline=None)
    def test_chi_values(self, p, q, c, fracs, grid_size):
        ctx = ChiContext(p, q, c)
        ss = [min(c, c * k / (grid_size - 1)) for k in range(grid_size)]
        ss += [c * f for f in fracs]
        got = _hex(_chi_values(ctx, ss))
        assert got == _hex([chi(ctx, s) for s in ss])
        assert got == _hex([_chi_per_point(ctx, s) for s in ss])


class TestChiContext:
    @pytest.mark.parametrize("p, q", [(1.0, 3.0), (0.5, 3.0), (2.0, 1.0), (2.0, -1.0)])
    def test_rejects_exponents_at_most_one(self, p, q):
        with pytest.raises(DomainError, match=re.escape(f"need p > 1 and q > 1, got ({p}, {q})")):
            ChiContext(p, q, 0.5)


class TestDomains:
    @pytest.mark.parametrize("fn", [psi, psi_prime])
    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_psi_needs_t_in_the_unit_interval(self, fn, t):
        with pytest.raises(DomainError, match="t must lie in"):
            fn(ChiContext(1.5, 3.0, 0.8), t)

    @pytest.mark.parametrize("s", [-0.1, 0.9, math.nan])
    def test_chi_needs_s_up_to_c(self, s):
        with pytest.raises(DomainError, match=r"s must lie in \[0, 0.8\]"):
            chi(ChiContext(1.5, 3.0, 0.8), s)


class TestPsi:
    def test_zero_at_origin(self):
        ctx = ChiContext(1.5, 3.0, 0.8)
        assert psi(ctx, 0.0) == 0.0

    def test_identically_zero_at_p2_q2(self):
        ctx = ChiContext(2.0, 2.0, 0.6)
        for t in np.linspace(0.0, 1.0, 21):
            assert psi(ctx, float(t)) == pytest.approx(0.0, abs=1e-14)

    def test_direct_evaluation(self):
        ctx = ChiContext(4.0 / 3.0, 4.0, 1.0)
        t = 0.5
        expected = 1.5**4 + 0.5**4 - 2.0 * (1.0 + 0.5 ** (4.0 / 3.0)) ** 3
        assert psi(ctx, t) == pytest.approx(expected, rel=1e-14)

    def test_overflow_is_an_error(self):
        # (1 + 0.9)^3000 overflows Python's float **
        with pytest.raises(NonFiniteGap, match=r"psi: non-finite value \(overflow\)"):
            psi(ChiContext(1.5, 3000.0, 1.0), 0.9)


class TestPsiPrime:
    def test_limit_zero_at_origin(self):
        ctx = ChiContext(1.5, 4.0, 1.0)
        assert abs(psi_prime(ctx, 1e-10)) < 1e-4
        # +0.0, also where 2p(q-1) overflows and the formula would give inf * 0.0
        for ctx in (ctx, ChiContext(2.0, 1e308, 1.0)):
            assert psi_prime(ctx, 0.0) == 0.0 and math.copysign(1.0, psi_prime(ctx, 0.0)) == 1.0

    def test_matches_finite_difference(self):
        ctx = ChiContext(4.0 / 3.0, 4.0, 1.0)
        h = 1e-6
        t = 0.5
        fd = (psi(ctx, t + h) - psi(ctx, t - h)) / (2.0 * h)
        assert psi_prime(ctx, t) == pytest.approx(fd, rel=1e-6)

    def test_zero_at_p2_q2(self):
        ctx = ChiContext(2.0, 2.0, 0.9)
        for t in (0.1, 0.5, 1.0):
            assert psi_prime(ctx, t) == pytest.approx(0.0, abs=1e-13)

    def test_overflow_is_an_error(self):
        # (1 + 0.9)^2999 overflows Python's float **
        with pytest.raises(NonFiniteGap, match=r"psi_prime: non-finite value \(overflow\)"):
            psi_prime(ChiContext(1.5, 3000.0, 1.0), 0.9)


class TestChi:
    def test_zero_at_origin(self):
        # the formula alone gives +0.0 at s = 0 and at s = -0.0, for every p, q > 1
        for p, q, c, s in product((1.0000001, 1.5, 1e300), (1.0000001, 3.0, 1e308),
                                  (1e-300, 1.0), (0.0, -0.0)):
            value = chi(ChiContext(p, q, c), s)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_identically_zero_at_p2_q2(self):
        ctx = ChiContext(2.0, 2.0, 1.0)
        for s in np.linspace(0.0, 1.0, 21):
            assert chi(ctx, float(s)) == pytest.approx(0.0, abs=1e-13)

    def test_sign_witness(self):
        ctx = ChiContext(4.0 / 3.0, 4.0, 1.0)
        assert chi(ctx, 0.1) < 0.0
        assert chi(ctx, 0.5) > 0.0

    @given(st.floats(min_value=2.5, max_value=6.0), st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100)
    def test_chain_identity(self, q, c, frac):
        # psi'(t) = chi(ct) exactly in the conjugate-substitution regime
        p = q / (q - 1.0)
        ctx = ChiContext(p, q, c)
        t = frac
        lhs = psi_prime(ctx, t)
        rhs = chi(ctx, c * t)
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestChiSignScan:
    def test_flat_at_p2_q2(self):
        report = chi_sign_scan(ChiContext(2.0, 2.0, 1.0), 101)
        assert not report.has_positive
        assert not report.has_negative
        assert report.sign_change_intervals == ()

    def test_witness_scan(self):
        report = chi_sign_scan(ChiContext(4.0 / 3.0, 4.0, 1.0), 1001)
        assert report.has_positive and report.has_negative
        assert any(0.0 < a and b < 0.5 for a, b in report.sign_change_intervals)

    def test_grid_guard(self):
        with pytest.raises(DomainError):
            chi_sign_scan(ChiContext(2.0, 2.0, 1.0), 2)

    def test_grid_size_takes_integers(self):
        """range would raise a bare TypeError."""
        ctx = ChiContext(1.5, 3.0, 0.5)
        with pytest.raises(DomainError) as info:
            chi_sign_scan(ctx, 2.5)
        assert str(info.value) == "grid_size must be an integer, got 2.5"
        report = chi_sign_scan(ctx, np.int64(11))  # runs as the int: float grid points
        assert report == chi_sign_scan(ctx, 11)
        assert {type(t) for t in report.grid} == {float}

    def test_grid_size_cap(self, monkeypatch):
        """Raised before any point is evaluated."""
        grid_size = MAX_GRID_CELLS + 1
        monkeypatch.setattr(variational, "_chi_values", None)
        with pytest.raises(DomainError) as info:
            chi_sign_scan(ChiContext(1.5, 3.0, 0.5), grid_size)
        assert str(info.value) == f"grid_size {grid_size} is more than {MAX_GRID_CELLS}"

    @pytest.mark.parametrize("p, q", [(math.nan, 3.0), (1.5, math.inf), (math.inf, 3.0)])
    def test_rejects_non_finite_exponents(self, p, q):
        with pytest.raises(DomainError, match=re.escape(f"need finite p and q, got ({p}, {q})")):
            ChiContext(p, q, 0.5)

    def test_grid_stays_inside_the_domain(self):
        # c * 6 / 6 rounds to one ulp above c; the scan used to raise DomainError there
        c = 0.8038921141728734
        assert c * 6 / 6 > c
        ctx = ChiContext(4.0 / 3.0, 4.0, c)
        report = chi_sign_scan(ctx, 7)
        assert report.has_negative
        assert report.grid[-1] == c
        assert _hex(report.values) == _hex([chi(ctx, s) for s in report.grid])
        assert _chi_values(ctx, [c]) == [chi(ctx, c)]

    def test_overflow_is_an_error(self):
        with pytest.raises(NonFiniteGap, match="overflow"):
            chi_sign_scan(ChiContext(1.0000001, 1e6, 1.0), 5)
        # the one-point chi takes the same check
        with pytest.raises(NonFiniteGap, match=r"chi: non-finite value \(overflow\)"):
            chi(ChiContext(1.5, 3000.0, 1.0), 0.9)

    def test_non_finite_value_is_an_error(self):
        # (q c) (...) overflows to inf near s = 1 with no exception
        with pytest.raises(NonFiniteGap, match="inf at 0.994"):
            chi_sign_scan(ChiContext(1.5, 1020.0, 1.0), 1001)
