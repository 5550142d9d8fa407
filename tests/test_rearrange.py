import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clarkson.catalog import InequalityId, Verdict, evaluate
from clarkson.core import NonnegVector, RealVector, p_norm
from clarkson.errors import DomainError
from clarkson.rearrange import (
    RearrangedPair,
    brute_force_swap_oracle,
    dominance_rearrange,
    sum_power_rearrangement_gap,
)

nonneg_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)


def _pair(xs, ys):
    n = min(len(xs), len(ys))
    return NonnegVector(tuple(xs[:n])), NonnegVector(tuple(ys[:n]))


def single_swap(A, a, B, b, r):
    """(A+a)^r + (B+b)^r >= (A+b)^r + (B+a)^r for A >= B, a > b: the swap step
    of the re-pairing argument, which is sumpow-2.12 on x = (A, b), y = (B, a)."""
    return evaluate(InequalityId.SUMPOW_212, NonnegVector((A, b)), NonnegVector((B, a)), r, r)


class TestDominanceRearrange:
    def test_componentwise_max_min(self):
        got = dominance_rearrange(NonnegVector((1.0, 3.0)), NonnegVector((2.0, 2.0)))
        assert got.u.entries == (2.0, 3.0)
        assert got.v.entries == (1.0, 2.0)
        assert got.swapped_indices == frozenset({0})

    def test_fixed_point_when_dominating(self):
        x, y = NonnegVector((5.0, 4.0)), NonnegVector((1.0, 4.0))
        got = dominance_rearrange(x, y)
        assert got.u == x and got.v == y
        assert got.swapped_indices == frozenset()

    def test_mixed(self):
        got = dominance_rearrange(NonnegVector((0.0, 5.0, 1.0)), NonnegVector((4.0, 0.0, 1.0)))
        assert got.u.entries == (4.0, 5.0, 1.0)
        assert got.v.entries == (0.0, 0.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="^lengths 1 and 2 differ$"):
            dominance_rearrange(NonnegVector((1.0,)), NonnegVector((1.0, 2.0)))

    @given(nonneg_lists, nonneg_lists)
    @settings(max_examples=100)
    def test_multisets_preserved(self, xs, ys):
        x, y = _pair(xs, ys)
        got = dominance_rearrange(x, y)
        assert got.u.entries == tuple(max(a, b) for a, b in zip(x.entries, y.entries))
        assert got.v.entries == tuple(min(a, b) for a, b in zip(x.entries, y.entries))
        sums = sorted(a + b for a, b in zip(x.entries, y.entries))
        diffs = sorted(abs(a - b) for a, b in zip(x.entries, y.entries))
        assert sorted(a + b for a, b in zip(got.u.entries, got.v.entries)) == sums
        assert sorted(a - b for a, b in zip(got.u.entries, got.v.entries)) == diffs


class TestSwapInequality:
    """The single swap step, run as sumpow-2.12 on the two-entry pair."""

    def test_integer_instance(self):
        rep = single_swap(2.0, 3.0, 1.0, 1.0, 2.0)
        assert (rep.rhs, rep.lhs, rep.gap) == (29.0, 25.0, 4.0)

    def test_linear_case_exact_zero(self):
        rep = single_swap(2.0, 3.0, 1.0, 1.0, 1.0)
        assert rep.gap == 0.0

    def test_symmetric_case_zero(self):
        rep = single_swap(1.0, 1.0, 1.0, 0.0, 2.0)
        assert rep.gap == 0.0

    @given(
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=0.0, max_value=100.0),
        st.floats(min_value=1e-6, max_value=100.0),
        st.floats(min_value=1.0, max_value=6.0),
    )
    @settings(max_examples=200)
    def test_weak_inequality_everywhere(self, B, dA, b, da, r):
        rep = single_swap(B + dA, b + da, B, b, r)
        assert rep.gap >= -1e-12 * rep.scale

    def test_strict_for_r_above_one(self):
        for A, B, a, b, r in [(3, 1, 2, 0, 2), (5, 2, 4, 1, 3), (2, 1, 7, 3, 1.5)]:
            rep = single_swap(float(A), float(a), float(B), float(b), float(r))
            assert rep.gap > 0.0


class TestSumPowerRearrangement:
    def test_integer_oracle(self):
        rep = sum_power_rearrangement_gap(NonnegVector((1.0, 3.0)), NonnegVector((2.0, 2.0)), 2.0)
        assert (rep.rhs, rep.lhs, rep.gap) == (34.0, 32.0, 2.0)

    def test_identity_when_dominating(self):
        rep = sum_power_rearrangement_gap(NonnegVector((3.0, 2.0)), NonnegVector((1.0, 2.0)), 2.5)
        assert rep.gap == 0.0

    @given(nonneg_lists, nonneg_lists)
    @settings(max_examples=50)
    def test_linear_case_zero(self, xs, ys):
        x, y = _pair(xs, ys)
        rep = sum_power_rearrangement_gap(x, y, 1.0)
        assert abs(rep.gap) <= 1e-12 * rep.scale

    @given(nonneg_lists, nonneg_lists, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=100)
    def test_gap_nonnegative(self, xs, ys, r):
        x, y = _pair(xs, ys)
        rep = sum_power_rearrangement_gap(x, y, r)
        assert rep.gap >= -1e-12 * rep.scale


class TestBruteForceOracle:
    def test_small_example(self):
        got = brute_force_swap_oracle(NonnegVector((1.0, 3.0)), NonnegVector((2.0, 2.0)), 2.0)
        assert got == 34.0

    def test_single_entry(self):
        got = brute_force_swap_oracle(NonnegVector((2.0,)), NonnegVector((5.0,)), 3.0)
        assert got == 2.0**3 + 5.0**3

    def test_linear_conservation(self):
        x, y = NonnegVector((1.0, 2.0, 3.0)), NonnegVector((4.0, 0.0, 1.0))
        got = brute_force_swap_oracle(x, y, 1.0)
        assert got == pytest.approx(sum(x.entries) + sum(y.entries), rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="^lengths 2 and 1 differ$"):
            brute_force_swap_oracle(NonnegVector((1.0, 3.0)), NonnegVector((2.0,)), 2.0)

    def test_size_guard(self):
        big = NonnegVector((1.0,) * 17)
        with pytest.raises(DomainError, match="^oracle limited to n <= 16, got 17$"):
            brute_force_swap_oracle(big, big, 2.0)

    @pytest.mark.parametrize("r, text", [
        (math.nan, "need finite r, got nan"),
        (math.inf, "need finite r, got inf"),
        (0.5, "need r >= 1, got 0.5"),
    ])
    def test_r_outside_the_regime(self, r, text):
        # r is sumpow-2.12's r: nan returned nan, and inf returned 1.0
        x = NonnegVector((1.0, 3.0))
        with pytest.raises(DomainError) as exc:
            brute_force_swap_oracle(x, x, r)
        assert str(exc.value) == text

    def test_check_order(self):
        # the pair, then r, then the size
        with pytest.raises(DomainError, match="^lengths 2 and 1 differ$"):
            brute_force_swap_oracle(NonnegVector((1.0, 3.0)), NonnegVector((2.0,)), math.nan)
        big = NonnegVector((1.0,) * 17)
        with pytest.raises(DomainError, match=r"^need r >= 1, got 0\.5$"):
            brute_force_swap_oracle(big, big, 0.5)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10),
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=10),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_dominance_attains_maximum(self, xs, ys, r):
        x, y = _pair(xs, ys)
        rep = sum_power_rearrangement_gap(x, y, r)
        best = brute_force_swap_oracle(x, y, r)
        assert rep.rhs == pytest.approx(best, abs=1e-12 * max(best, 1.0))


def norm_gain(x, y, p, q):
    return evaluate(InequalityId.REARR_GAIN_217, x, y, p, q)


def _plus(x, y):
    return RealVector(tuple(a + b for a, b in zip(x.entries, y.entries)))


def _minus(x, y):
    return RealVector(tuple(a - b for a, b in zip(x.entries, y.entries)))


class TestNormGain:
    def test_squared_sum_oracle(self):
        rep = norm_gain(NonnegVector((1.0, 3.0)), NonnegVector((2.0, 2.0)), 2.0, 4.0)
        assert rep.rhs == pytest.approx(13.0**2 + 5.0**2, rel=1e-14)
        assert rep.lhs == pytest.approx(10.0**2 + 8.0**2, rel=1e-14)
        assert rep.gap == pytest.approx(30.0, rel=1e-13)

    def test_dominating_pair_zero_gap(self):
        rep = norm_gain(NonnegVector((3.0, 2.0)), NonnegVector((1.0, 1.0)), 2.0, 4.0)
        assert rep.gap == 0.0

    @given(nonneg_lists, nonneg_lists, st.sampled_from([2.0, 2.5, 3.0]))
    @settings(max_examples=50)
    def test_p_equals_q_zero_gap(self, xs, ys, p):
        x, y = _pair(xs, ys)
        rep = norm_gain(x, y, p, p)
        assert abs(rep.gap) <= 1e-12 * rep.scale

    @given(nonneg_lists, nonneg_lists)
    @settings(max_examples=100)
    def test_interchange_invariance(self, xs, ys):
        x, y = _pair(xs, ys)
        pair = dominance_rearrange(x, y)
        for p in (2.0, 3.0, 4.5):
            ns_orig = p_norm(_plus(x, y), p)
            nd_orig = p_norm(_minus(x, y), p)
            ns_re = p_norm(_plus(pair.u, pair.v), p)
            nd_re = p_norm(_minus(pair.u, pair.v), p)
            assert ns_re == pytest.approx(ns_orig, abs=1e-12 * max(ns_orig, 1.0))
            assert nd_re == pytest.approx(nd_orig, abs=1e-12 * max(nd_orig, 1.0))


class TestSwapStepMonotonicity:
    """Iterative swap path used in the proof: S + T never decreases."""

    @given(nonneg_lists, nonneg_lists, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=100)
    def test_stepwise_nondecreasing(self, xs, ys, r):
        n = min(len(xs), len(ys))
        a = list(xs[:n])
        b = list(ys[:n])
        # orient so the first sum dominates, as in the proof
        if sum(a) < sum(b):
            a, b = b, a
        value = math.fsum(a) ** r + math.fsum(b) ** r
        for k in range(n):
            if a[k] < b[k]:
                a[k], b[k] = b[k], a[k]
                new_value = math.fsum(a) ** r + math.fsum(b) ** r
                scale = max(abs(new_value), abs(value), 1.0)
                assert new_value >= value - 1e-12 * scale
                value = new_value
