import math
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from clarkson import core
from clarkson.catalog import InequalityId, _pair_norms, evaluate
from clarkson.core import (
    NonnegVector,
    RealVector,
    Weights,
    _p_norm,
    conjugate_exponent,
    p_norm,
)
from clarkson.errors import DomainError, NonFiniteGap

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12)
exponents = st.floats(min_value=1.0, max_value=8.0)


class TestValidateVector:
    """The vector constructors validate their entries."""

    def test_well_formed_nonneg(self):
        v = NonnegVector([1.0, 2.0])
        assert isinstance(v, NonnegVector)
        assert v.entries == (1.0, 2.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError) as exc:
            NonnegVector([1.0, -1.0])
        assert str(exc.value) == "negative entry at index 1"

    @pytest.mark.parametrize("mass", [0.0, -2.0])
    def test_weight_not_positive(self, mass):
        """A zero weight is not a negative entry: the error names the weight."""
        with pytest.raises(DomainError) as exc:
            Weights([1.0, mass])
        assert str(exc.value) == f"weight at index 1 is not positive, got {mass!r}"
        assert "negative entry" not in str(exc.value)

    def test_nan_rejected(self):
        with pytest.raises(DomainError) as exc:
            RealVector([float("nan")])
        assert str(exc.value) == "non-finite entry at index 0"

    def test_inf_rejected(self):
        with pytest.raises(DomainError, match="^non-finite entry at index 1$"):
            RealVector([1.0, float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(DomainError, match="^vector must have at least one entry$"):
            RealVector([])

    def test_too_long_rejected(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_LEN", 3)
        assert len(RealVector([1.0, 2.0, 3.0])) == 3
        with pytest.raises(DomainError, match="^vector length 4 exceeds maximum 3$"):
            RealVector([1.0, 2.0, 3.0, 4.0])


class TestPNorm:
    def test_pythagorean(self):
        assert p_norm(RealVector((3.0, 4.0)), 2.0) == 5.0

    def test_zero_vector_fractional_exponent(self):
        assert p_norm(RealVector((0.0, 0.0, 0.0)), 3.7) == 0.0

    def test_weighted_single_entry(self):
        # (3 * 2^3)^(1/3) = 24^(1/3)
        got = p_norm(RealVector((2.0,)), 3.0, Weights((3.0,)))
        assert got == pytest.approx(24.0 ** (1.0 / 3.0), rel=1e-14)

    def test_underflowing_power_sum(self):
        # (1e-200)^3 = 1e-600 underflows to 0: the sum is rescaled, not returned as 0.
        close = {"rel": 1e-15, "abs": 0.0}
        assert p_norm(RealVector((1e-200,)), 3.0) == pytest.approx(1e-200, **close)
        got = p_norm(RealVector((1e-200, 0.0)), 3.0, Weights((8.0, 1.0)))
        assert got == pytest.approx(2e-200, **close)
        assert p_norm(RealVector((3e-200, -4e-200)), 2.0) == pytest.approx(5e-200, **close)

    @pytest.mark.parametrize("p", [2.0, 3.0, 3.7])
    def test_zero_vector_takes_one_power_sum(self, p, monkeypatch):
        # Its sum 0 is below the smallest normal float, but the rescaling
        # would be by 2^0: the sum is not taken again.  Each power sum
        # reads the terms of one _abs_powers call.
        sums = []
        real = core._abs_powers

        def counting(*args):
            sums.append(args)
            return real(*args)

        monkeypatch.setattr(core, "_abs_powers", counting)
        assert _p_norm((0.0, 0.0, 0.0), p) == 0.0
        assert p_norm(RealVector((0.0,)), p, Weights((2.0,))) == 0.0
        assert len(sums) == 2
        sums.clear()
        assert _p_norm((1e-200, 0.0), p) > 0.0  # a rescaled sum is taken twice
        assert len(sums) == 2

    @given(vectors, exponents, st.sampled_from([None, 0.5, 3.0]))
    def test_normal_power_sums_keep_their_bits(self, entries, p, mass):
        # The norm as computed before the underflow rescaling.
        masses = None if mass is None else (mass,) * len(entries)
        terms = list(core._abs_powers(entries, p))
        s = math.fsum(terms if masses is None else [m * t for m, t in zip(masses, terms)])
        assume(s >= sys.float_info.min)
        root = s if p == 1.0 else math.sqrt(s) if p == 2.0 else s ** (1.0 / p)
        assert _p_norm(entries, p, masses) == root

    def test_exponent_below_one_rejected(self):
        with pytest.raises(DomainError, match="^p-norm needs p >= 1, got 0.5$"):
            p_norm(RealVector((1.0,)), 0.5)

    @pytest.mark.parametrize("entries", [(0.5,), (3.0, 4.0)])
    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_exponent_rejected(self, entries, p):
        # the sum of |v_i|^inf gave 0.0 for (0.5,) and 1.0 for (3, 4)
        with pytest.raises(DomainError, match=f"^p-norm needs finite p, got {p}$"):
            p_norm(RealVector(entries), p)

    def test_weights_length_mismatch(self):
        with pytest.raises(DomainError, match="^weights length 1 != vector length 2$"):
            p_norm(RealVector((1.0, 2.0)), 2.0, Weights((1.0,)))

    @given(vectors, exponents, st.floats(min_value=1e-3, max_value=100.0))
    @example([4.833085374800723e-43], 7.5, 2.0)  # |x|^p is subnormal
    def test_homogeneity(self, entries, p, alpha):
        v = RealVector(tuple(entries))
        lhs = p_norm(RealVector(tuple(alpha * x for x in entries)), p)
        rhs = alpha * p_norm(v, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(vectors, vectors, exponents)
    def test_triangle_inequality(self, xs, ys, p):
        n = min(len(xs), len(ys))
        x, y = RealVector(tuple(xs[:n])), RealVector(tuple(ys[:n]))
        nx, ny = p_norm(x, p), p_norm(y, p)
        ns = p_norm(RealVector(tuple(a + b for a, b in zip(x.entries, y.entries))), p)
        assert ns <= nx + ny + 1e-12 * max(nx + ny, 1.0)

    @given(vectors, exponents)
    def test_unit_weights_equal_no_weights(self, entries, p):
        v = RealVector(tuple(entries))
        ones = Weights((1.0,) * len(v))
        assert p_norm(v, p, ones) == p_norm(v, p)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=12), exponents)
    def test_monotonicity_nonneg(self, entries, p):
        u = NonnegVector(tuple(entries))
        v = NonnegVector(tuple(e / 2.0 for e in entries))
        nu, nv = p_norm(u, p), p_norm(v, p)
        assert nv <= nu + 1e-12 * max(nu, 1.0)


class TestConjugateExponent:
    def test_self_conjugate(self):
        assert conjugate_exponent(2.0) == 2.0

    def test_p4(self):
        assert conjugate_exponent(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_p_1_25(self):
        assert conjugate_exponent(1.25) == pytest.approx(5.0, rel=1e-15)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(DomainError, match=r"^conjugate exponent needs p > 1, got 1\.0$"):
            conjugate_exponent(1.0)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_p(self, p):
        # inf / (inf - 1) would be nan
        with pytest.raises(DomainError, match=f"^conjugate exponent needs finite p, got {p}$"):
            conjugate_exponent(p)

    @pytest.mark.parametrize("p", [1e16, 1e300])
    def test_rejects_p_whose_conjugate_rounds_to_one(self, p):
        # p - 1 rounds to p, so p/(p-1) would be 1.0
        with pytest.raises(DomainError) as exc:
            conjugate_exponent(p)
        assert str(exc.value) == f"conjugate exponent of p = {p} rounds to 1"

    def test_keeps_p_whose_conjugate_exceeds_one(self):
        assert conjugate_exponent(1e15) > 1.0

    @given(st.floats(min_value=1.0001, max_value=100.0))
    def test_holder_identity(self, p):
        q = conjugate_exponent(p)
        assert abs(1.0 / p + 1.0 / q - 1.0) < 1e-12


class TestCombine:
    """x + y and x - y, componentwise, as catalog._pair_norms forms them."""

    def test_plus(self):
        # ||(4, 6)||_2 = sqrt(52)
        assert _pair_norms((1.0, 2.0), (3.0, 4.0), 2.0, None, None)[2] == math.sqrt(52.0)

    def test_self_cancellation(self):
        assert _pair_norms((1.0, 2.0), (1.0, 2.0), 2.0, None, None)[3] == 0.0

    def test_signed_difference(self):
        # (2, 0) - (0, 3) = (2, -3), whose entry -3 enters the 2.5-norm as |-3|
        want = (2.0**2.5 + 3.0**2.5) ** (1.0 / 2.5)
        assert _pair_norms((2.0, 0.0), (0.0, 3.0), 2.5, None, None)[3] == want

    def test_overflowing_entry_makes_its_norm_infinite(self):
        # x + y of the first pair overflows at index 1, x - y of the second
        # at index 0: no entry is named, and evaluate reports a non-finite gap.
        assert _pair_norms((1.0, 1e308), (1.0, 1e308), 2.0, None, None)[2] == math.inf
        assert _pair_norms((1e308, 1.0), (-1e308, 1.0), 2.0, None, None)[3] == math.inf
        with pytest.raises(NonFiniteGap, match="non-finite gap"):
            evaluate(InequalityId.MAIN_17, NonnegVector((1.0, 1e308)),
                     NonnegVector((1.0, 1e308)), 2.0, 3.0)

    def test_sum_norm_comes_before_the_difference_check(self):
        # x + y is finite, but its squares overflow math.fsum before the
        # norm of x - y, whose last entry is inf, is taken.
        x, y = (5e153, 5e153, 1e308), (5e153, 5e153, -1e308)
        with pytest.raises(OverflowError):
            _pair_norms(x, y, 2.0, None, None)

    def test_length_mismatch(self):
        # the lengths are checked once, by evaluate, before the norms are formed
        with pytest.raises(DomainError, match="^lengths 1 and 2 differ$"):
            evaluate(InequalityId.MAIN_17, NonnegVector((1.0,)), NonnegVector((1.0, 2.0)),
                     2.0, 3.0)
