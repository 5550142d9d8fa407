import math
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from clarkson.core import (
    NonnegVector,
    RealVector,
    Weights,
    _p_norm,
    _sum_abs_powers,
    combine,
    conjugate_exponent,
    p_norm,
    validate_vector,
)
from clarkson.errors import (
    EmptyVector,
    ExponentOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NonFiniteEntry,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.lists(finite_floats, min_size=1, max_size=12)
exponents = st.floats(min_value=1.0, max_value=8.0)


class TestValidateVector:
    def test_well_formed_nonneg(self):
        v = validate_vector([1.0, 2.0], require_nonneg=True)
        assert isinstance(v, NonnegVector)
        assert v.entries == (1.0, 2.0)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry) as exc:
            validate_vector([1.0, -1.0], require_nonneg=True)
        assert exc.value.index == 1

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteEntry) as exc:
            validate_vector([float("nan")])
        assert exc.value.index == 0

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteEntry):
            validate_vector([1.0, float("inf")])

    def test_empty_rejected(self):
        with pytest.raises(EmptyVector):
            validate_vector([])


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

    @given(vectors, exponents, st.sampled_from([None, 0.5, 3.0]))
    def test_normal_power_sums_keep_their_bits(self, entries, p, mass):
        # The norm as computed before the underflow rescaling.
        masses = None if mass is None else (mass,) * len(entries)
        s = _sum_abs_powers(entries, p, masses)
        assume(s >= sys.float_info.min)
        root = s if p == 1.0 else math.sqrt(s) if p == 2.0 else s ** (1.0 / p)
        assert _p_norm(entries, p, masses) == root

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ExponentOutOfRange):
            p_norm(RealVector((1.0,)), 0.5)

    def test_weights_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            p_norm(RealVector((1.0, 2.0)), 2.0, Weights((1.0,)))

    @given(vectors, exponents, st.floats(min_value=1e-3, max_value=100.0))
    @example([4.833085374800723e-43], 7.5, 2.0)  # |x|^p is subnormal
    def test_homogeneity(self, entries, p, alpha):
        v = RealVector(tuple(entries))
        lhs = p_norm(v.scaled(alpha), p)
        rhs = alpha * p_norm(v, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(vectors, vectors, exponents)
    def test_triangle_inequality(self, xs, ys, p):
        n = min(len(xs), len(ys))
        x, y = RealVector(tuple(xs[:n])), RealVector(tuple(ys[:n]))
        nx, ny = p_norm(x, p), p_norm(y, p)
        ns = p_norm(combine(x, y, "plus"), p)
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
        with pytest.raises(ExponentOutOfRange):
            conjugate_exponent(1.0)

    @given(st.floats(min_value=1.0001, max_value=100.0))
    def test_holder_identity(self, p):
        q = conjugate_exponent(p)
        assert abs(1.0 / p + 1.0 / q - 1.0) < 1e-12


class TestCombine:
    def test_plus(self):
        assert combine(RealVector((1.0, 2.0)), RealVector((3.0, 4.0)), "plus").entries == (4.0, 6.0)

    def test_self_cancellation(self):
        v = RealVector((1.0, 2.0))
        assert combine(v, v, "minus").entries == (0.0, 0.0)

    def test_signed_difference(self):
        got = combine(RealVector((2.0, 0.0)), RealVector((0.0, 3.0)), "minus")
        assert got.entries == (2.0, -3.0)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            combine(RealVector((1.0,)), RealVector((1.0, 2.0)), "plus")

