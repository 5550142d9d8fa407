import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from clarkson.catalog import (
    GapReport,
    InequalityId,
    TolerancePolicy,
    Verdict,
    classify,
    eval_clarkson_1_1,
    eval_clarkson_1_2,
    eval_clarkson_1_3,
    eval_corollary_1_6,
    eval_main_1_7,
    eval_prop_1_4,
    evaluate,
    halving_substitution,
    report,
)
from clarkson.core import NonnegVector, RealVector, Weights
from clarkson.errors import (
    ClarksonError,
    ConstraintMismatch,
    DominanceViolation,
    NegativeEntry,
    NonFiniteGap,
    RegimeViolation,
)

POLICY = TolerancePolicy()

signed_entries = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)
nonneg_entries = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)


def _pair(xs, ys, cls=RealVector):
    n = min(len(xs), len(ys))
    return cls(tuple(xs[:n])), cls(tuple(ys[:n]))


class TestVerdict:
    def test_clear_hold(self):
        assert classify(1.0, 1.0, POLICY) is Verdict.HOLDS

    def test_equality_is_borderline(self):
        assert classify(0.0, 1.0, POLICY) is Verdict.BORDERLINE

    def test_clear_violation(self):
        assert classify(-1.0, 1.0, POLICY) is Verdict.VIOLATED

    def test_report_is_the_dataclass_instance(self):
        # report fills the frozen instance's fields directly.
        rep = report(InequalityId.MAIN_17, 2.0, 4.0, 1.5, 2.0, POLICY)
        assert rep == GapReport(InequalityId.MAIN_17, 2.0, 4.0, 1.5, 2.0, 0.5, 2.0, Verdict.HOLDS)
        assert set(vars(rep)) == {f.name for f in dataclasses.fields(GapReport)}
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.gap = 0.0


class TestClarkson11:
    def test_equal_arguments_give_zero_gap(self):
        x = RealVector((1.0, 0.0))
        rep = eval_clarkson_1_1(x, x, 3.0)
        assert rep.gap == pytest.approx(0.0, abs=1e-12 * rep.scale)

    def test_p4_oracle(self):
        # direct evaluation: lhs = 2*17^(1/3), rhs = 3^(4/3) + 1
        rep = eval_clarkson_1_1(RealVector((2.0, 0.0)), RealVector((1.0, 0.0)), 4.0)
        assert rep.lhs == pytest.approx(2.0 * 17.0 ** (1.0 / 3.0), rel=1e-14)
        assert rep.rhs == pytest.approx(3.0 ** (4.0 / 3.0) + 1.0, rel=1e-14)
        assert rep.gap == pytest.approx(0.18418552960575507, rel=1e-12)
        assert rep.verdict is Verdict.HOLDS

    def test_reverse_regime_orientation(self):
        # p = 1.5: the direction flips; disjoint-support unit vectors sit
        # exactly at equality, a generic pair holds strictly.
        rep = eval_clarkson_1_1(RealVector((1.0, 0.0)), RealVector((0.0, 1.0)), 1.5)
        assert rep.verdict is not Verdict.VIOLATED
        assert abs(rep.gap) <= 1e-9 * rep.scale
        rep2 = eval_clarkson_1_1(RealVector((1.0, 0.5)), RealVector((0.25, 0.75)), 1.5)
        assert rep2.verdict is Verdict.HOLDS


class TestClarkson12:
    def test_equal_arguments(self):
        x = RealVector((1.0, 2.0))
        rep = eval_clarkson_1_2(x, x, 3.0)
        assert abs(rep.gap) <= 1e-12 * rep.scale

    def test_p4_holds(self):
        rep = eval_clarkson_1_2(RealVector((2.0, 0.0)), RealVector((1.0, 0.0)), 4.0)
        assert rep.gap >= 0.0

    def test_reverse_regime(self):
        rep = eval_clarkson_1_2(RealVector((1.0, 1.0)), RealVector((1.0, 0.0)), 1.5)
        assert rep.verdict is not Verdict.VIOLATED


class TestClarkson13:
    @given(signed_entries, signed_entries)
    @settings(max_examples=50)
    def test_parallelogram_identity_at_p2(self, xs, ys):
        x, y = _pair(xs, ys)
        left, right = eval_clarkson_1_3(x, y, 2.0)
        assert abs(left.gap) <= 1e-9 * left.scale
        assert abs(right.gap) <= 1e-9 * right.scale

    def test_equal_singletons_p3(self):
        x = RealVector((1.0,))
        left, right = eval_clarkson_1_3(x, x, 3.0)
        assert (left.lhs, left.rhs, left.gap) == (4.0, 8.0, 4.0)
        assert (right.lhs, right.rhs, right.gap) == (8.0, 8.0, 0.0)

    def test_zero_y_degenerate(self):
        x = RealVector((1.5, -2.0))
        zero = RealVector((0.0, 0.0))
        p = 2.7
        left, right = eval_clarkson_1_3(x, zero, p)
        assert abs(left.gap) <= 1e-12 * left.scale
        expected = (2.0 ** (p - 1.0) - 2.0) * sum(abs(e) ** p for e in x.entries)
        assert right.gap == pytest.approx(expected, rel=1e-12)


class TestMain17:
    def test_zero_y_equality(self):
        x = NonnegVector((1.0, 2.0, 3.0))
        zero = NonnegVector((0.0, 0.0, 0.0))
        rep = eval_main_1_7(x, zero, 2.5, 4.0)
        assert abs(rep.gap) <= 1e-10 * rep.scale

    @given(nonneg_entries, nonneg_entries)
    @settings(max_examples=50)
    def test_p2_q2_parallelogram(self, xs, ys):
        x, y = _pair(xs, ys, NonnegVector)
        rep = eval_main_1_7(x, y, 2.0, 2.0)
        assert abs(rep.gap) <= 1e-9 * rep.scale

    def test_p2_q3_oracle(self):
        rep = eval_main_1_7(NonnegVector((1.0, 1.0)), NonnegVector((1.0, 0.0)), 2.0, 3.0)
        assert rep.lhs == pytest.approx(2.0 * (2.0**1.5 + 1.0), rel=1e-14)
        assert rep.rhs == pytest.approx(5.0**1.5 + 1.0, rel=1e-14)
        assert rep.gap == pytest.approx(4.523485638006569, rel=1e-12)

    def test_regime_rejected(self):
        with pytest.raises(RegimeViolation):
            eval_main_1_7(NonnegVector((1.0,)), NonnegVector((1.0,)), 3.0, 2.0)

    @given(nonneg_entries, nonneg_entries,
           st.floats(min_value=2.0, max_value=6.0), st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=200)
    def test_never_violated_on_nonneg(self, xs, ys, p, dq):
        x, y = _pair(xs, ys, NonnegVector)
        rep = eval_main_1_7(x, y, p, p + dq)
        assert rep.verdict is not Verdict.VIOLATED


class TestProp14:
    def test_zero_v(self):
        u = NonnegVector((1.0, 2.0))
        rep = eval_prop_1_4(u, NonnegVector((0.0, 0.0)), 2.0, 3.0)
        assert abs(rep.gap) <= 1e-10 * rep.scale

    def test_u_equals_v_q2(self):
        u = NonnegVector((1.0, 2.0))
        rep = eval_prop_1_4(u, u, 2.0, 2.0)
        assert abs(rep.gap) <= 1e-10 * rep.scale

    def test_dominated_example_holds(self):
        rep = eval_prop_1_4(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 1.0)), 2.0, 3.0)
        # brute-force both sides
        import math as m

        nu = m.sqrt(5.0)
        nv = m.sqrt(2.0)
        ns = m.sqrt(13.0)
        nd = 1.0
        assert rep.lhs == pytest.approx(2.0 * (nu**3 + 2.0 * nv**3), rel=1e-12)
        assert rep.rhs == pytest.approx(ns**3 + nd**3, rel=1e-12)
        assert rep.gap >= 0.0

    def test_dominance_rejected(self):
        with pytest.raises(DominanceViolation):
            eval_prop_1_4(NonnegVector((1.0,)), NonnegVector((2.0,)), 2.0, 3.0)


class TestCorollary16:
    def test_q2_equality(self):
        rep = eval_corollary_1_6(1.0, 1.0, 2.0)
        assert (rep.lhs, rep.rhs, rep.gap) == (4.0, 4.0, 0.0)

    def test_zero_y(self):
        rep = eval_corollary_1_6(3.0, 0.0, 4.5)
        assert rep.gap == pytest.approx(0.0, abs=1e-12 * rep.scale)

    def test_integer_oracle(self):
        rep = eval_corollary_1_6(2.0, 1.0, 3.0)
        assert (rep.lhs, rep.rhs, rep.gap) == (20.0, 28.0, 8.0)

    def test_domain_errors(self):
        with pytest.raises(DominanceViolation):
            eval_corollary_1_6(1.0, 2.0, 3.0)
        with pytest.raises(RegimeViolation):
            eval_corollary_1_6(2.0, 1.0, 1.5)

    @given(nonneg_entries, nonneg_entries, st.floats(min_value=2.0, max_value=6.0))
    @settings(max_examples=50)
    def test_scalar_consistency_with_prop14(self, xs, ys, q):
        x = max(xs[0], ys[0])
        y = min(xs[0], ys[0])
        scalar = eval_corollary_1_6(x, y, q)
        vector = eval_prop_1_4(NonnegVector((x,)), NonnegVector((y,)), q, q)
        assert scalar.gap == pytest.approx(vector.gap, abs=1e-12 * max(scalar.scale, 1.0))


class TestHalvingSubstitution:
    def test_basic(self):
        u, v = halving_substitution(RealVector((1.0, 0.0)), RealVector((0.0, 1.0)))
        assert u.entries == (1.0, 1.0)
        assert v.entries == (1.0, -1.0)

    def test_equal_args_give_zero_difference(self):
        x = RealVector((2.0, 3.0))
        _, v = halving_substitution(x, x)
        assert v.entries == (0.0, 0.0)

    def test_twice_doubles(self):
        x, y = RealVector((1.0, 2.0)), RealVector((3.0, -1.0))
        u, v = halving_substitution(*halving_substitution(x, y))
        assert u.entries == tuple(2.0 * e for e in x.entries)
        assert v.entries == tuple(2.0 * e for e in y.entries)

    @given(signed_entries, signed_entries, st.sampled_from([2.5, 3.0, 4.0]))
    @settings(max_examples=100)
    def test_substitution_equivalence(self, xs, ys, p):
        # Away from the borderline band, c-1.2 on (x, y) agrees with
        # c-1.1 on (x+y, x-y).
        x, y = _pair(xs, ys)
        r12 = eval_clarkson_1_2(x, y, p)
        u, v = halving_substitution(x, y)
        r11 = eval_clarkson_1_1(u, v, p)
        band = POLICY.borderline_band
        if abs(r12.normalized_gap) > band and abs(r11.normalized_gap) > band:
            assert r12.verdict == r11.verdict


class TestReductionInvariant:
    @given(nonneg_entries, nonneg_entries, st.sampled_from([2.0, 3.0, 4.5]))
    @settings(max_examples=100)
    def test_main_17_reduces_to_c13_left(self, xs, ys, p):
        x, y = _pair(xs, ys, NonnegVector)
        main = eval_main_1_7(x, y, p, p)
        left, _ = eval_clarkson_1_3(x, y, p)
        assert main.gap == pytest.approx(left.gap, abs=1e-12 * max(main.scale, 1.0))


class TestScaleInvariance:
    @given(nonneg_entries, nonneg_entries, st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50)
    def test_verdict_unchanged_under_scaling(self, xs, ys, alpha):
        x, y = _pair(xs, ys, NonnegVector)
        base = eval_main_1_7(x, y, 2.0, 3.0)
        scaled = eval_main_1_7(
            NonnegVector(tuple(alpha * e for e in x.entries)),
            NonnegVector(tuple(alpha * e for e in y.entries)),
            2.0,
            3.0,
        )
        band = POLICY.borderline_band
        if abs(base.normalized_gap) > band and abs(scaled.normalized_gap) > band:
            assert base.verdict == scaled.verdict


class TestImprovementInvariant:
    @given(nonneg_entries, nonneg_entries,
           st.floats(min_value=2.0, max_value=5.0), st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=100)
    def test_prop14_lhs_dominates_main17_lhs(self, xs, ys, p, dq):
        n = min(len(xs), len(ys))
        u = NonnegVector(tuple(max(a, b) for a, b in zip(xs[:n], ys[:n])))
        v = NonnegVector(tuple(min(a, b) for a, b in zip(xs[:n], ys[:n])))
        q = p + dq
        prop = eval_prop_1_4(u, v, p, q)
        main = eval_main_1_7(u, v, p, q)
        assert prop.lhs >= main.lhs - 1e-12 * max(prop.lhs, 1.0)
        if prop.verdict is Verdict.HOLDS:
            assert main.verdict is not Verdict.VIOLATED


class TestDispatch:
    def test_ids_round_trip_cli_names(self):
        for member in InequalityId:
            assert InequalityId.from_cli(member.value) is member

    def test_dispatch_matches_direct(self):
        x, y = NonnegVector((1.0, 1.0)), NonnegVector((1.0, 0.0))
        via = evaluate(InequalityId.MAIN_17, x, y, 2.0, 3.0)
        direct = eval_main_1_7(x, y, 2.0, 3.0)
        assert via == direct

    def test_signed_input_rejected_for_main(self):
        with pytest.raises(NegativeEntry):
            evaluate(InequalityId.MAIN_17, RealVector((-1.0,)), RealVector((1.0,)), 2.0, 3.0)

    def test_swap_has_no_pair_form(self):
        x = NonnegVector((1.0,))
        with pytest.raises(ClarksonError):
            evaluate(InequalityId.SWAP_28, x, x, 2.0, 3.0)

    @pytest.mark.parametrize(
        "id", [InequalityId.COR_16, InequalityId.SUMPOW_212, InequalityId.REARR_GAIN_217]
    )
    def test_weights_rejected_where_not_stated(self, id):
        x, y = NonnegVector((2.0,)), NonnegVector((1.0,))
        evaluate(id, x, y, 2.0, 3.0)
        with pytest.raises(ConstraintMismatch):
            evaluate(id, x, y, 2.0, 3.0, Weights((1.0,)))

    def test_non_finite_gap_is_an_error(self):
        # ||x||^2 overflows to inf on both sides, so the gap is inf - inf
        x, y = NonnegVector((1e200, 1.0)), NonnegVector((1e200, 0.0))
        with pytest.raises(NonFiniteGap):
            evaluate(InequalityId.MAIN_17, x, y, 2.0, 3.0)
