import math

import pytest
from hypothesis import given, settings, strategies as st

from clarkson.catalog import (
    REGISTRY,
    GapReport,
    InequalityId,
    TolerancePolicy,
    Verdict,
    _pair_norms,
    classify,
    evaluate,
    report,
)
from clarkson.cli import build_parser
from clarkson.core import NonnegVector, RealVector, Weights, p_norm
from clarkson.errors import ClarksonError, DomainError, NonFiniteGap

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


def c11(x, y, p):
    return evaluate(InequalityId.C11, x, y, p)


def c12(x, y, p):
    return evaluate(InequalityId.C12, x, y, p)


def c13(x, y, p):
    """(left, right): c-1.3 is two registry entries."""
    return evaluate(InequalityId.C13_LEFT, x, y, p), evaluate(InequalityId.C13_RIGHT, x, y, p)


def main17(x, y, p, q):
    return evaluate(InequalityId.MAIN_17, x, y, p, q)


def prop14(u, v, p, q):
    return evaluate(InequalityId.PROP_14, u, v, p, q)


def cor16(x, y, q):
    """cor-1.6 on the one-entry vectors (x,) and (y,)."""
    return evaluate(InequalityId.COR_16, NonnegVector((x,)), NonnegVector((y,)), q, q)


def plus_minus(x, y):
    """The substitution (x, y) -> (x + y, x - y)."""
    return (RealVector(tuple(a + b for a, b in zip(x.entries, y.entries))),
            RealVector(tuple(a - b for a, b in zip(x.entries, y.entries))))


class TestVerdict:
    def test_clear_hold(self):
        assert classify(1.0, 1.0, POLICY) is Verdict.HOLDS

    def test_equality_is_borderline(self):
        assert classify(0.0, 1.0, POLICY) is Verdict.BORDERLINE

    def test_clear_violation(self):
        assert classify(-1.0, 1.0, POLICY) is Verdict.VIOLATED

    def test_zero_gap_on_a_subnormal_scale_is_borderline(self):
        """sumpow-2.12 at x = (1e-126,), y = (0,) has both sides 1e-315 and
        gap 0.0; rel_tol * 1e-315 underflows to 0, which made it a hold."""
        assert classify(0.0, 1e-315, POLICY) is Verdict.BORDERLINE
        assert classify(1e-320, 1e-315, POLICY) is Verdict.HOLDS
        assert classify(-1e-320, 1e-315, POLICY) is Verdict.VIOLATED

    @pytest.mark.parametrize("scale", [0.0, -0.0, -1.0, math.inf, math.nan])
    def test_scale_must_be_positive_and_finite(self, scale):
        with pytest.raises(DomainError) as info:
            classify(0.0, scale, POLICY)
        assert str(info.value) == f"scale must be positive and finite, got {scale!r}"

    @pytest.mark.parametrize("rel_tol, band", [
        (0.0, 1e-7), (math.nan, 1e-7), (1e-9, 1e-12), (1e-9, math.inf), (1e-9, math.nan),
    ])
    def test_policy_rejects_bad_tolerances(self, rel_tol, band):
        # an infinite band would never let a verdict be violated
        with pytest.raises(ValueError, match="need 0 < rel_tol <= borderline_band < inf"):
            TolerancePolicy(rel_tol, band)

    def test_policy_error_is_a_clarkson_error(self):
        with pytest.raises(ClarksonError) as info:
            TolerancePolicy(1e-9, 1e-12)
        assert isinstance(info.value, DomainError) and isinstance(info.value, ValueError)
        assert str(info.value) == (
            "rel_tol 1e-09, borderline_band 1e-12: need 0 < rel_tol <= borderline_band < inf")

    def test_report_is_the_named_tuple(self):
        rep = report(InequalityId.MAIN_17, 2.0, 4.0, 1.5, 2.0, POLICY)
        fields = (InequalityId.MAIN_17, 2.0, 4.0, 1.5, 2.0, 0.5, 2.0, Verdict.HOLDS)
        assert rep == GapReport(*fields) == fields
        assert GapReport._fields == ("id", "p", "q", "lhs", "rhs", "gap", "scale", "verdict")
        assert rep.normalized_gap == 0.25
        with pytest.raises(AttributeError):
            rep.gap = 0.0


class TestClarkson11:
    def test_equal_arguments_give_zero_gap(self):
        x = RealVector((1.0, 0.0))
        rep = c11(x, x, 3.0)
        assert rep.gap == pytest.approx(0.0, abs=1e-12 * rep.scale)

    def test_p4_oracle(self):
        # direct evaluation: lhs = 2*17^(1/3), rhs = 3^(4/3) + 1
        rep = c11(RealVector((2.0, 0.0)), RealVector((1.0, 0.0)), 4.0)
        assert rep.lhs == pytest.approx(2.0 * 17.0 ** (1.0 / 3.0), rel=1e-14)
        assert rep.rhs == pytest.approx(3.0 ** (4.0 / 3.0) + 1.0, rel=1e-14)
        assert rep.gap == pytest.approx(0.18418552960575507, rel=1e-12)
        assert rep.verdict is Verdict.HOLDS

    def test_reverse_regime_orientation(self):
        # p = 1.5: the direction flips; disjoint-support unit vectors sit
        # exactly at equality, a generic pair holds strictly.
        rep = c11(RealVector((1.0, 0.0)), RealVector((0.0, 1.0)), 1.5)
        assert rep.verdict is not Verdict.VIOLATED
        assert abs(rep.gap) <= 1e-9 * rep.scale
        rep2 = c11(RealVector((1.0, 0.5)), RealVector((0.25, 0.75)), 1.5)
        assert rep2.verdict is Verdict.HOLDS


class TestClarkson12:
    def test_equal_arguments(self):
        x = RealVector((1.0, 2.0))
        rep = c12(x, x, 3.0)
        assert abs(rep.gap) <= 1e-12 * rep.scale

    def test_p4_holds(self):
        rep = c12(RealVector((2.0, 0.0)), RealVector((1.0, 0.0)), 4.0)
        assert rep.gap >= 0.0

    def test_reverse_regime(self):
        rep = c12(RealVector((1.0, 1.0)), RealVector((1.0, 0.0)), 1.5)
        assert rep.verdict is not Verdict.VIOLATED


class TestClarkson13:
    @given(signed_entries, signed_entries)
    @settings(max_examples=50)
    def test_parallelogram_identity_at_p2(self, xs, ys):
        x, y = _pair(xs, ys)
        left, right = c13(x, y, 2.0)
        assert abs(left.gap) <= 1e-9 * left.scale
        assert abs(right.gap) <= 1e-9 * right.scale

    def test_equal_singletons_p3(self):
        x = RealVector((1.0,))
        left, right = c13(x, x, 3.0)
        assert (left.lhs, left.rhs, left.gap) == (4.0, 8.0, 4.0)
        assert (right.lhs, right.rhs, right.gap) == (8.0, 8.0, 0.0)

    def test_zero_y_degenerate(self):
        x = RealVector((1.5, -2.0))
        zero = RealVector((0.0, 0.0))
        p = 2.7
        left, right = c13(x, zero, p)
        assert abs(left.gap) <= 1e-12 * left.scale
        expected = (2.0 ** (p - 1.0) - 2.0) * sum(abs(e) ** p for e in x.entries)
        assert right.gap == pytest.approx(expected, rel=1e-12)


class TestMain17:
    def test_zero_y_equality(self):
        x = NonnegVector((1.0, 2.0, 3.0))
        zero = NonnegVector((0.0, 0.0, 0.0))
        rep = main17(x, zero, 2.5, 4.0)
        assert abs(rep.gap) <= 1e-10 * rep.scale

    @given(nonneg_entries, nonneg_entries)
    @settings(max_examples=50)
    def test_p2_q2_parallelogram(self, xs, ys):
        x, y = _pair(xs, ys, NonnegVector)
        rep = main17(x, y, 2.0, 2.0)
        assert abs(rep.gap) <= 1e-9 * rep.scale

    def test_p2_q3_oracle(self):
        rep = main17(NonnegVector((1.0, 1.0)), NonnegVector((1.0, 0.0)), 2.0, 3.0)
        assert rep.lhs == pytest.approx(2.0 * (2.0**1.5 + 1.0), rel=1e-14)
        assert rep.rhs == pytest.approx(5.0**1.5 + 1.0, rel=1e-14)
        assert rep.gap == pytest.approx(4.523485638006569, rel=1e-12)

    def test_regime_rejected(self):
        with pytest.raises(DomainError, match=r"^need 2 <= p <= q, got \(3\.0, 2\.0\)$"):
            main17(NonnegVector((1.0,)), NonnegVector((1.0,)), 3.0, 2.0)

    @given(nonneg_entries, nonneg_entries,
           st.floats(min_value=2.0, max_value=6.0), st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=200)
    def test_never_violated_on_nonneg(self, xs, ys, p, dq):
        x, y = _pair(xs, ys, NonnegVector)
        rep = main17(x, y, p, p + dq)
        assert rep.verdict is not Verdict.VIOLATED


def sharp_margin(x, y, p, q):
    """2(2^(q/p) - 2) min(||x||_p, ||y||_p)^q: the least gap of main-1.7
    on any real pair at 2 <= p <= q, attained by disjoint supports of
    equal norm."""
    return 2.0 * (2.0 ** (q / p) - 2.0) * min(p_norm(x, p), p_norm(y, p)) ** q


class TestSignedMain17:
    """main-1.7 holds for every real pair: Clarkson's c-1.3-left for p >= 2
    gives A + B >= 2(X^p + Y^p) with A, B the p-th powers of ||x+y||_p and
    ||x-y||_p; t^(q/p) is convex and superadditive, so A^(q/p) + B^(q/p)
    >= 2(X^p + Y^p)^(q/p) >= 2(X^q + Y^q)."""

    @given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=6),
           st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=1, max_size=6),
           st.floats(min_value=2.0, max_value=8.0), st.floats(min_value=2.0, max_value=8.0))
    @settings(max_examples=300)
    def test_gap_is_at_least_the_sharp_margin(self, xs, ys, a, b):
        x, y = _pair(xs, ys)
        p, q = min(a, b), max(a, b)
        rep = main17(x, y, p, q)
        assert rep.verdict is not Verdict.VIOLATED
        assert rep.gap >= sharp_margin(x, y, p, q) - POLICY.rel_tol * rep.scale

    def test_disjoint_supports_of_equal_norm_meet_the_margin(self):
        x, y = RealVector((1.0, 0.0)), RealVector((0.0, -1.0))
        rep = main17(x, y, 2.0, 4.0)
        assert sharp_margin(x, y, 2.0, 4.0) == 4.0
        assert abs(rep.gap - 4.0) <= POLICY.borderline_band * rep.scale


class TestProp14:
    def test_zero_v(self):
        u = NonnegVector((1.0, 2.0))
        rep = prop14(u, NonnegVector((0.0, 0.0)), 2.0, 3.0)
        assert abs(rep.gap) <= 1e-10 * rep.scale

    def test_u_equals_v_q2(self):
        u = NonnegVector((1.0, 2.0))
        rep = prop14(u, u, 2.0, 2.0)
        assert abs(rep.gap) <= 1e-10 * rep.scale

    def test_dominated_example_holds(self):
        rep = prop14(NonnegVector((2.0, 1.0)), NonnegVector((1.0, 1.0)), 2.0, 3.0)
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
        with pytest.raises(DomainError, match="^dominance violated at index 0$"):
            prop14(NonnegVector((1.0,)), NonnegVector((2.0,)), 2.0, 3.0)


class TestCorollary16:
    def test_q2_equality(self):
        rep = cor16(1.0, 1.0, 2.0)
        assert (rep.lhs, rep.rhs, rep.gap) == (4.0, 4.0, 0.0)

    def test_zero_y(self):
        rep = cor16(3.0, 0.0, 4.5)
        assert rep.gap == pytest.approx(0.0, abs=1e-12 * rep.scale)

    def test_integer_oracle(self):
        rep = cor16(2.0, 1.0, 3.0)
        assert (rep.lhs, rep.rhs, rep.gap) == (20.0, 28.0, 8.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="^dominance violated at index 0$"):
            cor16(1.0, 2.0, 3.0)
        with pytest.raises(DomainError, match=r"^need q >= 2, got 1\.5$"):
            cor16(2.0, 1.0, 1.5)

    @given(nonneg_entries, nonneg_entries, st.floats(min_value=2.0, max_value=6.0))
    @settings(max_examples=50)
    def test_scalar_consistency_with_prop14(self, xs, ys, q):
        x = max(xs[0], ys[0])
        y = min(xs[0], ys[0])
        scalar = cor16(x, y, q)
        vector = prop14(NonnegVector((x,)), NonnegVector((y,)), q, q)
        assert scalar.gap == pytest.approx(vector.gap, abs=1e-12 * max(scalar.scale, 1.0))


class TestHalvingSubstitution:
    """(x, y) -> (x + y, x - y), as the pair norms form it and as c-1.2 uses it."""

    def test_basic(self):
        # ||(1, 1)||_2 and ||(1, -1)||_2
        _, _, ns, nd = _pair_norms((1.0, 0.0), (0.0, 1.0), 2.0, None, None)
        assert (ns, nd) == (math.sqrt(2.0), math.sqrt(2.0))

    def test_equal_args_give_zero_difference(self):
        x = (2.0, 3.0)
        assert _pair_norms(x, x, 3.0, None, None)[3] == 0.0

    def test_twice_doubles(self):
        # (x + y) + (x - y) = 2x and (x + y) - (x - y) = 2y
        x, y = RealVector((1.0, 2.0)), RealVector((3.0, -1.0))
        u, v = plus_minus(x, y)
        nx, ny, _, _ = _pair_norms(x.entries, y.entries, 2.0, None, None)
        _, _, ns, nd = _pair_norms(u.entries, v.entries, 2.0, None, None)
        assert (ns, nd) == (2.0 * nx, 2.0 * ny)

    @given(signed_entries, signed_entries, st.sampled_from([2.5, 3.0, 4.0]))
    @settings(max_examples=100)
    def test_substitution_equivalence(self, xs, ys, p):
        # Away from the borderline band, c-1.2 on (x, y) agrees with
        # c-1.1 on (x+y, x-y).
        x, y = _pair(xs, ys)
        r12 = c12(x, y, p)
        u, v = plus_minus(x, y)
        r11 = c11(u, v, p)
        band = POLICY.borderline_band
        if abs(r12.normalized_gap) > band and abs(r11.normalized_gap) > band:
            assert r12.verdict == r11.verdict


class TestReductionInvariant:
    @given(nonneg_entries, nonneg_entries, st.sampled_from([2.0, 3.0, 4.5]))
    @settings(max_examples=100)
    def test_main_17_reduces_to_c13_left(self, xs, ys, p):
        x, y = _pair(xs, ys, NonnegVector)
        main = main17(x, y, p, p)
        left, _ = c13(x, y, p)
        assert main.gap == pytest.approx(left.gap, abs=1e-12 * max(main.scale, 1.0))


class TestScaleInvariance:
    @given(nonneg_entries, nonneg_entries, st.floats(min_value=0.01, max_value=100.0))
    @settings(max_examples=50)
    def test_verdict_unchanged_under_scaling(self, xs, ys, alpha):
        x, y = _pair(xs, ys, NonnegVector)
        base = main17(x, y, 2.0, 3.0)
        scaled = main17(
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
        prop = prop14(u, v, p, q)
        main = main17(u, v, p, q)
        assert prop.lhs >= main.lhs - 1e-12 * max(prop.lhs, 1.0)
        if prop.verdict is Verdict.HOLDS:
            assert main.verdict is not Verdict.VIOLATED


class TestDispatch:
    def test_ids_round_trip_cli_names(self):
        # every --ineq takes each id's value, which the CLI reads back with InequalityId
        grids = ["--p-grid", "2:2:1", "--q-grid", "2:2:1"]
        for member in InequalityId:
            for argv in (["verify"], ["scan", *grids], ["search"]):
                args = build_parser().parse_args([*argv, "--ineq", member.value])
                assert InequalityId(args.ineq) is member

    def test_dispatch_matches_direct(self):
        # evaluate gives the report of its registry entry's sides
        x, y = NonnegVector((1.0, 1.0)), NonnegVector((1.0, 0.0))
        via = evaluate(InequalityId.MAIN_17, x, y, 2.0, 3.0)
        entry = REGISTRY[InequalityId.MAIN_17]
        sides = entry.sides(*entry.quantities(x.entries, y.entries, 2.0, 3.0, None), 2.0, 3.0)
        assert via == report(InequalityId.MAIN_17, 2.0, 3.0, *sides, POLICY)

    def test_signed_input_rejected_for_sumpow(self):
        with pytest.raises(DomainError, match="^negative entry at index 0$"):
            evaluate(InequalityId.SUMPOW_212, RealVector((-1.0,)), RealVector((1.0,)), 2.0, 3.0)

    @pytest.mark.parametrize(
        "id", [InequalityId.COR_16, InequalityId.SUMPOW_212, InequalityId.REARR_GAIN_217]
    )
    def test_weights_rejected_where_not_stated(self, id):
        x, y = NonnegVector((2.0,)), NonnegVector((1.0,))
        evaluate(id, x, y, 2.0, 3.0)
        with pytest.raises(DomainError, match=f"^{id.value} is stated without weights$"):
            evaluate(id, x, y, 2.0, 3.0, Weights((1.0,)))

    def test_non_finite_gap_is_an_error(self):
        # ||x||^2 overflows to inf on both sides, so the gap is inf - inf
        x, y = NonnegVector((1e200, 1.0)), NonnegVector((1e200, 0.0))
        with pytest.raises(NonFiniteGap):
            evaluate(InequalityId.MAIN_17, x, y, 2.0, 3.0)
