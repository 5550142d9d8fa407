import dataclasses
import math

import pytest

from clarkson.catalog import REGISTRY, InequalityId, Verdict, eval_main_1_7, evaluate
from clarkson.core import ExponentPair
from clarkson.errors import ConstraintMismatch, EmptyGrid
from clarkson.search import (
    Constraint,
    Distribution,
    SampleSpec,
    SearchStatus,
    counterexample_search,
    extremal_search,
    sample_pair,
    scan_grid,
)

SPEC = SampleSpec(dim_range=(1, 8))


@pytest.fixture
def inverted_main_17(monkeypatch):
    """Swap the sides of main-1.7's registry entry: a false statement to catch.

    evaluate and the search's batch screen both read the entry's sides,
    so they see the same false statement.
    """
    entry = REGISTRY[InequalityId.MAIN_17]

    def inverted_sides(*norms_p_q):
        lhs, rhs = entry.sides(*norms_p_q)
        return rhs, lhs

    monkeypatch.setitem(
        REGISTRY, InequalityId.MAIN_17, dataclasses.replace(entry, sides=inverted_sides)
    )


class TestSamplePair:
    def test_deterministic(self):
        a = sample_pair(SPEC, 123, 7)
        b = sample_pair(SPEC, 123, 7)
        assert a[0] == b[0] and a[1] == b[1]

    def test_different_indices_differ(self):
        a = sample_pair(SPEC, 123, 7)
        b = sample_pair(SPEC, 123, 8)
        assert a[0] != b[0] or a[1] != b[1]

    def test_dominated_pair_constraint(self):
        spec = SampleSpec(dim_range=(4, 8), constraint=Constraint.DOMINATED_PAIR)
        for i in range(50):
            x, y, _ = sample_pair(spec, 5, i)
            assert all(a >= b for a, b in zip(x.entries, y.entries))

    def test_signed_pairs_have_negative_entries(self):
        spec = SampleSpec(dim_range=(8, 8), constraint=Constraint.SIGNED)
        seen_negative = False
        for i in range(20):
            x, y, _ = sample_pair(spec, 5, i)
            seen_negative |= any(e < 0 for e in x.entries + y.entries)
        assert seen_negative

    def test_sparse_density(self):
        spec = SampleSpec(
            dim_range=(8, 8), distribution=Distribution.SPARSE, density=0.5
        )
        total = 0
        nonzero = 0
        for i in range(10_000):
            x, _, _ = sample_pair(spec, 99, i)
            total += len(x)
            nonzero += sum(1 for e in x.entries if e != 0.0)
        frac = nonzero / total
        # binomial(80000, 0.5): 5 sigma is about 0.009
        assert abs(frac - 0.5) < 0.01

    def test_weights_positive(self):
        spec = SampleSpec(dim_range=(3, 3), weights=True)
        _, _, w = sample_pair(spec, 1, 0)
        assert w is not None
        assert all(m > 0 for m in w.masses)


class TestCounterexampleSearch:
    def test_main_17_no_violation(self):
        out = counterexample_search(
            InequalityId.MAIN_17, ExponentPair.main(2.5, 4.0), SPEC, 2000, seed=11
        )
        assert out.status is SearchStatus.NO_VIOLATION
        assert out.normalized_gap >= -1e-9

    def test_inverted_orientation_is_caught(self, inverted_main_17):
        out = counterexample_search(
            InequalityId.MAIN_17, ExponentPair.main(2.0, 3.0), SPEC, 200, seed=11
        )
        assert out.status is SearchStatus.VIOLATION_FOUND
        # nearly every pair violates the swapped statement, and each is counted
        (cell,) = scan_grid(InequalityId.MAIN_17, [2.0], [3.0], SPEC, 200, seed=11)
        assert cell.violations >= 180

    def test_zero_budget(self):
        out = counterexample_search(
            InequalityId.MAIN_17, ExponentPair.main(2.0, 3.0), SPEC, 0, seed=1
        )
        assert out.status is SearchStatus.BUDGET_EXHAUSTED
        assert out.evaluations == 0
        assert out.best_report is None

    def test_seed_reproducibility(self):
        a = counterexample_search(
            InequalityId.C11, ExponentPair.conjugate(3.0), SPEC, 500, seed=42
        )
        b = counterexample_search(
            InequalityId.C11, ExponentPair.conjugate(3.0), SPEC, 500, seed=42
        )
        assert a.best_report == b.best_report
        assert a.normalized_gap == b.normalized_gap

    def test_soundness_of_witness(self, inverted_main_17):
        out = counterexample_search(
            InequalityId.MAIN_17, ExponentPair.main(2.0, 3.0), SPEC, 200, seed=11
        )
        x, y, p, q, w = out.witness
        rep = eval_main_1_7(x, y, p, q, w)
        # the witness really violates the inverted statement: its true gap
        # is strictly positive
        assert rep.gap > 0

    def test_constraint_mismatch_without_explore(self):
        spec = SampleSpec(constraint=Constraint.SIGNED)
        with pytest.raises(ConstraintMismatch):
            counterexample_search(
                InequalityId.MAIN_17, ExponentPair.main(2.0, 3.0), spec, 10, seed=0
            )
        out = counterexample_search(
            InequalityId.MAIN_17, ExponentPair.main(2.0, 3.0), spec, 10, seed=0,
            explore=True,
        )
        assert out.exploratory


class TestExtremalSearch:
    def test_p2_q2_everything_is_equality(self):
        out = extremal_search(
            InequalityId.MAIN_17, ExponentPair.main(2.0, 2.0), SPEC, 500, seed=3
        )
        assert abs(out.normalized_gap) <= 1e-10

    def test_minimizer_approaches_equality_case(self):
        out = extremal_search(
            InequalityId.MAIN_17,
            ExponentPair.main(2.0, 3.0),
            SampleSpec(dim_range=(2, 4)),
            5000,
            seed=3,
        )
        assert out.normalized_gap <= 1e-6

    @pytest.mark.parametrize("seed", range(8))
    def test_descent_reaches_equality_on_every_seed(self, seed):
        """The pair is normalized jointly, so y cannot grow while the gap stalls."""
        out = extremal_search(
            InequalityId.MAIN_17,
            ExponentPair.main(2.0, 3.0),
            SampleSpec(dim_range=(2, 4)),
            5000,
            seed=seed,
        )
        assert abs(out.normalized_gap) <= 5e-16
        x, y = out.witness[0], out.witness[1]
        assert max(x.entries + y.entries) <= 1.0

    def test_scalar_corollary_minimizer(self):
        spec = SampleSpec(dim_range=(1, 1), constraint=Constraint.DOMINATED_PAIR)
        out = extremal_search(
            InequalityId.COR_16, ExponentPair.scalar(3.0), spec, 5000, seed=3
        )
        assert out.normalized_gap <= 1e-6

    def test_weights_rejected(self):
        with pytest.raises(ConstraintMismatch):
            extremal_search(
                InequalityId.MAIN_17, ExponentPair.main(2.0, 3.0),
                SampleSpec(weights=True), 100, seed=0,
            )

    def test_extremal_consistency(self):
        spec = SampleSpec(dim_range=(2, 4))
        out = extremal_search(
            InequalityId.MAIN_17, ExponentPair.main(2.0, 3.0), spec, 1000, seed=5
        )
        raw = []
        for i in range(8):
            x, y, w = sample_pair(spec, 5, i)
            try:
                rep = evaluate(InequalityId.MAIN_17, x, y, 2.0, 3.0, None)
            except Exception:
                continue
            raw.append(rep.gap / rep.scale)
        assert out.normalized_gap <= min(raw) + 1e-15


class TestScanGrid:
    def test_regime_filter(self):
        cells = scan_grid(
            InequalityId.MAIN_17, [2.0, 3.0], [2.0, 3.0, 4.0], SPEC, 50, seed=1
        )
        skipped = [(c.p, c.q) for c in cells if c.skipped]
        assert skipped == [(3.0, 2.0)]
        assert len(cells) == 6

    def test_no_violations_for_main(self):
        cells = scan_grid(
            InequalityId.MAIN_17, [2.0, 3.0], [3.0, 4.0], SPEC, 200, seed=1
        )
        assert all(c.violations == 0 for c in cells if not c.skipped)

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            scan_grid(InequalityId.MAIN_17, [], [2.0], SPEC, 10, seed=0)
