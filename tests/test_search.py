import dataclasses
import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from clarkson.catalog import REGISTRY, InequalityId, Verdict, evaluate
from clarkson import search
from clarkson.core import MAX_GRID_CELLS, NonnegVector
from clarkson.errors import ClarksonError, DomainError, NonFiniteGap
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


def assert_nothing_scored(out, p, q):
    """The outcome of a search that scored no point, at the resolved (p, q)."""
    assert out.status is SearchStatus.BUDGET_EXHAUSTED
    assert out.best_report is None
    assert out.witness == (None, None, p, q, None)
    assert out.normalized_gap == math.inf
    assert out.evaluations == 0


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

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**65 + 3])
    def test_seed_outside_64_bits_raises(self, seed):
        """Each seed keys its own stream: the key was seed mod 2**64, so -1
        drew what 2**64 - 1 draws and 2**64 what 0 draws."""
        with pytest.raises(DomainError) as info:
            sample_pair(SPEC, seed, 0)
        assert str(info.value) == f"seed must lie in [0, 2**64), got {seed}"
        for run in (counterexample_search, extremal_search):
            with pytest.raises(DomainError):
                run(InequalityId.MAIN_17, 2.0, 3.0, SPEC, 10, seed=seed)

    @pytest.mark.parametrize("weights", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("constraint", list(Constraint), ids=lambda c: c.value)
    @pytest.mark.parametrize("dist", list(Distribution), ids=lambda d: d.value)
    def test_blocks_are_valid_by_construction(self, dist, constraint, weights):
        """sample_block checks nothing, and neither does the batch screen, so
        every block must meet the rules the vector constructors check, and
        the ranges the documented recipe promises: finite entries, no
        negative and no -0.0 unless signed, uniform and sparse magnitudes
        in [0, 1) and exponential ones at most 52 log 2 (about 36.04),
        x >= y when dominated, weights in [0.5, 2), row offsets that give
        each row n entries in range, and every length of dim_range
        reached.  A sparse entry is 0 with probability 1 - density: its
        zero share lies within 5 sigma of that, and at density 1.0 no
        entry is 0."""
        spec = SampleSpec(dim_range=(1, 64), distribution=dist, constraint=constraint,
                          density=0.5, weights=weights)
        lengths = set()
        zeros = drawn = 0
        for seed, b in ((0, 0), (7, 1), (2**64 - 1, 12345)):
            if dist is Distribution.SPARSE:
                full = search.sample_block(dataclasses.replace(spec, density=1.0), seed, b)
                assert (full.x != 0.0).all() and (full.y != 0.0).all()
            block = search.sample_block(spec, seed, b)
            zeros += int((block.x == 0.0).sum() + (block.y == 0.0).sum())
            drawn += 2 * block.x.size
            assert block.n.shape == (256,) and ((1 <= block.n) & (block.n <= 64)).all()
            lengths.update(block.n.tolist())
            assert block.off.shape == (257,) and block.off[0] == 0
            assert (np.diff(block.off) == block.n).all()
            entries = (int(block.off[-1]),)
            assert block.x.shape == block.y.shape == entries
            for v in (block.x, block.y):
                assert np.isfinite(v).all()
                if constraint is not Constraint.SIGNED:
                    assert not np.signbit(v).any()
                if dist is Distribution.EXPONENTIAL_1:
                    assert (abs(v) <= 36.05).all()
                else:
                    assert (abs(v) < 1.0).all()
            if constraint is Constraint.DOMINATED_PAIR:
                assert (block.x >= block.y).all()
            if weights:
                assert block.w.shape == entries
                assert ((0.5 <= block.w) & (block.w < 2.0)).all()
            else:
                assert block.w is None
        assert lengths == set(range(1, 65))
        if dist is Distribution.SPARSE:
            assert abs(zeros / drawn - 0.5) <= 5.0 * math.sqrt(0.25 / drawn)


class TestStreamLayout:
    """sample_block follows its documented recipe, rebuilt here word by word
    from PCG64DXSM's raw output in plain Python ints: every seeded output
    rests on it, so a change of layout fails here first.  A float is
    (w >> 12) * 2^-52, computed independently of sample_block's bit
    conversion, so a CPU or numpy on which that conversion differs fails
    here too; the raw words and SeedSequence are what NEP 19 keeps stable
    across numpy releases."""

    @staticmethod
    def rebuild(spec, seed, block):
        bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(block,)))
        lo, hi = spec.dim_range
        n = [lo + ((w >> 32) * (hi - lo + 1) >> 32) for w in bits.random_raw(256).tolist()]

        def words():  # the next sum(n) words, one per entry
            return bits.random_raw(sum(n)).tolist()

        def unit(w):
            return (w >> 12) * 2.0**-52

        x = [unit(w) for w in words()]
        y = [unit(w) for w in words()]
        if spec.distribution is Distribution.SPARSE:
            cut = math.ceil(Fraction(spec.density) * 2**53)
            x = [u if w >> 11 < cut else 0.0 for u, w in zip(x, words())]
            y = [u if w >> 11 < cut else 0.0 for u, w in zip(y, words())]
        elif spec.distribution is Distribution.EXPONENTIAL_1:
            x = [-math.log1p(-u) for u in x]
            y = [-math.log1p(-u) for u in y]
        w = [0.5 + 1.5 * unit(v) for v in words()] if spec.weights else None
        if spec.constraint is Constraint.SIGNED:
            x = [-u if s >> 63 else u for u, s in zip(x, words())]
            y = [-u if s >> 63 else u for u, s in zip(y, words())]
        elif spec.constraint is Constraint.DOMINATED_PAIR:
            x, y = [max(a, b) for a, b in zip(x, y)], [min(a, b) for a, b in zip(x, y)]
        return {
            "n": np.array(n, dtype=np.int64),
            "off": np.array([0, *itertools.accumulate(n)], dtype=np.int64),
            "x": np.array(x),
            "y": np.array(y),
            "w": None if w is None else np.array(w),
        }

    @pytest.mark.parametrize("weights", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("constraint", list(Constraint), ids=lambda c: c.value)
    @pytest.mark.parametrize("dist", list(Distribution), ids=lambda d: d.value)
    def test_block_follows_the_recipe(self, dist, constraint, weights):
        spec = SampleSpec(dim_range=(3, 40), distribution=dist, constraint=constraint,
                          density=0.5, weights=weights)
        for seed, b in ((0, 0), (7, 1), (2**64 - 1, 12345), (1, 2**192 - 1)):
            block = search.sample_block(spec, seed, b)
            for name, want in self.rebuild(spec, seed, b).items():
                got = getattr(block, name)
                moved = f"sample_block(spec, {seed}, {b}).{name} left the documented layout"
                if want is None:
                    assert got is None, moved
                else:  # bytes, so that -0.0 and 0.0 differ too
                    assert (got.dtype, got.shape) == (want.dtype, want.shape), moved
                    assert got.tobytes() == want.tobytes(), moved


class TestCounterexampleSearch:
    def test_main_17_no_violation(self):
        out = counterexample_search(
            InequalityId.MAIN_17, 2.5, 4.0, SPEC, 2000, seed=11
        )
        assert out.status is SearchStatus.NO_VIOLATION
        assert out.normalized_gap >= -1e-9

    def test_inverted_orientation_is_caught(self, inverted_main_17):
        out = counterexample_search(
            InequalityId.MAIN_17, 2.0, 3.0, SPEC, 200, seed=11
        )
        assert out.status is SearchStatus.VIOLATION_FOUND
        # nearly every pair violates the swapped statement, and each is counted
        (cell,) = scan_grid(InequalityId.MAIN_17, [2.0], [3.0], SPEC, 200, seed=11)
        assert cell.violations >= 180

    def test_zero_budget(self):
        out = counterexample_search(InequalityId.MAIN_17, 2.0, 3.0, SPEC, 0, seed=1)
        assert_nothing_scored(out, 2.0, 3.0)
        # the witness holds the (p, q) the exponent builder resolved
        out = counterexample_search(InequalityId.C11, 3.0, None, SPEC, 0, seed=1)
        assert_nothing_scored(out, 3.0, 1.5)

    def test_seed_reproducibility(self):
        a = counterexample_search(
            InequalityId.C11, 3.0, 1.5, SPEC, 500, seed=42
        )
        b = counterexample_search(
            InequalityId.C11, 3.0, 1.5, SPEC, 500, seed=42
        )
        assert a.best_report == b.best_report
        assert a.normalized_gap == b.normalized_gap

    def test_soundness_of_witness(self, inverted_main_17, monkeypatch):
        out = counterexample_search(
            InequalityId.MAIN_17, 2.0, 3.0, SPEC, 200, seed=11
        )
        x, y, p, q, w = out.witness
        monkeypatch.undo()  # back to main-1.7 as stated
        rep = evaluate(InequalityId.MAIN_17, x, y, p, q, w)
        # the witness really violates the inverted statement: its true gap
        # is strictly positive
        assert rep.gap > 0

    def test_constraint_mismatch_without_explore(self):
        spec = SampleSpec(constraint=Constraint.SIGNED)
        with pytest.raises(DomainError) as info:
            counterexample_search(InequalityId.PROP_14, 2.0, 3.0, spec, 10, seed=0)
        assert str(info.value) == "prop-1.4 is stated for dominated inputs, got signed"


@pytest.mark.parametrize("run", [counterexample_search, extremal_search])
@pytest.mark.parametrize(
    "id", [InequalityId.MAIN_17, InequalityId.COR_16, InequalityId.SUMPOW_212])
def test_search_without_q_raises_as_evaluate_does(run, id, monkeypatch):
    """An id that reads q raises evaluate's DomainError on q None,
    before the first sample is drawn."""
    one = NonnegVector((1.0,))
    with pytest.raises(DomainError) as want:
        evaluate(id, one, one, 2.0, None)

    def no_sampling(*args):
        raise AssertionError("sampled before the q check")

    monkeypatch.setattr(search, "sample_block", no_sampling)
    monkeypatch.setattr(search, "sample_pair", no_sampling)
    with pytest.raises(DomainError) as got:
        run(id, 2.0, None, SPEC, 10, seed=0)
    assert str(got.value) == str(want.value) == f"{id.value} requires an explicit q"


class TestExtremalSearch:
    def test_p2_q2_everything_is_equality(self):
        out = extremal_search(
            InequalityId.MAIN_17, 2.0, 2.0, SPEC, 500, seed=3
        )
        assert abs(out.normalized_gap) <= 1e-10

    def test_minimizer_approaches_equality_case(self):
        out = extremal_search(
            InequalityId.MAIN_17,
            2.0, 3.0,
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
            2.0, 3.0,
            SampleSpec(dim_range=(2, 4)),
            5000,
            seed=seed,
        )
        assert abs(out.normalized_gap) <= 5e-16
        x, y = out.witness[0], out.witness[1]
        assert max(x.entries + y.entries) <= 1.0

    def test_inverted_orientation_is_caught(self, inverted_main_17):
        out = extremal_search(InequalityId.MAIN_17, 2.0, 3.0, SPEC, 200, seed=11)
        assert out.status is SearchStatus.VIOLATION_FOUND
        assert out.best_report.verdict is Verdict.VIOLATED

    def test_scalar_corollary_minimizer(self):
        spec = SampleSpec(dim_range=(1, 1), constraint=Constraint.DOMINATED_PAIR)
        out = extremal_search(
            InequalityId.COR_16, 3.0, 3.0, spec, 5000, seed=3
        )
        assert out.normalized_gap <= 1e-6

    def test_weights_rejected(self):
        with pytest.raises(DomainError, match="^extremal search does not take weights$"):
            extremal_search(
                InequalityId.MAIN_17, 2.0, 3.0,
                SampleSpec(weights=True), 100, seed=0,
            )

    def test_only_zero_starts(self, monkeypatch):
        """Every start projects to no point, so nothing is evaluated."""
        calls = []
        monkeypatch.setattr(search, "evaluate", lambda *args: calls.append(args))
        spec = SampleSpec(dim_range=(1, 3), distribution=Distribution.SPARSE, density=1e-12)
        out = extremal_search(InequalityId.MAIN_17, 2.0, 3.0, spec, 100, seed=0)
        assert_nothing_scored(out, 2.0, 3.0)
        assert calls == []

    def test_non_finite_gap_is_skipped(self, monkeypatch):
        """A candidate whose gap overflows is passed over; the budget is still spent."""
        calls = itertools.count()
        real = search.evaluate

        def overflow_every_third(*args, **kwargs):
            if next(calls) % 3 == 1:
                raise NonFiniteGap("overflow")
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "evaluate", overflow_every_third)
        out = extremal_search(InequalityId.MAIN_17, 2.0, 4.0, SampleSpec(dim_range=(4, 4)),
                              300, seed=1)
        assert out.evaluations == 300
        assert out.status is SearchStatus.NO_VIOLATION

    @pytest.mark.parametrize("id, p, q, spec, seed", [
        (InequalityId.MAIN_17, 2.0, 4.0, SampleSpec(dim_range=(8, 8)), 1),
        (InequalityId.PROP_14, 2.0, 6.0,
         SampleSpec(dim_range=(4, 4), constraint=Constraint.DOMINATED_PAIR), 2),
    ], ids=["extremal-descent", "dominated-prop-1.4"])
    def test_revisited_points_are_evaluated_once(self, id, p, q, spec, seed, monkeypatch):
        """At the full budget of 4000 the small steps revisit points.  No
        point is evaluated again while it is among its start's last 8n
        scored points, and a revisit still counts as an evaluation.  The
        points scored are the start's pair and each move's candidate,
        projected, while the budget lasts; a candidate with no projection
        is not scored."""
        events = []
        real_evaluate, real_move, real_sample = search.evaluate, search._move, search.sample_pair

        def evaluating(id, x, y, *args, **kwargs):
            events.append(("evaluate", x.entries + y.entries))
            return real_evaluate(id, x, y, *args, **kwargs)

        def moving(*args):
            cand = real_move(*args)
            events.append(("candidate", cand))
            return cand

        def starting(*args):
            x, y, w = real_sample(*args)
            events.append(("start", x.entries + y.entries))
            return x, y, w

        monkeypatch.setattr(search, "evaluate", evaluating)
        monkeypatch.setattr(search, "_move", moving)
        monkeypatch.setattr(search, "sample_pair", starting)
        out = extremal_search(id, p, q, spec, 4000, seed=seed)
        assert out.evaluations == 4000
        scored, points, calls = [], 0, 0
        for i, (kind, z) in enumerate(events):
            if kind == "evaluate":
                calls += 1
                continue
            if kind == "start":
                scored = []
            z = search._project(z, p)
            if z is None or points == out.evaluations:
                continue
            points += 1
            if i + 1 < len(events) and events[i + 1][0] == "evaluate":
                assert events[i + 1][1] == z
                assert z not in scored[-4 * len(z):]  # 8n, z has 2n entries
            scored.append(z)
        assert points == out.evaluations
        assert calls < out.evaluations

    def test_no_candidate_is_projected_twice_while_recent(self, monkeypatch):
        """On the extremal-descent flags, a candidate (a start's pair or a
        move's result) is not projected again while it is among its
        start's last 8n candidates: a move the clamp undoes gives back the
        current point, and a step forward and back on one coordinate often
        gives back an earlier candidate bit for bit."""
        events = []
        real_project, real_move, real_sample = search._project, search._move, search.sample_pair

        def projecting(z, *args):
            events.append(("project", z))
            return real_project(z, *args)

        def moving(*args):
            cand = real_move(*args)
            events.append(("candidate", cand))
            return cand

        def starting(*args):
            events.append(("start", None))
            return real_sample(*args)

        monkeypatch.setattr(search, "_project", projecting)
        monkeypatch.setattr(search, "_move", moving)
        monkeypatch.setattr(search, "sample_pair", starting)
        out = extremal_search(InequalityId.MAIN_17, 2.0, 4.0, SampleSpec(dim_range=(8, 8)),
                              4000, seed=1)
        assert out.evaluations == 4000
        candidates, projections = [], 0
        for kind, z in events:
            if kind == "start":
                candidates = []
            elif kind == "candidate":
                candidates.append(z)
            else:
                projections += 1
                if candidates and candidates[-1] is z:  # a move's candidate
                    candidates.pop()
                assert z not in candidates[-4 * len(z):]  # 8n, z has 2n entries
                candidates.append(z)
        assert projections < out.evaluations

    @pytest.mark.parametrize("id, p, q, constraint", [
        (InequalityId.REARR_GAIN_217, 2.0, 2.0, Constraint.NONNEGATIVE),
        (InequalityId.SUMPOW_212, 2.5, 2.5, Constraint.DOMINATED_PAIR),
    ], ids=["rearr-2.17-at-p-eq-q", "dominated-sumpow-2.12"])
    @pytest.mark.parametrize("overflows", [0, 1])
    def test_identity_cell_stops_at_the_first_finite_score(
            self, id, p, q, constraint, overflows, monkeypatch):
        """Every finite gap of an identity cell is 0.0, so no later point
        can be better: the descent stops at its first finite score, with
        the witness the full descent reports."""
        spec = SampleSpec(dim_range=(8, 8), constraint=constraint)
        entry = REGISTRY[id]
        with monkeypatch.context() as m:
            m.setitem(REGISTRY, id, dataclasses.replace(entry, identity=lambda *args: False))
            full = extremal_search(id, p, q, spec, 4000, seed=1)
        calls = itertools.count()
        real = search.evaluate

        def counting(*args, **kwargs):
            if next(calls) < overflows:
                raise NonFiniteGap("overflow")
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "evaluate", counting)
        out = extremal_search(id, p, q, spec, 4000, seed=1)
        assert next(calls) == out.evaluations == overflows + 1 < full.evaluations
        assert out.normalized_gap == full.normalized_gap == 0.0
        assert out.status is full.status is SearchStatus.NO_VIOLATION
        if not overflows:
            assert out.witness == full.witness and out.best_report == full.best_report

    def test_extremal_consistency(self):
        spec = SampleSpec(dim_range=(2, 4))
        out = extremal_search(
            InequalityId.MAIN_17, 2.0, 3.0, spec, 1000, seed=5
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


class TestMove:
    """search._move: one coordinate moved and put back on the constraint set."""

    def test_nonnegative(self):
        z = (0.0, 0.5, 0.3, 0.2)
        assert search._move(z, 2, 0, -0.1, Constraint.NONNEGATIVE) == z  # the clamp undoes it
        assert search._move(z, 2, 1, -0.6, Constraint.NONNEGATIVE) == (0.0, 0.0, 0.3, 0.2)
        assert search._move(z, 2, 0, 0.1, Constraint.NONNEGATIVE) == (0.1, 0.5, 0.3, 0.2)

    def test_dominated(self):
        # x = (0.5, 0), y = (0.25, 0)
        z = (0.5, 0.0, 0.25, 0.0)

        def move(i, delta):
            return search._move(z, 2, i, delta, Constraint.DOMINATED_PAIR)

        assert move(0, -0.375) == (0.25, 0.0, 0.125, 0.0)  # x_0 below y_0: swapped
        assert move(2, -0.5) == (0.5, 0.0, 0.0, 0.0)
        assert move(2, 0.5) == (0.75, 0.0, 0.5, 0.0)
        assert move(1, -0.1) == z and move(3, -0.1) == z  # the pair at 0
        assert move(1, 0.1) == (0.5, 0.1, 0.25, 0.0)

    def test_signed_never_gives_back_z(self):
        z = (0.0, -0.5, 0.25, 0.0)
        for i, delta in itertools.product(range(4), (0.1, -0.1, 1e-8, -1e-8)):
            cand = search._move(z, 2, i, delta, Constraint.SIGNED)
            assert cand is not None and cand[i] == z[i] + delta
            assert cand[:i] + cand[i + 1:] == z[:i] + z[i + 1:]


class TestProject:
    """search._project: the point scaled onto ||x||_p^p + ||y||_p^p = 1."""

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 7.25])
    @pytest.mark.parametrize("constraint", list(Constraint))
    def test_stays_on_the_set_at_unit_norm(self, p, constraint):
        """A projected sample is still on the constraint set, and its
        power sum, math.fsum of |z_i|^p, lies within (3p + 7) u of 1,
        u = 2^-53, to first order.  Each term of _p_norm's sum is within
        3u (three roundings on the p = 2, 3, 4 products, pow within one
        ulp elsewhere) and fsum adds u, so the sum is within 4u and the
        norm, one more power, within 4u/p + 2u <= 4u.  Each z_i / norm
        then carries the quotient's rounding u and the norm's error, both
        raised to p, and the power here adds 2u: (p + 4 + 2p + 2)u for
        every term, and fsum u for the total.  Measured over 2000
        samples of each constraint at p up to 7.25: at most 10u."""
        spec = SampleSpec(dim_range=(1, 16), constraint=constraint)
        for index in range(40):
            x, y, _ = sample_pair(spec, 7, index)
            n = len(x)
            z = search._project(x.entries + y.entries, p)
            assert isinstance(z, tuple) and len(z) == 2 * n
            if constraint is Constraint.SIGNED:
                assert [v < 0.0 for v in z] == [v < 0.0 for v in x.entries + y.entries]
            else:
                assert min(z) >= 0.0
            if constraint is Constraint.DOMINATED_PAIR:
                assert all(a >= b for a, b in zip(z[:n], z[n:]))
            total = math.fsum(abs(v) ** p for v in z)
            assert abs(total - 1.0) <= (3.0 * p + 7.0) * 2.0**-53

    def test_zero_point_has_no_projection(self):
        assert search._project((0.0, 0.0, 0.0, 0.0), 2.5) is None

    @pytest.mark.parametrize("z, p", [
        ((1e300, 1.0, 1e300, 0.0), 2.0),  # the products give inf terms
        ((1e300, 1.0, 1e300, 0.0), 3.0),
        ((1e300, 1.0, 1e300, 0.0), 2.5),  # pow raises OverflowError
        ((1.2e154, 1.2e154), 2.0),  # finite terms; math.fsum raises OverflowError
    ], ids=["inf-square", "inf-cube", "pow", "fsum"])
    def test_overflowing_power_sum_has_no_projection(self, z, p):
        assert search._project(z, p) is None


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
        with pytest.raises(DomainError, match="^empty p or q grid$"):
            scan_grid(InequalityId.MAIN_17, [], [2.0], SPEC, 10, seed=0)


@pytest.fixture
def no_draws(monkeypatch):
    """A run that draws a sample block fails the test."""
    def no_block(*args):
        raise AssertionError("a sample block was drawn")

    monkeypatch.setattr(search, "sample_block", no_block)


class TestRunArguments:
    """The library checks each run argument once, before any sample is drawn."""

    @pytest.mark.parametrize("samples", [0, -5])
    def test_scan_needs_a_sample_a_cell(self, samples, no_draws):
        with pytest.raises(DomainError) as info:
            scan_grid(InequalityId.MAIN_17, [2.0], [3.0], SPEC, samples, seed=0)
        assert str(info.value) == f"samples_per_cell must be at least 1, got {samples}"

    @pytest.mark.parametrize("run", [counterexample_search, extremal_search])
    def test_negative_budget(self, run, no_draws):
        with pytest.raises(DomainError) as info:
            run(InequalityId.MAIN_17, 2.0, 3.0, SPEC, -1, seed=0)
        assert str(info.value) == "budget must be nonnegative, got -1"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_checked_when_nothing_is_drawn(self, seed, no_draws):
        """Budget 0, or every cell skipped (main-1.7 at p = 1), draws no
        sample, and still rejects the seed as a run that draws does."""
        want = f"seed must lie in [0, 2**64), got {seed}"
        for run in (counterexample_search, extremal_search):
            with pytest.raises(DomainError, match=re.escape(want)):
                run(InequalityId.MAIN_17, 2.0, 3.0, SPEC, 0, seed=seed)
        with pytest.raises(DomainError, match=re.escape(want)):
            scan_grid(InequalityId.MAIN_17, [1.0], [2.0, 3.0], SPEC, 10, seed=seed)
        # the same runs on a seed in range draw nothing and pass
        for run in (counterexample_search, extremal_search):
            assert run(InequalityId.MAIN_17, 2.0, 3.0, SPEC, 0, seed=0).evaluations == 0
        cells = scan_grid(InequalityId.MAIN_17, [1.0], [2.0, 3.0], SPEC, 10, seed=0)
        assert all(cell.skipped for cell in cells)

    @pytest.mark.parametrize("dim_range", [(1.5, 3), (1, 3.0)])
    def test_dim_range_takes_integers(self, dim_range):
        """numpy would raise its own UFuncTypeError at the first draw."""
        with pytest.raises(DomainError) as info:
            SampleSpec(dim_range=dim_range)
        bad = [v for v in dim_range if isinstance(v, float)][0]
        assert str(info.value) == f"each dim_range entry must be an integer, got {bad!r}"

    def test_seed_takes_integers(self):
        """SeedSequence would raise its own TypeError."""
        want = r"^seed must be an integer, got 1\.5$"
        for run in (counterexample_search, extremal_search):
            with pytest.raises(DomainError, match=want):
                run(InequalityId.MAIN_17, 2.0, 3.0, SPEC, 10, seed=1.5)
        with pytest.raises(DomainError, match=want):
            scan_grid(InequalityId.MAIN_17, [2.0], [3.0], SPEC, 10, seed=1.5)
        with pytest.raises(DomainError, match=want):
            sample_pair(SPEC, 1.5, 0)

    @pytest.mark.parametrize("run", [counterexample_search, extremal_search])
    def test_budget_takes_integers(self, run, no_draws):
        """range would raise TypeError, and the descent would spend 3 of 2.5."""
        with pytest.raises(DomainError) as info:
            run(InequalityId.MAIN_17, 2.0, 3.0, SPEC, 2.5, seed=0)
        assert str(info.value) == "budget must be an integer, got 2.5"

    def test_samples_per_cell_takes_integers(self, no_draws):
        with pytest.raises(DomainError) as info:
            scan_grid(InequalityId.MAIN_17, [2.0], [3.0], SPEC, 2.5, seed=0)
        assert str(info.value) == "samples_per_cell must be an integer, got 2.5"

    def test_numpy_integers_run_as_ints(self):
        """operator.index takes numpy integers: a run on them is the run on ints."""
        spec, ints = SampleSpec(dim_range=(np.int64(2), np.int64(4))), SampleSpec(dim_range=(2, 4))
        for run in (counterexample_search, extremal_search):
            got = run(InequalityId.MAIN_17, 2.0, 3.0, spec, np.int64(30), seed=np.uint64(3))
            assert got == run(InequalityId.MAIN_17, 2.0, 3.0, ints, 30, seed=3)
        got = scan_grid(InequalityId.MAIN_17, [2.0], [3.0], spec, np.int64(20), np.uint64(3))
        assert got == scan_grid(InequalityId.MAIN_17, [2.0], [3.0], ints, 20, 3)

    def test_scan_cell_cap(self, no_draws):
        q_grid = [3.0 + k for k in range(MAX_GRID_CELLS)]
        with pytest.raises(DomainError) as info:
            scan_grid(InequalityId.MAIN_17, [2.0], q_grid + [0.5], SPEC, 10, seed=0)
        assert str(info.value) == f"grid has {MAX_GRID_CELLS + 1} cells, more than {MAX_GRID_CELLS}"
        # the cap is inclusive: MAX_GRID_CELLS cells, all skipped (p = 1), run
        cells = scan_grid(InequalityId.MAIN_17, [1.0], q_grid, SPEC, 10, seed=0)
        assert len(cells) == MAX_GRID_CELLS

    @pytest.mark.parametrize("index, block", [(-1, -1), (2**200, 2**192)],
                             ids=["negative", "past-the-end"])
    def test_sample_index_outside_the_stream(self, index, block):
        """A block index must lie in [0, 2**192): block 2**192 starts at
        sample 2**200, which a scan that finishes never reaches."""
        with pytest.raises(DomainError) as info:
            sample_pair(SPEC, 0, index)
        assert str(info.value) == f"sample block must lie in [0, 2**192), got {block}"

    def test_last_block_of_the_stream(self):
        x, y, _ = sample_pair(SPEC, 0, 2**200 - 1)
        assert len(x) == len(y) >= 1

    def test_spec_errors_are_clarkson_errors(self):
        for kwargs in ({"dim_range": (0, 4)}, {"density": 0.0}):
            with pytest.raises(DomainError) as info:
                SampleSpec(**kwargs)
            assert isinstance(info.value, ClarksonError) and isinstance(info.value, ValueError)
