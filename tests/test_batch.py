"""The block sampler and the batch screen against the scalar path.

search._eval_indices evaluates, for every registry entry, only the rows
its numpy screen keeps.  Its outcome must equal evaluating every
row with the scalar evaluate: the same best gap bits, report and witness,
and the same violation count.  The reference below is that all-scalar
loop, built on sample_pair.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from clarkson import catalog, cli, search
from clarkson.catalog import (
    DEFAULT_POLICY,
    REGISTRY,
    InequalityId,
    Verdict,
    batch_normalized_gaps,
    evaluate,
)
from clarkson.core import NonnegVector, RealVector, Weights, _abs_powers
from clarkson.errors import DomainError, NonFiniteGap
from clarkson.search import (
    _BLOCK,
    _SCREEN_MARGIN,
    _screen_margin,
    Constraint,
    Distribution,
    SampleSpec,
    counterexample_search,
    sample_block,
    sample_pair,
    scan_grid,
)

SEED = 2026
BUDGET = 260  # one full block and part of the next

BATCH_IDS = list(REGISTRY)

# The statements on the re-paired power sums; they take no weights.
REPAIRED_IDS = (InequalityId.SUMPOW_212, InequalityId.REARR_GAIN_217)

# cor-1.6 is stated on one-entry pairs only, and without weights.
COR = InequalityId.COR_16

# (p, q) per id family: the reverse regime p < 2 for c-1.x, and q/p up
# to 15 (q = 16 at p = 1.0667, q = 30 at p = 2, q = 45 at p = 3).  The
# re-paired statements add p == q: rearr-2.17's outer exponent is then
# e = 1, both sides are the same float and every gap is exactly 0.0.
CONJUGATE_PS = (1.0667, 1.5, 3.0)
MAIN_PQS = ((2.5, 3.7), (2.0, 30.0), (3.0, 45.0))
REPAIRED_PQS = ((2.5, 2.5), *MAIN_PQS)
# cor-1.6 at q = 2 is the parallelogram identity: every gap is about 0.
COR_PQS = ((2.0, 2.0), (2.0, 3.0), *MAIN_PQS)


def nmax_for(id, nmax):
    return 1 if id is COR else nmax


def scalar_reduce(id, exps, spec, seed, indices, policy=DEFAULT_POLICY):
    """(best gap, report, witness, violations, every gap): one evaluate per index."""
    best = (math.inf, None, None)
    violations = 0
    gaps = []
    for i in indices:
        x, y, w = sample_pair(spec, seed, i)
        rep = evaluate(id, x, y, *exps, w, policy)
        ng = rep.gap / rep.scale
        gaps.append(ng)
        violations += rep.verdict is Verdict.VIOLATED
        if ng < best[0]:
            best = (ng, rep, (x, y, *exps, w))
    return (*best, violations, gaps)


def batch_gaps(id, exps, spec, seed, indices):
    """batch_normalized_gaps of every index, block by block."""
    out = []
    for b in range(indices.start // _BLOCK, -(-indices.stop // _BLOCK)):
        x, y, starts, w = sample_block(spec, seed, b).rows(0, _BLOCK)
        ng = batch_normalized_gaps(id, x, y, starts, *exps, w)
        out.extend(ng[i - b * _BLOCK] for i in indices if i // _BLOCK == b)
    return out


def cases():
    """(id, constraint) for every combination a search accepts.  Every
    case runs under the entry's constraint check, hence "strict" in its id."""
    return [pytest.param(id, constraint, id=f"{id.value}-{constraint.value}-strict")
            for id in BATCH_IDS for constraint in Constraint
            if constraint.within(REGISTRY[id].constraint)]


def exponent_pairs(id):
    build = REGISTRY[id].exponents
    if build in catalog._P_ONLY_EXPONENTS:
        return [build(p, p) for p in CONJUGATE_PS]
    pqs = COR_PQS if id is COR else REPAIRED_PQS if id in REPAIRED_IDS else MAIN_PQS
    return [build(p, q) for p, q in pqs]


def assert_same_outcome(got, want):
    ng, rep, witness, violations = got
    assert ng.hex() == want[0].hex()
    assert rep == want[1]
    assert witness == want[2]
    assert violations == want[3]


@pytest.mark.parametrize("id, constraint", cases())
def test_search_equals_all_scalar_reduction(id, constraint):
    worst = 0.0
    for dist in Distribution:
        for weighted in (False, True) if REGISTRY[id].weighted else (False,):
            # sparse pairs run up to the longest vectors a spec allows
            nmax = nmax_for(id, 64 if dist is Distribution.SPARSE else 16)
            spec = SampleSpec(dim_range=(1, nmax), distribution=dist, constraint=constraint,
                              density=0.5, weights=weighted)
            for exps in exponent_pairs(id):
                *want, gaps = scalar_reduce(id, exps, spec, SEED, range(BUDGET))
                out = counterexample_search(id, *exps, spec, BUDGET, SEED)
                assert (out.normalized_gap, out.best_report, out.witness) == tuple(want[:3])
                got = search._eval_indices(id, *exps, spec, SEED, range(BUDGET),
                                           DEFAULT_POLICY)
                assert_same_outcome(got, want)
                batch = batch_gaps(id, exps, spec, SEED, range(BUDGET))
                worst = max(worst, max(abs(b - s) for b, s in zip(batch, gaps)))
    assert worst <= _SCREEN_MARGIN / 100


@st.composite
def margin_cases(draw):
    """(id, p, q, x, y, w): a pair of n <= 64 entries meeting id's
    constraint, as float lists, at a (p, q) id's exponent builder
    returned, with p up to 200 and q up to 400."""
    id = draw(st.sampled_from(BATCH_IDS))
    entry = REGISTRY[id]
    if entry.exponents in catalog._P_ONLY_EXPONENTS:
        # q = p/(p - 1) is at most 400
        p = q = draw(st.floats(400 / 399, 200.0))
    elif id is COR or id is InequalityId.SUMPOW_212:
        p = q = draw(st.floats(2.0 if id is COR else 1.0, 400.0))
    else:
        p = draw(st.floats(2.0, 200.0))
        q = draw(st.floats(p, 400.0))
    p, q = entry.exponents(p, q)
    n = 1 if id is COR else draw(st.integers(1, 64))
    side = st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)
    x, y = draw(side), draw(side)
    if entry.constraint is Constraint.SIGNED:
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=2 * n, max_size=2 * n))
        x = [s * a for s, a in zip(signs, x)]
        y = [s * b for s, b in zip(signs[n:], y)]
    elif entry.constraint is Constraint.DOMINATED_PAIR:
        x, y = [max(a, b) for a, b in zip(x, y)], [min(a, b) for a, b in zip(x, y)]
    w = None
    if entry.weighted and draw(st.booleans()):
        w = draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n))
    return id, p, q, x, y, w


@given(margin_cases())
@settings(max_examples=300, deadline=None)
# 0.01^199 underflows; screened as finite, this row's batch gap was 0.0295, scalar 0.0392
@example((InequalityId.C11, *REGISTRY[InequalityId.C11].exponents(199.0, None),
          [0.01], [0.02], None))
def test_batch_gap_lies_within_the_screen_margin(case):
    """|batch - scalar| <= _screen_margin(p, q, n) on every flat row of n
    entries whose gaps are finite, over the whole exponent range the
    screen is used at."""
    id, p, q, x, y, w = case
    batch = batch_normalized_gaps(id, np.array(x), np.array(y), np.array([0]), p, q,
                                  None if w is None else np.array(w))[0]
    vec = RealVector if REGISTRY[id].constraint is Constraint.SIGNED else NonnegVector
    try:
        rep = evaluate(id, vec(x), vec(y), p, q, None if w is None else Weights(w))
    except NonFiniteGap:
        assert not np.isfinite(batch)
        return
    if np.isfinite(batch):
        assert abs(batch - rep.gap / rep.scale) <= _screen_margin(p, q, len(x))


# Entries for the identity property: zeros, and magnitudes from 1e-200,
# where powers underflow, to 1e150, where they overflow.
IDENTITY_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(-200.0, 150.0).map(lambda t: 10.0**t),
    st.floats(1e-200, 1e150),
)


@st.composite
def identity_cases(draw):
    """(id, p, q, constraint, rows): an identity cell of a re-paired
    statement, and up to four pairs of up to 16 entries meeting
    constraint, ties among their entries."""
    id = draw(st.sampled_from(REPAIRED_IDS))
    constraint = draw(st.sampled_from([Constraint.NONNEGATIVE, Constraint.DOMINATED_PAIR]))
    dominated = constraint is Constraint.DOMINATED_PAIR
    if id is InequalityId.SUMPOW_212:
        p = q = draw(st.floats(1.0, 400.0)) if dominated else 1.0
    else:
        p = draw(st.sampled_from([2.0, 3.0, 4.0]) | st.floats(2.0, 400.0))
        q = draw(st.floats(p, 400.0)) if dominated else p
    p, q = REGISTRY[id].exponents(p, q)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 16))
        pairs = draw(st.lists(st.tuples(IDENTITY_ENTRIES, IDENTITY_ENTRIES)
                              | IDENTITY_ENTRIES.map(lambda a: (a, a)), min_size=n, max_size=n))
        if dominated:
            pairs = [(max(a, b), min(a, b)) for a, b in pairs]
        rows.append(([a for a, _ in pairs], [b for _, b in pairs]))
    return id, p, q, constraint, rows


@given(identity_cases())
@settings(max_examples=300, deadline=None)
# The 2n = 4 terms sum past the largest float, which math.fsum raises on,
# while numpy's sum rounds to it; the row is kept as near overflow.
@example((InequalityId.SUMPOW_212, 1.0, 1.0, Constraint.NONNEGATIVE,
          [([4.4942328371557713e+307, 4.494232837155805e+307],
            [4.494232837155831e+307, 4.4942328371557513e+307])]))
def test_identity_cells_give_exactly_zero(case):
    """Where identity(p, q, constraint) holds, evaluate gives lhs == rhs
    and gap 0.0 bit for bit, or raises NonFiniteGap, and the batch gap is
    0.0 on every finite row and non-finite on every row evaluate raises on."""
    id, p, q, constraint, rows = case
    assert REGISTRY[id].identity(p, q, constraint)
    starts = np.cumsum([0] + [len(x) for x, _ in rows[:-1]])
    x, y = (np.array([v for r in rows for v in r[k]]) for k in (0, 1))
    batch = batch_normalized_gaps(id, x, y, starts, p, q)
    for (x, y), ng in zip(rows, batch.tolist()):
        try:
            rep = evaluate(id, NonnegVector(x), NonnegVector(y), p, q)
        except NonFiniteGap:
            assert not math.isfinite(ng)
            continue
        assert rep.lhs.hex() == rep.rhs.hex()
        assert rep.gap.hex() == (0.0).hex()
        assert rep.verdict is Verdict.BORDERLINE
        if math.isfinite(ng):
            assert ng.hex() == (0.0).hex()


def test_underflowing_power_sums_reach_the_scalar_path():
    """c-1.1 at p = 199 on short uniform pairs: the p-th power sum of
    entries below about 0.03 underflows, which the scalar norm restores
    by rescaling and numpy's sum does not.  Those rows screen as nan, so
    the minimum is the all-scalar one (it was 0.0003876 against 6.0e-08
    at seed 0 when they screened as finite)."""
    spec = SampleSpec(dim_range=(1, 3))
    exps = REGISTRY[InequalityId.C11].exponents(199.0, None)
    for seed in (0, 1, 3):
        want = scalar_reduce(InequalityId.C11, exps, spec, seed, range(2 * _BLOCK))[:4]
        got = search._eval_indices(InequalityId.C11, *exps, spec, seed, range(2 * _BLOCK),
                                   DEFAULT_POLICY)
        assert_same_outcome(got, want)


def test_violation_counts_match(monkeypatch):
    """main-1.7 with its sides swapped (both paths read them) is violated almost everywhere."""
    entry = REGISTRY[InequalityId.MAIN_17]

    def inverted_sides(*norms_p_q):
        lhs, rhs = entry.sides(*norms_p_q)
        return rhs, lhs

    monkeypatch.setitem(REGISTRY, InequalityId.MAIN_17,
                        dataclasses.replace(entry, sides=inverted_sides))
    spec = SampleSpec(dim_range=(1, 8))
    exps = entry.exponents(2.0, 3.0)
    want = scalar_reduce(InequalityId.MAIN_17, exps, spec, SEED, range(BUDGET))
    got = search._eval_indices(InequalityId.MAIN_17, *exps, spec, SEED, range(BUDGET),
                               DEFAULT_POLICY)
    assert want[3] > 0.9 * BUDGET
    assert_same_outcome(got, want[:4])


@pytest.mark.parametrize("id", [InequalityId.MAIN_17, InequalityId.C11, *REPAIRED_IDS])
def test_scan_cells_straddling_blocks(id):
    """100 samples a cell: cells 2 and 5 cross the block boundaries at 256 and 512."""
    spec = SampleSpec(dim_range=(2, 12))
    p_grid, q_grid = [2.0, 2.5, 3.0], [3.0, 4.0]
    cells = scan_grid(id, p_grid, q_grid, spec, 100, SEED)
    build = REGISTRY[id].exponents
    for k, cell in enumerate(cells):
        assert not cell.skipped
        want = scalar_reduce(id, build(cell.p, cell.q), spec, SEED, range(100 * k, 100 * k + 100))
        assert cell.min_normalized_gap.hex() == want[0].hex()
        assert cell.violations == want[3]


@pytest.mark.parametrize("id", REPAIRED_IDS)
def test_weighted_repaired_specs_are_rejected_before_batch_work(id, monkeypatch):
    def no_batch_work(*args):
        raise AssertionError("batch sums computed for a weighted spec")

    monkeypatch.setattr(catalog, "_batch_repaired_sums", no_batch_work)
    spec = SampleSpec(dim_range=(2, 6), weights=True)
    exps = REGISTRY[id].exponents(2.0, 3.0)
    with pytest.raises(DomainError, match=f"^{id.value} is stated without weights$"):
        counterexample_search(id, *exps, spec, BUDGET, SEED)
    with pytest.raises(DomainError, match=f"^{id.value} is stated without weights$"):
        scan_grid(id, [2.0], [3.0], spec, 10, SEED)


# The scan-long-n sampling: long sparse pairs.
LONG_SPARSE = SampleSpec(dim_range=(32, 64), distribution=Distribution.SPARSE, density=0.5)


def count_evaluate_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(search, "evaluate", counting)
    return calls


def test_screen_evaluates_few_rows_off_the_diagonal(monkeypatch):
    """rearr-2.17 on long sparse pairs: off the diagonal p == q, the screen
    keeps about one row (the cell's argmin) of 50."""
    calls = count_evaluate_calls(monkeypatch)
    for seed in range(5):
        for p, q in ((2.0, 3.0), (2.5, 4.0), (3.0, 6.0)):
            calls.clear()
            [cell] = scan_grid(InequalityId.REARR_GAIN_217, [p], [q], LONG_SPARSE, 50, seed)
            assert cell.violations == 0
            assert 1 <= len(calls) <= 3


def test_diagonal_cells_evaluate_one_row(monkeypatch):
    """At p == q, e = 1: every gap is exactly 0.0, so only the cell's first
    row is evaluated, and it is the minimum."""
    calls = count_evaluate_calls(monkeypatch)
    [cell] = scan_grid(InequalityId.REARR_GAIN_217, [2.5], [2.5], LONG_SPARSE, 50, SEED)
    assert len(calls) == 1
    assert cell.min_normalized_gap.hex() == (0.0).hex()
    assert cell.violations == 0


# Identity cells: (id, constraint, (p, q) to resolve).  rearr-2.17 at
# p == q is in exponent_pairs already; here sumpow-2.12 at r = 1 and the
# dominated specs of both ids off the diagonal.
IDENTITY_CASES = [
    (InequalityId.SUMPOW_212, Constraint.NONNEGATIVE, (1.0, 1.0)),
    (InequalityId.SUMPOW_212, Constraint.DOMINATED_PAIR, (2.5, 3.7)),
    (InequalityId.REARR_GAIN_217, Constraint.DOMINATED_PAIR, (2.5, 3.7)),
]


@pytest.mark.parametrize("id, constraint, pq", IDENTITY_CASES,
                         ids=["sumpow-2.12-r1", "sumpow-2.12-dominated", "rearr-2.17-dominated"])
def test_identity_cells_equal_all_scalar_reduction(id, constraint, pq, monkeypatch):
    """Every gap of an identity cell is exactly 0.0: the search evaluates
    the range's first row only, and its outcome is the all-scalar one."""
    exps = REGISTRY[id].exponents(*pq)
    assert REGISTRY[id].identity(*exps, constraint)
    calls = count_evaluate_calls(monkeypatch)
    for dist in Distribution:
        spec = SampleSpec(dim_range=(1, 64 if dist is Distribution.SPARSE else 16),
                          distribution=dist, constraint=constraint, density=0.5)
        *want, gaps = scalar_reduce(id, exps, spec, SEED, range(BUDGET))
        assert {g.hex() for g in gaps} == {(0.0).hex()}
        calls.clear()
        got = search._eval_indices(id, *exps, spec, SEED, range(BUDGET), DEFAULT_POLICY)
        assert_same_outcome(got, want)
        assert len(calls) == 1


def test_overflowing_identity_cell_raises_at_the_all_scalar_pair(monkeypatch):
    """rearr-2.17 at p = q = 300 on exponential draws: the first pair whose
    300th powers overflow raises the same error on both paths, and the
    search evaluates no pair with a finite batch gap past the first."""
    spec = SampleSpec(dim_range=(1, 64), distribution=Distribution.EXPONENTIAL_1)
    id, exps = InequalityId.REARR_GAIN_217, (300.0, 300.0)
    seed = SEED + 1  # the first seed from SEED on with an overflow in its first BUDGET pairs
    for raised in range(BUDGET):  # the all-scalar loop, up to the pair it stops at
        x, y, _ = sample_pair(spec, seed, raised)
        try:
            evaluate(id, x, y, *exps)
        except NonFiniteGap as exc:
            want = str(exc)
            break
    else:
        pytest.fail(f"no pair of the first {BUDGET} of seed {seed} overflows")
    # that pair's batch gap is the only non-finite one up to it
    nonfinite = np.flatnonzero(~np.isfinite(batch_gaps(id, exps, spec, seed, range(raised + 1))))
    assert nonfinite.tolist() == [raised] and raised > 1
    pairs = []

    def recording(id, x, y, *args):
        pairs.append((x, y))
        return evaluate(id, x, y, *args)

    monkeypatch.setattr(search, "evaluate", recording)
    with pytest.raises(NonFiniteGap) as got:
        search._eval_indices(id, *exps, spec, seed, range(BUDGET), DEFAULT_POLICY)
    assert str(got.value) == want == "rearr-2.17: non-finite gap (overflow)"
    assert pairs == [sample_pair(spec, seed, 0)[:2], sample_pair(spec, seed, raised)[:2]]


# Ranges that start mid-block and end mid-block 3 blocks later, so their
# first and last screened slices are partial blocks.  The scalar minimum
# of the first lies in its second block for main-1.7 at (2.5, 3.7), and
# that of the second in its third block for rearr-2.17 at (2, 3) on
# LONG_SPARSE (both checked below).
MID_BLOCK_RANGES = (range(769, 769 + 3 * _BLOCK + 40), range(900, 900 + 3 * _BLOCK + 40))


@pytest.mark.parametrize("id, constraint", cases())
def test_windows_across_blocks_equal_all_scalar_reduction(id, constraint):
    spec = SampleSpec(dim_range=(1, nmax_for(id, 24)), distribution=Distribution.SPARSE,
                      constraint=constraint, density=0.5, weights=REGISTRY[id].weighted)
    exps = exponent_pairs(id)[1]
    for indices in MID_BLOCK_RANGES:
        want = scalar_reduce(id, exps, spec, SEED, indices)[:4]
        got = search._eval_indices(id, *exps, spec, SEED, indices, DEFAULT_POLICY)
        assert_same_outcome(got, want)


@pytest.mark.parametrize("id, spec, exps, indices, blocks_to_minimum", [
    (InequalityId.MAIN_17, SampleSpec(dim_range=(1, 16)), (2.5, 3.7), MID_BLOCK_RANGES[0], 2),
    (InequalityId.REARR_GAIN_217, LONG_SPARSE, (2.0, 3.0), MID_BLOCK_RANGES[1], 3),
], ids=["main-1.7", "rearr-2.17"])
def test_minimum_in_a_later_window(id, spec, exps, indices, blocks_to_minimum, monkeypatch):
    """The running minimum: each block's slice, up to the one holding the
    range's minimum, keeps one row that lowers it, and the later slices,
    whose rows all lie above it, keep none."""
    *want, gaps = scalar_reduce(id, exps, spec, SEED, indices)
    first = indices.start // _BLOCK
    assert (indices.start + gaps.index(want[0])) // _BLOCK == first + blocks_to_minimum - 1
    calls = count_evaluate_calls(monkeypatch)
    assert_same_outcome(
        search._eval_indices(id, *exps, spec, SEED, indices, DEFAULT_POLICY), want)
    assert len(calls) == blocks_to_minimum


def test_cor_1_6_on_two_entry_pairs_raises_as_the_scalar_path(monkeypatch):
    """A cor-1.6 run whose dim_range allows a longer pair raises the scalar
    path's error before any sample block is drawn, whatever its budget."""
    one, two = NonnegVector((1.0,)), NonnegVector((1.0, 0.5))
    with pytest.raises(DomainError) as want:
        evaluate(COR, two, two, 2.0, 3.0)
    assert str(want.value) == "cor-1.6 takes scalars (1-entry vectors)"
    assert evaluate(COR, one, one, 2.0, 3.0).verdict is Verdict.HOLDS

    def no_block(*args):
        raise AssertionError("a sample block was drawn")

    monkeypatch.setattr(search, "sample_block", no_block)
    for dim_range in ((1, 2), (2, 2), (1, 16)):
        spec = SampleSpec(dim_range=dim_range, constraint=Constraint.DOMINATED_PAIR)
        for budget in (0, 1, BUDGET):
            for run in (counterexample_search, search.extremal_search):
                with pytest.raises(DomainError) as got:
                    run(COR, 2.0, 3.0, spec, budget, SEED)
                assert str(got.value) == str(want.value)
        with pytest.raises(DomainError) as got:
            scan_grid(COR, [2.0], [3.0], spec, 1, SEED)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", [0, 3])
def test_cor_1_6_screen_thins_off_the_identity(seed, monkeypatch):
    """cor-1.6 at budget 4000 on one-entry pairs: at q = 3 the screen keeps
    a few rows; at q = 2, the parallelogram identity, every gap ties near 0
    and it keeps them all."""
    spec = SampleSpec(dim_range=(1, 1), constraint=Constraint.DOMINATED_PAIR)
    calls = count_evaluate_calls(monkeypatch)
    out = counterexample_search(COR, 3.0, 3.0, spec, 4000, seed)
    assert out.status is search.SearchStatus.NO_VIOLATION
    assert 1 <= len(calls) < 16
    calls.clear()
    counterexample_search(COR, 2.0, 2.0, spec, 4000, seed)
    assert len(calls) == 4000


def test_search_small_n_evaluates_fewer_rows_than_blocks(monkeypatch, tmp_path, capsys):
    """The search-small-n flags at budget 4000 (16 blocks): after the first
    blocks, later ones keep only rows near the running minimum."""
    calls = count_evaluate_calls(monkeypatch)
    for seed in range(5):
        calls.clear()
        assert cli.main([
            "search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3.7", "--nmin", "1",
            "--nmax", "16", "--dist", "uniform", "--out", str(tmp_path / "witness.json"),
            "--budget", "4000", "--seed", str(seed),
        ]) == 0
        assert 1 <= len(calls) < 16  # the screen kept one row a block or more before
    capsys.readouterr()


def test_scan_makes_one_batch_call_per_block_a_cell_touches(monkeypatch, capsys):
    """The scan-long-n scan at 50 samples a cell: 35 cells in the regime.
    Cells 5, 10, ..., 40 cross a block boundary and are screened in two
    calls, one a block; the other 27 in one call."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[3]))  # the row starts
        return batch_normalized_gaps(*args, **kwargs)

    monkeypatch.setattr(search, "batch_normalized_gaps", counting)
    assert cli.main([
        "scan", "--ineq", "rearr-2.17", "--p-grid", "2:4:0.5", "--q-grid", "2:6:0.5",
        "--nmin", "32", "--nmax", "64", "--dist", "sparse", "--density", "0.5",
        "--samples", "50", "--seed", "1",
    ]) == 0
    assert len(calls) == 43 and calls.count(50) == 27 and sum(calls) == 35 * 50
    capsys.readouterr()


def four_array_repaired_sums(x, y, starts, k, e):
    """The re-paired sums from four raised arrays, as they were computed
    before the re-paired terms were picked from those of x and y.  Each
    array is raised as the batch path raises entries (checked against
    the scalar terms below)."""
    z = np.stack((x, y, np.maximum(x, y), np.minimum(x, y)))
    terms = catalog._batch_abs_powers(z, k)
    return (*np.add.reduceat(terms, starts, axis=-1), e)


@pytest.mark.parametrize("constraint", list(Constraint))
def test_batch_terms_take_the_scalar_fast_paths(constraint):
    """At k = 1, 2, 3 and 4 each batch term equals core._abs_powers' bit
    for bit; at any other k it is numpy's power of every entry."""
    spec = SampleSpec(dim_range=(1, 64), distribution=Distribution.SPARSE,
                      constraint=constraint, density=0.5)
    block = sample_block(spec, SEED, 0)
    for z in (block.x, block.x - block.y):
        for k in (1.0, 2.0, 3.0, 4.0):
            got = catalog._batch_abs_powers(z, k)
            assert got.tobytes() == np.array(list(_abs_powers(z.tolist(), k))).tobytes()
        for k in (2.5, 1 / 0.3):
            assert catalog._batch_abs_powers(z, k).tobytes() == (np.abs(z) ** k).tobytes()


@pytest.mark.parametrize("dist", list(Distribution))
@pytest.mark.parametrize("constraint", [Constraint.NONNEGATIVE, Constraint.DOMINATED_PAIR])
def test_repaired_sums_equal_the_four_array_formula(dist, constraint):
    spec = SampleSpec(dim_range=(1, 64), distribution=dist, constraint=constraint)
    b0, b1 = sample_block(spec, SEED, 0), sample_block(spec, SEED, 1)
    # a whole block, a slice of one, and a new array of rows from both
    (x0, y0, s0, _), (x1, y1, s1, _) = b0.rows(_BLOCK - 30, _BLOCK), b1.rows(0, 20)
    arrays = [b0.rows(0, _BLOCK)[:3], b1.rows(40, 90)[:3],
              (np.concatenate((x0, x1)), np.concatenate((y0, y1)),
               np.concatenate((s0, s1 + len(x0))))]
    for x, y, starts in arrays:
        for k in (1.0, 2.0, 2.5, 3.0, 4.0, 1 / 0.3):
            got = catalog._batch_repaired_sums(x, y, starts, k, 1.5)
            want = four_array_repaired_sums(x, y, starts, k, 1.5)
            assert [a.tobytes() for a in got[:4]] == [a.tobytes() for a in want[:4]]
            assert got[4] == 1.5


@pytest.mark.parametrize("constraint", list(Constraint))
def test_live_zeros_raise_to_exactly_plus_zero(constraint):
    """A sparse block's zero entries, -0.0 ones of signed pairs included,
    give the term +0.0 at every exponent, as on the scalar path."""
    spec = SampleSpec(dim_range=(1, 40), distribution=Distribution.SPARSE, constraint=constraint)
    block = sample_block(spec, SEED, 1)
    zs = (block.x, block.y, block.x + block.y, block.x - block.y)
    zeros = np.concatenate([z[z == 0.0] for z in zs])
    assert zeros.size > 100
    if constraint is Constraint.SIGNED:
        assert np.signbit(zeros).any()
    for k in (2.5, 1 / 0.3, 3.7, 7.3, 16.0, 51.2, 199.0):
        for z in zs:
            terms = catalog._batch_abs_powers(z, k)[z == 0.0]
            assert terms.tobytes() == np.zeros_like(terms).tobytes()


def padded_quantities(id, x, y, w, p, q):
    """batch_quantities of zero-padded (B, nmax) rows as they were taken
    before blocks held only live entries: every entry raised by numpy's
    power, padding included, and numpy's row sums."""
    if id in REPAIRED_IDS:
        k, e = (1.0, q) if id is InequalityId.SUMPOW_212 else (p, q / p)
        px, py = np.abs(x) ** k, np.abs(y) ** k
        swap = x < y
        terms = (px, py, np.where(swap, py, px), np.where(swap, px, py))
        return (*(t.sum(axis=-1) for t in terms), e)
    terms = np.abs(np.stack((x, y, x + y, x - y))) ** p
    if w is not None:
        terms *= w
    return tuple(terms.sum(axis=-1) ** (1.0 / p))


# cor-1.6 raises no power sums: its quantities are the entries themselves.
@pytest.mark.parametrize("id", [id for id in BATCH_IDS if id is not COR], ids=lambda id: id.value)
def test_masked_and_dense_batch_gaps_are_equal(id):
    """A block holds its live entries alone.  Raised, they give bit for bit
    the live terms of the same rows zero-padded to (B, nmax), as the batch
    kernels once took them, whose padding raises to +0.0; and the
    batch gaps lie within the screen margin of the padded formula (every
    entry raised, numpy's row sums) wherever both are finite."""
    nmax = 40
    spec = SampleSpec(dim_range=(1, nmax), distribution=Distribution.SPARSE,
                      constraint=REGISTRY[id].constraint, weights=REGISTRY[id].weighted)
    block = sample_block(spec, SEED, 1)
    assert (block.n < nmax).any()
    assert (block.x == 0.0).any() and (block.y == 0.0).any()
    live = np.arange(nmax) < block.n[:, None]

    def padded(v):
        out = np.zeros(live.shape)
        out[live] = v
        return out

    x, y = padded(block.x), padded(block.y)
    w = None if block.w is None else padded(block.w)
    for p, q in exponent_pairs(id):
        k = 1.0 if id is InequalityId.SUMPOW_212 else p
        for flat, dense in ((block.x, x), (block.x - block.y, x - y)):
            terms = catalog._batch_abs_powers(dense, k)
            assert terms[live].tobytes() == catalog._batch_abs_powers(flat, k).tobytes()
            assert terms[~live].tobytes() == np.zeros((~live).sum()).tobytes()
        masked = batch_normalized_gaps(id, block.x, block.y, block.off[:-1], p, q, block.w)
        lhs, rhs = REGISTRY[id].sides(*padded_quantities(id, x, y, w, p, q), p, q)
        want = (rhs - lhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
        both = np.isfinite(masked) & np.isfinite(want)
        assert both.sum() > 0.9 * _BLOCK
        assert np.abs(masked - want)[both].max() <= _screen_margin(p, q, nmax)


@pytest.mark.parametrize("constraint", list(Constraint))
@pytest.mark.parametrize("weighted", [False, True])
def test_sample_pair_is_the_block_row(constraint, weighted):
    spec = SampleSpec(dim_range=(3, 9), distribution=Distribution.SPARSE,
                      constraint=constraint, weights=weighted)
    for index in (0, 1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17):
        block = sample_block(spec, SEED, index // _BLOCK)
        r = index % _BLOCK
        x, y, w = sample_pair(spec, SEED, index)
        row = slice(block.off[r], block.off[r + 1])
        assert len(x) == len(y) == block.n[r] == row.stop - row.start
        assert x.entries == tuple(block.x[row].tolist())
        assert y.entries == tuple(block.y[row].tolist())
        if weighted:
            assert w.masses == tuple(block.w[row].tolist())
        else:
            assert w is None and block.w is None


@pytest.mark.parametrize("array, value, error", [
    ("x", -0.5, "negative entry at index 0"), ("y", math.nan, "non-finite entry at index 0"),
    ("w", 0.0, "weight at index 0 is not positive, got 0.0"),
    ("w", math.inf, "non-finite entry at index 0"),
])
def test_sample_pair_checks_its_row(array, value, error, monkeypatch):
    """A row that breaks the rules raises: SampleBlock.pair builds its
    vectors and weights with the checking constructors."""
    real = search.sample_block
    row = 3

    def with_bad_entry(spec, seed, block):
        blk = real(spec, seed, block)
        a = getattr(blk, array).copy()
        a[blk.off[row]] = value
        return dataclasses.replace(blk, **{array: a})

    monkeypatch.setattr(search, "sample_block", with_bad_entry)
    spec = SampleSpec(dim_range=(2, 4), weights=True)
    with pytest.raises(DomainError, match=f"^{error}$"):
        sample_pair(spec, SEED, row)
    sample_pair(spec, SEED, row + 1)


def test_blocks_are_read_only():
    block = sample_block(SampleSpec(weights=True), SEED, 0)
    for a in (block.n, block.off, block.x, block.y, block.w):
        with pytest.raises(ValueError):
            a[1] = 1


def test_non_finite_batch_gap_reaches_scalar_path(monkeypatch):
    """A row whose norms overflow screens as non-finite and raises NonFiniteGap."""
    real = search.sample_block
    row = 77

    def with_huge_row(spec, seed, block):
        blk = real(spec, seed, block)
        x = blk.x.copy()
        x[blk.off[row]] = 1e200
        return dataclasses.replace(blk, x=x)

    monkeypatch.setattr(search, "sample_block", with_huge_row)
    spec = SampleSpec(dim_range=(1, 4))
    exps = REGISTRY[InequalityId.MAIN_17].exponents(2.0, 3.0)
    blk = search.sample_block(spec, SEED, 0)
    ng = batch_normalized_gaps(InequalityId.MAIN_17, blk.x, blk.y, blk.off[:-1], 2.0, 3.0)
    assert not np.isfinite(ng[row]) and np.isfinite(np.delete(ng, row)).all()
    with pytest.raises(NonFiniteGap):
        counterexample_search(InequalityId.MAIN_17, *exps, spec, 100, SEED)
    # the row before it is the last one evaluated cleanly
    out = counterexample_search(InequalityId.MAIN_17, *exps, spec, row, SEED)
    assert math.isfinite(out.normalized_gap)


def test_near_overflow_rows_are_nan_beside_a_nan_row():
    """main-1.7 at (2, 3): the first row's sides are 2^1021, finite but
    near overflow; the second row's power sum 1e-340 has lost bits, so
    its norms, sides and scale are nan.  The nan scale must not hide
    the first row from the near-overflow check."""
    x, y = np.array([2.0**340, 1e-170]), np.array([0.0, 0.0])
    ng = batch_normalized_gaps(InequalityId.MAIN_17, x, y, np.array([0, 1]), 2.0, 3.0)
    assert np.isnan(ng).all()
    # each row alone is nan as well
    for r in (0, 1):
        assert np.isnan(batch_normalized_gaps(InequalityId.MAIN_17, x[r:r + 1], y[r:r + 1],
                                              np.array([0]), 2.0, 3.0)).all()


def screen_rule(gaps, rel_tol, margin, low):
    """search._screen's rule in plain Python: (kept rows, new low)."""
    low = min([low] + [g for g in gaps if math.isfinite(g)])
    kept = [r for r, g in enumerate(gaps)
            if not math.isfinite(g) or g < rel_tol + margin or g <= low + 2.0 * margin]
    return kept, low


SCREEN_GAPS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-9, 0.5, 0.5 + 2.0**-39])


@given(st.lists(SCREEN_GAPS, min_size=1, max_size=40),
       st.just(math.inf) | st.floats(-1.0, 1.0), st.sampled_from([1e-12, 2.0**-40, 1e-3]))
@settings(max_examples=300, deadline=None)
def test_screen_follows_its_rule(gaps, low, margin):
    kept, new_low = search._screen(np.array(gaps), DEFAULT_POLICY.rel_tol, margin, low)
    assert (kept.tolist(), new_low) == screen_rule(gaps, DEFAULT_POLICY.rel_tol, margin, low)
    assert isinstance(new_low, float)


def test_screen_keeps_non_finite_rows_and_the_edge_of_the_window():
    """low comes from the finite rows only; a row exactly at low + 2 margin
    is kept, and the next float above it, a clear hold, is not."""
    margin = 2.0**-40
    edge = 0.5 + 2.0 * margin
    gaps = [0.5, edge, math.nextafter(edge, math.inf), 1.0, math.nan, math.inf, -math.inf]
    kept, low = search._screen(np.array(gaps), DEFAULT_POLICY.rel_tol, margin, math.inf)
    assert low == 0.5
    assert kept.tolist() == [0, 1, 4, 5, 6]


def test_screen_without_a_finite_row_keeps_low():
    for low in (math.inf, 0.25):
        kept, new_low = search._screen(np.array([math.nan, math.inf, -math.inf]),
                                       DEFAULT_POLICY.rel_tol, 1e-12, low)
        assert new_low == low
        assert kept.tolist() == [0, 1, 2]
