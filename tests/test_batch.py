"""The block sampler and the batch screen against the scalar path.

search._eval_indices evaluates, for the entries with a batch form, only
the rows its numpy screen keeps.  Its outcome must equal evaluating every
row with the scalar evaluate: the same best gap bits, report and witness,
and the same violation count.  The reference below is that all-scalar
loop, built on sample_pair.
"""

import dataclasses
import math

import numpy as np
import pytest

from clarkson import catalog, search
from clarkson.catalog import (
    DEFAULT_POLICY,
    REGISTRY,
    InequalityId,
    Verdict,
    batch_normalized_gaps,
    evaluate,
)
from clarkson.errors import ConstraintMismatch, NonFiniteGap
from clarkson.search import (
    _BLOCK,
    _SCREEN_MARGIN,
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

BATCH_IDS = [id for id, entry in REGISTRY.items() if entry.batch_quantities is not None]

# The statements on the re-paired power sums; they take no weights.
REPAIRED_IDS = (InequalityId.SUMPOW_212, InequalityId.REARR_GAIN_217)

# (p, q) per id family: the reverse regime p < 2 for c-1.x, and q/p up
# to 15 (q = 16 at p = 1.0667, q = 30 at p = 2, q = 45 at p = 3).  The
# re-paired statements add p == q: rearr-2.17's outer exponent is then
# e = 1, both sides are the same sum and every row is borderline.
CONJUGATE_PS = (1.0667, 1.5, 3.0)
MAIN_PQS = ((2.5, 3.7), (2.0, 30.0), (3.0, 45.0))
REPAIRED_PQS = ((2.5, 2.5), *MAIN_PQS)


def scalar_reduce(id, exps, spec, seed, indices, policy=DEFAULT_POLICY, strict=True):
    """(best gap, report, witness, violations, every gap): one evaluate per index."""
    best = (math.inf, None, None)
    violations = 0
    gaps = []
    for i in indices:
        x, y, w = sample_pair(spec, seed, i)
        rep = evaluate(id, x, y, exps.p, exps.q, w, policy, strict=strict)
        ng = rep.gap / rep.scale
        gaps.append(ng)
        violations += rep.verdict is Verdict.VIOLATED
        if ng < best[0]:
            best = (ng, rep, (x, y, exps.p, exps.q, w))
    return (*best, violations, gaps)


def batch_gaps(id, exps, spec, seed, indices):
    """batch_normalized_gaps of every index, block by block."""
    out = []
    for b in range(indices.start // _BLOCK, -(-indices.stop // _BLOCK)):
        block = sample_block(spec, seed, b)
        ng = batch_normalized_gaps(id, block.x, block.y, exps.p, exps.q, block.w)
        out.extend(ng[i - b * _BLOCK] for i in indices if i // _BLOCK == b)
    return out


def cases():
    """(id, constraint, explore) for every combination a search accepts."""
    out = []
    for id in BATCH_IDS:
        entry = REGISTRY[id]
        for constraint in Constraint:
            if constraint.within(entry.constraint):
                out.append((id, constraint, False))
            elif constraint is Constraint.SIGNED and entry.explore:
                out.append((id, constraint, True))
    return out


def exponent_pairs(id):
    build = REGISTRY[id].exponents
    if REGISTRY[id].constraint is Constraint.SIGNED:
        return [build(p, p) for p in CONJUGATE_PS]
    return [build(p, q) for p, q in (REPAIRED_PQS if id in REPAIRED_IDS else MAIN_PQS)]


def assert_same_outcome(got, want):
    ng, rep, witness, violations = got
    assert ng.hex() == want[0].hex()
    assert rep == want[1]
    assert witness == want[2]
    assert violations == want[3]


@pytest.mark.parametrize(
    "id, constraint, explore", cases(),
    ids=lambda v: v.value if hasattr(v, "value") else ("explore" if v else "strict"),
)
def test_search_equals_all_scalar_reduction(id, constraint, explore):
    worst = 0.0
    for dist in Distribution:
        for weighted in (False,) if id in REPAIRED_IDS else (False, True):
            # sparse pairs run up to the longest vectors a spec allows
            nmax = 64 if dist is Distribution.SPARSE else 16
            spec = SampleSpec(dim_range=(1, nmax), distribution=dist, constraint=constraint,
                              density=0.5, weights=weighted)
            for exps in exponent_pairs(id):
                *want, gaps = scalar_reduce(id, exps, spec, SEED, range(BUDGET),
                                            strict=not explore)
                out = counterexample_search(id, exps, spec, BUDGET, SEED, explore=explore)
                assert (out.normalized_gap, out.best_report, out.witness) == tuple(want[:3])
                got = search._eval_indices(id, exps, spec, SEED, range(BUDGET),
                                           DEFAULT_POLICY, not explore)
                assert_same_outcome(got, want)
                batch = batch_gaps(id, exps, spec, SEED, range(BUDGET))
                worst = max(worst, max(abs(b - s) for b, s in zip(batch, gaps)))
    assert worst <= _SCREEN_MARGIN / 100


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
    got = search._eval_indices(InequalityId.MAIN_17, exps, spec, SEED, range(BUDGET),
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
    with pytest.raises(ConstraintMismatch, match="without weights"):
        counterexample_search(id, exps, spec, BUDGET, SEED)
    with pytest.raises(ConstraintMismatch, match="without weights"):
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


def test_diagonal_cells_evaluate_every_row(monkeypatch):
    """At p == q, e = 1: every row ties near gap 0, so the screen keeps it."""
    calls = count_evaluate_calls(monkeypatch)
    [cell] = scan_grid(InequalityId.REARR_GAIN_217, [2.5], [2.5], LONG_SPARSE, 50, SEED)
    assert len(calls) == 50
    assert abs(cell.min_normalized_gap) < 1e-14


@pytest.mark.parametrize("id", BATCH_IDS, ids=lambda id: id.value)
def test_masked_and_dense_batch_gaps_are_equal(id, monkeypatch):
    """Raising only the nonzero entries leaves every batch gap bit-identical
    to raising every entry, padding and sparse zeros included."""
    spec = SampleSpec(dim_range=(1, 40), distribution=Distribution.SPARSE,
                      constraint=REGISTRY[id].constraint, weights=id not in REPAIRED_IDS)
    block = sample_block(spec, SEED, 1)
    assert (block.n < block.x.shape[1]).any()

    def dense_power_sums(z, k, w):
        terms = np.abs(z) ** k
        return (terms if w is None else terms * w).sum(axis=-1)

    for exps in exponent_pairs(id):
        masked = batch_normalized_gaps(id, block.x, block.y, exps.p, exps.q, block.w)
        with monkeypatch.context() as m:
            m.setattr(catalog, "_batch_power_sums", dense_power_sums)
            dense = batch_normalized_gaps(id, block.x, block.y, exps.p, exps.q, block.w)
        assert masked.tobytes() == dense.tobytes()


@pytest.mark.parametrize("constraint", list(Constraint))
@pytest.mark.parametrize("weighted", [False, True])
def test_sample_pair_is_the_block_row(constraint, weighted):
    spec = SampleSpec(dim_range=(3, 9), distribution=Distribution.SPARSE,
                      constraint=constraint, weights=weighted)
    for index in (0, 1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 17):
        block = sample_block(spec, SEED, index // _BLOCK)
        r = index % _BLOCK
        x, y, w = sample_pair(spec, SEED, index)
        k = int(block.n[r])
        assert len(x) == len(y) == k
        assert x.entries == tuple(block.x[r, :k].tolist())
        assert y.entries == tuple(block.y[r, :k].tolist())
        assert not block.x[r, k:].any() and not block.y[r, k:].any()
        if weighted:
            assert w.masses == tuple(block.w[r, :k].tolist())
        else:
            assert w is None and block.w is None


def test_blocks_are_read_only():
    block = sample_block(SampleSpec(), SEED, 0)
    with pytest.raises(ValueError):
        block.x[0, 0] = 1.0


def test_non_finite_batch_gap_reaches_scalar_path(monkeypatch):
    """A row whose norms overflow screens as non-finite and raises NonFiniteGap."""
    real = search.sample_block
    row = 77

    def with_huge_row(spec, seed, block):
        blk = real(spec, seed, block)
        x = blk.x.copy()
        x[row, 0] = 1e200
        return dataclasses.replace(blk, x=x)

    monkeypatch.setattr(search, "sample_block", with_huge_row)
    spec = SampleSpec(dim_range=(1, 4))
    exps = REGISTRY[InequalityId.MAIN_17].exponents(2.0, 3.0)
    blk = search.sample_block(spec, SEED, 0)
    ng = batch_normalized_gaps(InequalityId.MAIN_17, blk.x, blk.y, 2.0, 3.0)
    assert not np.isfinite(ng[row]) and np.isfinite(np.delete(ng, row)).all()
    with pytest.raises(NonFiniteGap):
        counterexample_search(InequalityId.MAIN_17, exps, spec, 100, SEED)
    # the row before it is the last one evaluated cleanly
    out = counterexample_search(InequalityId.MAIN_17, exps, spec, row, SEED)
    assert math.isfinite(out.normalized_gap)
