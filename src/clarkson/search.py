"""Seeded randomized verification and extremal search over gap functionals.

Samples come in blocks of _BLOCK pairs.  Block b of a seed is drawn from
one counter-based Philox stream, keyed by the seed, at counter b * 2^64,
and sample i is row i % _BLOCK of block i // _BLOCK.  Every sample is
thus a pure function of (spec, seed, index), so results are
bit-identical regardless of evaluation order.  Earlier versions drew
one stream per index, so their samples, and the CLI output, for a given
seed differ from these.

Reductions are min/count only.  For the registry entries with batch
quantities (c-1.1, c-1.2, c-1.3-left/right, main-1.7 and prop-1.4 on the
pair norms, sumpow-2.12 and rearr-2.17 on the re-paired power sums; all
but cor-1.6) a whole block is screened with numpy first; only the pairs
the screen cannot rule out reach the scalar evaluate, which decides
every verdict, count and witness.

Entries are validated once: sample_block checks a whole block as the
vector constructors would, and _project's output is valid by
construction, so SampleBlock.pair and the extremal descent wrap their
floats in vectors without checking them again.

The extremal descent is sequential: each step starts from the point the
last one accepted.  Its point is one float64 array z = (x, y).  A
candidate is a copy of z with one coordinate moved; _project clamps and
renormalizes it in place, and score splits one z.tolist() into x and y.
The norm is numpy's power and pairwise sum: a math.fsum norm would round
differently and move the descent onto another path.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .catalog import (
    DEFAULT_POLICY,
    Constraint,
    GapReport,
    InequalityId,
    TolerancePolicy,
    Verdict,
    batch_normalized_gaps,
    evaluate,
    lookup,
)
from .core import NonnegVector, RealVector, Weights
from .errors import (
    ClarksonError,
    ConstraintMismatch,
    DominanceViolation,
    EmptyGrid,
    NegativeEntry,
    NonFiniteEntry,
)

# Pairs per sample block.  Part of the stream layout: changing it
# changes every sample of every seed.
_BLOCK = 256

# 2^64 counter blocks per sample block: draws within one block can never
# run into the next block's stream.
_STREAM_STRIDE = 1 << 64

# Extremal descent: random starts, first and smallest coordinate step.
_STARTS = 8
_INITIAL_STEP = 0.1
_MIN_STEP = 1e-8

# How far a batch normalized gap may lie from the scalar one, to first
# order in u = 2^-53, for pairs of n <= nmax entries (pow within 1 ulp
# on both paths):
# - each term w|z|^k is within 3u of exact on both paths (k = p; k = 1
#   for sumpow-2.12's plain sums, whose terms are exact); math.fsum adds
#   u and numpy's sum of n nonnegative terms at most (n - 1)u, so the
#   two sums S agree to (n + 6)u.  The (max, min) re-pairing only picks
#   entries, so the re-paired sums obey the same bound;
# - every side raises S, and each rounded intermediate (the norm
#   S^(1/p), inner powers and sums, the outer power), to a power of at
#   most e = max(p, q, p/(p-1)), with at most four roundings a chain on
#   each path, so the sides agree to delta = e(n + 14)u.  The re-paired
#   statements raise S once, to q/p <= q (rearr-2.17) or r = q
#   (sumpow-2.12), and add two such powers;
# - both sides are nonnegative, so |gap| <= scale, and the normalized
#   gaps agree to 3 delta + 3u.
# For p in [2, 6], q <= 30 and n <= 64 that is below 8e-13, and the
# measured difference stays below 1e-14; beyond that range the bound
# itself is the margin.
_SCREEN_MARGIN = 1e-12


def _screen_margin(p: float, q: float, nmax: int) -> float:
    # p/(p-1) is the conjugate of p, which c-1.1 and c-1.2 raise to.  At
    # p = 1, which only sumpow-2.12 at r = 1 reaches, no power exceeds 1.
    e = max(p, q, p / (p - 1.0) if p > 1.0 else 1.0)
    return max(_SCREEN_MARGIN, (3.0 * e * (nmax + 14) + 3.0) * 2.0**-53)


class Distribution(enum.Enum):
    UNIFORM_01 = "uniform"
    EXPONENTIAL_1 = "exponential"
    SPARSE = "sparse"


@dataclass(frozen=True)
class SampleSpec:
    dim_range: Tuple[int, int] = (1, 16)
    distribution: Distribution = Distribution.UNIFORM_01
    constraint: Constraint = Constraint.NONNEGATIVE
    density: float = 1.0
    weights: bool = False

    def __post_init__(self):
        lo, hi = self.dim_range
        if not (1 <= lo <= hi <= 64):
            raise ValueError(f"dim_range must satisfy 1 <= lo <= hi <= 64, got {self.dim_range}")
        if not (0.0 < self.density <= 1.0):
            raise ValueError(f"density must lie in (0, 1], got {self.density}")


@dataclass(frozen=True)
class SearchOutcome:
    best_report: Optional[GapReport]
    witness: Tuple[RealVector, RealVector, float, float, Optional[Weights]]
    normalized_gap: float
    evaluations: int
    seed: int
    status: "SearchStatus"
    exploratory: bool = False


class SearchStatus(enum.Enum):
    NO_VIOLATION = "no-violation"
    VIOLATION_FOUND = "violation-found"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SampleBlock:
    """_BLOCK sampled pairs as zero-padded (_BLOCK, nmax) arrays.

    Row r holds a pair of length n[r]; x, y and w are zero past it.
    The arrays are read-only: blocks are cached and shared.
    """

    n: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: Optional[np.ndarray]
    signed: bool

    def pair(self, row: int) -> Tuple[RealVector, RealVector, Optional[Weights]]:
        """Row row as vectors; sample_block has validated every entry."""
        k = int(self.n[row])
        vec = RealVector if self.signed else NonnegVector
        w = None if self.w is None else Weights._trusted(tuple(self.w[row, :k].tolist()))
        return (vec._trusted(tuple(self.x[row, :k].tolist())),
                vec._trusted(tuple(self.y[row, :k].tolist())), w)


def _draw(rng: np.random.Generator, shape: Tuple[int, int], spec: SampleSpec) -> np.ndarray:
    if spec.distribution is Distribution.UNIFORM_01:
        return rng.random(shape)
    if spec.distribution is Distribution.EXPONENTIAL_1:
        return rng.standard_exponential(shape)
    vals = rng.random(shape)
    mask = rng.random(shape) < spec.density
    return vals * mask


def _reject(bad: np.ndarray, error) -> None:
    """Raise error(entry index) for the first flagged entry, as the vector types do."""
    if bad.any():
        raise error(int(np.argwhere(bad)[0, 1]))


# sample_pair walks indices one at a time, and adjacent scan cells share
# a block, so the last two blocks are kept.
@functools.lru_cache(maxsize=2)
def sample_block(spec: SampleSpec, seed: int, block: int) -> SampleBlock:
    """Pairs block * _BLOCK ... block * _BLOCK + _BLOCK - 1 of (spec, seed).

    One Philox stream per block.  The whole block is validated the way
    the vector constructors validate one pair, and raises their errors.
    """
    bits = np.random.Philox(key=np.uint64(seed & (2**64 - 1)), counter=block * _STREAM_STRIDE)
    rng = np.random.Generator(bits)
    lo, hi = spec.dim_range
    shape = (_BLOCK, hi)
    n = rng.integers(lo, hi + 1, size=_BLOCK)
    live = np.arange(hi) < n[:, None]
    a = np.where(live, _draw(rng, shape, spec), 0.0)
    b = np.where(live, _draw(rng, shape, spec), 0.0)
    w = np.where(live, 0.5 + 1.5 * rng.random(shape), 0.0) if spec.weights else None
    if spec.constraint is Constraint.SIGNED:
        a = a * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
        b = b * np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    elif spec.constraint is Constraint.DOMINATED_PAIR:
        a, b = np.maximum(a, b), np.minimum(a, b)
    _reject(~np.isfinite(a), NonFiniteEntry)
    _reject(~np.isfinite(b), NonFiniteEntry)
    if spec.constraint is not Constraint.SIGNED:
        _reject(a < 0.0, NegativeEntry)
        _reject(b < 0.0, NegativeEntry)
    if spec.constraint is Constraint.DOMINATED_PAIR:
        _reject(a < b, DominanceViolation)
    if w is not None:
        _reject(~np.isfinite(w), NonFiniteEntry)
        _reject(live & ~(w > 0.0), NegativeEntry)
    for arr in (n, a, b, w):
        if arr is not None:
            arr.flags.writeable = False
    return SampleBlock(n, a, b, w, spec.constraint is Constraint.SIGNED)


def sample_pair(
    spec: SampleSpec, seed: int, index: int
) -> Tuple[RealVector, RealVector, Optional[Weights]]:
    """Deterministic sample: same (spec, seed, index) gives identical output."""
    return sample_block(spec, seed, index // _BLOCK).pair(index % _BLOCK)


def _check_constraint(id: InequalityId, spec: SampleSpec, explore: bool) -> bool:
    """Return True when the combination is exploratory-only.

    Inputs narrower than the entry's constraint are always accepted;
    signed inputs into a nonnegative statement are accepted only with
    explore=True and only where the entry has an exploration formula.
    """
    entry = lookup(id)
    if spec.constraint.within(entry.constraint):
        return False
    if spec.constraint is Constraint.SIGNED and entry.explore and explore:
        return True
    raise ConstraintMismatch(
        f"{id.value} is stated for {entry.constraint.value} inputs, got {spec.constraint.value}"
        + ("; pass explore=True" if entry.explore else "")
    )


def _screen(ng: np.ndarray, rel_tol: float, margin: float) -> np.ndarray:
    """Rows whose scalar gap may be non-finite, not a clear hold, or the minimum.

    With |batch - scalar| <= margin on every row, a row left out holds
    and its scalar gap exceeds that of the batch argmin, which is kept.
    """
    finite = np.isfinite(ng)
    keep = ~finite | (ng < rel_tol + margin)
    if finite.any():
        keep |= ng <= ng[finite].min() + 2.0 * margin
    return np.flatnonzero(keep)


def _eval_indices(
    id: InequalityId,
    p: float,
    q: float,
    spec: SampleSpec,
    seed: int,
    indices: range,
    policy: TolerancePolicy,
    strict: bool = True,
) -> Tuple[float, Optional[GapReport], Optional[tuple], int]:
    """Min-reduce an index range: (best_norm_gap, report, witness, violations).

    The result equals that of evaluating every index with the scalar
    evaluate: entries with a batch form evaluate only the rows _screen
    keeps.  Indices run in ascending order, so ties go to the lowest index.
    (p, q) is a pair the entry's exponent builder returned.
    """
    batch = lookup(id).batch_quantities is not None
    margin = _screen_margin(p, q, spec.dim_range[1])
    best = (math.inf, None, None)
    violations = 0
    for b in range(indices.start // _BLOCK, -(-indices.stop // _BLOCK)):
        block = sample_block(spec, seed, b)
        lo = max(indices.start - b * _BLOCK, 0)
        hi = min(indices.stop - b * _BLOCK, _BLOCK)
        rows = range(lo, hi)
        if batch:
            gaps = batch_normalized_gaps(
                id, block.x[lo:hi], block.y[lo:hi], p, q,
                None if block.w is None else block.w[lo:hi],
            )
            rows = lo + _screen(gaps, policy.rel_tol, margin)
        for r in rows:
            x, y, w = block.pair(r)
            rep = evaluate(id, x, y, p, q, w, policy, strict=strict)
            ng = rep.gap / rep.scale
            if rep.verdict is Verdict.VIOLATED:
                violations += 1
            if ng < best[0]:
                best = (ng, rep, (x, y, p, q, w))
    return (*best, violations)


def _no_result(p: float, q: float, evals: int, seed: int, exploratory: bool) -> SearchOutcome:
    return SearchOutcome(None, (None, None, p, q, None), math.inf, evals,
                         seed, SearchStatus.BUDGET_EXHAUSTED, exploratory)


def counterexample_search(
    id: InequalityId,
    p: float,
    q: float,
    spec: SampleSpec,
    budget: int,
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
    explore: bool = False,
) -> SearchOutcome:
    """Sample up to budget pairs and return the most negative normalized gap.

    (p, q) go through the entry's exponent builder first; the witness
    records the pair it returns.
    """
    p, q = lookup(id).exponents(p, q)
    exploratory = _check_constraint(id, spec, explore)
    if budget <= 0:
        return _no_result(p, q, 0, seed, exploratory)
    ng, rep, witness, violations = _eval_indices(
        id, p, q, spec, seed, range(budget), policy, not exploratory
    )
    status = SearchStatus.VIOLATION_FOUND if violations else SearchStatus.NO_VIOLATION
    return SearchOutcome(rep, witness, ng, budget, seed, status, exploratory)


def _project(z: np.ndarray, n: int, spec: SampleSpec, p: float) -> bool:
    """Clamp z = (x, y), x = z[:n], onto the constraint set and renormalize
    it in place to ||x||_p^p + ||y||_p^p = 1; False when its norm is 0 or
    not finite, and z is then of no use.

    The pair is scaled as a whole: a common positive factor keeps u >= v
    and keeps y from growing without bound while x is held at norm 1.
    """
    if spec.constraint is Constraint.DOMINATED_PAIR:
        x, y = z[:n], z[n:]
        u = np.maximum(x, y)
        np.minimum(x, y, out=y)
        x[:] = u
    if spec.constraint is Constraint.SIGNED:
        powers = np.abs(z) ** p
    else:
        np.maximum(z, 0.0, out=z)
        powers = z**p  # z >= 0: |z|^p without the abs
    norm = float(np.add.reduce(powers)) ** (1.0 / p)
    if norm == 0.0 or not math.isfinite(norm):
        return False
    z /= norm
    return True


def extremal_search(
    id: InequalityId,
    p: float,
    q: float,
    spec: SampleSpec,
    budget: int,
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
    explore: bool = False,
) -> SearchOutcome:
    """Minimize the normalized gap over pairs normalized to ||(x, y)||_p = 1.

    Random multistart followed by coordinate-perturbation descent with
    geometric step shrink.  Gaps are homogeneous, so the normalization is
    what makes "near-equality" meaningful.  Weighted specs are rejected:
    the descent moves the entries only.  (p, q) are resolved as in
    counterexample_search.
    """
    p, q = lookup(id).exponents(p, q)
    exploratory = _check_constraint(id, spec, explore)
    if spec.weights:
        raise ConstraintMismatch("extremal search does not take weights")
    evals = 0
    best_ng = math.inf
    best: Optional[Tuple[GapReport, tuple]] = None
    violated = False

    # _project output is finite, and clamped and dominated as spec requires.
    vec = RealVector if spec.constraint is Constraint.SIGNED else NonnegVector

    def score(z: np.ndarray) -> Optional[Tuple[float, GapReport, tuple]]:
        nonlocal evals, violated
        if evals >= budget:
            return None
        try:
            zl = z.tolist()
            x, y = vec._trusted(tuple(zl[:n])), vec._trusted(tuple(zl[n:]))
            rep = evaluate(id, x, y, p, q, None, policy, strict=not exploratory)
        except ClarksonError:
            return None
        finally:
            evals += 1
        if rep.verdict is Verdict.VIOLATED:
            violated = True
        return rep.gap / rep.scale, rep, (x, y, p, q, None)

    for s in range(_STARTS):
        if evals >= budget:
            break
        x0, y0, _ = sample_pair(spec, seed, s)
        n = len(x0)
        z = np.array(x0.entries + y0.entries)
        if not _project(z, n, spec, p):
            continue
        cur = score(z)
        if cur is None:
            continue
        cur_ng = cur[0]
        if cur_ng < best_ng:
            best_ng, best = cur_ng, (cur[1], cur[2])
        step = _INITIAL_STEP
        while step >= _MIN_STEP and evals < budget:
            # Sweep x, then y.  An accepted move goes on from the new point
            # at the next coordinate of the same half; then the sweep
            # restarts from x at the same step.
            improved = False
            for half in (0, n):
                for i in range(half, half + n):
                    for delta in (step, -step):
                        cand = z.copy()
                        cand[i] += delta
                        if not _project(cand, n, spec, p):
                            continue
                        res = score(cand)
                        if res is None:
                            continue
                        if res[0] < cur_ng:
                            z = cand
                            cur_ng = res[0]
                            improved = True
                            if cur_ng < best_ng:
                                best_ng, best = cur_ng, (res[1], res[2])
                            break
                if improved:
                    break
            if not improved:
                step *= 0.5

    if best is None:
        return _no_result(p, q, evals, seed, exploratory)
    status = SearchStatus.VIOLATION_FOUND if violated else SearchStatus.NO_VIOLATION
    return SearchOutcome(best[0], best[1], best_ng, evals, seed, status, exploratory)


@dataclass(frozen=True)
class CellSummary:
    p: float
    q: float
    n_samples: int
    min_normalized_gap: float
    violations: int
    skipped: bool


def scan_grid(
    id: InequalityId,
    p_grid: Sequence[float],
    q_grid: Sequence[float],
    spec: SampleSpec,
    samples_per_cell: int,
    seed: int,
    policy: TolerancePolicy = DEFAULT_POLICY,
    explore: bool = False,
) -> List[CellSummary]:
    """Per-cell minimum normalized gap and violation count over a (p, q) grid.

    Cells outside the regime (where the registry's exponent builder
    raises) are kept in the output, marked skipped.  Sample streams are
    keyed by cell index so results do not depend on grid iteration order.
    """
    if not p_grid or not q_grid:
        raise EmptyGrid("empty p or q grid")
    exploratory = _check_constraint(id, spec, explore)
    build = lookup(id).exponents
    out: List[CellSummary] = []
    for cell_index, (p, q) in enumerate(product(p_grid, q_grid)):
        try:
            exps = build(p, q)
        except ClarksonError:
            out.append(CellSummary(p, q, 0, math.nan, 0, True))
            continue
        base = cell_index * samples_per_cell
        ng, _, _, violations = _eval_indices(
            id, *exps, spec, seed, range(base, base + samples_per_cell), policy,
            not exploratory,
        )
        out.append(CellSummary(p, q, samples_per_cell, ng, violations, False))
    return out
