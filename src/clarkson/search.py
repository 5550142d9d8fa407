"""Seeded randomized verification and extremal search over gap functionals.

Every sample is a pure function of (spec, seed, index) through a
counter-based Philox stream, so results are bit-identical regardless of
evaluation order.  Reductions are min/count only.
"""

from __future__ import annotations

import enum
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
    evaluate,
    lookup,
)
from .core import ExponentPair, NonnegVector, RealVector, Weights
from .errors import ClarksonError, ConstraintMismatch, EmptyGrid

# 2^64 counter blocks per sample index: draws within one sample can never
# run into the next sample's stream.
_STREAM_STRIDE = 1 << 64


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


def _rng(seed: int, index: int) -> np.random.Generator:
    bits = np.random.Philox(key=np.uint64(seed & (2**64 - 1)), counter=index * _STREAM_STRIDE)
    return np.random.Generator(bits)


def _draw_entries(rng: np.random.Generator, n: int, spec: SampleSpec) -> np.ndarray:
    if spec.distribution is Distribution.UNIFORM_01:
        return rng.random(n)
    if spec.distribution is Distribution.EXPONENTIAL_1:
        return rng.standard_exponential(n)
    vals = rng.random(n)
    mask = rng.random(n) < spec.density
    return vals * mask


def sample_pair(
    spec: SampleSpec, seed: int, index: int
) -> Tuple[RealVector, RealVector, Optional[Weights]]:
    """Deterministic sample: same (spec, seed, index) gives identical output."""
    rng = _rng(seed, index)
    lo, hi = spec.dim_range
    n = int(rng.integers(lo, hi + 1))
    a = _draw_entries(rng, n, spec)
    b = _draw_entries(rng, n, spec)
    w = None
    if spec.weights:
        w = Weights(tuple(0.5 + 1.5 * rng.random(n)))
    if spec.constraint is Constraint.SIGNED:
        sa = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        sb = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return RealVector(tuple(a * sa)), RealVector(tuple(b * sb)), w
    if spec.constraint is Constraint.DOMINATED_PAIR:
        return (
            NonnegVector(tuple(np.maximum(a, b))),
            NonnegVector(tuple(np.minimum(a, b))),
            w,
        )
    return NonnegVector(tuple(a)), NonnegVector(tuple(b)), w


def _check_constraint(id: InequalityId, spec: SampleSpec, explore: bool) -> bool:
    """Return True when the combination is exploratory-only.

    Inputs narrower than the entry's constraint are always accepted;
    signed inputs into a nonnegative statement are accepted only with
    explore=True and only where the entry has an exploration formula.
    """
    entry = lookup(id)
    if spec.constraint.within(entry.constraint):
        return False
    if spec.constraint is Constraint.SIGNED and entry.explore is not None and explore:
        return True
    raise ConstraintMismatch(
        f"{id.value} is stated for {entry.constraint.value} inputs, got {spec.constraint.value}"
        + ("; pass explore=True" if entry.explore is not None else "")
    )


def _eval_indices(
    id: InequalityId,
    exps: ExponentPair,
    spec: SampleSpec,
    seed: int,
    indices: range,
    policy: TolerancePolicy,
    strict: bool = True,
) -> Tuple[float, Optional[GapReport], Optional[tuple], int]:
    """Min-reduce an index range: (best_norm_gap, report, witness, violations).

    Indices run in ascending order, so ties go to the lowest index.
    """
    best = (math.inf, None, None)
    violations = 0
    for i in indices:
        x, y, w = sample_pair(spec, seed, i)
        rep = evaluate(id, x, y, exps.p, exps.q, w, policy, strict=strict)
        ng = rep.gap / rep.scale
        if rep.verdict is Verdict.VIOLATED:
            violations += 1
        if ng < best[0]:
            best = (ng, rep, (x, y, exps.p, exps.q, w))
    return (*best, violations)


def _no_result(exps: ExponentPair, evals: int, seed: int, exploratory: bool) -> SearchOutcome:
    return SearchOutcome(None, (None, None, exps.p, exps.q, None), math.inf, evals,
                         seed, SearchStatus.BUDGET_EXHAUSTED, exploratory)


def counterexample_search(
    id: InequalityId,
    exps: ExponentPair,
    spec: SampleSpec,
    budget: int,
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
    explore: bool = False,
) -> SearchOutcome:
    """Sample up to budget pairs and return the most negative normalized gap."""
    exploratory = _check_constraint(id, spec, explore)
    if budget <= 0:
        return _no_result(exps, 0, seed, exploratory)
    ng, rep, witness, violations = _eval_indices(
        id, exps, spec, seed, range(budget), policy, not exploratory
    )
    status = SearchStatus.VIOLATION_FOUND if violations else SearchStatus.NO_VIOLATION
    return SearchOutcome(rep, witness, ng, budget, seed, status, exploratory)


def _project(
    xv: np.ndarray, yv: np.ndarray, spec: SampleSpec, p: float
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Clamp onto the constraint set and renormalize ||x||_p = 1.

    A dominated pair is scaled as a whole, since a common positive factor
    keeps u >= v; otherwise only x is rescaled.
    """
    if spec.constraint in (Constraint.NONNEGATIVE, Constraint.DOMINATED_PAIR):
        xv = np.maximum(xv, 0.0)
        yv = np.maximum(yv, 0.0)
    if spec.constraint is Constraint.DOMINATED_PAIR:
        xv, yv = np.maximum(xv, yv), np.minimum(xv, yv)
    nx = float(np.sum(np.abs(xv) ** p)) ** (1.0 / p)
    if nx == 0.0 or not math.isfinite(nx):
        return None
    if spec.constraint is Constraint.DOMINATED_PAIR:
        return xv / nx, yv / nx
    return xv / nx, yv


def extremal_search(
    id: InequalityId,
    exps: ExponentPair,
    spec: SampleSpec,
    budget: int,
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
    explore: bool = False,
    starts: int = 8,
    initial_step: float = 0.1,
    min_step: float = 1e-8,
) -> SearchOutcome:
    """Minimize the normalized gap over pairs normalized to ||x||_p = 1.

    Random multistart followed by coordinate-perturbation descent with
    geometric step shrink.  Gaps are homogeneous, so the normalization is
    what makes "near-equality" meaningful.  Weighted specs are rejected:
    the descent moves the entries only.
    """
    exploratory = _check_constraint(id, spec, explore)
    if spec.weights:
        raise ConstraintMismatch("extremal search does not take weights")
    evals = 0
    best_ng = math.inf
    best: Optional[Tuple[GapReport, tuple]] = None
    violated = False

    def score(xv: np.ndarray, yv: np.ndarray) -> Optional[Tuple[float, GapReport, tuple]]:
        nonlocal evals, violated
        if evals >= budget:
            return None
        try:
            x = RealVector(tuple(xv)) if spec.constraint is Constraint.SIGNED else NonnegVector(tuple(xv))
            y = RealVector(tuple(yv)) if spec.constraint is Constraint.SIGNED else NonnegVector(tuple(yv))
            rep = evaluate(id, x, y, exps.p, exps.q, None, policy, strict=not exploratory)
        except ClarksonError:
            return None
        finally:
            evals += 1
        if rep.verdict is Verdict.VIOLATED:
            violated = True
        return rep.gap / rep.scale, rep, (x, y, exps.p, exps.q, None)

    for s in range(starts):
        if evals >= budget:
            break
        x0, y0, _ = sample_pair(spec, seed, s)
        proj = _project(np.array(x0.entries), np.array(y0.entries), spec, exps.p)
        if proj is None:
            continue
        xv, yv = proj
        cur = score(xv, yv)
        if cur is None:
            continue
        cur_ng = cur[0]
        if cur_ng < best_ng:
            best_ng, best = cur_ng, (cur[1], cur[2])
        step = initial_step
        n = len(xv)
        while step >= min_step and evals < budget:
            improved = False
            for vec_idx in (0, 1):
                for i in range(n):
                    for delta in (step, -step):
                        cand_x, cand_y = xv.copy(), yv.copy()
                        (cand_x if vec_idx == 0 else cand_y)[i] += delta
                        proj = _project(cand_x, cand_y, spec, exps.p)
                        if proj is None:
                            continue
                        res = score(*proj)
                        if res is None:
                            continue
                        if res[0] < cur_ng:
                            xv, yv = proj
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
        return _no_result(exps, evals, seed, exploratory)
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
            id, exps, spec, seed, range(base, base + samples_per_cell), policy,
            not exploratory,
        )
        out.append(CellSummary(p, q, samples_per_cell, ng, violations, False))
    return out
