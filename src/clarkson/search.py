"""Seeded randomized verification and extremal search over gap functionals.

Samples come in blocks of _BLOCK pairs.  Block b of seed s (in
[0, 2^64)) is drawn from the raw 64-bit words of a PCG64DXSM stream
seeded by numpy's SeedSequence(s, spawn_key=(b,)), the b-th child of
SeedSequence(s).spawn, and sample i is row i % _BLOCK of block
i // _BLOCK.  Every sample is thus a pure function of (spec, seed,
index), so results are bit-identical regardless of evaluation order.
sample_block turns the words into values itself, one word a value, with
integer and exact float operations (floats at a 2^-52 resolution) and
libm's log1p, and draws words for the live entries of each row only:
the raw words and SeedSequence are what NEP 19 keeps stable across numpy
releases, while numpy's Generator may change how it converts them.  A
block keeps the entries of its rows back to back, with the offset where
each row begins (SampleBlock), so the batch screen raises and sums the
pairs' own entries and no padding.

Reductions are min/count only.  An index range is screened with numpy
first, on each registry entry's batch quantities (the pair norms for
c-1.1, c-1.2, c-1.3-left/right, main-1.7 and prop-1.4, the entries
themselves for cor-1.6, the re-paired power sums for sumpow-2.12 and
rearr-2.17), one batch call for the slice of each block the range
touches.
Only the pairs the screen cannot rule out reach the scalar evaluate,
which decides every verdict, count and witness.  The screen keeps the
rows whose batch gap is non-finite, below rel_tol + margin, or within
2 margin of the running minimum, the lowest finite batch gap seen so far
in the range.  This is sound: batch and scalar gaps lie at most margin
apart (_SCREEN_MARGIN), so a row left out holds, and its scalar gap
exceeds that of the row that set the running minimum, which was kept
when it was seen.  The range's minimum, the rows tied with it and every
violation are thus evaluated.

On an identity cell (Inequality.identity: rearr-2.17 at p == q,
sumpow-2.12 at r = 1, and both on dominated specs) every scalar gap is
exactly 0.0, and every finite batch gap is 0.0 too, so noise cannot pick
the minimum.  There the screen keeps the range's first row, which is the
minimum at the lowest index, and the rows whose batch gap is non-finite,
which may raise; a row with a finite batch gap has a finite scalar one
(catalog.batch_normalized_gaps).  One pair a range is evaluated unless
some overflow.  The extremal descent stops at its first finite score
there: no later point can score lower.

Sampled entries are valid by construction, and the screen does not
check them: uniform draws lie in [0, 1), exponential ones in
[0, 52 log 2] (about 36.04), sparse ones are a uniform draw times a 0/1
mask, signs only flip, a dominated pair is the (max, min) of two draws,
and weights lie in [0.5, 2); none is -0.0 unless signed.  The extremal
descent's points stay on the constraint set too (a start is a sample, a
move is put back on the set, and a positive factor keeps both).  The budget or sample count, constraint, weights,
length (cor-1.6: 1-entry pairs) and seed rules are checked once a run,
before any sample is drawn (each raises DomainError), the exponents
once a run (a scan: once a cell), and the batch screen, given the
resolved (p, q), checks nothing.  The few rows the screen keeps are
built by the public vector and weight constructors (SampleBlock.pair),
which check them; only the descent's points, every one of which is
scored, are wrapped unchecked (RealVector._trusted_pair).

The extremal descent is sequential: each step starts from the point the
last one accepted.  Its point is a tuple of floats z = (x, y) on the
constraint set.  A candidate is a new tuple with one coordinate moved,
and _move puts only that coordinate back on the set: it clamps it at 0,
and for dominated pairs first re-pairs it with its partner as (max,
min); the rest of z is on the set already.  _project then divides the
candidate by its norm, taken by core._p_norm, the kernel evaluate takes
its norms with; math.fsum rounds that sum correctly, so the descent's
path does not depend on the CPU or the numpy version.  gap splits z
into x = z[:n] and y = z[n:].

Each start keeps two functools.lru_cache caches of 8n entries: project,
keyed by the candidate _move returns, and scored, keyed by the projected
point, which holds the point's gap, report and vectors (None for a
non-finite gap).  A move the clamp undoes (a coordinate at 0 pushed by
-step) returns a copy equal to z, and a step forward and back on one
coordinate often lands on an earlier candidate bit for bit, so both
caches hit.  A repeat still counts one evaluation toward the budget, and
it changes no output: its gap is the first visit's, which is no lower
than the start's current gap or the best one (both only fall, and only
on a strictly lower gap), and a violation was recorded at the first
visit.  A -0.0 key equals a 0.0 key; both points have the same norms,
and so the same gap.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

from ._numpy import np
from .catalog import (
    DEFAULT_POLICY,
    REGISTRY,
    Constraint,
    Distribution,
    GapReport,
    InequalityId,
    TolerancePolicy,
    _VIOLATED,
    _check_one_entry,
    _check_q,
    _check_weights,
    batch_normalized_gaps,
    evaluate,
)
from .core import MAX_GRID_CELLS, NonnegVector, RealVector, Weights, _check_integer, _p_norm
from .errors import ClarksonError, DomainError, NonFiniteGap

# Pairs per sample block.  Part of the stream layout: changing it
# changes every sample of every seed.
_BLOCK = 256

# Extremal descent: random starts, first and smallest coordinate step.
_STARTS = 8
_INITIAL_STEP = 0.1
_MIN_STEP = 1e-8

# How far a batch normalized gap may lie from the scalar one, to first
# order in u = 2^-53, for pairs of n <= nmax entries:
# - each term w|z|^k is within 4u of exact on the scalar path and 5u on
#   the batch path (k = p; k = 1 for sumpow-2.12's plain sums, whose
#   terms are exact).  At k = 2, 3 and 4 both take the same products,
#   and with weights a k = 4 term (x*x)*(x*x)*w has four roundings, x*x
#   counted twice.  At any other k the scalar path takes libm's pow,
#   within 1 ulp (2u), and the batch path numpy's, whose SIMD kernels
#   lie within 1 ulp of libm's (measured on 350k values at p = 2.5,
#   3.7, 10/3, 7.3 and 51.2), so within 2 ulp (4u); then w, u more;
# - math.fsum adds u, and np.add.reduceat at most (n - 1)u: it adds a
#   row's n nonnegative terms in n - 1 additions, in an order of numpy's
#   choosing, so the two sums S agree to (n + 9)u.  Both paths take
#   each term of a (max, min) re-paired sum from the terms of x and y,
#   so each term keeps its bound and the re-paired sums obey the same
#   one;
# - every side raises S, and each rounded intermediate (the norm
#   S^(1/p), inner powers and sums, the outer power), to a power of at
#   most e = max(p, q) (q = p/(p-1) for c-1.1 and c-1.2, whose (p, q)
#   is resolved by then), with at most four rounded steps a chain, each
#   within 2 ulp (4u) on the batch path and 1 ulp (2u) on the scalar
#   one, so the sides agree to delta = e(n + 33)u.  The re-paired
#   statements raise S once, to q/p <= q (rearr-2.17) or r = q
#   (sumpow-2.12), and add two such powers.  cor-1.6 (n = 1) takes
#   x, y, x + y and x - y themselves, the same floats on both paths,
#   and raises them to q, a shorter chain than a norm's;
# - both sides are nonnegative, so |gap| <= scale, and the normalized
#   gaps agree to 3 delta + 3u.
# For p in [2, 6], q <= 30 and n <= 64 that is below 1e-12, and the
# measured difference stays below 1e-14; beyond that range the bound
# itself is the margin.  A pair-norm power sum that underflows lies
# outside this first-order bound (the scalar norm rescales it); its
# batch norm is nan, so the row is kept (catalog._batch_pair_norms).
# tests/test_batch.py checks the bound for p <= 200, q <= 400, n <= 64.
_SCREEN_MARGIN = 1e-12


def _screen_margin(p: float, q: float, nmax: int) -> float:
    e = max(p, q)
    return max(_SCREEN_MARGIN, (3.0 * e * (nmax + 33) + 3.0) * 2.0**-53)


@dataclass(frozen=True)
class SampleSpec:
    dim_range: Tuple[int, int] = (1, 16)
    distribution: Distribution = Distribution.UNIFORM_01
    constraint: Constraint = Constraint.NONNEGATIVE
    density: float = 0.5
    weights: bool = False

    def __post_init__(self):
        lo, hi = self.dim_range
        _check_integer("each dim_range entry", lo)
        _check_integer("each dim_range entry", hi)
        if not (1 <= lo <= hi <= 64):
            raise DomainError(f"dim_range must satisfy 1 <= lo <= hi <= 64, got {self.dim_range}")
        if not (0.0 < self.density <= 1.0):
            raise DomainError(f"density must lie in (0, 1], got {self.density}")


@dataclass(frozen=True)
class SearchOutcome:
    best_report: Optional[GapReport]
    witness: Tuple[RealVector, RealVector, float, float, Optional[Weights]]
    normalized_gap: float
    evaluations: int
    seed: int
    status: "SearchStatus"


class SearchStatus(enum.Enum):
    NO_VIOLATION = "no-violation"
    VIOLATION_FOUND = "violation-found"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SampleBlock:
    """The _BLOCK pairs of a sample block as flat arrays of their entries.

    Row r is a pair of length n[r], whose entries are x, y and w at
    off[r]:off[r + 1]; off has _BLOCK + 1 items, off[0] = 0 and
    diff(off) = n.  The arrays are read-only: blocks are cached and shared.
    """

    n: np.ndarray
    off: np.ndarray
    x: np.ndarray
    y: np.ndarray
    w: Optional[np.ndarray]
    signed: bool

    def pair(self, row: int) -> Tuple[RealVector, RealVector, Optional[Weights]]:
        """Row row as vectors and weights, checked by their constructors."""
        entries = slice(int(self.off[row]), int(self.off[row + 1]))
        vec = RealVector if self.signed else NonnegVector
        w = None if self.w is None else Weights(self.w[entries].tolist())
        return vec(self.x[entries].tolist()), vec(self.y[entries].tolist()), w

    def rows(self, lo: int, hi: int) -> Tuple[np.ndarray, ...]:
        """Rows lo:hi as (x, y, starts, w) for the batch kernels: the flat
        entries of those rows, and where each row begins among them."""
        i, j = self.off[lo], self.off[hi]
        w = None if self.w is None else self.w[i:j]
        return self.x[i:j], self.y[i:j], self.off[lo:hi] - i, w


def _unit(words: np.ndarray) -> np.ndarray:
    """words as floats (w >> 12) * 2^-52 in [0, 1), converted in place:
    1.0's bits with w >> 12 as the fraction are the float 1 + (w >> 12) *
    2^-52, and subtracting 1.0 from it is exact."""
    words >>= np.uint64(12)
    words |= np.uint64(0x3FF0000000000000)
    u = words.view(np.float64)
    u -= 1.0
    return u


# Every caller reads blocks in ascending order (scan cells ascend, a
# search's range starts at 0, the descent's starts lie in block 0), and
# adjacent scan cells share a block, so the last block is kept.
@functools.lru_cache(maxsize=1)
def sample_block(spec: SampleSpec, seed: int, block: int) -> SampleBlock:
    """Pairs block * _BLOCK ... block * _BLOCK + _BLOCK - 1 of (spec, seed).

    Every value is one 64-bit word w of
    PCG64DXSM(SeedSequence(seed, spawn_key=(block,))).random_raw, converted
    here, so a seed gives the same block on any numpy with PCG64DXSM:
    - the _BLOCK lengths come first, n = lo + ((w >> 32) * (hi - lo + 1)
      >> 32) for dim_range (lo, hi): Lemire's multiply-shift without its
      rejection step: each of the r = hi - lo + 1 <= 64 lengths takes
      floor or ceil of 2^32 / r of the 2^32 values of w >> 32, so its
      probability is off by less than r / 2^32 <= 2^-26 of itself;
    - then N = sum(n) words each for x and y, the two sparse masks, the
      weights and the two signs, each only where spec asks for it; row r
      takes the entries at off[r]:off[r + 1] of each;
    - a float u is (w >> 12) * 2^-52, in [0, 1) at a 2^-52 resolution,
      converted in place (_unit); x and y are u (uniform), -log1p(-u)
      (exponential, by libm: 0.0 at u = 0 and at most 52 log 2, about
      36.04), or u times a 0/1 mask that is (w >> 11) < ceil(density *
      2^53), so 1 with probability density;
    - weights are 0.5 + 1.5u, in [0.5, 2); a signed entry takes its sign
      from the top bit of its sign word (set is negative), and a
      dominated pair is (max, min) of the two draws.
    The entries are valid by construction (see the module docstring), so
    none is checked.
    """
    _check_seed(seed)
    _check_integer("sample block", block)
    # Block 2**192 starts at sample 2**200: a scan that reaches it never ends.
    if not 0 <= block < 2**192:
        raise DomainError(f"sample block must lie in [0, 2**192), got {block}")
    bits = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=(block,)))
    lo, hi = spec.dim_range
    n = (bits.random_raw(_BLOCK) >> np.uint64(32)).view(np.int64)  # < 2^32
    n *= hi - lo + 1
    n >>= 32
    n += lo
    off = np.empty(_BLOCK + 1, np.int64)
    off[0] = 0
    n.cumsum(out=off[1:])
    signed = spec.constraint is Constraint.SIGNED
    entries = int(off[-1])
    # Words in stream order: x and y, the two masks, the weights, the two
    # signs.  One draw each, so the cached block keeps alive only the
    # words it holds.
    xy = _unit(bits.random_raw((2, entries)))
    if spec.distribution is Distribution.SPARSE:
        masks = bits.random_raw((2, entries))
        masks >>= np.uint64(11)
        xy *= masks < np.uint64(math.ceil(spec.density * 2.0**53))
    elif spec.distribution is Distribution.EXPONENTIAL_1:
        # libm's log1p, entry by entry: numpy's SIMD log1p rounds some
        # values differently on different CPUs.  Negation is exact.
        xy = -np.fromiter(map(math.log1p, (-xy).ravel().tolist()), np.float64, xy.size)
        xy = xy.reshape(2, entries)
    w = None
    if spec.weights:
        w = _unit(bits.random_raw(entries))
        w *= 1.5
        w += 0.5
    if signed:
        signs = bits.random_raw((2, entries))
        signs &= np.uint64(1 << 63)  # a float's sign bit
        xy_bits = xy.view(np.uint64)
        xy_bits |= signs
    x, y = xy
    if spec.constraint is Constraint.DOMINATED_PAIR:
        x, y = np.maximum(x, y), np.minimum(x, y)
    for arr in (n, off, x, y, w):
        if arr is not None:
            arr.flags.writeable = False
    return SampleBlock(n, off, x, y, w, signed)


def sample_pair(
    spec: SampleSpec, seed: int, index: int
) -> Tuple[RealVector, RealVector, Optional[Weights]]:
    """Deterministic sample: same (spec, seed, index) gives identical output."""
    _check_integer("sample index", index)
    return sample_block(spec, seed, index // _BLOCK).pair(index % _BLOCK)


def _check_seed(seed: int) -> None:
    _check_integer("seed", seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must lie in [0, 2**64), got {seed}")


def _check_run(id: InequalityId, spec: SampleSpec, seed: int, budget: int = 0):
    """id's entry, once the budget, constraint, weights, length and seed rules pass, in order."""
    _check_integer("budget", budget)
    if budget < 0:
        raise DomainError(f"budget must be nonnegative, got {budget}")
    entry = REGISTRY[id]
    if not spec.constraint.within(entry.constraint):
        raise DomainError(
            f"{id.value} is stated for {entry.constraint.value} inputs, got {spec.constraint.value}"
        )
    _check_weights(id, entry, spec.weights)
    _check_one_entry(id, *spec.dim_range)
    _check_seed(seed)
    return entry


def _screen(ng: np.ndarray, rel_tol: float, margin: float, low: float) -> Tuple[np.ndarray, float]:
    """Rows whose scalar gap may be non-finite, not a clear hold, or the
    range's minimum; and the running minimum low, updated.

    low is the lowest finite batch gap seen so far in the index range
    (inf before its first block).  With |batch - scalar| <= margin on
    every row, a row left out holds (its batch gap is at least rel_tol +
    margin), and its scalar gap exceeds low + margin, so it exceeds that
    of the row that set low.  That row was kept when it was seen, as it
    set low then; so the range's minimum, and every row tied with it, is
    evaluated.

    It runs once a block, on a few hundred rows, where numpy's fixed cost
    per call outweighs the work: it calls the ufunc method
    np.minimum.reduce and ndarray.nonzero, not np.min and np.flatnonzero,
    whose Python wrappers cost more than the arithmetic here.
    """
    finite = np.isfinite(ng)
    low = min(low, float(np.minimum.reduce(ng, where=finite, initial=math.inf)))
    keep = ~finite | (ng < rel_tol + margin) | (ng <= low + 2.0 * margin)
    return keep.nonzero()[0], low


def _eval_indices(
    id: InequalityId,
    p: float,
    q: float,
    spec: SampleSpec,
    seed: int,
    indices: range,
    policy: TolerancePolicy,
) -> Tuple[float, Optional[GapReport], Optional[tuple], int]:
    """Min-reduce an index range: (best_norm_gap, report, witness, violations).

    The result equals that of evaluating every index with the scalar
    evaluate: the slice of each block the range touches is screened with
    one batch call, and only the rows _screen keeps are evaluated (on an
    identity cell, the range's first row and the non-finite ones).
    Indices run in ascending order, so ties go to the lowest index.
    (p, q) is a pair the entry's exponent builder returned.
    """
    identity = REGISTRY[id].identity(p, q, spec.constraint)
    margin = _screen_margin(p, q, spec.dim_range[1])
    low = math.inf
    best = (math.inf, None, None)
    violations = 0
    start = indices.start
    while start < indices.stop:
        b, lo = divmod(start, _BLOCK)
        hi = min(_BLOCK, lo + indices.stop - start)
        blk = sample_block(spec, seed, b)
        bx, by, starts, bw = blk.rows(lo, hi)
        gaps = batch_normalized_gaps(id, bx, by, starts, p, q, bw)
        if identity:
            keep = ~np.isfinite(gaps)
            keep[0] |= start == indices.start
            kept = keep.nonzero()[0]
        else:
            kept, low = _screen(gaps, policy.rel_tol, margin, low)
        for r in kept.tolist():
            x, y, w = blk.pair(lo + r)
            rep = evaluate(id, x, y, p, q, w, policy)
            ng = rep.gap / rep.scale
            if rep.verdict is _VIOLATED:
                violations += 1
            if ng < best[0]:
                best = (ng, rep, (x, y, p, q, w))
        start += hi - lo
    return (*best, violations)


def _outcome(best, violated: bool, p: float, q: float, evals: int, seed: int) -> SearchOutcome:
    """A run's outcome from its best (gap, report, witness); the only place a status is picked."""
    ng, rep, witness = best
    if rep is None:  # nothing was scored
        return SearchOutcome(None, (None, None, p, q, None), math.inf, evals, seed,
                             SearchStatus.BUDGET_EXHAUSTED)
    status = SearchStatus.VIOLATION_FOUND if violated else SearchStatus.NO_VIOLATION
    return SearchOutcome(rep, witness, ng, evals, seed, status)


def counterexample_search(
    id: InequalityId,
    p: float,
    q: Optional[float],
    spec: SampleSpec,
    budget: int,
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> SearchOutcome:
    """Sample up to budget pairs and return the most negative normalized gap.

    (p, q) go through evaluate's q rule and the entry's exponent builder
    first; the witness records the pair the builder returns.
    """
    entry = REGISTRY[id]
    _check_q(id, entry, q)
    p, q = entry.exponents(p, q)
    _check_run(id, spec, seed, budget)
    *best, violations = _eval_indices(id, p, q, spec, seed, range(budget), policy)
    return _outcome(best, violations > 0, p, q, budget, seed)


def _move(
    z: Tuple[float, ...], n: int, i: int, delta: float, constraint: Constraint
) -> Tuple[float, ...]:
    """A copy of z = (x, y), x = z[:n], with z[i] moved by delta and put
    back on the constraint set; a copy equal to z when the clamp undoes
    the move.

    z lies on the set, so only the moved coordinate is clamped at 0 (not
    for SIGNED), after DOMINATED_PAIR re-pairs it with its partner as
    (max, min): the whole-vector clamp and re-pairing would leave
    every other coordinate as it is.
    """
    v = z[i] + delta
    if constraint is Constraint.DOMINATED_PAIR:
        j = i % n
        a, b = (v, z[n + j]) if i < n else (z[j], v)
        u, w = max(a, b, 0.0), max(min(a, b), 0.0)
        return z[:j] + (u,) + z[j + 1:n + j] + (w,) + z[n + j + 1:]
    if constraint is Constraint.NONNEGATIVE:
        v = max(v, 0.0)
    return z[:i] + (v,) + z[i + 1:]


def _project(z: Tuple[float, ...], p: float) -> Optional[Tuple[float, ...]]:
    """z = (x, y), a point on the constraint set, scaled to
    ||x||_p^p + ||y||_p^p = 1; None when its norm is 0 or not finite.

    The norm is core._p_norm, the kernel evaluate takes its norms with.
    The pair is scaled as a whole: a common positive factor keeps it on
    the set and keeps y from growing without bound while x is held at
    norm 1.
    """
    try:
        norm = _p_norm(z, p)
    except OverflowError:  # a term or the sum beyond the largest float
        return None
    if norm == 0.0 or not math.isfinite(norm):
        return None
    return tuple([v / norm for v in z])


def extremal_search(
    id: InequalityId,
    p: float,
    q: Optional[float],
    spec: SampleSpec,
    budget: int,
    seed: int = 0,
    policy: TolerancePolicy = DEFAULT_POLICY,
) -> SearchOutcome:
    """Minimize the normalized gap over pairs normalized to ||(x, y)||_p = 1.

    Random multistart followed by coordinate-perturbation descent with
    geometric step shrink.  Gaps are homogeneous, so the normalization is
    what makes "near-equality" meaningful.  Weighted specs are rejected:
    the descent moves the entries only.  (p, q) are resolved as in
    counterexample_search.
    """
    entry = REGISTRY[id]
    _check_q(id, entry, q)
    p, q = entry.exponents(p, q)
    if spec.weights:
        raise DomainError("extremal search does not take weights")
    _check_run(id, spec, seed, budget)
    identity = entry.identity(p, q, spec.constraint)  # every finite gap is 0.0
    evals = 0
    best = (math.inf, None, None)  # as _eval_indices reduces it
    violated = False

    # Every point scored is finite, and clamped and dominated as spec requires.
    vec = RealVector if spec.constraint is Constraint.SIGNED else NonnegVector

    def gap(z: Tuple[float, ...]):
        """(ng, rep, x, y) for z, a projected point: its normalized gap,
        report and vectors; all None when the gap is not finite."""
        x, y = vec._trusted_pair(z[:n], z[n:])
        try:
            rep = evaluate(id, x, y, p, q, None, policy)
        except NonFiniteGap:
            return None, None, None, None
        return rep.gap / rep.scale, rep, x, y

    def score(cand: Tuple[float, ...]) -> Tuple[Optional[Tuple[float, ...]], Optional[float]]:
        """(z, ng): cand projected, and z's normalized gap; ng is None when
        the budget is spent, or z or its gap is not finite.  Records the
        best point seen.  A candidate still in project, or a point still
        in scored (a start's last 8n of each), is not projected or
        evaluated again; a repeat still counts one evaluation."""
        nonlocal evals, violated, best
        if evals >= budget:
            return None, None
        z = project(cand)
        if z is None:
            return None, None
        evals += 1
        ng, rep, x, y = scored(z)
        if ng is not None:
            if rep.verdict is _VIOLATED:
                violated = True
            if ng < best[0]:
                best = (ng, rep, (x, y, p, q, None))
        return z, ng

    for s in range(_STARTS):
        if evals >= budget:
            break
        x0, y0, _ = sample_pair(spec, seed, s)
        n = len(x0)
        project = functools.lru_cache(8 * n)(lambda z: _project(z, p))
        scored = functools.lru_cache(8 * n)(gap)
        # A sample is on the constraint set by construction.
        z, cur_ng = score(x0.entries + y0.entries)
        if identity and cur_ng is not None:
            break
        step = _INITIAL_STEP
        while cur_ng is not None and step >= _MIN_STEP and evals < budget:
            # Sweep x (z[:n]), then y.  An accepted move goes on from the
            # new point at the next coordinate; once x has had one, the
            # sweep restarts from x at the same step instead of entering y.
            improved = False
            for i in range(2 * n):
                if i == n and improved:
                    break
                for delta in (step, -step):
                    cand, ng = score(_move(z, n, i, delta, spec.constraint))
                    if ng is not None and ng < cur_ng:
                        z, cur_ng, improved = cand, ng, True
                        break
            if not improved:
                step *= 0.5

    return _outcome(best, violated, p, q, evals, seed)


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
) -> List[CellSummary]:
    """Per-cell minimum normalized gap and violation count over a (p, q) grid.

    Cells outside the regime (where the registry's exponent builder
    raises) are kept in the output, marked skipped.  Sample streams are
    keyed by cell index so results do not depend on grid iteration order.
    """
    _check_integer("samples_per_cell", samples_per_cell)
    if samples_per_cell < 1:
        raise DomainError(f"samples_per_cell must be at least 1, got {samples_per_cell}")
    if not p_grid or not q_grid:
        raise DomainError("empty p or q grid")
    if len(p_grid) * len(q_grid) > MAX_GRID_CELLS:
        raise DomainError(f"grid has {len(p_grid) * len(q_grid)} cells, more than {MAX_GRID_CELLS}")
    build = _check_run(id, spec, seed).exponents
    out: List[CellSummary] = []
    for cell_index, (p, q) in enumerate(product(p_grid, q_grid)):
        try:
            exps = build(p, q)
        except ClarksonError:
            out.append(CellSummary(p, q, 0, math.nan, 0, True))
            continue
        base = cell_index * samples_per_cell
        try:
            ng, _, _, violations = _eval_indices(
                id, *exps, spec, seed, range(base, base + samples_per_cell), policy
            )
        except NonFiniteGap as exc:
            raise NonFiniteGap(f"cell p={p!r}, q={q!r}: {exc}") from exc
        out.append(CellSummary(p, q, samples_per_cell, ng, violations, False))
    return out
