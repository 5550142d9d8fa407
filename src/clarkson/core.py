"""Vector and exponent primitives: validated finite sequences, weighted
p-norms, conjugate exponents and the main-regime check.

All values are immutable after validation.  Sums of p-th powers use exact compensated accumulation
(``math.fsum``) because downstream gap functionals subtract nearly equal
quantities.

Validation happens once, where values enter: the vector constructors,
behind the CLI and ``catalog.evaluate``; a pair's rules (lengths,
dominance) are ``_check_pair``'s.  Sampled blocks are valid by
construction, and the batch screen does not check them.  Past that,
the catalog's registry quantities work on the plain float tuples
(``entries``, ``masses``) through the private float helper ``_p_norm``,
which checks nothing: it takes the compensated sum of ``_abs_powers``'
terms, and calls itself once on rescaled entries when that sum
underflows; ``search._project`` normalizes the extremal descent's
points with it too.  The public ``p_norm`` checks p (finite, >= 1) and
the weights, then calls ``_p_norm``, so both give the same bits.
``_abs_powers`` yields the terms |x_i|^p for these sums and for the
catalog's re-paired sums, from ``map`` over C-level callables
(``operator.mul`` on the p = 2, 3, 4 fast paths, builtin ``pow``
otherwise), so ``math.fsum`` reads them without a list.
``_trusted_pair`` wraps floats in a pair of vectors without
checking them; its one caller is the extremal descent's ``gap``, which
wraps the halves of the tuple ``search._project`` returned.  Sampled
pairs and their weights are built by the public constructors.  Every
check here raises DomainError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Iterator, Optional, Sequence, Tuple

from .errors import DomainError

# Desk-scale guard: reject accidental huge inputs.
MAX_LEN = 1 << 20

# Most cells a (p, q) scan takes and points a phi or chi scan evaluates.
MAX_GRID_CELLS = 10_000

# The smallest normal float; a power sum below it has lost bits.
_MIN_NORMAL = sys.float_info.min


def _check_entries(entries: Sequence[float]) -> Sequence[float]:
    """entries, checked: nonempty, at most MAX_LEN long, every float finite."""
    if len(entries) == 0:
        raise DomainError("vector must have at least one entry")
    if len(entries) > MAX_LEN:
        raise DomainError(f"vector length {len(entries)} exceeds maximum {MAX_LEN}")
    if not math.isfinite(sum(entries)):  # true whenever an entry is inf or nan
        for i, x in enumerate(entries):
            if not math.isfinite(x):
                raise DomainError(f"non-finite entry at index {i}")
    return entries


@dataclass(frozen=True)
class RealVector:
    """Finite real sequence of length >= 1; entries must be finite."""

    entries: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", _check_entries(tuple(map(float, self.entries))))

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def _trusted_pair(cls, x: tuple[float, ...], y: tuple[float, ...]):
        """Two vectors on tuples of floats already valid for cls; nothing is checked.

        Only the extremal descent calls this, on every point it evaluates,
        which lies on the constraint set by construction.  Checking would
        cost about five times as much: for a pair at n = 8 the checking
        constructors take 3.3-3.6 us, against 0.6 us here (Python 3.11.7
        on a shared 2-core Xeon), where the descent scores a point in
        about 17 us, its projection included.
        """
        u, v = object.__new__(cls), object.__new__(cls)
        # What the frozen __setattr__ would store, in a third of its time.
        u.__dict__["entries"], v.__dict__["entries"] = x, y
        return u, v


@dataclass(frozen=True)
class NonnegVector(RealVector):
    """Refinement of RealVector with every entry >= 0."""

    def __post_init__(self):
        super().__post_init__()
        if min(self.entries) < 0.0:  # min() runs in C; the loop finds the index
            for i, x in enumerate(self.entries):
                if x < 0.0:
                    raise DomainError(f"negative entry at index {i}")


@dataclass(frozen=True)
class Weights:
    """Positive masses standing in for a discrete measure.

    Weighted vectors model simple functions; unit weights recover the
    plain sequence-space norm.
    """

    masses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", _check_entries(tuple(map(float, self.masses))))
        if min(self.masses) <= 0.0:
            for i, m in enumerate(self.masses):
                if m <= 0.0:
                    raise DomainError(f"weight at index {i} is not positive, got {m!r}")


def _check_pair(x, y, masses=None, dominated: bool = False) -> None:
    """The rules on a pair of float sequences, in this order: the weights
    as long as x, then as long as y; x and y of one length; x >= y
    entrywise when dominated."""
    if masses is not None:
        for v in (x, y):
            if len(masses) != len(v):
                raise DomainError(f"weights length {len(masses)} != vector length {len(v)}")
    if len(x) != len(y):
        raise DomainError(f"lengths {len(x)} and {len(y)} differ")
    if dominated:
        for i, (a, b) in enumerate(zip(x, y)):
            if a < b:
                raise DomainError(f"dominance violated at index {i}")


def conjugate_exponent(p: float) -> float:
    """q = p/(p-1), so that 1/p + 1/q = 1, for finite p > 1.

    From p just above 2^53 on, q rounds to 1.0, where no statement
    taken at q means what it says; such p is out of range too.
    """
    if not math.isfinite(p):
        raise DomainError(f"conjugate exponent needs finite p, got {p}")
    if p <= 1.0:
        raise DomainError(f"conjugate exponent needs p > 1, got {p}")
    q = p / (p - 1.0)
    if q == 1.0:
        raise DomainError(f"conjugate exponent of p = {p} rounds to 1")
    return q


def main_exponents(p: float, q: float) -> Tuple[float, float]:
    """(p, q), checked: both finite and 2 <= p <= q, the paper's main regime."""
    if not (math.isfinite(p) and math.isfinite(q)):
        raise DomainError(f"need finite p and q, got ({p}, {q})")
    if not (2.0 <= p <= q):
        raise DomainError(f"need 2 <= p <= q, got ({p}, {q})")
    return p, q


def _abs_powers(entries: Sequence[float], p: float) -> Iterator[float]:
    """Yield |x|^p for x in entries, p >= 1, for math.fsum to read."""
    # Fast paths avoid pow() for the common small integer exponents;
    # |0|^p is exactly 0 for every p > 0 on all paths.  Every term comes
    # from a C-level callable over map: abs(x) * x * x is (abs(x) * x) * x.
    if p == 2.0:
        return map(mul, entries, entries)
    if p == 3.0:
        return map(mul, map(mul, map(abs, entries), entries), entries)
    if p == 4.0:
        squares = list(map(mul, entries, entries))
        return map(mul, squares, squares)
    if p == 1.0:
        return map(abs, entries)
    return map(pow, map(abs, entries), repeat(p))


def _p_norm(
    entries: Sequence[float], p: float, masses: Optional[Sequence[float]] = None
) -> float:
    """p_norm on plain floats: entries and masses already validated.

    A power sum below the smallest normal float has lost bits to
    underflow, or is 0 for nonzero entries (1e-200 at p = 3).  The norm
    is then that of the entries scaled by 2^-k, where 2^(k-1) <=
    max |x_i| < 2^k, scaled back by 2^k.  At k = 0 (every entry 0, or
    the largest in [1/2, 1)) the sum is not taken again, so the call on
    the scaled entries, whose largest lies in [1/2, 1), does not recurse.
    Every norm whose power sum is normal keeps its bits.
    """
    terms = _abs_powers(entries, p)
    s = math.fsum(terms if masses is None else map(mul, masses, terms))
    if s < _MIN_NORMAL:
        k = math.frexp(max(map(abs, entries)))[1]
        if k:
            return math.ldexp(_p_norm([math.ldexp(x, -k) for x in entries], p, masses), k)
    if s == 0.0 or p == 1.0:
        return s
    if p == 2.0:
        return math.sqrt(s)
    return s ** (1.0 / p)


def p_norm(v: RealVector, p: float, weights: Optional[Weights] = None) -> float:
    """Weighted p-norm (sum_i w_i |v_i|^p)^(1/p); unit weights when absent."""
    if not math.isfinite(p):
        raise DomainError(f"p-norm needs finite p, got {p}")
    if p < 1.0:
        raise DomainError(f"p-norm needs p >= 1, got {p}")
    masses = None if weights is None else weights.masses
    _check_pair(v.entries, v.entries, masses)  # the weights as long as v
    return _p_norm(v.entries, p, masses)

