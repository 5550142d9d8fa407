"""Vector and exponent primitives: validated finite sequences, weighted
p-norms, conjugate exponents, the main-regime check, and componentwise
combination.

All values are immutable after validation and safe to share between
workers.  Sums of p-th powers use exact compensated accumulation
(``math.fsum``) because downstream gap functionals subtract nearly equal
quantities.

Validation happens once, where values enter: the vector constructors
(behind the CLI and the public evaluation calls) and the bulk checks of
``search.sample_block``.  Past that, the catalog's registry quantities
work on the plain float tuples (``entries``, ``masses``) through the
private float helpers ``_sum_abs_powers`` and ``_p_norm``; the public
``sum_abs_powers`` and ``p_norm`` are thin wrappers over them, so both
give the same bits.  ``_abs_powers`` takes the terms |x_i|^p for these
sums and for the catalog's re-paired sums, as a list for ``math.fsum``.
``_trusted`` wraps floats in a vector without checking them, for
entries validated in bulk (``SampleBlock.pair``) or valid by
construction (the point ``search._project`` renormalizes in place).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, List, Literal, Optional, Sequence, Tuple

from .errors import (
    EmptyVector,
    ExponentOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NonFiniteEntry,
    RegimeViolation,
    TooLarge,
)

# Desk-scale guard: reject accidental huge inputs.
MAX_LEN = 1 << 20

# The smallest normal float; a power sum below it has lost bits.
_MIN_NORMAL = sys.float_info.min


def _check_entries(entries: Sequence[float]) -> Sequence[float]:
    """entries, checked: nonempty, at most MAX_LEN long, every float finite."""
    if len(entries) == 0:
        raise EmptyVector("vector must have at least one entry")
    if len(entries) > MAX_LEN:
        raise TooLarge(f"vector length {len(entries)} exceeds maximum {MAX_LEN}")
    if not math.isfinite(sum(entries)):  # true whenever an entry is inf or nan
        for i, x in enumerate(entries):
            if not math.isfinite(x):
                raise NonFiniteEntry(i)
    return entries


@dataclass(frozen=True)
class RealVector:
    """Finite real sequence of length >= 1; entries must be finite."""

    entries: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(float(x) for x in self.entries))
        _check_entries(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def _trusted(cls, entries: tuple[float, ...]):
        """A vector on a tuple of floats already valid for cls; nothing is checked."""
        v = object.__new__(cls)
        object.__setattr__(v, "entries", entries)
        return v

    def scaled(self, alpha: float) -> "RealVector":
        return type(self)(tuple(alpha * x for x in self.entries))


@dataclass(frozen=True)
class NonnegVector(RealVector):
    """Refinement of RealVector with every entry >= 0."""

    def __post_init__(self):
        super().__post_init__()
        for i, x in enumerate(self.entries):
            if x < 0.0:
                raise NegativeEntry(i)


@dataclass(frozen=True)
class Weights:
    """Positive masses standing in for a discrete measure.

    Weighted vectors model simple functions; unit weights recover the
    plain sequence-space norm.
    """

    masses: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(float(x) for x in self.masses))
        _check_entries(self.masses)
        for i, m in enumerate(self.masses):
            if m <= 0.0:
                raise NegativeEntry(i)

    def __len__(self) -> int:
        return len(self.masses)

    @classmethod
    def _trusted(cls, masses: tuple[float, ...]) -> "Weights":
        """Weights on a tuple of already validated masses; nothing is checked."""
        w = object.__new__(cls)
        object.__setattr__(w, "masses", masses)
        return w


def validate_vector(raw: Iterable[float], require_nonneg: bool = False) -> RealVector:
    """Validate a raw sequence into a RealVector (or NonnegVector)."""
    entries = tuple(float(x) for x in raw)
    if require_nonneg:
        return NonnegVector(entries)
    return RealVector(entries)


def conjugate_exponent(p: float) -> float:
    """q = p/(p-1), so that 1/p + 1/q = 1."""
    if p <= 1.0:
        raise ExponentOutOfRange(f"conjugate exponent needs p > 1, got {p}")
    return p / (p - 1.0)


def main_exponents(p: float, q: float) -> Tuple[float, float]:
    """(p, q), checked: both finite and 2 <= p <= q, the paper's main regime."""
    if not (math.isfinite(p) and math.isfinite(q)):
        raise RegimeViolation(f"need finite p and q, got ({p}, {q})")
    if not (2.0 <= p <= q):
        raise RegimeViolation(f"need 2 <= p <= q, got ({p}, {q})")
    return p, q


def _abs_powers(entries: Sequence[float], p: float) -> List[float]:
    """[|x|^p for x in entries], p >= 1, as a list for math.fsum."""
    # Fast paths avoid pow() for the common small integer exponents;
    # |0|^p is exactly 0 for every p > 0 on all paths.
    if p == 2.0:
        return [x * x for x in entries]
    if p == 3.0:
        return [abs(x) * x * x for x in entries]
    if p == 4.0:
        return [(x * x) * (x * x) for x in entries]
    if p == 1.0:
        return [abs(x) for x in entries]
    return [abs(x) ** p for x in entries]


def _sum_abs_powers(
    entries: Sequence[float], p: float, masses: Optional[Sequence[float]] = None
) -> float:
    """sum_abs_powers on plain floats: entries and masses already validated."""
    if p < 1.0:
        raise ExponentOutOfRange(f"p-norm needs p >= 1, got {p}")
    if masses is not None and len(masses) != len(entries):
        raise LengthMismatch(
            f"weights length {len(masses)} != vector length {len(entries)}"
        )
    terms = _abs_powers(entries, p)
    if masses is None:
        return math.fsum(terms)
    return math.fsum([w * t for w, t in zip(masses, terms)])


def _p_norm(
    entries: Sequence[float], p: float, masses: Optional[Sequence[float]] = None
) -> float:
    """p_norm on plain floats: entries and masses already validated.

    A power sum below the smallest normal float has lost bits to
    underflow, or is 0 for nonzero entries (1e-200 at p = 3).  It is
    then taken again on the entries scaled by 2^-k, where 2^(k-1) <=
    max |x_i| < 2^k, and the norm scaled back by 2^k.  Every norm whose
    power sum is normal keeps its bits.
    """
    s = _sum_abs_powers(entries, p, masses)
    k = 0
    if s < _MIN_NORMAL:
        k = math.frexp(max(map(abs, entries)))[1]
        s = _sum_abs_powers([math.ldexp(x, -k) for x in entries], p, masses)
    if s == 0.0 or p == 1.0:
        norm = s
    elif p == 2.0:
        norm = math.sqrt(s)
    else:
        norm = s ** (1.0 / p)
    return math.ldexp(norm, k) if k else norm


def sum_abs_powers(v: RealVector, p: float, weights: Optional[Weights] = None) -> float:
    """Compensated sum of w_i * |v_i|^p (unit weights when absent)."""
    return _sum_abs_powers(v.entries, p, None if weights is None else weights.masses)


def p_norm(v: RealVector, p: float, weights: Optional[Weights] = None) -> float:
    """Weighted p-norm (sum_i w_i |v_i|^p)^(1/p); unit weights when absent."""
    return _p_norm(v.entries, p, None if weights is None else weights.masses)


def combine(x: RealVector, y: RealVector, sign: Literal["plus", "minus"]) -> RealVector:
    """Componentwise x + y or x - y."""
    if len(x) != len(y):
        raise LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    if sign == "plus":
        return RealVector(tuple(a + b for a, b in zip(x.entries, y.entries)))
    if sign == "minus":
        return RealVector(tuple(a - b for a, b in zip(x.entries, y.entries)))
    raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
