"""The library's error contract: every rejected input raises DomainError,
and a value that overflows or is not finite raises NonFiniteGap."""

import inspect
import math

import pytest

from clarkson import errors
from clarkson.catalog import InequalityId, evaluate
from clarkson.core import MAX_LEN, NonnegVector, RealVector, Weights, conjugate_exponent
from clarkson.errors import ClarksonError, DomainError, NonFiniteGap
from clarkson.rearrange import brute_force_swap_oracle
from clarkson.search import (
    Constraint,
    SampleSpec,
    counterexample_search,
    extremal_search,
    scan_grid,
)
from clarkson.variational import ChiContext, psi

MAIN = InequalityId.MAIN_17
ONE, TWO = NonnegVector((1.0,)), NonnegVector((1.0, 2.0))
DOMINATED = SampleSpec(constraint=Constraint.DOMINATED_PAIR)

# (id, bad call, the message it raises with)
REJECTED = [
    ("empty vector", lambda: RealVector([]), "vector must have at least one entry"),
    ("inf entry", lambda: RealVector([1.0, math.inf]), "non-finite entry at index 1"),
    ("negative entry", lambda: NonnegVector([1.0, -1.0]), "negative entry at index 1"),
    ("zero weight", lambda: Weights([1.0, 0.0]), "weight at index 1 is not positive, got 0.0"),
    ("length mismatch", lambda: evaluate(MAIN, ONE, TWO, 2.0, 3.0), "lengths 1 and 2 differ"),
    ("broken dominance",
     lambda: evaluate(InequalityId.PROP_14, ONE, NonnegVector((2.0,)), 2.0, 3.0),
     "dominance violated at index 0"),
    ("conjugate p <= 1", lambda: conjugate_exponent(1.0),
     "conjugate exponent needs p > 1, got 1.0"),
    ("p > q for main-1.7", lambda: evaluate(MAIN, ONE, ONE, 3.0, 2.0),
     "need 2 <= p <= q, got (3.0, 2.0)"),
    ("missing q", lambda: evaluate(MAIN, ONE, ONE, 2.0), "main-1.7 requires an explicit q"),
    ("constraint mismatch",
     lambda: counterexample_search(InequalityId.PROP_14, 2.0, 3.0,
                                   SampleSpec(constraint=Constraint.SIGNED), 10),
     "prop-1.4 is stated for dominated inputs, got signed"),
    ("weights rule",
     lambda: evaluate(InequalityId.SUMPOW_212, ONE, ONE, 2.0, 3.0, Weights([1.0])),
     "sumpow-2.12 is stated without weights"),
    ("extremal weights", lambda: extremal_search(MAIN, 2.0, 3.0, SampleSpec(weights=True), 10),
     "extremal search does not take weights"),
    ("cor-1.6 pair", lambda: evaluate(InequalityId.COR_16, TWO, TWO, 2.0, 3.0),
     "cor-1.6 takes scalars (1-entry vectors)"),
    ("cor-1.6 run", lambda: counterexample_search(InequalityId.COR_16, 2.0, 3.0, DOMINATED, 1),
     "cor-1.6 takes scalars (1-entry vectors)"),
    ("oracle n > 16",
     lambda: brute_force_swap_oracle(NonnegVector((1.0,) * 17), NonnegVector((1.0,) * 17), 2.0),
     "oracle limited to n <= 16, got 17"),
    ("empty grid", lambda: scan_grid(MAIN, [], [3.0], SampleSpec(), 10, 0), "empty p or q grid"),
    ("over-long vector", lambda: RealVector([0.0] * (MAX_LEN + 1)),
     f"vector length {MAX_LEN + 1} exceeds maximum {MAX_LEN}"),
    # A spec field of another type would draw other samples or fail later.
    ("distribution string", lambda: SampleSpec(distribution="exponential"),
     "distribution must be a Distribution, got 'exponential'"),
    ("constraint string", lambda: SampleSpec(constraint="signed"),
     "constraint must be a Constraint, got 'signed'"),
    ("weights string", lambda: SampleSpec(weights="no"), "weights must be a bool, got 'no'"),
    ("density string", lambda: SampleSpec(density="0.5"), "density must be real, got '0.5'"),
    ("dim_range list", lambda: SampleSpec(dim_range=[1, 16]),
     "dim_range must be a tuple (lo, hi), got [1, 16]"),
    ("dim_range triple", lambda: SampleSpec(dim_range=(1, 16, 3)),
     "dim_range must be a tuple (lo, hi), got (1, 16, 3)"),
]


@pytest.mark.parametrize("call, text", [case[1:] for case in REJECTED],
                         ids=[case[0] for case in REJECTED])
def test_rejected_input_raises_domain_error(call, text):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == text
    assert type(info.value) is DomainError
    assert isinstance(info.value, ClarksonError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("call, text", [
    (lambda: evaluate(MAIN, RealVector((1e200,)), RealVector((1e200,)), 2.5, 3.0),
     "main-1.7: non-finite gap (overflow)"),
    (lambda: evaluate(MAIN, RealVector((1e308,)), RealVector((1e308,)), 2.0, 3.0),
     "main-1.7: non-finite gap (lhs=inf, rhs=inf)"),
    (lambda: psi(ChiContext(1.5, 3000.0, 1.0), 0.9), "psi: non-finite value (overflow)"),
], ids=["overflow", "inf sides", "psi overflow"])
def test_non_finite_value_raises_non_finite_gap(call, text):
    with pytest.raises(NonFiniteGap) as info:
        call()
    assert str(info.value) == text
    assert isinstance(info.value, ClarksonError) and isinstance(info.value, ValueError)


def test_three_exception_classes():
    defined = {name for name, value in vars(errors).items()
               if inspect.isclass(value) and issubclass(value, BaseException)
               and value.__module__ == errors.__name__}
    assert defined == {"ClarksonError", "DomainError", "NonFiniteGap"}
    assert ClarksonError.__bases__ == (ValueError,)
    assert DomainError.__bases__ == NonFiniteGap.__bases__ == (ClarksonError,)
