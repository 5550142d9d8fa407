"""Verification and exploration toolkit for Clarkson-type norm
inequalities on nonnegative and signed finite l_p vectors."""

from .catalog import (
    DEFAULT_POLICY,
    GapReport,
    InequalityId,
    TolerancePolicy,
    Verdict,
    classify,
    evaluate,
)
from .core import (
    NonnegVector,
    RealVector,
    Weights,
    conjugate_exponent,
    p_norm,
)
from .rearrange import (
    RearrangedPair,
    brute_force_swap_oracle,
    dominance_rearrange,
    sum_power_rearrangement_gap,
)
from .search import (
    CellSummary,
    Constraint,
    Distribution,
    SampleSpec,
    SearchOutcome,
    SearchStatus,
    counterexample_search,
    extremal_search,
    sample_pair,
    scan_grid,
)
from .variational import (
    ChiContext,
    PhiContext,
    chi,
    chi_sign_scan,
    monotonicity_scan,
    phi,
    phi_prime,
    phi_prime_values,
    psi,
    psi_prime,
)

__version__ = "0.1.0"
