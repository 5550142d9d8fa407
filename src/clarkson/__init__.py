"""Verification and exploration toolkit for Clarkson-type norm
inequalities on nonnegative and signed finite l_p vectors.

Each exported name is resolved on first access (PEP 562) by importing the
module that defines it: ``import clarkson`` runs no submodule, and
``clarkson.phi`` loads ``variational`` without ``search``, so a command
pays only for the modules it runs, and numpy only where it runs."""

__version__ = "0.1.0"

# The module that defines each exported name.
_EXPORTS = {
    "catalog": ("DEFAULT_POLICY", "Constraint", "Distribution", "GapReport", "InequalityId",
                "TolerancePolicy", "Verdict", "classify", "evaluate"),
    "core": ("NonnegVector", "RealVector", "Weights", "conjugate_exponent", "p_norm"),
    "rearrange": ("RearrangedPair", "brute_force_swap_oracle", "dominance_rearrange",
                  "sum_power_rearrangement_gap"),
    "search": ("CellSummary", "SampleSpec", "SearchOutcome", "SearchStatus",
               "counterexample_search", "extremal_search", "sample_pair", "scan_grid"),
    "variational": ("ChiContext", "PhiContext", "chi", "chi_sign_scan", "monotonicity_scan",
                    "phi", "phi_prime", "phi_prime_values", "psi", "psi_prime"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's path, which -X importtime reports;
    # importlib.import_module's is not.  It binds the submodule here.
    __import__(f"{__name__}.{home}")
    if home == name:
        return globals()[name]
    value = globals()[name] = getattr(globals()[home], name)  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _SUBMODULES)
