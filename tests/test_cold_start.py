"""Each path imports only what it runs: a fresh interpreter that imports
clarkson, builds the parser, or runs verify, phi, chi or --help never
imports numpy, while scan, search and the swap oracle do; each command
loads only the clarkson modules it runs; and where numpy cannot be
imported at all, the commands that do not run it still work.

``import clarkson`` resolves its exported names on first access; the
package surface is pinned at the end of this file.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clarkson

SRC = Path(__file__).resolve().parents[1] / "src"
PYTHONPATH = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

# The snippet runs with stdout sent to os.devnull; the last line printed
# to the real stdout lists sys.modules as the body left it, taken before
# the snippet's own json import.
PROBE = """
import contextlib, os, sys
real_stdout = sys.stdout
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
{body}
loaded = sorted(sys.modules)
import json
print(json.dumps(loaded), file=real_stdout)
"""


def modules_after(*lines: str) -> set:
    """The modules in sys.modules after running lines in a fresh interpreter."""
    body = "\n".join("    " + line for line in lines)
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": PYTHONPATH}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def numpy_modules(*lines: str) -> list:
    return sorted(m for m in modules_after(*lines) if m.split(".")[0] == "numpy")


def clarkson_modules(*lines: str) -> set:
    return {m for m in modules_after(*lines) if m.split(".")[0] == "clarkson"}


def cli_run(*argv: str) -> tuple:
    return ("from clarkson.cli import main",
            f"assert main({list(argv)!r}) == 0")


COLD_ARGV = {
    "verify": ("verify", "--ineq", "main-1.7", "--x", "1,0", "--y", "0,1", "--p", "2", "--q", "4"),
    "phi": ("phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4", "--grid-size", "17"),
    "chi": ("chi", "--p", "1.3333333333333333", "--q", "4", "--c", "1", "--grid-size", "11"),
    "help": ("--help",),
}
SAMPLING_ARGV = {
    "search": ("search", "--ineq", "main-1.7", "--q", "3", "--budget", "5", "--seed", "1"),
    "scan": ("scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid", "3:3:1",
             "--samples", "2", "--seed", "1"),
}
IMPORT = ("import clarkson",)
BUILD_PARSER = ("import clarkson.cli", "clarkson.cli.build_parser()")
VERIFY, PHI, CHI, HELP = (cli_run(*argv) for argv in COLD_ARGV.values())
SEARCH, SCAN = (cli_run(*argv) for argv in SAMPLING_ARGV.values())
ORACLE = ("from clarkson import NonnegVector, brute_force_swap_oracle",
          "brute_force_swap_oracle(NonnegVector([1.0, 2.0]), NonnegVector([2.0, 0.5]), 2.0)")


@pytest.mark.parametrize("lines", [IMPORT, BUILD_PARSER, VERIFY, PHI, CHI, HELP],
                         ids=["import", "build_parser", "verify", "phi", "chi", "help"])
def test_cold_paths_never_run_numpy(lines):
    assert numpy_modules(*lines) == []


@pytest.mark.parametrize("lines", [SEARCH, SCAN, ORACLE], ids=["search", "scan", "oracle"])
def test_sampling_paths_load_numpy(lines):
    """No ``import numpy`` statement runs here besides the program's own."""
    assert "numpy" in numpy_modules(*lines)


def test_numpy_imported_first_is_reused():
    assert numpy_modules(
        "import numpy",
        "import clarkson.rearrange, clarkson.search",
        "assert clarkson.search.np is clarkson.rearrange.np is numpy",
    )


def run_cli(argv, numpy: bool = True) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter; without numpy it runs with -S, which
    leaves site-packages, where numpy is installed, off sys.path."""
    flags, path = ((), PYTHONPATH) if numpy else (("-S",), str(SRC))
    return subprocess.run([sys.executable, *flags, "-m", "clarkson.cli", *argv],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          timeout=120)


@pytest.fixture(scope="module")
def numpy_missing():
    if subprocess.run([sys.executable, "-S", "-c", "import numpy"], capture_output=True,
                      timeout=120).returncode == 0:
        pytest.skip("numpy is importable without site-packages here")


@pytest.mark.parametrize("argv", COLD_ARGV.values(), ids=list(COLD_ARGV))
def test_cold_commands_run_without_numpy(argv, numpy_missing):
    """They exit 0 and print what they print with numpy installed."""
    got = run_cli(argv, numpy=False)
    assert (got.returncode, got.stderr) == (0, "")
    assert got.stdout == run_cli(argv).stdout


@pytest.mark.parametrize("argv", SAMPLING_ARGV.values(), ids=list(SAMPLING_ARGV))
def test_sampling_commands_without_numpy_exit_2(argv, numpy_missing):
    """An error, never the violation code 1, and no report."""
    got = run_cli(argv, numpy=False)
    assert (got.returncode, got.stdout) == (2, "")
    assert "No module named 'numpy'" in got.stderr


# What the CLI module itself imports: the parser needs the inequality ids,
# the constraints and distributions, and the tolerance defaults.
CLI = {"clarkson", "clarkson.catalog", "clarkson.cli", "clarkson.core", "clarkson.errors"}


@pytest.mark.parametrize("lines, expected", [
    (IMPORT, {"clarkson"}),
    (BUILD_PARSER, CLI),
    (VERIFY, CLI),
    (HELP, CLI),
    (PHI, CLI | {"clarkson.variational"}),
    (CHI, CLI | {"clarkson.variational"}),
    (SEARCH, CLI | {"clarkson.search"}),
    (SCAN, CLI | {"clarkson.search"}),
    (ORACLE, {"clarkson", "clarkson.catalog", "clarkson.core", "clarkson.errors",
              "clarkson.rearrange"}),
], ids=["import", "build_parser", "verify", "help", "phi", "chi", "search", "scan", "oracle"])
def test_each_path_loads_only_the_clarkson_modules_it_runs(lines, expected):
    assert clarkson_modules(*lines) == expected


def test_verify_loads_neither_json_nor_traceback():
    loaded = modules_after(*VERIFY)
    assert "json" not in loaded
    assert "traceback" not in loaded


def test_a_witness_file_loads_json(tmp_path):
    """The probe sees json when the program imports it."""
    witness = ("--out", str(tmp_path / "w.json"))
    assert "json" in modules_after(*cli_run(*SAMPLING_ARGV["search"], *witness))


# The package surface: each exported name and the module that defines it.
HOMES = {
    "catalog": ["DEFAULT_POLICY", "Constraint", "Distribution", "GapReport", "InequalityId",
                "TolerancePolicy", "Verdict", "classify", "evaluate"],
    "core": ["NonnegVector", "RealVector", "Weights", "conjugate_exponent", "p_norm"],
    "rearrange": ["RearrangedPair", "brute_force_swap_oracle", "dominance_rearrange",
                  "sum_power_rearrangement_gap"],
    "search": ["CellSummary", "SampleSpec", "SearchOutcome", "SearchStatus",
               "counterexample_search", "extremal_search", "sample_pair", "scan_grid"],
    "variational": ["ChiContext", "PhiContext", "chi", "chi_sign_scan", "monotonicity_scan",
                    "phi", "phi_prime", "phi_prime_values", "psi", "psi_prime"],
}
EXPORTS = [(name, home) for home, names in HOMES.items() for name in names]


def test_all_is_the_exported_surface():
    assert len(EXPORTS) == 36
    assert sorted(clarkson.__all__) == sorted(name for name, _ in EXPORTS)


@pytest.mark.parametrize("name, home", EXPORTS, ids=[name for name, _ in EXPORTS])
def test_each_name_is_its_home_module_attribute(name, home):
    assert getattr(clarkson, name) is getattr(importlib.import_module(f"clarkson.{home}"), name)


def test_search_reexports_the_catalog_distribution():
    assert clarkson.search.Distribution is clarkson.catalog.Distribution


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        clarkson.no_such_name


def test_submodule_resolves_as_an_attribute():
    assert "clarkson.search" in modules_after(
        "import clarkson, types",
        "assert isinstance(clarkson.search, types.ModuleType)",
        "assert clarkson.search is sys.modules['clarkson.search']",
    )


def test_star_import_binds_every_name():
    """In a fresh interpreter, where no name has been resolved yet."""
    modules_after(
        "from clarkson import *",
        "import clarkson",
        "missing = [n for n in clarkson.__all__ if globals().get(n) is not getattr(clarkson, n)]",
        "assert not missing, missing",
    )
