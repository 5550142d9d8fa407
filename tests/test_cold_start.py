"""numpy runs only where it is used: a fresh interpreter that imports
clarkson, builds the parser, or runs verify, phi, chi or --help leaves no
numpy submodule behind, while scan, search and the swap oracle load numpy.

The lazy placeholder registers ``sys.modules["numpy"]`` without running
numpy, so these checks look for ``numpy.*`` submodules, which only numpy's
own ``__init__`` imports.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# The snippet runs with stdout sent to os.devnull; the last line printed
# to the real stdout lists the numpy submodules then in sys.modules.
PROBE = """
import contextlib, json, os, sys
real_stdout = sys.stdout
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
{body}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy."))), file=real_stdout)
"""


def numpy_submodules(*lines: str) -> list:
    """numpy.* modules loaded after running lines in a fresh interpreter."""
    body = "\n".join("    " + line for line in lines)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def cli_run(*argv: str) -> tuple:
    return ("from clarkson.cli import main",
            f"assert main({list(argv)!r}) == 0")


@pytest.mark.parametrize("lines", [
    ("import clarkson",),
    ("import clarkson.cli", "clarkson.cli.build_parser()"),
    cli_run("verify", "--ineq", "main-1.7", "--x", "1,0", "--y", "0,1", "--p", "2", "--q", "4"),
    cli_run("phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4", "--grid-size", "17"),
    cli_run("chi", "--p", "1.3333333333333333", "--q", "4", "--c", "1", "--grid-size", "11"),
    cli_run("--help"),
], ids=["import", "build_parser", "verify", "phi", "chi", "help"])
def test_cold_paths_never_run_numpy(lines):
    assert numpy_submodules(*lines) == []


@pytest.mark.parametrize("lines", [
    cli_run("search", "--ineq", "main-1.7", "--budget", "5", "--seed", "1"),
    cli_run("scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid", "3:3:1",
            "--samples", "2", "--seed", "1"),
    ("from clarkson import NonnegVector, brute_force_swap_oracle",
     "brute_force_swap_oracle(NonnegVector([1.0, 2.0]), NonnegVector([2.0, 0.5]), 2.0)"),
], ids=["search", "scan", "oracle"])
def test_sampling_paths_load_numpy(lines):
    """After its first use the placeholder is numpy itself, a plain module.
    (An ``import numpy`` statement would load it too, so none runs here.)"""
    assert numpy_submodules(
        *lines,
        "import types, clarkson.search",
        "assert type(clarkson.search.np) is types.ModuleType",
        "assert clarkson.search.np is sys.modules['numpy']",
    )


def test_numpy_imported_first_is_reused():
    assert numpy_submodules(
        "import numpy",
        "import clarkson.catalog, clarkson.rearrange, clarkson.search",
        "assert clarkson.search.np is clarkson.catalog.np is clarkson.rearrange.np is numpy",
    )
