"""Witnesses and printed output do not depend on numpy's SIMD dispatch.

numpy picks a vectorized kernel for the CPU it runs on, and its AVX-512
``power`` rounds some values differently from its AVX2 one.  The extremal
descent takes its norms with ``math.fsum`` on plain floats, so its path
must be the same on both.  The counterexample search and the scan screen
each block with numpy's ``power``, whose rounding then moves the batch
gaps, but every printed verdict, gap and witness comes from the scalar
path, and the screen's margin covers both kernels, so what they print is
the same too.  Sampling converts words to values in repo code, and its
exponential draws take libm's ``log1p`` per entry: numpy's SIMD
``log1p`` rounds some values differently, which would move the
exponential search's witness.  Each command below runs twice in a fresh
interpreter: as the machine dispatches, and with
``NPY_DISABLE_CPU_FEATURES=X86_V4``, which makes numpy fall back to its
AVX2 kernels.  numpy ignores a feature name the CPU lacks, so on a
machine without AVX-512 both runs take the same kernels and this test
passes without testing anything; CI's
``numpy.show_runtime()`` step lists the level a runner dispatched to.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

EXTREMAL = ["search", "--mode", "extremal"]

# The scan-long-n sampling: long sparse pairs.
LONG_SPARSE = ["--nmin", "32", "--nmax", "64", "--dist", "sparse", "--density", "0.5"]

COMMANDS = [
    pytest.param(
        [*EXTREMAL, "--ineq", "main-1.7", "--p", "2.5", "--q", "3", "--constraint", "signed",
         "--nmin", "3", "--nmax", "5", "--budget", "4000", "--seed", "2"],
        id="signed main-1.7 at p 2.5",
    ),
    pytest.param(
        [*EXTREMAL, "--ineq", "main-1.7", "--p", "3", "--q", "5", "--nmin", "2", "--nmax", "3",
         "--budget", "300", "--seed", "9"],
        id="main-1.7 at p 3, q 5",
    ),
    pytest.param(
        [*EXTREMAL, "--ineq", "c-1.1", "--p", "3", "--constraint", "signed", "--nmin", "2",
         "--nmax", "4", "--budget", "400", "--seed", "6"],
        id="signed c-1.1 at p 3",
    ),
    pytest.param(
        ["search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3.7", "--nmin", "1",
         "--nmax", "16", "--dist", "uniform", "--budget", "4000", "--seed", "1"],
        id="counterexample main-1.7 at p 2.5",
    ),
    pytest.param(
        # 16-entry pairs: the witness holds 32 exponential draws
        ["search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3.7", "--nmin", "16",
         "--nmax", "16", "--dist", "exponential", "--constraint", "signed", "--budget", "2000",
         "--seed", "3"],
        id="signed exponential counterexample main-1.7",
    ),
    pytest.param(
        ["scan", "--ineq", "rearr-2.17", "--p-grid", "2.5:3.5:1", "--q-grid", "4:6:1",
         *LONG_SPARSE, "--samples", "300", "--seed", "1"],
        id="sparse rearr-2.17 scan at p 2.5 and 3.5",
    ),
]


def run_cli(argv, witness: Path, **env) -> tuple:
    """stdout, and the witness bytes of a search, of one command in a
    fresh interpreter, at numpy's default dispatch for the CPU plus env."""
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = ["--out", str(witness)] if argv[0] == "search" else []
    proc = subprocess.run(
        [sys.executable, "-m", "clarkson.cli", *argv, *out],
        capture_output=True, env={**base, **env}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, witness.read_bytes() if out else None


@pytest.mark.parametrize("argv", COMMANDS)
def test_witness_is_the_same_on_every_simd_level(argv, tmp_path):
    native = run_cli(argv, tmp_path / "native.json")
    avx2 = run_cli(argv, tmp_path / "avx2.json", NPY_DISABLE_CPU_FEATURES="X86_V4")
    assert avx2 == native
