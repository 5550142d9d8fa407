"""Extremal witnesses do not depend on numpy's SIMD dispatch.

numpy picks a vectorized kernel for the CPU it runs on, and its AVX-512
``power`` rounds some values differently from its AVX2 one.  The extremal
descent takes its norms with ``math.fsum`` on plain floats, so its path,
and every byte it prints or writes, must be the same on both.  Each
command below runs twice in a fresh interpreter: as the machine
dispatches, and with ``NPY_DISABLE_CPU_FEATURES=X86_V4``, which makes
numpy fall back to its AVX2 kernels.  numpy ignores a feature name the
CPU lacks, so on a machine without AVX-512 both runs take the same
kernels and this test passes without testing anything; CI's
``numpy.show_runtime()`` step lists the level a runner dispatched to.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = [
    pytest.param(
        ["--ineq", "main-1.7", "--p", "2.5", "--q", "3", "--constraint", "signed",
         "--nmin", "3", "--nmax", "5", "--budget", "4000", "--seed", "2"],
        id="signed main-1.7 at p 2.5",
    ),
    pytest.param(
        ["--ineq", "main-1.7", "--p", "3", "--q", "5", "--nmin", "2", "--nmax", "3",
         "--budget", "300", "--seed", "9"],
        id="main-1.7 at p 3, q 5",
    ),
    pytest.param(
        ["--ineq", "c-1.1", "--p", "3", "--constraint", "signed", "--nmin", "2", "--nmax", "4",
         "--budget", "400", "--seed", "6"],
        id="signed c-1.1 at p 3",
    ),
]


def run_extremal(argv, witness: Path, **env) -> tuple:
    """stdout and witness bytes of one extremal search in a fresh
    interpreter, at numpy's default dispatch for the CPU plus env."""
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "clarkson.cli", "search", "--mode", "extremal", *argv,
         "--out", str(witness)],
        capture_output=True, env={**base, **env}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, witness.read_bytes()


@pytest.mark.parametrize("argv", COMMANDS)
def test_witness_is_the_same_on_every_simd_level(argv, tmp_path):
    native = run_extremal(argv, tmp_path / "native.json")
    avx2 = run_extremal(argv, tmp_path / "avx2.json", NPY_DISABLE_CPU_FEATURES="X86_V4")
    assert avx2 == native
