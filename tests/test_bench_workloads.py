"""The benchmark's workloads run on this tree: one small round each.

bench/workloads.py calls the program through the CLI and through library
names (rearrange, variational, core).  A round that cannot run, or that
reports a problem, fails here in the test suite and not only in a
benchmark run.  Each round uses the small sizes of REFERENCE_SIZES.
"""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import workloads
finally:
    sys.path.remove(BENCH)

NAMES = ["search-small-n", "scan-long-n", "extremal-descent", "machinery-probe"]


def test_every_workload_is_covered():
    assert sorted(workloads.FACTORIES) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_reference_round_has_no_problems(name, tmp_path):
    workload = workloads.FACTORIES[name](tmp_path, **workloads.REFERENCE_SIZES[name])
    rnd = workload.run_round(0)
    assert rnd.problems == []
    assert rnd.items > 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_round_sees_evaluate(name, tmp_path):
    """Every workload reaches evaluate through a name the tracer wraps, so
    its verdict counts count something."""
    workload = workloads.FACTORIES[name](tmp_path, **workloads.REFERENCE_SIZES[name])
    rnd, layers = workloads.traced_round(workload, 0)
    assert rnd.problems == []
    assert layers["catalog.evaluate.calls"] > 0
