"""Table-driven pin of what the inequality registry decides for each id.

For every id this records, as literal tables: whether each input
constraint is accepted, exploratory or rejected (explore off and on);
which cells a scan over p in 1:4:0.25, q in 1:6:0.25 skips; and the
exponents `clarkson search` samples at.  swap-2.8 has no vector-pair
form and is rejected everywhere.
"""

import json

import pytest

from clarkson.catalog import Constraint, InequalityId
from clarkson.cli import main
from clarkson.core import ExponentPair
from clarkson.errors import ClarksonError
from clarkson.search import SampleSpec, counterexample_search, scan_grid

A, E, R = "accepted", "exploratory", "rejected"

# (explore off, explore on) for nonnegative, signed and dominated inputs.
STATUS = {
    "c-1.1": {"nonnegative": (A, A), "signed": (A, A), "dominated": (A, A)},
    "c-1.2": {"nonnegative": (A, A), "signed": (A, A), "dominated": (A, A)},
    "c-1.3-left": {"nonnegative": (A, A), "signed": (A, A), "dominated": (A, A)},
    "c-1.3-right": {"nonnegative": (A, A), "signed": (A, A), "dominated": (A, A)},
    "main-1.7": {"nonnegative": (A, A), "signed": (R, E), "dominated": (A, A)},
    "prop-1.4": {"nonnegative": (R, R), "signed": (R, R), "dominated": (A, A)},
    "cor-1.6": {"nonnegative": (R, R), "signed": (R, R), "dominated": (A, A)},
    "swap-2.8": {"nonnegative": (R, R), "signed": (R, R), "dominated": (R, R)},
    "sumpow-2.12": {"nonnegative": (A, A), "signed": (R, R), "dominated": (A, A)},
    "rearr-2.17": {"nonnegative": (A, A), "signed": (R, R), "dominated": (A, A)},
}

P_GRID = [1.0 + 0.25 * k for k in range(13)]
Q_GRID = [1.0 + 0.25 * k for k in range(21)]

# One row per p in P_GRID, one column per q in Q_GRID; "x" marks a skipped cell.
CONJUGATE_SKIPS = ("xxxxxxxxxxxxxxxxxxxxx",) + (".....................",) * 12
MAIN_SKIPS = (
    "xxxxxxxxxxxxxxxxxxxxx",
    "xxxxxxxxxxxxxxxxxxxxx",
    "xxxxxxxxxxxxxxxxxxxxx",
    "xxxxxxxxxxxxxxxxxxxxx",
    "xxxx.................",
    "xxxxx................",
    "xxxxxx...............",
    "xxxxxxx..............",
    "xxxxxxxx.............",
    "xxxxxxxxx............",
    "xxxxxxxxxx...........",
    "xxxxxxxxxxx..........",
    "xxxxxxxxxxxx.........",
)
COR_SKIPS = ("xxxx.................",) * 13
SUMPOW_SKIPS = ("x....................",) * 13

SKIPS = {
    "c-1.1": CONJUGATE_SKIPS,
    "c-1.2": CONJUGATE_SKIPS,
    "c-1.3-left": CONJUGATE_SKIPS,
    "c-1.3-right": CONJUGATE_SKIPS,
    "main-1.7": MAIN_SKIPS,
    "prop-1.4": MAIN_SKIPS,
    "cor-1.6": COR_SKIPS,
    "sumpow-2.12": SUMPOW_SKIPS,
    "rearr-2.17": MAIN_SKIPS,
}

# `search --p P [--q Q]` -> the (p, q) the witness records, None for exit 2.
SEARCH_POINTS = ((2.5, 3.7), (3.0, None), (1.5, 3.0), (2.0, 1.5), (1.0, 3.0), (4.0, 2.0))
CONJUGATE_EXPS = (
    (2.5, 1.6666666666666667), (3.0, 1.5), (1.5, 3.0), (2.0, 2.0), None, (4.0, 1.3333333333333333)
)
MAIN_EXPS = ((2.5, 3.7), (3.0, 3.0), None, None, None, None)
SCALAR_EXPS = ((3.7, 3.7), (3.0, 3.0), (3.0, 3.0), (1.5, 1.5), (3.0, 3.0), (2.0, 2.0))
SEARCH_EXPS = {
    "c-1.1": CONJUGATE_EXPS,
    "c-1.2": CONJUGATE_EXPS,
    "c-1.3-left": CONJUGATE_EXPS,
    "c-1.3-right": CONJUGATE_EXPS,
    "main-1.7": MAIN_EXPS,
    "prop-1.4": MAIN_EXPS,
    # the corollary is stated for q >= 2 only
    "cor-1.6": ((3.7, 3.7), (3.0, 3.0), (3.0, 3.0), None, (3.0, 3.0), (2.0, 2.0)),
    "swap-2.8": (None,) * len(SEARCH_POINTS),
    "sumpow-2.12": SCALAR_EXPS,
    "rearr-2.17": MAIN_EXPS,
}


def test_tables_cover_every_id():
    ids = {member.value for member in InequalityId}
    assert set(STATUS) == ids == set(SEARCH_EXPS)
    assert set(SKIPS) == ids - {"swap-2.8"}


@pytest.mark.parametrize("name", sorted(STATUS))
def test_constraint_status(name):
    id = InequalityId.from_cli(name)
    for constraint in Constraint:
        for explore, expected in zip((False, True), STATUS[name][constraint.value]):
            try:
                out = counterexample_search(
                    id, ExponentPair.main(2.0, 3.0), SampleSpec(constraint=constraint), 0,
                    explore=explore,
                )
                got = E if out.exploratory else A
            except ClarksonError:
                got = R
            assert got == expected, (constraint, explore)


@pytest.mark.parametrize("name", sorted(SKIPS))
def test_scan_skip_set(name):
    spec = SampleSpec(dim_range=(1, 1), constraint=Constraint.DOMINATED_PAIR)
    cells = scan_grid(InequalityId.from_cli(name), P_GRID, Q_GRID, spec, 1, seed=0)
    got = tuple(
        "".join("x" if cells[i * len(Q_GRID) + j].skipped else "." for j in range(len(Q_GRID)))
        for i in range(len(P_GRID))
    )
    assert got == SKIPS[name]


def test_scan_rejects_swap():
    with pytest.raises(ClarksonError):
        scan_grid(InequalityId.SWAP_28, P_GRID, Q_GRID, SampleSpec(), 1, seed=0)


@pytest.mark.parametrize("name", sorted(SEARCH_EXPS))
def test_search_exponents(name, tmp_path, capsys):
    path = tmp_path / "witness.json"
    for (p, q), expected in zip(SEARCH_POINTS, SEARCH_EXPS[name]):
        argv = ["search", "--ineq", name, "--p", str(p), "--budget", "1", "--seed", "0",
                "--constraint", "dominated", "--nmin", "1", "--nmax", "1", "--out", str(path)]
        if q is not None:
            argv += ["--q", str(q)]
        code = main(argv)
        capsys.readouterr()
        if expected is None:
            assert code == 2, (p, q)
            continue
        assert code == 0, (p, q)
        doc = json.loads(path.read_text())
        assert (doc["p"], doc["q"]) == expected, (p, q)
