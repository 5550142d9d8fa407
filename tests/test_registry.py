"""Table-driven pin of what the inequality registry decides for each id.

For every id this records, as literal tables: whether each input
constraint is accepted, exploratory or rejected (explore off and on);
which cells a scan over p in 1:4:0.25, q in 1:6:0.25 skips; the
exponents `clarkson search` samples at; and the rows `clarkson verify`
prints.  swap-2.8 has no vector-pair form and is rejected everywhere.
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

# Literal `clarkson verify` rows, three pairs valid for each id at fixed (p, q):
# id -> (--p, --q, pairs (x, y), rows).  Compared as strings, so every output
# bit of the scalar path is pinned; c-1.1 runs at p < 2, main-1.7 at p == q.
VERIFY_ROWS = {
    'c-1.1': (
        '1.5', None,
        (([1.0, -2.0], [0.5, 3.0]), ([3.0], [1.0]), ([0.3, 0.7, -1.9], [2.1, -0.7, 1.1])),
        (
            'c-1.1,0,1.5,3.0,141.07992876459568,175.89875480733016,34.818826042734486,175.89875480733016,holds',
            'c-1.1,1,1.5,3.0,71.99999999999997,76.78460969082653,4.7846096908265565,76.78460969082653,holds',
            'c-1.1,2,1.5,3.0,105.5454214157471,132.89354312740466,27.348121711657555,132.89354312740466,holds',
        ),
    ),
    'c-1.2': (
        '3', None,
        (([1.0, -2.0], [0.5, 3.0]), ([3.0], [1.0]), ([0.3, 0.7, -1.9], [2.1, -0.7, 1.1])),
        (
            'c-1.2,0,3.0,1.5,129.49999999999994,134.747999967999,5.24799996799905,134.747999967999,holds',
            'c-1.2,1,3.0,1.5,71.99999999999997,76.78460969082653,4.7846096908265565,76.78460969082653,holds',
            'c-1.2,2,3.0,1.5,49.91199999999999,71.89182769050596,21.97982769050597,71.89182769050596,holds',
        ),
    ),
    'c-1.3-left': (
        '2.5', None,
        (([1.0, -2.0], [0.5, 3.0]), ([3.0], [1.0]), ([0.3, 0.7, -1.9], [2.1, -0.7, 1.1])),
        (
            'c-1.3-left,0,2.5,2.5,44.84417642581783,59.83415209342246,14.989975667604632,59.83415209342246,holds',
            'c-1.3-left,1,2.5,2.5,33.17691453623979,37.65685424949238,4.479939713252591,37.65685424949238,holds',
            'c-1.3-left,2,2.5,2.5,27.010038614077715,31.75026372325638,4.740225109178667,31.75026372325638,holds',
        ),
    ),
    'c-1.3-right': (
        '1.25', None,
        (([1.0, -2.0], [0.5, 3.0]), ([3.0], [1.0]), ([0.3, 0.7, -1.9], [2.1, -0.7, 1.1])),
        (
            'c-1.3-right,0,1.25,1.25,9.212887979968773,10.557214993283443,1.34432701331467,10.557214993283443,holds',
            'c-1.3-right,1,1.25,1.25,5.884460855222584,8.035268479497823,2.150807624275239,8.035268479497823,holds',
            'c-1.3-right,2,1.25,1.25,8.785629926464896,11.299799778875787,2.514169852410891,11.299799778875787,holds',
        ),
    ),
    'main-1.7': (
        '3', '3',
        (([1.0, 2.0], [0.5, 3.0]), ([3.0], [1.0]), ([0.3, 0.7, 1.9], [2.1, 0.7, 0.0])),
        (
            'main-1.7,0,3.0,3.0,72.24999999999999,129.49999999999994,57.24999999999996,129.49999999999994,holds',
            'main-1.7,1,3.0,3.0,56.0,71.99999999999997,15.999999999999972,71.99999999999997,holds',
            'main-1.7,2,3.0,3.0,33.666,36.11799999999998,2.451999999999984,36.11799999999998,holds',
        ),
    ),
    'prop-1.4': (
        '2', '3',
        (([1.0, 3.0], [0.5, 3.0]), ([3.0], [1.0]), ([2.3, 0.7, 1.9], [2.1, 0.1, 0.0])),
        (
            'prop-1.4,0,2.0,3.0,175.77666001388465,236.68818526981323,60.91152525592858,236.68818526981323,holds',
            'prop-1.4,1,2.0,3.0,58.0,72.0,14.0,72.0,holds',
            'prop-1.4,2,2.0,3.0,94.71782614494279,122.75129785378775,28.033471708844957,122.75129785378775,holds',
        ),
    ),
    'cor-1.6': (
        '2', '3.5',
        (([1.0], [0.5]), ([3.0], [3.0]), ([2.25], [0.0])),
        (
            'cor-1.6,0,3.5,3.5,2.5,4.221902288594931,1.721902288594931,4.221902288594931,holds',
            'cor-1.6,1,3.5,3.5,358.07563582930266,529.0897844411664,171.0141486118638,529.0897844411664,holds',
            'cor-1.6,2,3.5,3.5,34.171875,34.171875,0.0,34.171875,borderline',
        ),
    ),
    'sumpow-2.12': (
        '2', '2.5',
        (([1.0, 2.0], [0.5, 3.0]), ([3.0], [1.0]), ([0.3, 0.7, 1.9], [2.1, 0.7, 0.0])),
        (
            'sumpow-2.12,0,2.5,2.5,38.50610876211029,41.882117688026185,3.3760089259158974,41.882117688026185,holds',
            'sumpow-2.12,1,2.5,2.5,16.588457268119896,16.588457268119896,0.0,16.588457268119896,borderline',
            'sumpow-2.12,2,2.5,2.5,27.440543149798405,48.889978805591475,21.44943565579307,48.889978805591475,holds',
        ),
    ),
    'rearr-2.17': (
        '2.5', '4',
        (([1.0, 2.0], [0.5, 3.0]), ([3.0], [1.0]), ([0.3, 0.7, 1.9], [2.1, 0.7, 0.0])),
        (
            'rearr-2.17,0,2.5,4.0,103.2348358417066,106.27997424305917,3.045138401352574,106.27997424305917,holds',
            'rearr-2.17,1,2.5,4.0,82.00000000000003,82.00000000000003,0.0,82.00000000000003,borderline',
            'rearr-2.17,2,2.5,4.0,36.491551686306174,52.005478645917165,15.513926959610991,52.005478645917165,holds',
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(VERIFY_ROWS))
def test_verify_rows_are_bit_exact(name, tmp_path, capsys):
    p, q, pairs, rows = VERIFY_ROWS[name]
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"pairs": [{"x": x, "y": y} for x, y in pairs]}))
    argv = ["verify", "--ineq", name, "--input", str(path), "--p", p]
    if q is not None:
        argv += ["--q", q]
    code = main(argv)
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert tuple(out[1:]) == rows
