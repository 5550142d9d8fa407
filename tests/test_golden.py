"""Literal output of seeded CLI commands, pinned byte for byte.

Every sample is a pure function of the seed, and every printed number
comes from the scalar evaluation, so a change to how pairs are built or
evaluated that moves one bit of one gap shows here.  The witness file,
where a command writes one, is pinned too; WITNESS in an argv stands for
its path.  The `phi` and `chi` tables of the README examples are long, so
their stdout lives in `tests/golden/`, as do the extremal witness files.
Each pinned extremal witness that `verify` accepts replays to its pinned
gap.
"""

import csv
import io
import json
from pathlib import Path

import pytest

from clarkson.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"


def _pinned(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


GOLDEN = [
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "4",
            "--nmin", "8", "--nmax", "8", "--budget", "500", "--seed", "4",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 500\n"
            "seed: 4\n"
            "best_normalized_gap: 0.0\n"
            "best_verdict: borderline\n"
        ),
        None,
        id="extremal main-1.7, the extremal-descent flags at budget 500",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "4",
            "--nmin", "8", "--nmax", "8", "--budget", "4000", "--seed", "1", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 4000\n"
            "seed: 1\n"
            "best_normalized_gap: -4.440892098500628e-16\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-descent-seed-1-witness.json"),
        # The full budget reaches the small steps, where the descent
        # revisits points it has already scored.
        id="the extremal-descent search at its full budget",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "prop-1.4", "--constraint", "dominated",
            "--p", "2", "--q", "6", "--nmin", "4", "--nmax", "4", "--budget", "4000",
            "--seed", "2", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 4000\n"
            "seed: 2\n"
            "best_normalized_gap: -6.661338147750939e-16\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-prop-1.4-dominated-witness.json"),
        id="dominated extremal prop-1.4 at a full budget",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "4",
            "--dist", "sparse", "--nmin", "8", "--nmax", "8", "--budget", "4000", "--seed", "1",
            "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 4000\n"
            "seed: 1\n"
            "best_normalized_gap: -4.440892098500628e-16\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-main-1.7-sparse-witness.json"),
        # The sparse starts have zero coordinates, so moves that the clamp
        # undoes come from the first sweep on.
        id="extremal main-1.7 from sparse starts at a full budget",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2.5", "--q", "3",
            "--constraint", "signed", "--nmin", "3", "--nmax", "5", "--budget",
            "4000", "--seed", "2", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 4000\n"
            "seed: 2\n"
            "best_normalized_gap: -3.3306690738754696e-16\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-main-1.7-signed-witness.json"),
        id="signed extremal main-1.7 at a full budget",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "prop-1.4", "--p", "2", "--q", "3",
            "--constraint", "dominated", "--nmin", "4", "--nmax", "6", "--budget", "300",
            "--seed", "1",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 300\n"
            "seed: 1\n"
            "best_normalized_gap: 2.2870594307277975e-14\n"
            "best_verdict: borderline\n"
        ),
        None,
        id="dominated extremal prop-1.4",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2.5", "--q", "3",
            "--constraint", "signed", "--nmin", "3", "--nmax", "5", "--budget",
            "400", "--seed", "2",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 400\n"
            "seed: 2\n"
            "best_normalized_gap: 8.722705998796065e-08\n"
            "best_verdict: holds\n"
        ),
        None,
        id="signed extremal main-1.7",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "c-1.1", "--p", "3", "--constraint",
            "signed", "--nmin", "2", "--nmax", "4", "--budget", "400", "--seed", "6",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 400\n"
            "seed: 6\n"
            "best_normalized_gap: 1.0847178699038299e-09\n"
            "best_verdict: holds\n"
        ),
        None,
        id="signed extremal c-1.1",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "3", "--q", "5",
            "--nmin", "2", "--nmax", "3", "--budget", "300", "--seed", "9", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 300\n"
            "seed: 9\n"
            "best_normalized_gap: 2.1938073575161804e-10\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-main-1.7-witness.json"),
        id="extremal main-1.7 with a witness file",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "cor-1.6", "--q", "3", "--constraint",
            "dominated", "--nmin", "1", "--nmax", "1", "--budget", "200", "--seed", "3",
            "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 200\n"
            "seed: 3\n"
            "best_normalized_gap: 0.0\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-cor-1.6-witness.json"),
        id="extremal cor-1.6 on one-entry pairs",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "sumpow-2.12", "--q", "2.5",
            "--constraint", "dominated", "--nmin", "2", "--nmax", "3", "--budget", "300",
            "--seed", "8", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 1\n"
            "seed: 8\n"
            "best_normalized_gap: 0.0\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-sumpow-2.12-witness.json"),
        id="dominated extremal sumpow-2.12",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "rearr-2.17", "--p", "2", "--q", "3",
            "--nmin", "2", "--nmax", "3", "--budget", "400", "--seed", "5", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 400\n"
            "seed: 5\n"
            "best_normalized_gap: 0.0\n"
            "best_verdict: borderline\n"
        ),
        _pinned("extremal-rearr-2.17-witness.json"),
        id="extremal rearr-2.17",
    ),
    pytest.param(
        [
            "search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3.7", "--nmin", "1",
            "--nmax", "16", "--budget", "1000", "--seed", "3", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 1000\n"
            "seed: 3\n"
            "best_normalized_gap: 5.529259009567911e-06\n"
            "best_verdict: holds\n"
        ),
        (
            "{\n"
            '  "pairs": [\n'
            "    {\n"
            '      "x": [\n'
            "        0.4997140727535043\n"
            "      ],\n"
            '      "y": [\n'
            "        0.0013416495077382962\n"
            "      ],\n"
            '      "w": null\n'
            "    }\n"
            "  ],\n"
            '  "p": 2.5,\n'
            '  "q": 3.7,\n'
            '  "seed": 3\n'
            "}\n"
        ),
        id="counterexample search with a witness file",
    ),
    pytest.param(
        [
            "search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3", "--nmin", "2", "--nmax",
            "5", "--weighted", "--budget", "500", "--seed", "2", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 500\n"
            "seed: 2\n"
            "best_normalized_gap: 0.008072829781438418\n"
            "best_verdict: holds\n"
        ),
        (
            "{\n"
            '  "pairs": [\n'
            "    {\n"
            '      "x": [\n'
            "        0.387210330229806,\n"
            "        0.46608944006181985\n"
            "      ],\n"
            '      "y": [\n'
            "        0.07047913539454909,\n"
            "        0.024771111929433598\n"
            "      ],\n"
            '      "w": [\n'
            "        0.6007469818541277,\n"
            "        0.7613256806998838\n"
            "      ]\n"
            "    }\n"
            "  ],\n"
            '  "p": 2.5,\n'
            '  "q": 3.0,\n'
            '  "seed": 2\n'
            "}\n"
        ),
        id="weighted main-1.7 search with a witness file",
    ),
    pytest.param(
        [
            "scan", "--ineq", "rearr-2.17", "--p-grid", "2:3:0.5", "--q-grid", "2:3:1",
            "--nmin", "8", "--nmax", "16", "--dist", "sparse", "--samples", "40", "--seed",
            "5",
        ],
        0,
        (
            "ineq_id,p,q,n_samples,min_normalized_gap,violations,seed\n"
            "rearr-2.17,2.0,2.0,40,0.0,0,5\n"
            "rearr-2.17,2.0,3.0,40,0.016508601995228505,0,5\n"
            "rearr-2.17,2.5,2.0,0,skipped,0,5\n"
            "rearr-2.17,2.5,3.0,40,0.002312877307248972,0,5\n"
            "rearr-2.17,3.0,2.0,0,skipped,0,5\n"
            "rearr-2.17,3.0,3.0,40,0.0,0,5\n"
        ),
        None,
        id="rearr-2.17 scan with p == q cells",
    ),
    pytest.param(
        [
            "scan", "--ineq", "rearr-2.17", "--p-grid", "2:4:0.5", "--q-grid", "2:6:0.5",
            "--nmin", "32", "--nmax", "64", "--dist", "sparse", "--density", "0.5",
            "--workers", "2", "--samples", "50", "--seed", "1",
        ],
        0,
        _pinned("scan-long-n-seed-1.csv"),
        None,
        # 45 rows: 5 with p == q, 10 skipped, and 8 cells (50 samples each)
        # that straddle a block boundary.
        id="the scan-long-n scan at 50 samples",
    ),
    pytest.param(
        [
            "search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3.7", "--nmin", "1",
            "--nmax", "16", "--budget", "4000", "--seed", "0", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 4000\n"
            "seed: 0\n"
            "best_normalized_gap: 1.1815731948278119e-06\n"
            "best_verdict: holds\n"
        ),
        _pinned("search-small-n-witness.json"),
        id="the search-small-n search over 16 blocks",
    ),
    pytest.param(
        [
            "search", "--ineq", "cor-1.6", "--q", "3", "--constraint", "dominated", "--nmin",
            "1", "--nmax", "1", "--budget", "4000", "--seed", "0", "--out", "WITNESS",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 4000\n"
            "seed: 0\n"
            "best_normalized_gap: 5.1332219364041975e-08\n"
            "best_verdict: holds\n"
        ),
        (
            "{\n"
            '  "pairs": [\n'
            "    {\n"
            '      "x": [\n'
            "        0.7517441006917227\n"
            "      ],\n"
            '      "y": [\n'
            "        0.00010668538456770627\n"
            "      ],\n"
            '      "w": null\n'
            "    }\n"
            "  ],\n"
            '  "p": 3.0,\n'
            '  "q": 3.0,\n'
            '  "seed": 0\n'
            "}\n"
        ),
        id="cor-1.6 search on one-entry pairs",
    ),
    pytest.param(
        [
            "scan", "--ineq", "cor-1.6", "--p-grid", "2:2:1", "--q-grid", "1:4.5:0.5",
            "--nmin", "1", "--nmax", "1", "--constraint", "dominated", "--samples", "300",
            "--seed", "3",
        ],
        0,
        (
            "ineq_id,p,q,n_samples,min_normalized_gap,violations,seed\n"
            "cor-1.6,2.0,1.0,0,skipped,0,3\n"
            "cor-1.6,2.0,1.5,0,skipped,0,3\n"
            "cor-1.6,2.0,2.0,300,-2.163512654850665e-16,0,3\n"
            "cor-1.6,2.0,2.5,300,4.617543058915707e-06,0,3\n"
            "cor-1.6,2.0,3.0,300,4.6150372436172977e-07,0,3\n"
            "cor-1.6,2.0,3.5,300,2.740941721896266e-05,0,3\n"
            "cor-1.6,2.0,4.0,300,1.2415767489188355e-05,0,3\n"
            "cor-1.6,2.0,4.5,300,1.6163537413013397e-07,0,3\n"
        ),
        None,
        # q < 2 is outside the regime; cells 2 to 7 cross block boundaries.
        id="cor-1.6 scan with skipped cells",
    ),
    pytest.param(
        ["phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4", "--grid-size", "257"],
        0,
        _pinned("phi-readme.csv"),
        None,
        id="the README phi table",
    ),
    pytest.param(
        ["chi", "--p", "1.3333333333333333", "--q", "4", "--c", "1", "--grid-size", "1001"],
        0,
        _pinned("chi-readme.csv"),
        None,
        id="the README chi table",
    ),
    pytest.param(
        ["phi", "--u", "3,2,1", "--v", "1,1,0.5", "--p", "3", "--q", "6", "--grid-size", "9"],
        0,
        (
            "t,phi,phi_prime,is_breakpoint_adjacent\n"
            "0.0,-38880.0,,false\n"
            "0.125,-38793.100034594536,1393.6656246185303,false\n"
            "0.25,-38529.96910858154,2825.9796752929688,false\n"
            "0.375,-38083.50017058849,4332.613969802856,false\n"
            "0.5,-37442.46826171875,5943.287109375,false\n"
            "0.625,-36592.46070563793,7678.7878704071045,false\n"
            "0.75,-35517.179374694824,9547.998596191406,false\n"
            "0.875,-34200.115032076836,11544.918588638306,false\n"
            "1.0,-32626.59375,,false\n"
            "summary,86.89996540546417,is_nondecreasing=true,\n"
        ),
        None,
        id="phi at p 3, q 6",
    ),
]


@pytest.mark.parametrize("argv, code, stdout, witness", GOLDEN)
def test_output_is_pinned(argv, code, stdout, witness, tmp_path, capsys):
    path = str(tmp_path / "witness.json")
    assert main([path if a == "WITNESS" else a for a in argv]) == code
    assert capsys.readouterr().out == stdout
    if witness is not None:
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == witness


@pytest.mark.parametrize("argv", [
    ["search", "--ineq", "cor-1.6", "--q", "3", "--budget", "100"],
    ["scan", "--ineq", "cor-1.6", "--p-grid", "2:2:1", "--q-grid", "1:3:1", "--samples", "30"],
], ids=["search", "scan"])
def test_cor_1_6_on_two_entry_pairs_is_pinned(argv, capsys):
    """Pairs of up to two entries: the first two-entry pair stops the run."""
    spec = ["--constraint", "dominated", "--nmin", "1", "--nmax", "2", "--seed", "0"]
    assert main(argv + spec) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: cor-1.6 takes scalars (1-entry vectors)\n"


EXTREMAL_WITNESSES = [
    pytest.param(param.values[0], param.values[2], param.values[3], id=param.id)
    for param in GOLDEN
    if param.values[0][:3] == ["search", "--mode", "extremal"]
    and param.values[3] is not None
]


@pytest.mark.parametrize("argv, stdout, witness", EXTREMAL_WITNESSES)
def test_extremal_witness_replays_to_the_printed_gap(argv, stdout, witness, tmp_path, capsys):
    """verify --input on a pinned extremal witness, at the witness's
    (p, q), gives gap / scale equal to the pinned best_normalized_gap
    bit for bit: the descent scores the pair it writes."""
    path = tmp_path / "witness.json"
    path.write_text(witness, encoding="utf-8")
    doc = json.loads(witness)
    ineq = argv[argv.index("--ineq") + 1]
    assert main(["verify", "--ineq", ineq, "--input", str(path),
                 "--p", repr(doc["p"]), "--q", repr(doc["q"])]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    replayed = float(rows[0]["gap"]) / float(rows[0]["scale"])
    assert f"best_normalized_gap: {replayed!r}\n" in stdout
