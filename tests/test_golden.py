"""Literal output of seeded CLI commands, pinned byte for byte.

Every sample is a pure function of the seed, and every printed number
comes from the scalar evaluation, so a change to how pairs are built or
evaluated that moves one bit of one gap shows here.  The witness file,
where a command writes one, is pinned too; WITNESS in an argv stands for
its path.  The `phi` and `chi` tables of the README examples are long, so
their stdout lives in `tests/golden/`, as do the extremal witness files.
"""

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
            "best_normalized_gap: 6.698712965658292e-06\n"
            "best_verdict: holds\n"
        ),
        None,
        id="extremal main-1.7, the extremal-descent flags at budget 500",
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
            "best_normalized_gap: 9.464984351793039e-12\n"
            "best_verdict: borderline\n"
        ),
        None,
        id="dominated extremal prop-1.4",
    ),
    pytest.param(
        [
            "search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2.5", "--q", "3",
            "--constraint", "signed", "--explore", "--nmin", "3", "--nmax", "5", "--budget",
            "400", "--seed", "2",
        ],
        0,
        (
            "status: no-violation\n"
            "evaluations: 400\n"
            "seed: 2\n"
            "best_normalized_gap: 1.7327086689114746e-08\n"
            "best_verdict: holds\n"
            "exploratory: true (constraint outside the stated regime)\n"
        ),
        None,
        id="signed exploratory extremal main-1.7",
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
            "best_normalized_gap: 7.997871856329599e-09\n"
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
            "best_normalized_gap: 8.059020112735977e-05\n"
            "best_verdict: holds\n"
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
            "evaluations: 300\n"
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
            "best_normalized_gap: 1.0134464580036084e-05\n"
            "best_verdict: holds\n"
        ),
        (
            "{\n"
            '  "pairs": [\n'
            "    {\n"
            '      "x": [\n'
            "        0.0028597199817772534\n"
            "      ],\n"
            '      "y": [\n'
            "        0.2929771668178879\n"
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
            "best_normalized_gap: 0.0021263622542216365\n"
            "best_verdict: holds\n"
        ),
        (
            "{\n"
            '  "pairs": [\n'
            "    {\n"
            '      "x": [\n'
            "        0.01317449739566956,\n"
            "        0.02129182394473461,\n"
            "        0.024262566930195684\n"
            "      ],\n"
            '      "y": [\n'
            "        0.6040805211529967,\n"
            "        0.171039369293166,\n"
            "        0.23988592046688817\n"
            "      ],\n"
            '      "w": [\n'
            "        0.8147833147432142,\n"
            "        0.8301893362969166,\n"
            "        0.9226742158384986\n"
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
            "rearr-2.17,2.0,2.0,40,-1.9375578935390168e-16,0,5\n"
            "rearr-2.17,2.0,3.0,40,0.04549904300484101,0,5\n"
            "rearr-2.17,2.5,2.0,0,skipped,0,5\n"
            "rearr-2.17,2.5,3.0,40,0.0,0,5\n"
            "rearr-2.17,3.0,2.0,0,skipped,0,5\n"
            "rearr-2.17,3.0,3.0,40,-1.693060069473285e-16,0,5\n"
        ),
        None,
        id="rearr-2.17 scan with p == q cells",
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
