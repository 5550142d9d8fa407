import json
import math
import re

import pytest

from clarkson import catalog, variational
from clarkson.catalog import Constraint, InequalityId
from clarkson.cli import MAX_GRID_CELLS, _parse_grid, _spec_from_args, build_parser, main
from clarkson.errors import DomainError
from clarkson.search import Distribution, SampleSpec


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_inline_pair_matches_library(self, capsys):
        code, out, _ = run(
            ["verify", "--ineq", "main-1.7", "--x", "1,1", "--y", "1,0",
             "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "ineq_id,pair,p,q,lhs,rhs,gap,scale,verdict"
        cells = lines[1].split(",")
        assert cells[0] == "main-1.7"
        assert float(cells[6]) == pytest.approx(4.523485638006569, rel=1e-12)

    @pytest.mark.parametrize("x, y", [("0.3,0.7", "-0.2,0.1"), ("-.3,0.7", "-2e-1,0.1")])
    def test_inline_vectors_may_start_with_a_minus(self, x, y, capsys):
        """argparse reads -0.2,0.1 as an option string; verify takes it as
        the value of --x or --y, as it takes --y=-0.2,0.1."""
        flags = ["--ineq", "c-1.1", "--p", "3"]
        want = run(["verify", *flags, f"--x={x}", f"--y={y}"], capsys)
        got = run(["verify", *flags, "--x", x, "--y", y], capsys)
        assert got == want
        assert got[0] == 0 and got[1].splitlines()[1].endswith(",holds")

    def test_negative_exponent_values(self, capsys):
        """A value after --p, --q or --c that starts like a negative number is
        that flag's value, so these exit 2 with the regime error."""
        code, _, err = run(["verify", "--ineq", "c-1.1", "--x", "1", "--y", "0", "--p", "-1e-3"],
                           capsys)
        assert code == 2 and err == "error: pair 0: conjugate exponent needs p > 1, got -0.001\n"
        code, _, err = run(["chi", "--p", "2", "--q", "3", "--c", "-1e-3"], capsys)
        assert code == 2 and err == "error: need 0 < c <= 1, got c=-0.001\n"

    @pytest.mark.parametrize("argv, flag, value, code, line", [
        (["scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--samples", "2", "--seed", "1"],
         "--q-grid", "-0:-0:1", 0, "main-1.7,2.0,0.0,0,skipped,0,1\n"),
        (["scan", "--ineq", "main-1.7", "--q-grid", "3:3:1", "--samples", "2", "--seed", "1"],
         "--p-grid", "-2:2:1", 0, "main-1.7,-2.0,3.0,0,skipped,0,1\n"),
        (["verify", "--ineq", "main-1.7", "--x", "1", "--y", "0", "--p", "2", "--q", "3"],
         "--rel-tol", "-1e-9",
         2, "error: rel_tol -1e-09, borderline_band 1e-07: need 0 < rel_tol <= borderline_band < inf\n"),
        (["search", "--ineq", "main-1.7", "--budget", "5", "--seed", "1"], "--band", "-1e-7",
         2, "error: rel_tol 1e-09, borderline_band -1e-07: need 0 < rel_tol <= borderline_band < inf\n"),
        (["search", "--ineq", "main-1.7", "--budget", "5", "--seed", "1", "--dist", "sparse"],
         "--density", "-5e-1", 2, "error: density must lie in (0, 1], got -0.5\n"),
    ], ids=["q-grid", "p-grid", "rel-tol", "band", "density"])
    def test_negative_grid_tolerance_and_density_values(self, argv, flag, value, code, line,
                                                        capsys):
        """A grid, tolerance or density value that starts like a negative
        number is that flag's value, as with --flag=value, so it reaches the
        grid parser, the regime skip or the flag's own range check."""
        want = run([*argv, f"{flag}={value}"], capsys)
        got = run([*argv, flag, value], capsys)
        assert got == want
        assert got[0] == code
        assert line in (got[1] if code == 0 else got[2]).splitlines(keepends=True)

    def test_file_input(self, tmp_path, capsys):
        doc = {"pairs": [{"x": [1.0, 1.0], "y": [1.0, 0.0]}]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 0
        assert "holds" in out

    def test_negative_entries_rejected(self, tmp_path, capsys):
        doc = {"pairs": [{"x": [1.0], "y": [-1.0]}]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            ["verify", "--ineq", "sumpow-2.12", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 2
        assert "index 0" in err

    def test_empty_pairs(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": []}))
        code, _, err = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 2
        assert "no input pairs" in err

    def test_malformed_json_file(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text('{"pairs": [{"x": [1.0], "y": [1.0]}')
        code, out, err = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read input file {path}: Expecting ")

    @pytest.mark.parametrize("to_file", [False, True])
    def test_error_leaves_no_partial_table(self, to_file, tmp_path, capsys):
        # pair 0 holds; pair 1 fails, and no row of pair 0 may be written
        doc = {"pairs": [{"x": [1, 2], "y": [0.5, 1]}, {"x": [1, 2, 3], "y": [1, 2]}]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        out_path = tmp_path / "out.csv"
        argv = ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"]
        code, out, err = run([*argv, "--out", str(out_path)] if to_file else argv, capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: pair 1: lengths 3 and 2 differ"]
        assert not out_path.exists()

    @pytest.mark.parametrize("field, value, message", [
        # a string used to be read character by character, "12" as (1.0, 2.0)
        ("x", "12", "expected a list of numbers, got '12'"),
        ("x", "1.5", "expected a list of numbers, got '1.5'"),
        ("w", "ab", "expected a list of numbers, got 'ab'"),
        ("y", [1.0, True], "expected a list of numbers, got [1.0, True]"),
        ("w", [False, 1.0], "expected a list of numbers, got [False, 1.0]"),
        ("x", [1.0, "2"], "expected a list of numbers, got [1.0, '2']"),
        ("x", {"0": 1.0}, "expected a list of numbers, got {'0': 1.0}"),
        ("x", [10**400, 1.0], "int too large to convert to float"),
    ])
    def test_vectors_must_be_lists_of_numbers(self, field, value, message, tmp_path, capsys):
        bad = {"x": [1.0, 1.0], "y": [1.0, 0.0], "w": None, field: value}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"x": [1, 1], "y": [1, 0]}, bad]}))
        code, out, err = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: bad pair at index 1: {message}"]

    def test_integer_entries_are_numbers(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"x": [1, 1], "y": [1, 0], "w": [1, 2]}]}))
        argv = ["verify", "--ineq", "main-1.7", "--p", "2", "--q", "3"]
        code, out, _ = run([*argv, "--input", str(path)], capsys)
        assert code == 0
        path.write_text(json.dumps({"pairs": [{"x": [1.0, 1.0], "y": [1.0, 0.0], "w": [1.0, 2.0]}]}))
        assert run([*argv, "--input", str(path)], capsys) == (0, out, "")

    @pytest.mark.parametrize("flags", [("--p", ","), ("--q", ","), ("--p", ""), ("--q", " , ")])
    def test_empty_exponent_list(self, flags, capsys):
        code, out, err = run(
            ["verify", "--ineq", "main-1.7", "--x", "1,1", "--y", "1,0",
             "--p", "2", "--q", "3", *flags],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: --p and --q each need at least one value"]

    @pytest.mark.parametrize("flag, text, blank", [
        ("--x", "1,,2", ""), ("--y", "0,1,", ""), ("--x", ",1,2", ""), ("--p", "2, ,3", " "),
        ("--q", "3,", "")])
    def test_blank_entry_beside_a_number_exits_2(self, flag, text, blank, capsys):
        # blank entries used to be skipped: --x 1,,2 --y 0,1, ran on (1, 2), (0, 1)
        flags = {"--x": "1,2", "--y": "0,1", "--p": "2", "--q": "3", flag: text}
        code, out, err = run(
            ["verify", "--ineq", "main-1.7", *(t for kv in flags.items() for t in kv)], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: cannot parse number list {text!r}: could not convert string to float: "
            f"{blank!r}"]

    @pytest.mark.parametrize("ineq", ["prop-1.4", "rearr-2.17", "sumpow-2.12"])
    def test_negative_entry_for_a_nonnegative_id(self, ineq, tmp_path, capsys):
        """evaluate applies the entry's constraint to the pairs verify reads."""
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"x": [1, 2], "y": [1, 0]},
                                              {"x": [1, 2], "y": [0, -1]}]}))
        base = ["verify", "--ineq", ineq, "--p", "2", "--q", "3"]
        for argv, pair in (([*base, "--x", "1,2", "--y", "0,-1"], 0),
                           ([*base, "--input", str(path)], 1)):
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert err.splitlines() == [f"error: pair {pair}: negative entry at index 1"]

    @pytest.mark.parametrize("command", [
        ["verify", "--ineq", "main-1.7", "--x", "1,1", "--y", "1,0", "--p", "2", "--q", "3"],
        ["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "3:4:1", "--samples", "5"],
        ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "5"],
    ])
    @pytest.mark.parametrize("flags", [
        ("--rel-tol", "0"), ("--rel-tol", "nan"), ("--rel-tol", "-1"), ("--band", "1e-12"),
        ("--band", "inf"), ("--band", "nan"),
    ])
    def test_bad_tolerance_is_a_usage_error(self, command, flags, capsys):
        code, out, err = run([*command, *flags], capsys)
        assert (code, out) == (2, "")
        [line] = err.splitlines()  # no traceback
        assert line.startswith("error: rel_tol ")
        assert line.endswith(": need 0 < rel_tol <= borderline_band < inf")

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text("{not json")
        code, _, err = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 2


class TestScan:
    def test_grid_and_regime_filter(self, capsys):
        code, out, _ = run(
            ["scan", "--ineq", "main-1.7", "--p-grid", "2:4:1", "--q-grid", "2:4:1",
             "--samples", "20", "--seed", "1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "ineq_id,p,q,n_samples,min_normalized_gap,violations,seed"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        skipped = [r for r in rows if r[4] == "skipped"]
        valid = [r for r in rows if r[4] != "skipped"]
        assert len(skipped) == 3
        assert len(valid) == 6
        assert all(r[5] == "0" for r in valid)

    def test_byte_identical_reruns(self, capsys):
        args = ["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "3:4:1",
                "--samples", "50", "--seed", "7"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        assert out1 == out2

    def test_bad_grid_syntax(self, capsys):
        code, _, err = run(
            ["scan", "--ineq", "main-1.7", "--p-grid", "2;4;1", "--q-grid", "2:4:1"],
            capsys,
        )
        assert code == 2


class TestParseGrid:
    def test_inclusive_of_stop(self):
        assert _parse_grid("2:4:0.5") == [2.0, 2.5, 3.0, 3.5, 4.0]
        assert _parse_grid("1:1:1") == [1.0]

    @pytest.mark.parametrize("text", [
        "nan:nan:1", "2:nan:1", "nan:3:1", "2:inf:1", "-inf:3:1", "2:3:inf", "2:3:nan",
    ])
    def test_non_finite_bounds_rejected(self, text):
        with pytest.raises(DomainError, match="must be finite"):
            _parse_grid(text)

    @pytest.mark.parametrize("text", ["1:2:1e-300", "0:1e300:1e-300", "1e300:1.7e308:1e300"])
    def test_value_count_capped(self, text):
        with pytest.raises(DomainError, match=f"more than {MAX_GRID_CELLS} values"):
            _parse_grid(text)

    def test_cap_is_inclusive(self):
        assert len(_parse_grid(f"1:{MAX_GRID_CELLS}:1")) == MAX_GRID_CELLS

    def test_overflow_rejected(self):
        # 1e308 + 8e307 is inf, and so is stop + step / 2, so the stop test never ends it
        with pytest.raises(DomainError, match="overflows to inf at index 1"):
            _parse_grid("1e308:1.7e308:8e307")

    def test_values_up_to_overflow_kept(self):
        # the ninth value is inf, past stop + step / 2, so the stop test ends the grid
        assert _parse_grid("1e308:1.7e308:1e307") == [1e308 + k * 1e307 for k in range(8)]

    @pytest.mark.parametrize("text, value", [
        ("1e300:1e300:1", 1e300), ("3:3:1e-20", 3.0), ("3:3:0.7", 3.0), ("-0:-0:1", 0.0),
        ("1.0000000000000002:1.0000000000000002:2.220446049250313e-16", 1.0000000000000002),
    ])
    def test_one_value_grid_at_any_step(self, text, value):
        got = _parse_grid(text)
        assert got == [value] and repr(got[0]) == repr(value)

    def test_one_value_grid_scans_one_row(self, capsys):
        code, out, _ = run(["scan", "--ineq", "c-1.1", "--p-grid", "3:3:1e-20", "--q-grid",
                            "2:2:1", "--samples", "5", "--seed", "1"], capsys)
        assert code == 0 and len(out.splitlines()) == 2

    @pytest.mark.parametrize("text", ["1:1.0000000000000002:1e-17", "1e16:10000000000000002:0.5"])
    def test_repeating_values_rejected(self, text):
        with pytest.raises(DomainError, match="repeats values: step .* is below"):
            _parse_grid(text)

    def test_repeating_grid_exits_2(self, capsys):
        code, out, err = run(["scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid",
                              "1:1.0000000000000002:1e-17", "--samples", "5"], capsys)
        assert (code, out) == (2, "")
        assert "step 1e-17" in err.splitlines()[-1]

    @pytest.mark.parametrize("text, message", [
        ("2:3:0", "step must be positive"), ("2:3:-inf", "step must be positive"),
        ("3:2:1", "is empty"), ("2:3", "start:stop:step"), ("a:3:1", "cannot parse"),
    ])
    def test_malformed_grids_rejected(self, text, message):
        with pytest.raises(DomainError, match=message):
            _parse_grid(text)


class TestSearch:
    def test_no_violation_exit_zero(self, capsys):
        code, out, _ = run(
            ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3",
             "--budget", "200", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "no-violation" in out

    def test_budget_zero(self, capsys):
        code, out, _ = run(
            ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3",
             "--budget", "0", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "budget-exhausted" in out

    @pytest.mark.parametrize("command", ["scan", "search"])
    def test_default_spec_flags_give_the_library_default(self, command):
        args = build_parser().parse_args(
            [command, "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid", "3:3:1"]
            if command == "scan" else [command, "--ineq", "main-1.7"])
        assert _spec_from_args(args) == SampleSpec()

    def test_extremal_with_only_zero_starts(self, capsys):
        # every start projects to no point, so nothing is evaluated
        code, out, _ = run(
            ["search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "3",
             "--dist", "sparse", "--density", "1e-12", "--nmin", "1", "--nmax", "3",
             "--budget", "100"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[:2] == ["status: budget-exhausted", "evaluations: 0"]

    def test_constraint_mismatch_without_explore(self, capsys):
        code, _, err = run(
            ["search", "--ineq", "prop-1.4", "--p", "2", "--q", "3",
             "--constraint", "signed", "--budget", "10", "--seed", "3"],
            capsys,
        )
        assert code == 2
        assert "prop-1.4 is stated for dominated inputs, got signed" in err
        assert "explore" not in err

    def test_witness_json(self, tmp_path, capsys):
        path = tmp_path / "witness.json"
        code, _, _ = run(
            ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3",
             "--budget", "100", "--seed", "3", "--out", str(path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert "pairs" in doc and doc["p"] == 2.0 and doc["q"] == 3.0
        assert doc["seed"] == 3

    def test_witness_to_stdout_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # stdout carries the key: value report, so "-" cannot name the witness
        monkeypatch.chdir(tmp_path)
        code, out, err = run(
            ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "5",
             "--out", "-"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: search --out needs a file path, not '-'"]
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("mode", ["counterexample", "extremal"])
    def test_q_rule_matches_verify(self, mode, capsys):
        """Without --q, search runs the c-1.x ids, which read p alone, and
        rejects every other id, as verify and the library do."""
        argv = ["search", "--mode", mode, "--p", "3", "--budget", "200", "--seed", "2"]
        for ineq in ("main-1.7", "cor-1.6"):
            assert run([*argv, "--ineq", ineq], capsys) == (
                2, "", f"error: {ineq} requires an explicit q\n")
        code, out, _ = run([*argv, "--ineq", "c-1.1"], capsys)
        assert code == 0
        gap, verdict = {"counterexample": ("6.820045916899886e-11", "borderline"),
                        "extremal": ("0.02411120241856876", "holds")}[mode]
        assert out == ("status: no-violation\nevaluations: 200\nseed: 2\n"
                       f"best_normalized_gap: {gap}\nbest_verdict: {verdict}\n")

    @pytest.mark.parametrize("command", [
        ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "300"],
        ["search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "3",
         "--budget", "300"],
        ["scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid", "3:3:1",
         "--samples", "3"],
    ])
    def test_seed_outside_64_bits_exits_2(self, command, capsys):
        # -1 used to run as 2**64 - 1, and 2**64 as 0
        for seed in (-1, 2**64, -(2**64)):
            assert run([*command, "--seed", str(seed)], capsys) == (
                2, "", f"error: seed must lie in [0, 2**64), got {seed}\n")
        assert run([*command, "--seed", str(2**64 - 1)], capsys)[0] == 0

    @pytest.mark.parametrize("command", [
        ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "0"],
        ["search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "3",
         "--budget", "0"],
        ["scan", "--ineq", "main-1.7", "--p-grid", "1:1:1", "--q-grid", "3:3:1"],
    ], ids=["budget-0", "extremal-budget-0", "every-cell-skipped"])
    def test_seed_checked_when_nothing_is_drawn(self, command, capsys):
        for seed in (-1, 2**64):
            assert run([*command, "--seed", str(seed)], capsys) == (
                2, "", f"error: seed must lie in [0, 2**64), got {seed}\n")

    def test_sample_index_outside_the_stream(self, capsys):
        """The p = 1 cell is skipped, so the first block drawn is 2**200 / 256
        = 2**192, past the last block a scan that finishes can reach: one
        error line, no traceback."""
        code, out, err = run(["scan", "--ineq", "main-1.7", "--p-grid", "1:2:1",
                              "--q-grid", "3:3:1", "--samples", str(2**200), "--seed", "1"],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"error: sample block must lie in [0, 2**192), got {2**192}\n"

    def test_seed_defaults_to_zero(self, capsys):
        argv = ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "300"]
        code, out, _ = run(argv, capsys)
        assert code == 0 and "seed: 0\n" in out
        assert run([*argv, "--seed", "0"], capsys) == (code, out, "")


    @pytest.mark.parametrize("seed", range(8))
    def test_dominated_extremal_uses_budget(self, seed, capsys):
        code, out, _ = run(
            ["search", "--mode", "extremal", "--ineq", "prop-1.4", "--constraint", "dominated",
             "--p", "2", "--q", "4", "--nmin", "8", "--nmax", "8", "--budget", "500",
             "--seed", str(seed)],
            capsys,
        )
        assert code == 0
        assert "evaluations: 500" in out
        assert math.isfinite(float(out.split("best_normalized_gap: ")[1].split()[0]))

    def test_extremal_violation_exits_1(self, capsys):
        # With a band of 1e-300 the descent's rounding noise below 0 is violated.
        code, out, _ = run(
            ["search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "4",
             "--nmin", "8", "--nmax", "8", "--budget", "4000", "--seed", "1",
             "--rel-tol", "1e-300", "--band", "1e-300"],
            capsys,
        )
        assert code == 1
        assert out.splitlines()[0] == "status: violation-found"
        assert out.splitlines()[-1] == "best_verdict: violated"


class TestConjugateRoundsToOne:
    """From p near 1e16 on, p/(p-1) is 1.0: c-1.1 and c-1.2 are out of
    range there.  verify printed violated (lhs 2.0, rhs 0.0) at 1e300."""

    @pytest.mark.parametrize("p", ["1e16", "1e300"])
    @pytest.mark.parametrize("argv", [
        ["verify", "--ineq", "c-1.1", "--x", "0.3,-0.7", "--y", "0.2,0.1"],
        ["search", "--ineq", "c-1.1", "--budget", "50", "--seed", "1"],
        ["search", "--mode", "extremal", "--ineq", "c-1.2", "--budget", "50", "--seed", "1"],
    ], ids=["verify", "search", "extremal"])
    def test_exits_2(self, argv, p, capsys):
        code, out, err = run([*argv, "--p", p], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"conjugate exponent of p = {float(p)} rounds to 1")

    @pytest.mark.parametrize("grid", ["1e16:2e16:1e16", "1e300:1e300:1e300"])
    def test_scan_skips_the_cells(self, grid, capsys):
        code, out, _ = run(["scan", "--ineq", "c-1.1", "--p-grid", grid, "--q-grid", "2:2:1",
                            "--samples", "5", "--seed", "1"], capsys)
        assert code == 0
        rows = out.splitlines()[1:]
        assert rows and all(row.split(",")[3:5] == ["0", "skipped"] for row in rows)


class TestErrorExits:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--ineq", "bogus", "--x", "1", "--y", "1"], "invalid choice: 'bogus'"),
            (["scan", "--ineq", "swap-2.8", "--p-grid", "2:3:1", "--q-grid", "2:3:1",
              "--samples", "5"], "invalid choice: 'swap-2.8'"),
            (["verify", "--ineq", "main-1.7", "--x", "1e200,1", "--y", "1e200,0",
              "--p", "2.5", "--q", "3"], "non-finite gap"),
            (["verify", "--ineq", "main-1.7", "--x", "1e200,1", "--y", "1e200,0",
              "--p", "2", "--q", "3"], "non-finite gap"),
            (["search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "3",
              "--weighted", "--budget", "10"], "weights"),
            (["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "3:4:1",
              "--samples", "-5"], "error: samples_per_cell must be at least 1, got -5"),
            (["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "3:4:1",
              "--samples", "0"], "error: samples_per_cell must be at least 1, got 0"),
            (["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "-1"],
             "error: budget must be nonnegative, got -1"),
            # float ** overflows (OverflowError) instead of giving inf
            *[(["verify", "--ineq", name, "--x", "1e200,2", "--y", "1e200,1", *pq],
               f"{name}: non-finite gap")
              for name, pq in (("prop-1.4", ("--p", "2.5", "--q", "3")),
                               ("rearr-2.17", ("--p", "2.5", "--q", "3")),
                               ("c-1.1", ("--p", "1.5")),
                               ("c-1.3-left", ("--p", "2.5")),
                               ("sumpow-2.12", ("--q", "3")))],
            (["verify", "--ineq", "c-1.3-right", "--x", "1e200,2", "--y", "2,1e200", "--p", "2"],
             "c-1.3-right: non-finite gap"),
            # x + y overflows: no entry is named, and x*x gives inf, not an exception
            (["verify", "--ineq", "main-1.7", "--x", "1e308,1", "--y", "1e308,1",
              "--p", "2", "--q", "3"],
             "error: pair 0: main-1.7: non-finite gap (lhs=inf, rhs=inf)"),
            # the order of the checks: the exponents before anything else
            *[(["verify", "--ineq", name, "--x", "3,1", "--y", "1,2,3", "--p", "0.5",
                "--q", "3"], f"error: pair 0: {message}")
              for name, message in (("c-1.1", "conjugate exponent needs p > 1, got 0.5"),
                                    ("main-1.7", "need 2 <= p <= q, got (0.5, 3.0)"),
                                    ("prop-1.4", "need 2 <= p <= q, got (0.5, 3.0)"),
                                    ("sumpow-2.12", "lengths 2 and 3 differ"),
                                    ("rearr-2.17", "need 2 <= p <= q, got (0.5, 3.0)"))],
            (["scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid", "nan:nan:1",
              "--samples", "5"], "must be finite"),
            (["scan", "--ineq", "main-1.7", "--p-grid", "1:200:1", "--q-grid", "1:200:1",
              "--samples", "1"], f"more than {MAX_GRID_CELLS}"),
            # non-finite exponents: nan fails no comparison, and 2 <= inf <= inf holds
            (["phi", "--u", "1,2", "--v", "0.5,1", "--p", "inf", "--q", "inf",
              "--grid-size", "3"], "need finite p and q, got (inf, inf)"),
            (["chi", "--p", "nan", "--q", "3", "--c", "0.5"], "need finite p and q"),
            (["chi", "--p", "1.5", "--q", "inf", "--c", "0.5"], "need finite p and q"),
            # a grid value that float ** overflows, or that is inf or nan, is an error
            (["phi", "--u", "1,2", "--v", "0.5,1", "--p", "2", "--q", "900"],
             "phi: non-finite value (overflow)"),
            (["phi", "--u", "1,1", "--v", "0.1,0.1", "--p", "2", "--q", "1000",
              "--grid-size", "2"], "phi: non-finite value -inf at 0.0"),
            (["chi", "--p", "1.5", "--q", "1020", "--c", "1"],
             "chi: non-finite value inf at 0.994"),
            # the grid size is checked before any point is evaluated
            (["chi", "--p", "1.5", "--q", "3", "--c", "0.5", "--grid-size", "100000000000000"],
             f"is more than {MAX_GRID_CELLS}"),
            (["phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4",
              "--grid-size", str(MAX_GRID_CELLS + 1)], f"is more than {MAX_GRID_CELLS}"),
            # non-finite exponents exit 2, never 1 (a violated row) or 0
            *[(["verify", "--ineq", name, "--x", "1,0.5", "--y", "0.5,0.25",
                "--p", "inf", "--q", "inf"], f"error: pair 0: {message}")
              for name, message in (("main-1.7", "need finite p and q, got (inf, inf)"),
                                    ("c-1.3-left", "need finite p, got inf"))],
            *[(["search", "--mode", mode, "--ineq", name, "--p", "inf", "--q", "inf",
                "--budget", "50"], f"error: {message}")
              for mode in ("extremal", "counterexample")
              for name, message in (("main-1.7", "need finite p and q, got (inf, inf)"),
                                    ("c-1.1", "need finite p, got inf"),
                                    ("sumpow-2.12", "need finite r, got inf"))],
            (["search", "--ineq", "cor-1.6", "--p", "2", "--q", "nan", "--nmax", "1",
              "--constraint", "dominated"], "error: need finite q, got nan"),
            # search gives verify's regime messages
            (["search", "--ineq", "main-1.7", "--p", "3", "--q", "2"],
             "error: need 2 <= p <= q, got (3.0, 2.0)"),
            (["search", "--ineq", "sumpow-2.12", "--q", "0.5"], "error: need r >= 1, got 0.5"),
            # one pair check for every id: equal lengths, then dominance where stated
            *[(["verify", "--ineq", ineq.value, "--x", "3,1", "--y", "1,2,0.5",
                "--p", "2.5", "--q", "3"], "error: pair 0: lengths 2 and 3 differ")
              for ineq in catalog.REGISTRY],
            (["verify", "--ineq", "prop-1.4", "--x", "1,2", "--y", "1,3", "--p", "2",
              "--q", "3"], "error: pair 0: dominance violated at index 1"),
            *[(["verify", "--ineq", "cor-1.6", "--x", x, "--y", y, "--q", "3"],
               f"error: pair 0: {message}")
              for x, y, message in (("2", "3", "dominance violated at index 0"),
                                    ("2", "1,0.5", "lengths 1 and 2 differ"),
                                    ("1,2", "2,1", "dominance violated at index 0"),
                                    ("2,1", "1,0.5", "cor-1.6 takes scalars (1-entry vectors)"))],
            (["verify", "--ineq", "main-1.7", "--p", "2", "--q", "3"],
             "error: verify needs --input or both --x and --y"),
            (["verify", "--ineq", "main-1.7", "--x", "a", "--y", "1", "--p", "2", "--q", "3"],
             "error: cannot parse number list 'a'"),
            (["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--nmin", "0"],
             "error: dim_range must satisfy 1 <= lo <= hi <= 64, got (0, 16)"),
            (["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--dist", "sparse",
              "--density", "0"], "error: density must lie in (0, 1], got 0.0"),
            (["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--dist", "bad"],
             "invalid choice: 'bad'"),
            (["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "3:4:1",
              "--samples", "5", "--constraint", "bad"], "invalid choice: 'bad'"),
            # both search modes reject a pair the statement cannot take
            *[(["search", "--ineq", "cor-1.6", "--mode", mode, "--constraint", "dominated",
                "--nmin", "2", "--nmax", "2", "--p", "2", "--q", "3", "--budget", "100"],
               "error: cor-1.6 takes scalars (1-entry vectors)")
              for mode in ("extremal", "counterexample")],
            # the weights rule is checked once a run, even when no sample is drawn:
            # every cell skipped, or a zero budget
            (["scan", "--ineq", "sumpow-2.12", "--p-grid", "1:1:1", "--q-grid", "0.5:0.5:1",
              "--weighted"], "error: sumpow-2.12 is stated without weights"),
            (["search", "--ineq", "sumpow-2.12", "--p", "2", "--q", "2", "--weighted",
              "--budget", "0"], "error: sumpow-2.12 is stated without weights"),
            # the grid-size minima are the library's
            (["phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4", "--grid-size", "1"],
             "error: grid_size must be >= 2, got 1"),
            (["scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid",
              "1e308:1.7e308:8e307"], "error: grid '1e308:1.7e308:8e307' overflows"),
        ],
    )
    def test_exit_2_with_error_line(self, argv, message, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        last = err.strip().splitlines()[-1]
        # argparse's own errors name the subcommand first
        assert last.startswith(("error:", f"clarkson {argv[0]}: error:")) and message in last

    @pytest.mark.parametrize("argv, flag, enum", [
        (["verify", "--ineq", "bogus", "--x", "1", "--y", "1"], "--ineq", InequalityId),
        (["scan", "--ineq", "swap-2.8", "--p-grid", "2:3:1", "--q-grid", "2:3:1"],
         "--ineq", InequalityId),
        (["search", "--ineq", "swap-2.8"], "--ineq", InequalityId),
        (["search", "--ineq", "main-1.7", "--dist", "gauss"], "--dist", Distribution),
        (["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "2:3:1",
          "--constraint", "positive"], "--constraint", Constraint),
    ])
    def test_invalid_choice_lists_every_choice(self, argv, flag, enum, capsys):
        """An unknown id, distribution or constraint exits 2 with argparse's
        error line, which names every valid value; only the quoting of the
        list differs between Python versions."""
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        last = err.strip().splitlines()[-1]
        bad = argv[argv.index(flag) + 1]
        assert f"argument {flag}: invalid choice: {bad!r}" in last
        listed = re.search(r"\(choose from (.*)\)$", last).group(1).split(", ")
        assert [name.strip("'") for name in listed] == [member.value for member in enum]

    @pytest.mark.parametrize("argv", [
        ["search", "--ineq", "cor-1.6", "--constraint", "dominated", "--nmax", "2",
         "--p", "2", "--q", "3", "--budget", "1", "--seed", "0"],
        ["search", "--ineq", "cor-1.6", "--constraint", "dominated", "--nmax", "2",
         "--p", "2", "--q", "3", "--budget", "100", "--seed", "0", "--mode", "extremal"],
        ["scan", "--ineq", "cor-1.6", "--p-grid", "2:2:1", "--q-grid", "3:3:1",
         "--constraint", "dominated", "--nmax", "3", "--samples", "1", "--seed", "5"],
    ], ids=["search-budget-1", "extremal-budget-100", "scan"])
    def test_cor_1_6_run_needs_one_entry_pairs(self, argv, capsys):
        """A cor-1.6 run that may draw a longer pair fails whatever its
        budget or seed, before it draws one."""
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (2, "", "error: cor-1.6 takes scalars (1-entry vectors)\n")

    def test_scan_names_the_overflowing_cell(self, capsys):
        code, out, err = run(["scan", "--ineq", "c-1.1", "--p-grid", "2:3000:998", "--q-grid",
                              "2:2:1", "--samples", "20", "--seed", "1"], capsys)
        assert (code, out) == (2, "")
        assert err.strip().splitlines()[-1] == (
            "error: cell p=1998.0, q=2.0: c-1.1: non-finite gap (overflow)")

    def test_crash_exits_2_not_1(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(catalog, "evaluate", crash)
        code, _, err = run(["verify", "--ineq", "main-1.7", "--x", "1", "--y", "1",
                            "--p", "2", "--q", "3"], capsys)
        assert code == 2
        assert err.startswith("Traceback (most recent call last):")
        assert err.strip().splitlines()[-1] == "error: internal error: RuntimeError: boom"

    @pytest.mark.parametrize("x, y, w, message", [
        ([1.0, 2.0], [3.0, 1.0, 2.0], [1.0, 2.0, 3.0], "weights length 3 != vector length 2"),
        # y is checked against the weights before x against y
        ([1.0, 2.0], [3.0, 1.0, 2.0], [1.0, 2.0], "weights length 2 != vector length 3"),
        ([1e308, 2.0], [1e308, 1.0], [0.5, 2.0], "main-1.7: non-finite gap (lhs=inf, rhs=inf)"),
    ])
    def test_weighted_input_errors(self, x, y, w, message, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"x": x, "y": y, "w": w}]}))
        code, _, err = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 2
        assert err.strip().splitlines()[-1] == f"error: pair 0: {message}"

    @pytest.mark.parametrize("x, y, w, message", [
        # the weights are checked before the lengths and the dominance
        ([1.0, 2.0], [3.0, 1.0, 2.0], [1.0, 2.0, 3.0], "weights length 3 != vector length 2"),
        ([1.0, 2.0], [3.0, 1.0], [1.0, 2.0, 3.0], "weights length 3 != vector length 2"),
        ([1.0, 2.0], [3.0, 1.0, 2.0], [1.0, 2.0], "weights length 2 != vector length 3"),
        ([2.0, 2.0], [1.0, 3.0], [1.0, 2.0], "dominance violated at index 1"),
    ])
    def test_dominated_weighted_input_errors(self, x, y, w, message, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"x": x, "y": y, "w": w}]}))
        code, _, err = run(
            ["verify", "--ineq", "prop-1.4", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 2
        assert err.strip().splitlines()[-1] == f"error: pair 0: {message}"

    @pytest.mark.parametrize("pair, message", [
        ({"x": [1.0, 2.0]}, "missing key 'y'"),
        ({"y": [1.0, 2.0], "w": None}, "missing key 'x'"),
        ([[1.0, 2.0], [0.5, 1.0]],
         "expected an object with x and y, got [[1.0, 2.0], [0.5, 1.0]]"),
        ("x", "expected an object with x and y, got 'x'"),
        (None, "expected an object with x and y, got None"),
    ])
    def test_malformed_pair_errors(self, pair, message, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [pair]}))
        code, out, err = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: bad pair at index 0: {message}"]

    @pytest.mark.parametrize("argv", [
        ["verify", "--ineq", "main-1.7", "--x", "1,1", "--y", "1,0", "--p", "2", "--q", "3"],
        ["scan", "--ineq", "main-1.7", "--p-grid", "2:2:1", "--q-grid", "3:3:1",
         "--samples", "5"],
        ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "5"],
        ["phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4", "--grid-size", "3"],
        ["chi", "--p", "2", "--q", "2", "--c", "1", "--grid-size", "3"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out"
        code, out, err = run(argv + ["--out", str(path)], capsys)
        assert code == 2
        # search writes its witness before it prints its report
        assert out == ""
        assert err.splitlines() == [
            f"error: cannot write output file {path}: "
            f"[Errno 2] No such file or directory: '{path}'"
        ]

    def test_zero_weight_in_verify(self, tmp_path, capsys):
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"pairs": [{"x": [2, 1], "y": [1, 0], "w": [1, 0]}]}))
        code, out, err = run(
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: bad pair at index 0: weight at index 1 is not positive, got 0.0\n"

    def test_weights_rejected_in_verify(self, tmp_path, capsys):
        doc = {"pairs": [{"x": [2.0, 0.0], "y": [0.0, 1.0], "w": [1.0, 2.0]}]}
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            ["verify", "--ineq", "sumpow-2.12", "--input", str(path), "--q", "3"], capsys
        )
        assert code == 2
        assert "without weights" in err


class TestPhi:
    def test_constant_phi_for_zero_v(self, capsys):
        code, out, _ = run(
            ["phi", "--u", "1,2", "--v", "0,0", "--p", "2", "--q", "3",
             "--grid-size", "9"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        values = {line.split(",")[1] for line in lines[1:-1]}
        assert len(values) == 1
        assert "is_nondecreasing=true" in lines[-1]

    def test_dominance_violation(self, capsys):
        code, _, err = run(
            ["phi", "--u", "1,1", "--v", "2,1", "--p", "2", "--q", "3"],
            capsys,
        )
        assert code == 2

    def test_nondecreasing_footer(self, capsys):
        code, out, _ = run(
            ["phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4",
             "--grid-size", "33"],
            capsys,
        )
        assert code == 0
        assert "is_nondecreasing=true" in out

    def test_largest_grid_accepted(self, capsys):
        code, out, _ = run(
            ["phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4",
             "--grid-size", str(MAX_GRID_CELLS)],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == MAX_GRID_CELLS + 2

    def test_each_grid_point_evaluated_once(self, monkeypatch, capsys):
        points = {"phi": 0, "phi_prime": 0}

        def counting(name, evaluate):
            def wrapped(ctx, ts):
                points[name] += len(ts)
                return evaluate(ctx, ts)
            return wrapped

        monkeypatch.setattr(variational, "_phi_values", counting("phi", variational._phi_values))
        monkeypatch.setattr(variational, "_phi_prime_values",
                            counting("phi_prime", variational._phi_prime_values))
        code, _, _ = run(
            ["phi", "--u", "2,1", "--v", "1,1", "--p", "2", "--q", "4", "--grid-size", "33"],
            capsys,
        )
        assert code == 0
        assert points == {"phi": 33, "phi_prime": 31}


class TestChi:
    def test_flat_case(self, capsys):
        code, out, _ = run(
            ["chi", "--p", "2", "--q", "2", "--c", "1", "--grid-size", "21"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        for line in lines[1:-1]:
            assert abs(float(line.split(",")[1])) <= 1e-12
        assert "sign_changes=none" in lines[-1]

    def test_sign_change_witness(self, capsys):
        code, out, _ = run(
            ["chi", "--p", str(4.0 / 3.0), "--q", "4", "--c", "1",
             "--grid-size", "1001"],
            capsys,
        )
        assert code == 0
        footer = out.strip().split("\n")[-1]
        assert "has_positive=true" in footer
        assert "has_negative=true" in footer
        assert "sign_changes=none" not in footer

    def test_bad_c(self, capsys):
        code, _, _ = run(
            ["chi", "--p", "2", "--q", "4", "--c", "1.5", "--grid-size", "11"],
            capsys,
        )
        assert code == 2

    def test_grid_too_coarse(self, capsys):
        code, _, err = run(
            ["chi", "--p", "2", "--q", "4", "--c", "1", "--grid-size", "2"],
            capsys,
        )
        assert code == 2
        assert err.strip().splitlines()[-1] == "error: grid_size must be >= 3, got 2"

    def test_largest_grid_accepted(self, capsys):
        code, out, _ = run(
            ["chi", "--p", "1.5", "--q", "3", "--c", "0.5", "--grid-size", str(MAX_GRID_CELLS)],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == MAX_GRID_CELLS + 2

    def test_each_grid_point_evaluated_once(self, monkeypatch, capsys):
        points = []
        real = variational._chi_values
        monkeypatch.setattr(variational, "_chi_values",
                            lambda ctx, ss: points.append(len(ss)) or real(ctx, ss))
        code, _, _ = run(["chi", "--p", "1.5", "--q", "3", "--c", "0.5", "--grid-size", "41"],
                         capsys)
        assert code == 0
        assert points == [41]

    def test_last_point_is_c(self, capsys):
        # c * 6 / 6 rounds one ulp above c; the table used to stop there with exit 2
        code, out, _ = run(
            ["chi", "--p", "2", "--q", "2", "--c", "0.8038921141728734", "--grid-size", "7"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[-2] == "0.8038921141728734,0.0"


class TestParserReuse:
    SCAN = ["scan", "--ineq", "rearr-2.17", "--p-grid", "2:3:0.5", "--q-grid", "3:4:1",
            "--nmin", "4", "--nmax", "9", "--samples", "30", "--seed", "5"]
    SEARCH = ["search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3.7", "--budget", "300"]

    def fresh(self, argv, capsys):
        build_parser.cache_clear()
        return run(argv, capsys)

    def test_back_to_back_calls_equal_fresh_runs(self, capsys):
        """One parser serves every call; each call still reads its own seed."""
        seeded = [[*self.SEARCH, "--seed", "11"], [*self.SEARCH, "--seed", "12"]]
        want = [self.fresh(self.SCAN, capsys), *(self.fresh(argv, capsys) for argv in seeded)]
        assert "seed: 11" in want[1][1] and "seed: 12" in want[2][1]

        build_parser.cache_clear()
        got = [run(self.SCAN, capsys)]
        parser = build_parser()
        got += [run(argv, capsys) for argv in seeded]
        assert build_parser() is parser
        assert got == want


class TestHelp:
    @pytest.mark.parametrize("command, flags", [
        ("verify", ["--ineq"]),
        ("scan", ["--ineq", "--dist", "--constraint"]),
        ("search", ["--ineq", "--dist", "--constraint"]),
    ])
    def test_help_names_every_choice(self, command, flags, capsys):
        code, out, _ = run([command, "--help"], capsys)
        assert code == 0
        enums = {"--ineq": InequalityId, "--dist": Distribution, "--constraint": Constraint}
        for flag in flags:
            assert f"{flag} {{{','.join(m.value for m in enums[flag])}}}" in out
