import json
import math

import pytest

from clarkson import catalog
from clarkson.cli import build_parser, main


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
            ["verify", "--ineq", "main-1.7", "--input", str(path), "--p", "2", "--q", "3"],
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

    def test_constraint_mismatch_without_explore(self, capsys):
        code, _, err = run(
            ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3",
             "--constraint", "signed", "--budget", "10", "--seed", "3"],
            capsys,
        )
        assert code == 2

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


class TestErrorExits:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--ineq", "bogus", "--x", "1", "--y", "1"], "unknown inequality id"),
            (["scan", "--ineq", "swap-2.8", "--p-grid", "2:3:1", "--q-grid", "2:3:1",
              "--samples", "5"], "vector pair"),
            (["verify", "--ineq", "main-1.7", "--x", "1e200,1", "--y", "1e200,0",
              "--p", "2.5", "--q", "3"], "non-finite gap"),
            (["verify", "--ineq", "main-1.7", "--x", "1e200,1", "--y", "1e200,0",
              "--p", "2", "--q", "3"], "non-finite gap"),
            (["search", "--mode", "extremal", "--ineq", "main-1.7", "--p", "2", "--q", "3",
              "--weighted", "--budget", "10"], "weights"),
            (["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "3:4:1",
              "--samples", "-5"], "--samples"),
            (["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1", "--q-grid", "3:4:1",
              "--samples", "0"], "--samples"),
            (["search", "--ineq", "main-1.7", "--p", "2", "--q", "3", "--budget", "-1"],
             "--budget"),
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
        ],
    )
    def test_exit_2_with_error_line(self, argv, message, capsys):
        code, _, err = run(argv, capsys)
        assert code == 2
        last = err.strip().splitlines()[-1]
        assert last.startswith("error:") and message in last

    def test_crash_exits_2_not_1(self, monkeypatch, capsys):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(catalog, "evaluate", crash)
        code, _, err = run(["verify", "--ineq", "main-1.7", "--x", "1", "--y", "1",
                            "--p", "2", "--q", "3"], capsys)
        assert code == 2
        assert err.strip().splitlines()[-1] == "error: internal error: RuntimeError: boom"

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
        assert "grid too coarse" in err


class TestSeedEnvVar:
    def test_env_default_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("CLARKSON_SEED", "99")
        code, out, _ = run(
            ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3",
             "--budget", "50"],
            capsys,
        )
        assert code == 0
        assert "seed: 99" in out


class TestParserReuse:
    SCAN = ["scan", "--ineq", "rearr-2.17", "--p-grid", "2:3:0.5", "--q-grid", "3:4:1",
            "--nmin", "4", "--nmax", "9", "--samples", "30", "--seed", "5"]
    SEARCH = ["search", "--ineq", "main-1.7", "--p", "2.5", "--q", "3.7", "--budget", "300"]

    def fresh(self, argv, capsys):
        build_parser.cache_clear()
        return run(argv, capsys)

    def test_back_to_back_calls_equal_fresh_runs(self, capsys, monkeypatch):
        """One parser serves every call; each call still reads its own seed."""
        monkeypatch.setenv("CLARKSON_SEED", "11")
        want = [self.fresh(self.SCAN, capsys), self.fresh(self.SEARCH, capsys)]
        monkeypatch.setenv("CLARKSON_SEED", "12")
        want.append(self.fresh(self.SEARCH, capsys))
        assert "seed: 11" in want[1][1] and "seed: 12" in want[2][1]

        build_parser.cache_clear()
        got = [run(self.SCAN, capsys)]
        parser = build_parser()
        monkeypatch.setenv("CLARKSON_SEED", "11")
        got.append(run(self.SEARCH, capsys))
        monkeypatch.setenv("CLARKSON_SEED", "12")
        got.append(run(self.SEARCH, capsys))
        assert build_parser() is parser
        assert got == want
