"""The four benchmark workloads: how one round runs and how its output is checked.

A round is one call into clarkson's public entry points: one CLI
invocation for the three CLI workloads, one batch of pairs for the
library-level machinery probe.  The program sees only the CLI flags the
benchmark generates from its seed.  Round-level problems are collected
while timing; the heavier checks (reruns, replays, mpmath, worker-count
equality, the known-defect probe) run afterwards, outside the timed
region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from clarkson import cli, core, rearrange, variational
from clarkson.catalog import Verdict

import tracing

REL_TOL = 1e-9  # the CLI's default --rel-tol
BAND = 1e-7  # the CLI's default --band

# search._project renormalises x after the (max, min) re-pairing, so the
# projected pair is no longer dominated; eval_prop_1_4 then raises
# DominanceViolation, which the bare `except Exception` in score swallows.
# The search stops after its 8 starts with best gap inf and exit 0.  The
# check stays in the benchmark so that the fix shows as a drop in
# failed_frac on extremal-descent.  About 1 CLI seed in 20 escapes the
# defect and uses the whole budget, so with one probe seed the check's
# outcome, and checks_ok_frac, would depend on the benchmark seed.  The
# check runs the probe on several consecutive seeds and fails if any of
# them falls short: while the defect stands it fails for every benchmark
# seed, and once it is fixed it passes for every one.
PROP_14_PROBE_SEEDS = 8
PROP_14_DEFECT = (
    "known defect: search._project breaks dominance after renormalising x; "
    "score swallows the DominanceViolation"
)


@dataclass
class Round:
    items: int
    problems: List[str]
    stdout: str
    files: str = ""


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""
    known_defect: str = ""


@dataclass
class Workload:
    nominal_items: int
    run_round: Callable[[int], Round]
    checks: Callable[[str, int, Round], List[Check]]


def run_cli(argv: List[str]) -> Tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def parse_search(stdout: str) -> Dict[str, str]:
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)


def traced_round(workload: Workload, cli_seed: int) -> Tuple[Round, Dict[str, float]]:
    tracer = tracing.install(tracing.Tracer())
    try:
        rnd = workload.run_round(cli_seed)
    finally:
        tracer.uninstall()
    return rnd, tracing.layer_metrics(tracer)


def verdict_check(label: str, layers: Dict[str, float]) -> Check:
    bad = layers["catalog.verdict.violated"] + layers["catalog.verdict.nonfinite"]
    return Check(
        f"{label}.verdicts-finite-and-holding", bad == 0,
        f"violated={layers['catalog.verdict.violated']} "
        f"nonfinite={layers['catalog.verdict.nonfinite']} "
        f"of {layers['catalog.evaluate.calls']} evaluations",
    )


def common_checks(label: str, workload: Workload, cli_seed: int, first: Round):
    """Traced rerun of a round: its own problems, byte identity, verdict counts."""
    again, layers = traced_round(workload, cli_seed)
    same = (again.stdout, again.files) == (first.stdout, first.files)
    checks = [
        Check(f"{label}.round-ok", not again.problems, "; ".join(again.problems)),
        Check(f"{label}.rerun-byte-identical", same),
        verdict_check(label, layers),
    ]
    return again, layers, checks


# -- search-small-n ---------------------------------------------------------


def search_small_n(work_dir: Path, budget: int = 4000) -> Workload:
    witness = str(work_dir / "witness.json")
    p, q = "2.5", "3.7"

    def run_round(cli_seed: int) -> Round:
        code, out = run_cli([
            "search", "--ineq", "main-1.7", "--p", p, "--q", q, "--nmin", "1",
            "--nmax", "16", "--dist", "uniform", "--out", witness,
            "--budget", str(budget), "--seed", str(cli_seed),
        ])
        info = parse_search(out)
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if info.get("status") != "no-violation":
            problems.append(f"status {info.get('status')}")
        if info.get("evaluations") != str(budget):
            problems.append(f"evaluations {info.get('evaluations')} != {budget}")
        files = Path(witness).read_text(encoding="utf-8") if Path(witness).is_file() else ""
        return Round(budget, problems, out, files)

    def checks(label: str, cli_seed: int, first: Round) -> List[Check]:
        again, _, out = common_checks(label, wl, cli_seed, first)
        best = float(parse_search(again.stdout).get("best_normalized_gap", "nan"))
        code, csv_text = run_cli(
            ["verify", "--ineq", "main-1.7", "--input", witness, "--p", p, "--q", q]
        )
        rows = list(csv.DictReader(io.StringIO(csv_text)))
        gap = float(rows[0]["gap"]) if rows else math.nan
        scale = float(rows[0]["scale"]) if rows else math.nan
        out.append(Check(
            f"{label}.witness-replays-same-bits",
            code == 0 and len(rows) == 1 and gap / scale == best,
            f"verify gap/scale={gap / scale!r} search={best!r}",
        ))
        ref = mp_main_gap(Path(witness).read_text(encoding="utf-8"), float(p), float(q))
        agree = abs(gap - ref) <= REL_TOL * scale and (
            abs(ref) <= REL_TOL * scale or (gap > 0) == (ref > 0)
        )
        out.append(Check(
            f"{label}.witness-gap-matches-mpmath", agree,
            f"float gap={gap!r} mpmath gap={ref!r} scale={scale!r}",
        ))
        return out

    wl = Workload(budget, run_round, checks)
    return wl


def mp_main_gap(witness_json: str, p: float, q: float) -> float:
    """main-1.7 gap of the witness pair at 50 significant digits."""
    import json

    import mpmath

    pair = json.loads(witness_json)["pairs"][0]
    with mpmath.workdps(50):
        mp_p, mp_q = mpmath.mpf(p), mpmath.mpf(q)
        x = [mpmath.mpf(v) for v in pair["x"]]
        y = [mpmath.mpf(v) for v in pair["y"]]

        def norm_q(v):
            return mpmath.fsum(abs(t) ** mp_p for t in v) ** (mp_q / mp_p)

        lhs = 2 * (norm_q(x) + norm_q(y))
        rhs = norm_q([a + b for a, b in zip(x, y)]) + norm_q([a - b for a, b in zip(x, y)])
        return float(rhs - lhs)


# -- scan-long-n ------------------------------------------------------------


SCAN_CELLS, SCAN_SKIPPED = 45, 10


def scan_long_n(work_dir: Path, samples: int = 50) -> Workload:
    def argv(cli_seed: int, workers: int) -> List[str]:
        return [
            "scan", "--ineq", "rearr-2.17", "--p-grid", "2:4:0.5", "--q-grid", "2:6:0.5",
            "--nmin", "32", "--nmax", "64", "--dist", "sparse", "--density", "0.5",
            "--workers", str(workers), "--samples", str(samples), "--seed", str(cli_seed),
        ]

    def run_round(cli_seed: int, workers: int = 2) -> Round:
        code, out = run_cli(argv(cli_seed, workers))
        rows = list(csv.DictReader(io.StringIO(out)))
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if len(rows) != SCAN_CELLS:
            problems.append(f"{len(rows)} rows != {SCAN_CELLS}")
        live = [r for r in rows if r["min_normalized_gap"] != "skipped"]
        if len(rows) - len(live) != SCAN_SKIPPED:
            problems.append(f"{len(rows) - len(live)} skipped != {SCAN_SKIPPED}")
        for r in live:
            gap = float(r["min_normalized_gap"])
            if r["violations"] != "0" or not math.isfinite(gap) or gap < -BAND:
                problems.append(f"cell p={r['p']} q={r['q']}: gap {gap!r}, {r['violations']} violations")
        return Round(sum(int(r["n_samples"]) for r in rows), problems, out)

    def checks(label: str, cli_seed: int, first: Round) -> List[Check]:
        _, _, out = common_checks(label, wl, cli_seed, first)
        serial = run_round(cli_seed, workers=1)
        out.append(Check(f"{label}.workers-1-and-2-byte-identical", serial.stdout == first.stdout))
        return out

    wl = Workload((SCAN_CELLS - SCAN_SKIPPED) * samples, run_round, checks)
    return wl


# -- extremal-descent -------------------------------------------------------


def extremal_descent(work_dir: Path, budget: int = 4000, probe_budget: int = 500) -> Workload:
    dims = ["--p", "2", "--q", "4", "--nmin", "8", "--nmax", "8"]

    def run_round(cli_seed: int) -> Round:
        code, out = run_cli(["search", "--mode", "extremal", "--ineq", "main-1.7", *dims,
                             "--budget", str(budget), "--seed", str(cli_seed)])
        info = parse_search(out)
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        if info.get("status") != "no-violation":
            problems.append(f"status {info.get('status')}")
        if info.get("evaluations") != str(budget):
            problems.append(f"evaluations {info.get('evaluations')} != {budget}")
        if not math.isfinite(float(info.get("best_normalized_gap", "nan"))):
            problems.append(f"best gap {info.get('best_normalized_gap')}")
        return Round(int(info.get("evaluations", 0)), problems, out)

    def checks(label: str, cli_seed: int, first: Round) -> List[Check]:
        _, layers, out = common_checks(label, wl, cli_seed, first)
        swallowed = layers["search.extremal.swallowed_errors"]
        out.append(Check(f"{label}.no-swallowed-errors", swallowed == 0, f"{swallowed} swallowed"))
        stopped = []
        for probe_seed in range(cli_seed, cli_seed + PROP_14_PROBE_SEEDS):
            code, text = run_cli(["search", "--mode", "extremal", "--ineq", "prop-1.4",
                                  "--constraint", "dominated", *dims,
                                  "--budget", str(probe_budget), "--seed", str(probe_seed)])
            info = parse_search(text)
            if not (code == 0 and info.get("evaluations") == str(probe_budget)
                    and math.isfinite(float(info.get("best_normalized_gap", "nan")))):
                stopped.append(
                    f"seed {probe_seed}: exit {code}, status {info.get('status')}, "
                    f"evaluations {info.get('evaluations')}/{probe_budget}, "
                    f"best gap {info.get('best_normalized_gap')}"
                )
        out.append(Check(
            f"{label}.prop-1.4-dominated-extremal-uses-budget", not stopped,
            f"{len(stopped)} of {PROP_14_PROBE_SEEDS} seeds fell short"
            + (f"; first {stopped[0]}" if stopped else ""),
            known_defect=PROP_14_DEFECT,
        ))
        return out

    wl = Workload(budget, run_round, checks)
    return wl


# -- machinery-probe --------------------------------------------------------


PROBE_EXPONENTS = ((2.0, 3.0), (2.0, 4.0), (2.5, 3.7), (3.0, 6.0))
# Conjugate pairs (q/(q-1), q): chi changes sign on [0, c] for each.
PROBE_CHI = tuple((q / (q - 1.0), q, c) for q in (3.0, 4.0, 6.0) for c in (0.5, 0.85, 1.0))


def machinery_probe(work_dir: Path, pairs: int = 40) -> Workload:
    chi_contexts = [variational.ChiContext(*pqc) for pqc in PROBE_CHI]

    def run_round(cli_seed: int) -> Round:
        rng = np.random.default_rng(cli_seed)
        digest = hashlib.sha256()
        problems = []
        for i in range(pairs):
            n = int(rng.integers(8, 15))
            x = core.NonnegVector(tuple(rng.random(n)))
            y = core.NonnegVector(tuple(rng.random(n)))
            p, q = PROBE_EXPONENTS[i % len(PROBE_EXPONENTS)]
            r = q / p
            pair = rearrange.dominance_rearrange(x, y)
            best = rearrange.brute_force_swap_oracle(x, y, r)
            gap = rearrange.sum_power_rearrangement_gap(x, y, r)
            mono = variational.monotonicity_scan(variational.PhiContext(pair.u, pair.v, p, q), 257)
            signs = variational.chi_sign_scan(chi_contexts[i % len(chi_contexts)], 1001)
            if abs(gap.rhs - best) > 1e-12 * max(abs(best), 1.0):
                problems.append(f"oracle: pair {i} max {best!r} != re-paired {gap.rhs!r}")
            if not math.isfinite(gap.gap) or gap.verdict is Verdict.VIOLATED:
                problems.append(f"sumpow: pair {i} gap {gap.gap!r} {gap.verdict.value}")
            if not mono.is_nondecreasing:
                problems.append(f"phi: pair {i} min increment {mono.min_increment!r}")
            if not (signs.has_positive and signs.has_negative and signs.sign_change_intervals):
                problems.append(f"chi: context {i % len(chi_contexts)} has no sign change")
            digest.update(repr((best, gap.gap, mono.min_increment,
                                signs.sign_change_intervals)).encode())
        return Round(pairs, problems, digest.hexdigest())

    def checks(label: str, cli_seed: int, first: Round) -> List[Check]:
        again, _ = traced_round(wl, cli_seed)
        out = [
            Check(f"{label}.{kind}-ok", not bad, "; ".join(bad[:3]))
            for kind in ("oracle", "sumpow", "phi", "chi")
            for bad in [[m for m in again.problems if m.startswith(kind + ":")]]
        ]
        out.append(Check(f"{label}.rerun-identical", again.stdout == first.stdout))
        return out

    wl = Workload(pairs, run_round, checks)
    return wl


FACTORIES = {
    "search-small-n": search_small_n,
    "scan-long-n": scan_long_n,
    "extremal-descent": extremal_descent,
    "machinery-probe": machinery_probe,
}

# Tiny rounds that reach every layer, used only to give a per-layer time
# to layers the traced workload itself never calls.
REFERENCE_SIZES = {
    "search-small-n": {"budget": 50},
    "scan-long-n": {"samples": 4},
    "extremal-descent": {"budget": 50},
    "machinery-probe": {"pairs": 2},
}
