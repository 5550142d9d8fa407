"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All sampling is seeded, through the package's block streams and
this file's own Philox draws, so every run checks the identical set of
inputs.
"""

import math
import time

import numpy as np
import pytest

from clarkson.catalog import InequalityId, TolerancePolicy, Verdict, evaluate
from clarkson.cli import main as cli_main
from clarkson.core import NonnegVector, RealVector, p_norm
from clarkson.rearrange import (
    brute_force_swap_oracle,
    dominance_rearrange,
    sum_power_rearrangement_gap,
)
from clarkson.search import (
    Constraint,
    Distribution,
    SampleSpec,
    SearchStatus,
    counterexample_search,
    sample_pair,
)
from clarkson.variational import (
    ChiContext,
    PhiContext,
    chi,
    chi_sign_scan,
    monotonicity_scan,
    phi,
    phi_prime,
    psi_prime,
)

POLICY = TolerancePolicy(rel_tol=1e-9, borderline_band=1e-7)
SEED = 20260823

PQ_GRID = [
    (p, q)
    for p in (2.0, 2.5, 3.0, 4.0, 6.0)
    for q in (2.0, 2.5, 3.0, 4.0, 6.0)
    if q >= p
]

DISTRIBUTIONS = (
    (Distribution.UNIFORM_01, 1.0),
    (Distribution.EXPONENTIAL_1, 1.0),
    (Distribution.SPARSE, 0.5),
)


def _report_line(number: int, name: str, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{status}] {name}")
    assert passed, f"criterion {number} ({name}) failed"


def _dominated_context(seed: int, index: int, dim=(1, 8)):
    spec = SampleSpec(dim_range=dim, constraint=Constraint.DOMINATED_PAIR)
    u, v, _ = sample_pair(spec, seed, index)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed ^ 0xD0), counter=index << 64))
    p = 2.0 + 3.0 * rng.random()
    q = p + 3.0 * rng.random()
    return PhiContext(u, v, p, q)


def test_criterion_01_main_extension_suite():
    """10^5 seeded nonneg pairs over the (p, q) grid: zero violations."""
    start = time.time()
    total = 0
    budget = 100_000 // (len(PQ_GRID) * len(DISTRIBUTIONS)) + 1
    ok = True
    for p, q in PQ_GRID:
        for dist, density in DISTRIBUTIONS:
            spec = SampleSpec(dim_range=(1, 16), distribution=dist, density=density)
            out = counterexample_search(
                InequalityId.MAIN_17, p, q, spec, budget,
                seed=SEED, policy=POLICY,
            )
            total += out.evaluations
            ok &= out.status is SearchStatus.NO_VIOLATION
    elapsed = time.time() - start
    print(f"  criterion 1: {total} evaluations in {elapsed:.1f} s")
    _report_line(1, "main-1.7: no violations on nonneg pairs", ok and total >= 100_000)


def test_criterion_02_dominated_bound_suite():
    """10^5 dominated pairs: no violations and lhs improvement over main-1.7."""
    budget = 100_000 // (len(PQ_GRID) * len(DISTRIBUTIONS)) + 1
    ok = True
    total = 0
    for p, q in PQ_GRID:
        for dist, density in DISTRIBUTIONS:
            spec = SampleSpec(
                dim_range=(1, 16), distribution=dist, density=density,
                constraint=Constraint.DOMINATED_PAIR,
            )
            for i in range(budget):
                u, v, w = sample_pair(spec, SEED, i)
                prop = evaluate(InequalityId.PROP_14, u, v, p, q, w, POLICY)
                main_rep = evaluate(InequalityId.MAIN_17, u, v, p, q, w, POLICY)
                total += 1
                if prop.verdict is Verdict.VIOLATED:
                    ok = False
                if prop.lhs < main_rep.lhs - 1e-12 * max(prop.lhs, 1.0):
                    ok = False
    _report_line(2, "prop-1.4: no violations, improved lhs", ok and total >= 100_000)


def test_criterion_03_classical_bounds_suite():
    """10^4 signed pairs across both regimes: the four classical bounds hold."""
    ps = (2.0, 2.5, 3.0, 4.0, 1.25, 1.5, 1.75)
    per_p = 10_000 // len(ps) + 1
    spec = SampleSpec(dim_range=(1, 16), constraint=Constraint.SIGNED)
    ok = True
    for p in ps:
        for i in range(per_p):
            x, y, w = sample_pair(spec, SEED + 1, i)
            reports = [
                evaluate(id, x, y, p, None, w, POLICY)
                for id in (InequalityId.C11, InequalityId.C12,
                           InequalityId.C13_LEFT, InequalityId.C13_RIGHT)
            ]
            if any(r.verdict is Verdict.VIOLATED for r in reports):
                ok = False
    _report_line(3, "classical bounds: both regimes, zero violations", ok)


def test_criterion_04_equality_cases():
    ok = True
    spec = SampleSpec(dim_range=(1, 12))
    for i in range(200):
        x, _, _ = sample_pair(spec, SEED + 2, i)
        zero = NonnegVector((0.0,) * len(x))
        for p, q in ((2.0, 2.0), (2.0, 3.5), (3.0, 6.0)):
            rep = evaluate(InequalityId.MAIN_17, x, zero, p, q, None, POLICY)
            if abs(rep.gap) > 1e-10 * rep.scale:
                ok = False
    for i in range(200):
        x, y, _ = sample_pair(spec, SEED + 3, i)
        rep = evaluate(InequalityId.MAIN_17, x, y, 2.0, 2.0, None, POLICY)
        if abs(rep.gap) > 1e-10 * rep.scale:
            ok = False
    def cor16(x, y, q):
        return evaluate(InequalityId.COR_16, NonnegVector((x,)), NonnegVector((y,)), q, q)

    ok &= cor16(1.0, 1.0, 2.0).gap == 0.0
    ok &= cor16(1.7, 0.0, 3.3).gap == pytest.approx(0.0, abs=1e-12)
    _report_line(4, "Equality cases: y=0 and p=q=2 and cor-1.6", ok)


def test_criterion_05_reduction_identity():
    spec = SampleSpec(dim_range=(1, 12))
    ok = True
    for i in range(1000):
        x, y, _ = sample_pair(spec, SEED + 4, i)
        for p in (2.0, 3.0, 4.5):
            main_rep = evaluate(InequalityId.MAIN_17, x, y, p, p, None, POLICY)
            left = evaluate(InequalityId.C13_LEFT, x, y, p, None, None, POLICY)
            scale = max(main_rep.scale, 1.0)
            if abs(main_rep.gap - left.gap) > 1e-12 * scale:
                ok = False
    _report_line(5, "Reduction identity: main-1.7 at p=q equals c-1.3-left", ok)


def test_criterion_06_phi_monotonicity_suite():
    ok = True
    rng = np.random.Generator(np.random.Philox(key=np.uint64(SEED + 5)))
    h = 1e-6
    for i in range(1000):
        ctx = _dominated_context(SEED + 5, i)
        report = monotonicity_scan(ctx, 257)
        if not report.is_nondecreasing:
            ok = False
        scale = max(abs(phi(ctx, 0.0)), abs(phi(ctx, 1.0)), 1.0)
        for _ in range(20):
            t = float(rng.uniform(2 * h, 1.0 - 2 * h))
            an = phi_prime(ctx, t)
            fd = (phi(ctx, t + h) - phi(ctx, t - h)) / (2.0 * h)
            if abs(an - fd) > 1e-4 * max(1.0, abs(an)):
                ok = False
            if an < -1e-10 * scale:
                ok = False
    _report_line(6, "phi: monotone scans and derivative checks", ok)


def test_criterion_07_endpoint_identity():
    ok = True
    for i in range(1000):
        ctx = _dominated_context(SEED + 6, i)
        rep = evaluate(InequalityId.PROP_14, ctx.u, ctx.v, ctx.p, ctx.q, None, POLICY)
        diff = phi(ctx, 1.0) - phi(ctx, 0.0)
        if abs(diff - rep.gap) > 1e-10 * max(rep.scale, 1.0):
            ok = False
    _report_line(7, "Endpoint identity: phi(1)-phi(0) equals prop-1.4 gap", ok)


def test_criterion_08_rearrangement_oracle():
    ok = True
    spec = SampleSpec(dim_range=(1, 10))
    for i in range(1000):
        x, y, _ = sample_pair(spec, SEED + 7, i)
        for r in (1.0, 1.5, 2.0, 3.0):
            rep = sum_power_rearrangement_gap(x, y, r)
            best = brute_force_swap_oracle(x, y, r)
            if abs(rep.rhs - best) > 1e-12 * max(abs(best), 1.0):
                ok = False
        pair = dominance_rearrange(x, y)
        for p in (2.0, 3.0):
            for sign in (1.0, -1.0):
                orig = p_norm(RealVector([a + sign * b for a, b in zip(x.entries, y.entries)]), p)
                rearr = p_norm(
                    RealVector([a + sign * b for a, b in zip(pair.u.entries, pair.v.entries)]), p)
                if abs(orig - rearr) > 1e-12 * max(orig, 1.0):
                    ok = False
    _report_line(8, "Rearrangement: brute-force oracle and interchange invariance", ok)


def _single_swap(A, a, B, b, r):
    """(A+a)^r + (B+b)^r >= (A+b)^r + (B+a)^r is sumpow-2.12 on x = (A, b), y = (B, a)."""
    return evaluate(InequalityId.SUMPOW_212, NonnegVector((A, b)), NonnegVector((B, a)), r, r)


def test_criterion_09_swap_inequality():
    ok = True
    rng = np.random.Generator(np.random.Philox(key=np.uint64(SEED + 8)))
    for _ in range(10_000):
        B = float(rng.uniform(0.0, 10.0))
        A = B + float(rng.uniform(0.0, 10.0))
        b = float(rng.uniform(0.0, 10.0))
        a = b + float(rng.uniform(1e-9, 10.0))
        r = float(rng.uniform(1.0, 6.0))
        rep = _single_swap(A, a, B, b, r)
        if rep.gap < -1e-12 * rep.scale:
            ok = False
    for A, B, a, b in ((3, 1, 2, 0), (5, 2, 4, 1), (9, 9, 3, 2)):
        rep = _single_swap(float(A), float(a), float(B), float(b), 1.0)
        if rep.gap != 0.0:
            ok = False
    for A, B, a, b, r in ((3, 1, 2, 0, 2.0), (5, 2, 4, 1, 3.0), (7, 3, 6, 2, 1.5)):
        rep = _single_swap(float(A), float(a), float(B), float(b), r)
        if not rep.gap > 0.0:
            ok = False
    _report_line(9, "single swap as sumpow-2.12: weak bound, exact r=1 zero, strict r>1", ok)


def test_criterion_10_chi_sign_change():
    ok = True
    witness = ChiContext(4.0 / 3.0, 4.0, 1.0)
    scan = chi_sign_scan(witness, 1001)
    ok &= scan.has_positive and scan.has_negative
    ok &= chi(witness, 0.1) < 0.0 < chi(witness, 0.5)
    flat = ChiContext(2.0, 2.0, 1.0)
    for k in range(1001):
        s = k / 1000.0
        if abs(chi(flat, s)) > 1e-12:
            ok = False
    for q in (3.0, 4.0):
        p = q / (q - 1.0)
        ctx = ChiContext(p, q, 0.85)
        for k in range(100):
            t = (k + 1) / 101.0
            lhs = psi_prime(ctx, t)
            rhs = chi(ctx, ctx.c * t)
            scale = max(abs(lhs), abs(rhs), 1.0)
            if abs(lhs - rhs) > 1e-10 * scale:
                ok = False
    _report_line(10, "chi: sign change witness and chain identity", ok)


def test_criterion_11_determinism(tmp_path, capsys):
    def run_capture(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        return code, out

    scan_args = ["scan", "--ineq", "main-1.7", "--p-grid", "2:3:1",
                 "--q-grid", "2:4:1", "--samples", "200", "--seed", "13"]
    _, scan1 = run_capture(scan_args)
    _, scan2 = run_capture(scan_args)
    _, scan3 = run_capture(scan_args + ["--workers", "4"])
    search_args = ["search", "--ineq", "main-1.7", "--p", "2", "--q", "3",
                   "--budget", "500", "--seed", "13"]
    _, search1 = run_capture(search_args)
    _, search2 = run_capture(search_args)
    _, search3 = run_capture(search_args + ["--workers", "3"])
    ok = scan1 == scan2 == scan3 and search1 == search2 == search3
    _report_line(11, "Determinism: byte-identical reruns across worker counts", ok)
