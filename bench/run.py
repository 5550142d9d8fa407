"""clarkson benchmark: run one seeded workload, time it, check it, print JSON.

Run from the repository root:

    python3 bench/run.py --workload search-small-n --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(items_per_s, setup_s, peak_rss_mb, checks_ok_frac); with ``--trace 1``
it carries the per-layer metrics of a traced run.  See bench/NOTES.md
for the workloads, the metrics and the tracing layout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("search-small-n", "scan-long-n", "extremal-descent", "machinery-probe")

# Set-up launches per run: half before the timed rounds and half after
# the checks, so the median spans the run rather than one moment of it.
SETUP_SAMPLES = 8

# The shared host's speed drifts by up to a factor of two over seconds.
# A fixed loop of the same kind of work as the workloads (small numpy
# draws, tuples of floats, math.fsum) is timed between rounds, and each
# round's rate is scaled by how much slower than its reference time that
# loop ran around it; items_per_s is thus the rate at the reference speed.
# CALIB_REF_S is the loop's median time on the machine in bench/NOTES.md.
CALIB_ITERS = 600
CALIB_REF_S = 0.016
# Benchmark seeds below this offset are development seeds; every run also
# checks its seed plus the offset, a seed never used while writing the
# benchmark, so later claims can be confirmed on held-out inputs.
HELD_OUT_OFFSET = 1_000_003


def round_seed(seed: int, k: int) -> int:
    """CLI seed of round k (round 0 is the warm-up round)."""
    return seed * 1_000_000 + k


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    return args


def measure_setup(samples: int, warm_up: bool) -> list:
    """Seconds from process launch to clarkson imported and parser built."""
    times = []
    for i in range(samples + warm_up):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC)],
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i or not warm_up:  # a first launch may compile bytecode; users pay that once
            times.append(float(proc.stdout.split()[-1]) - t0)
    return times


def calibration_s() -> float:
    import numpy as np

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_ITERS):
        draws = np.random.Generator(np.random.Philox(key=i)).random(8)
        acc += math.fsum(abs(x) ** 2.5 for x in tuple(float(v) for v in draws))
    return time.perf_counter() - t0


def timed_round(workload, cli_seed: int):
    t0 = time.perf_counter()
    try:
        rnd = workload.run_round(cli_seed)
    except Exception as exc:  # a crashing round counts as failed items
        from workloads import Round

        rnd = Round(workload.nominal_items, [f"raised {exc!r}"], "")
    return rnd, time.perf_counter() - t0


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run rounds for `seconds`; in a traced run every round is run twice,
    untraced then traced, so the tracing overhead is paired by input."""
    import tracing

    warm, _ = timed_round(workload, round_seed(seed, 0))
    rounds, rates, raw_rates, overheads = [warm], [], [], []
    tracer = tracing.Tracer()
    traced_ns = 0
    calib = calibration_s()
    deadline = time.perf_counter() + seconds
    k = 1
    while time.perf_counter() < deadline:
        rnd, dt = timed_round(workload, round_seed(seed, k))
        calib_after = calibration_s()
        rounds.append(rnd)
        raw_rates.append(rnd.items / dt)
        rates.append(rnd.items / dt * (calib + calib_after) / (2 * CALIB_REF_S))
        calib = calib_after
        if trace:
            tracing.install(tracer)
            try:
                traced, dt_traced = timed_round(workload, round_seed(seed, k))
            finally:
                tracer.uninstall()
            rounds.append(traced)
            traced_ns += dt_traced * 1e9
            overheads.append(dt_traced / dt - 1.0)
        k += 1
    return warm, rounds, rates, raw_rates, overheads, tracer, traced_ns


def run_checks(workload, seed: int, warm):
    import workloads

    checks = []
    for label, s, first in (
        ("dev", round_seed(seed, 0), warm),
        ("held-out", round_seed(seed + HELD_OUT_OFFSET, 0), None),
    ):
        try:
            if first is None:
                first = workload.run_round(s)
            checks += workload.checks(label, s, first)
        except Exception as exc:
            checks.append(workloads.Check(f"{label}.checks-ran", False, f"raised {exc!r}"))
    return checks


# Per-layer metrics that are times; the others are counts and shares.
TIME_SUFFIXES = ("_us", "us_per_call", "_us_per_pair", "ns_per_entry", "self_s")


def per_layer(tracer, overheads, traced_ns):
    import tracing
    import workloads

    metrics = tracing.layer_metrics(tracer)
    # A layer this workload never reaches still gets a measured per-call
    # time, taken from tiny reference rounds of every workload; its counts
    # stay those of this workload.
    ref = tracing.install(tracing.Tracer())
    try:
        for name, make in workloads.FACTORIES.items():
            make(WORK, **workloads.REFERENCE_SIZES[name]).run_round(round_seed(0, 0))
    finally:
        ref.uninstall()
    ref_metrics = tracing.layer_metrics(ref)
    for name, value in metrics.items():
        if value == 0 and name.endswith(TIME_SUFFIXES):
            metrics[name] = ref_metrics[name]
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    metrics["trace.accounted_frac"] = tracer.main_thread_self_ns() / traced_ns
    return metrics


def write_trace(tracer, workload_name: str, seed: int) -> Path:
    calls, total, selfs, counters = tracer.merged()
    path = WORK / f"trace-{workload_name}-{seed}.json"
    doc = {
        "layers": {n: {"calls": calls[n], "total_ns": total[n], "self_ns": selfs[n]} for n in calls},
        "counters": dict(counters),
        "spans_fields": ["name", "parent", "start_ns", "end_ns", "thread"],
        "spans": tracer.spans(),
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clarkson" / "__init__.py").is_file():
        print(f"error: {SRC}/clarkson not found; run from the repository root", file=sys.stderr)
        return 2
    setup_times = [] if args.trace else measure_setup(SETUP_SAMPLES // 2, warm_up=True)

    sys.path.insert(0, str(SRC))
    import clarkson

    if Path(clarkson.__file__).resolve().parent != (SRC / "clarkson").resolve():
        print(f"error: imported clarkson from {clarkson.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    workload = workloads.FACTORIES[args.workload](WORK)

    warm, rounds, rates, raw_rates, overheads, tracer, traced_ns = measure(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = run_checks(workload, args.seed, warm)
    bad_rounds = [r for r in rounds if r.problems]
    detail = ""
    if bad_rounds:
        detail = f"{len(bad_rounds)} of {len(rounds)} rounds: " + "; ".join(bad_rounds[0].problems[:3])
    checks.append(workloads.Check("timed-rounds-ok", not bad_rounds, detail))

    failed_checks = [c for c in checks if not c.ok]
    unexpected = [c for c in failed_checks if not c.known_defect]
    failed_frac = len(failed_checks) / len(checks)
    attempted = sum(r.items for r in rounds)
    failed_items = sum(r.items for r in bad_rounds)

    for c in checks:
        status = "ok" if c.ok else ("FAIL (known defect)" if c.known_defect else "FAIL")
        print(f"check {status:<19} {args.workload}.{c.name} {c.detail}", file=sys.stderr)
        if not c.ok and c.known_defect:
            print(f"      {c.known_defect}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(tracer, overheads, traced_ns)
        calls, _, selfs, _ = tracer.merged()
        for name in sorted(selfs, key=selfs.get, reverse=True):
            print(f"self time {name:<32} {selfs[name] / traced_ns:7.2%} of traced wall, "
                  f"{calls[name]} calls", file=sys.stderr)
        path = write_trace(tracer, args.workload, args.seed)
        print(f"trace written to {path.relative_to(ROOT)}")
    else:
        setup_times += measure_setup(SETUP_SAMPLES - len(setup_times), warm_up=False)
        metrics = {
            "items_per_s": statistics.median(rates),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "checks_ok_frac": 1.0 - failed_frac,
        }
    units = {m["name"]: m["unit"] for m in _declared_metrics(args.trace)}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    print(f"{args.workload} seed={args.seed}: {len(rates)} timed rounds; unscaled items/s "
          f"median {statistics.median(raw_rates):.1f}, slowest round {min(raw_rates):.1f}; "
          f"{attempted} items attempted, {failed_items} failed")
    print(f"failed_frac = {failed_frac:.4f} ({len(failed_checks)} of {len(checks)} checks failed, "
          f"{len(failed_checks) - len(unexpected)} of them known defects)")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    result = {
        "correct": not unexpected and not failed_items,
        "attempted": attempted,
        "failed": failed_items,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _declared_metrics(trace: int):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
