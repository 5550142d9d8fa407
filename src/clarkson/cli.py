"""Command-line front end: verify, scan, search, phi, chi.

Exit codes: 0 = all hold / no violation, 1 = violation found, 2 = usage,
input or internal error; the library checks every argument it takes.  CSV
cells use shortest round-trip decimal formatting so reruns with
identical flags and seed are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import re
import sys
from typing import List, Optional, Sequence

# search and variational are imported by the commands that run them, json
# and traceback where they are used: verify, phi, chi and --help start
# without what they do not run (tests/test_cold_start.py).
from . import catalog
from .catalog import DEFAULT_POLICY, Constraint, Distribution, InequalityId, TolerancePolicy
from .core import MAX_GRID_CELLS, NonnegVector, RealVector, Weights
from .errors import ClarksonError, DomainError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2


# argparse reads a value such as -0.2,0.1, -1e-3 or -0:-0:1 as an option
# string, not as a negative number.  No option starts with a digit, so main
# passes a token that starts with a minus and a digit, after a token that
# starts with --, as --flag=value.
_NEGATIVE_NUMBER = re.compile(r"-\.?\d")


def _attach_negative_values(argv: Sequence[str]) -> List[str]:
    out: List[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and _NEGATIVE_NUMBER.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _parse_floats(text: str) -> List[float]:
    """A comma-separated list; one made only of blanks and commas is empty."""
    if not text.replace(",", "").strip():
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise DomainError(f"cannot parse number list {text!r}: {exc}")


def _parse_grid(text: str) -> List[float]:
    """start:stop:step, inclusive of stop within half a step; finite, at most
    MAX_GRID_CELLS, no value twice.  start:start:step is [start] at any step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(tok) for tok in parts)
    except ValueError as exc:
        raise DomainError(f"cannot parse grid {text!r}: {exc}")
    if step <= 0:
        raise DomainError(f"grid step must be positive, got {step}")
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise DomainError(f"grid start, stop and step must be finite, got {text!r}")
    if start == stop:
        return [start + 0.0]  # -0.0 reads 0.0, as start + 0 * step does below
    out = []
    k = 0
    while True:
        val = start + k * step
        if val > stop + step / 2:
            break
        if val == math.inf:  # stop + step / 2 is inf too, so the test above never ends it
            raise DomainError(f"grid {text!r} overflows to inf at index {k}")
        if k == MAX_GRID_CELLS:
            raise DomainError(f"grid {text!r} has more than {MAX_GRID_CELLS} values")
        out.append(val)
        k += 1
    if not out:
        raise DomainError(f"grid {text!r} is empty")
    if len(set(out)) < len(out):
        raise DomainError(f"grid {text!r} repeats values: step {step!r} is below their float spacing")
    return out


def _numbers(value) -> list:
    """value, which must be a JSON list of numbers; booleans are not numbers."""
    if not isinstance(value, list) or any(
            isinstance(v, bool) or not isinstance(v, (int, float)) for v in value):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return value


def _load_pairs(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read input file {path}: {exc}")
    pairs = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(pairs, list) or not pairs:
        raise DomainError("no input pairs")
    out = []
    for i, item in enumerate(pairs):
        try:
            if not isinstance(item, dict):
                raise TypeError(f"expected an object with x and y, got {item!r}")
            x = RealVector(_numbers(item["x"]))
            y = RealVector(_numbers(item["y"]))
            w = None if item.get("w") is None else Weights(_numbers(item["w"]))
        except KeyError as exc:
            raise DomainError(f"bad pair at index {i}: missing key {exc}")
        except (TypeError, OverflowError, ClarksonError) as exc:
            raise DomainError(f"bad pair at index {i}: {exc}")
        out.append((x, y, w))
    return out


def _create(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise DomainError(f"cannot write output file {path}: {exc}")


@contextlib.contextmanager
def _table(path: Optional[str], header: Sequence[str]):
    """A CSV writer on path (stdout for None or "-"), header written."""
    out = sys.stdout if path is None or path == "-" else _create(path)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        yield writer
    finally:
        if out is not sys.stdout:
            out.close()


def _inline_pair(args):
    if args.x is None or args.y is None:
        return None
    return [(RealVector(_parse_floats(args.x)), RealVector(_parse_floats(args.y)), None)]


def cmd_verify(args) -> int:
    ineq = InequalityId(args.ineq)
    pairs = _inline_pair(args)
    if pairs is None:
        if args.input is None:
            raise DomainError("verify needs --input or both --x and --y")
        pairs = _load_pairs(args.input)
    ps = _parse_floats(args.p) if args.p is not None else [2.0]
    qs = _parse_floats(args.q) if args.q is not None else [None]
    if not (ps and qs):
        raise DomainError("--p and --q each need at least one value")
    policy = TolerancePolicy(args.rel_tol, args.band)
    # Every row is built before the table opens, so an error leaves no
    # partial output.
    reports = []
    for idx, (x, y, w) in enumerate(pairs):
        for p in ps:
            for q in qs:
                try:
                    reports.append((idx, catalog.evaluate(ineq, x, y, p, q, w, policy)))
                except ClarksonError as exc:
                    raise type(exc)(f"pair {idx}: {exc}") from exc
    header = ["ineq_id", "pair", "p", "q", "lhs", "rhs", "gap", "scale", "verdict"]
    with _table(args.out, header) as writer:
        for idx, rep in reports:
            writer.writerow(
                [rep.id.value, idx, repr(rep.p), repr(rep.q), repr(rep.lhs),
                 repr(rep.rhs), repr(rep.gap), repr(rep.scale), rep.verdict.value]
            )
    violated = any(rep.verdict is catalog.Verdict.VIOLATED for _, rep in reports)
    return EXIT_VIOLATION if violated else EXIT_OK


def _spec_from_args(args):
    from .search import SampleSpec

    return SampleSpec(
        dim_range=(args.nmin, args.nmax),
        distribution=Distribution(args.dist),
        constraint=Constraint(args.constraint),
        density=args.density,
        weights=args.weighted,
    )


def cmd_scan(args) -> int:
    from . import search

    ineq = InequalityId(args.ineq)
    p_grid = _parse_grid(args.p_grid)
    q_grid = _parse_grid(args.q_grid)
    spec = _spec_from_args(args)
    policy = TolerancePolicy(args.rel_tol, args.band)
    cells = search.scan_grid(ineq, p_grid, q_grid, spec, args.samples, args.seed, policy)
    header = ["ineq_id", "p", "q", "n_samples", "min_normalized_gap", "violations", "seed"]
    with _table(args.out, header) as writer:
        # A skipped cell has no samples and no violations.
        for cell in cells:
            writer.writerow(
                [ineq.value, repr(cell.p), repr(cell.q), cell.n_samples,
                 "skipped" if cell.skipped else repr(cell.min_normalized_gap),
                 cell.violations, args.seed]
            )
    return EXIT_VIOLATION if any(cell.violations for cell in cells) else EXIT_OK


def cmd_search(args) -> int:
    from . import search

    ineq = InequalityId(args.ineq)
    if args.out == "-":  # stdout carries the key: value report
        raise DomainError("search --out needs a file path, not '-'")
    spec = _spec_from_args(args)
    policy = TolerancePolicy(args.rel_tol, args.band)
    run = search.extremal_search if args.mode == "extremal" else search.counterexample_search
    outcome = run(ineq, args.p_value, args.q_value, spec, args.budget, args.seed, policy)
    # The witness is written first, so an unwritable --out prints nothing.
    if args.out and outcome.witness[0] is not None:
        import json

        x, y, p, qv, w = outcome.witness
        doc = {
            "pairs": [
                {
                    "x": list(x.entries),
                    "y": list(y.entries),
                    "w": list(w.masses) if w is not None else None,
                }
            ],
            "p": p,
            "q": qv,
            "seed": outcome.seed,
        }
        with _create(args.out) as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    print(f"status: {outcome.status.value}")
    print(f"evaluations: {outcome.evaluations}")
    print(f"seed: {outcome.seed}")
    if outcome.best_report is not None:
        print(f"best_normalized_gap: {outcome.normalized_gap!r}")
        print(f"best_verdict: {outcome.best_report.verdict.value}")
    if outcome.status is search.SearchStatus.VIOLATION_FOUND:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_phi(args) -> int:
    from . import variational

    u = NonnegVector(tuple(_parse_floats(args.u)))
    v = NonnegVector(tuple(_parse_floats(args.v)))
    ctx = variational.PhiContext(u, v, args.p_value, args.q_value)
    report = variational.monotonicity_scan(ctx, args.grid_size)
    # ctx is dominated, so phi has no breakpoint in (0, 1) and no row is
    # breakpoint-adjacent; phi_prime is defined at every inner point.
    inner = [t for t in report.grid if 0.0 < t < 1.0]
    derivs = iter(variational.phi_prime_values(ctx, inner))
    with _table(args.out, ["t", "phi", "phi_prime", "is_breakpoint_adjacent"]) as writer:
        for t, val in zip(report.grid, report.values):
            deriv = repr(next(derivs)) if 0.0 < t < 1.0 else ""
            writer.writerow([repr(t), repr(val), deriv, "false"])
        writer.writerow(
            ["summary", repr(report.min_increment),
             f"is_nondecreasing={str(report.is_nondecreasing).lower()}", ""]
        )
    return EXIT_OK


def cmd_chi(args) -> int:
    from . import variational

    ctx = variational.ChiContext(args.p_value, args.q_value, args.c)
    report = variational.chi_sign_scan(ctx, args.grid_size)
    with _table(args.out, ["s", "chi"]) as writer:
        for s, val in zip(report.grid, report.values):
            writer.writerow([repr(s), repr(val)])
        intervals = ";".join(f"({a!r},{b!r})" for a, b in report.sign_change_intervals)
        writer.writerow(
            ["summary",
             f"has_positive={str(report.has_positive).lower()}"
             f" has_negative={str(report.has_negative).lower()}"
             f" sign_changes={intervals or 'none'}"]
        )
    return EXIT_OK


def _add_tolerance_flags(sub):
    sub.add_argument("--rel-tol", type=float, default=DEFAULT_POLICY.rel_tol)
    sub.add_argument("--band", type=float, default=DEFAULT_POLICY.borderline_band)


def _add_spec_flags(sub):
    sub.add_argument("--nmin", type=int, default=1)
    sub.add_argument("--nmax", type=int, default=16)
    sub.add_argument("--dist", choices=[d.value for d in Distribution], default="uniform")
    sub.add_argument("--density", type=float, default=0.5,
                     help="nonzero density for the sparse distribution")
    sub.add_argument("--constraint", choices=[c.value for c in Constraint],
                     default="nonnegative")
    sub.add_argument("--weighted", action="store_true")
    sub.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; has no effect (runs are serial)")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on the first call and shared after that.

    Parsing leaves the parser unchanged, so main reuses it; callers must
    not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="clarkson",
        description="Verify and search Clarkson-type norm inequalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    ids = [i.value for i in InequalityId]

    pv = subs.add_parser("verify", help="evaluate inequalities on explicit pairs")
    pv.add_argument("--ineq", choices=ids, required=True)
    pv.add_argument("--input", help="JSON file {\"pairs\":[{\"x\":[...],\"y\":[...]}]}")
    pv.add_argument("--x", help="inline vector, comma separated, e.g. --x -0.3,0.7")
    pv.add_argument("--y", help="inline vector, comma separated, e.g. --y -0.2,0.1")
    pv.add_argument("--p", help="comma-separated p values")
    pv.add_argument("--q", help="comma-separated q values")
    pv.add_argument("--out")
    _add_tolerance_flags(pv)
    pv.set_defaults(func=cmd_verify)

    ps = subs.add_parser("scan", help="seeded random scan over a (p, q) grid")
    ps.add_argument("--ineq", choices=ids, required=True)
    ps.add_argument("--p-grid", required=True, help="start:stop:step")
    ps.add_argument("--q-grid", required=True, help="start:stop:step")
    ps.add_argument("--samples", type=int, default=1000)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out")
    _add_tolerance_flags(ps)
    _add_spec_flags(ps)
    ps.set_defaults(func=cmd_scan)

    pr = subs.add_parser("search", help="counterexample or extremal search")
    pr.add_argument("--ineq", choices=ids, required=True)
    pr.add_argument("--p", dest="p_value", type=float, default=2.0)
    pr.add_argument("--q", dest="q_value", type=float, default=None)
    pr.add_argument("--mode", choices=["counterexample", "extremal"],
                    default="counterexample")
    pr.add_argument("--budget", type=int, default=10000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", help="witness JSON path")
    _add_tolerance_flags(pr)
    _add_spec_flags(pr)
    pr.set_defaults(func=cmd_search)

    pp = subs.add_parser("phi", help="tabulate phi and its derivative")
    pp.add_argument("--u", required=True)
    pp.add_argument("--v", required=True)
    pp.add_argument("--p", dest="p_value", type=float, required=True)
    pp.add_argument("--q", dest="q_value", type=float, required=True)
    pp.add_argument("--grid-size", type=int, default=257)
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_phi)

    pc = subs.add_parser("chi", help="tabulate chi and scan for sign changes")
    pc.add_argument("--p", dest="p_value", type=float, required=True)
    pc.add_argument("--q", dest="q_value", type=float, required=True)
    pc.add_argument("--c", type=float, required=True)
    pc.add_argument("--grid-size", type=int, default=1001)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_chi)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ClarksonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # Exit 1 means a violation was found, so a crash must not reach it.
        import traceback

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
