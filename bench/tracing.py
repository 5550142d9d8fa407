"""Span tracer for the benchmark's traced run.

The tracer wraps clarkson's functions at the module attribute through
which the caller looks them up (``clarkson.search.evaluate``,
``clarkson.catalog.p_norm``, ...), so nothing under ``src/`` changes.
Each thread keeps its spans in memory with a parent stack; a span's self
time is its duration minus the time its child spans on the same thread
cover.  ``uninstall`` restores every attribute it replaced.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# Spans kept in memory for the trace file, over all threads; the
# aggregates count every span regardless.
SPAN_CAP = 50_000

# Calls inside the try block of extremal_search's score: an exception
# leaving one of them directly under the extremal span is swallowed there.
_SWALLOWED = ("catalog.evaluate", "core.vector_init")

# Names that start an outer search call; the pool's busy share is
# measured against their wall time.
_OUTER = ("search.scan", "search.counterexample")


class _Frame:
    __slots__ = ("name", "start", "child_ns", "cur_gap")

    def __init__(self, name: str, start: int):
        self.name = name
        self.start = start
        self.child_ns = 0
        self.cur_gap: Optional[float] = None


class _ThreadState:
    def __init__(self):
        self.stack: List[_Frame] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.spans: List[Tuple[str, str, int, int, int]] = []
        self.ident = threading.get_ident()


class Tracer:
    """Collects spans and counters from wrapped clarkson functions."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._outer_threads: set = set()
        self.pool_denominator_ns = 0
        self.kept = 0

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, ops: Optional[Callable], on_return: Optional[Callable]):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            if stack and stack[-1].name == name:
                # NonnegVector.__post_init__ calling RealVector's: one span.
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if name in _OUTER:
                tracer._outer_threads = set()
            frame = _Frame(name, clock())
            stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - frame.start
                st.calls[name] += 1
                st.total_ns[name] += dur
                st.self_ns[name] += dur - frame.child_ns
                pname = parent.name if parent is not None else ""
                if parent is not None:
                    parent.child_ns += dur
                    st.counters[pname + ">" + name] += 1
                if ops is not None:
                    st.counters[name + ".ops"] += ops(args)
                if name in _OUTER:
                    tracer.pool_denominator_ns += dur * max(1, len(tracer._outer_threads))
                elif name == "search.reduce":
                    tracer._outer_threads.add(st.ident)
                if failed and pname == "search.extremal" and name in _SWALLOWED:
                    st.counters["search.extremal.swallowed_errors"] += 1
                elif not failed and on_return is not None:
                    on_return(st, parent, result)
                if tracer.kept < SPAN_CAP:
                    tracer.kept += 1  # a race between threads may overshoot by a few
                    st.spans.append((name, pname, frame.start, end, st.ident))
                else:
                    st.counters["trace.spans_dropped"] += 1

        return wrapper

    def patch(self, owner, attr: str, name: str, ops=None, on_return=None) -> None:
        """Replace owner.attr by a traced wrapper; skip names the program lacks."""
        fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if fn is None:
            return
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(fn, name, ops, on_return))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def merged(self) -> Tuple[Counter, Counter, Counter, Counter]:
        calls, total, selfs, counters = Counter(), Counter(), Counter(), Counter()
        for st in self._threads:
            calls.update(st.calls)
            total.update(st.total_ns)
            selfs.update(st.self_ns)
            counters.update(st.counters)
        return calls, total, selfs, counters

    def main_thread_self_ns(self) -> int:
        main = threading.main_thread().ident
        return sum(sum(st.self_ns.values()) for st in self._threads if st.ident == main)

    def spans(self) -> List[Tuple[str, str, int, int, int]]:
        out = []
        for st in self._threads:
            out.extend(st.spans)
        return out


def _record_verdict(st: _ThreadState, parent: Optional[_Frame], rep) -> None:
    gap, scale = rep.gap, rep.scale
    if not (math.isfinite(gap) and math.isfinite(scale)):
        st.counters["catalog.verdict.nonfinite"] += 1
    else:
        st.counters["catalog.verdict." + rep.verdict.value] += 1
    if parent is not None and parent.name == "search.extremal":
        # Mirrors the descent's acceptance rule: a move is accepted when
        # its normalized gap beats the current point of this start.
        ng = gap / scale
        st.counters["search.extremal.evaluations"] += 1
        if parent.cur_gap is None:
            parent.cur_gap = ng
        elif ng < parent.cur_gap:
            parent.cur_gap = ng
            st.counters["search.extremal.improvements"] += 1


def _new_start(st: _ThreadState, parent: Optional[_Frame], _result) -> None:
    if parent is not None and parent.name == "search.extremal":
        parent.cur_gap = None


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    from clarkson import catalog, cli, core, rearrange, search, variational

    def n_entries(args):
        return len(args[0])

    def oracle_ops(args):
        n = len(args[0])
        return n * (1 << n)

    tracer.patch(cli, "main", "cli")
    tracer.patch(search, "counterexample_search", "search.counterexample")
    tracer.patch(search, "extremal_search", "search.extremal")
    tracer.patch(search, "scan_grid", "search.scan")
    tracer.patch(search, "_eval_indices", "search.reduce")
    tracer.patch(search, "sample_pair", "search.sample_pair", on_return=_new_start)
    tracer.patch(search, "_rng", "search.rng")
    tracer.patch(search, "_project", "search.project")
    tracer.patch(search, "evaluate", "catalog.evaluate", on_return=_record_verdict)
    tracer.patch(catalog, "evaluate", "catalog.evaluate", on_return=_record_verdict)
    tracer.patch(catalog, "p_norm", "core.p_norm")
    tracer.patch(catalog, "combine", "core.combine")
    tracer.patch(core, "sum_abs_powers", "core.sum_abs_powers", ops=n_entries)
    tracer.patch(rearrange, "sum_abs_powers", "core.sum_abs_powers", ops=n_entries)
    tracer.patch(core.RealVector, "__post_init__", "core.vector_init")
    tracer.patch(core.NonnegVector, "__post_init__", "core.vector_init")
    tracer.patch(rearrange, "dominance_rearrange", "rearrange.dominance_rearrange")
    tracer.patch(rearrange, "brute_force_swap_oracle", "rearrange.oracle", ops=oracle_ops)
    tracer.patch(rearrange, "sum_power_rearrangement_gap", "rearrange.sum_power_gap")
    tracer.patch(rearrange, "rearrangement_norm_gain", "rearrange.norm_gain")
    tracer.patch(variational, "phi", "variational.phi")
    tracer.patch(variational, "monotonicity_scan", "variational.monotonicity_scan")
    tracer.patch(variational, "chi_sign_scan", "variational.chi_sign_scan")
    return tracer


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers from one tracer; a layer never called reads 0."""
    calls, total, selfs, counters = tracer.merged()

    def per_call(name: str, ns: Counter, unit_ns: float) -> float:
        return ns[name] / calls[name] / unit_ns if calls[name] else 0.0

    pairs_in_reduce = counters["search.reduce>search.sample_pair"]
    entries = counters["core.sum_abs_powers.ops"]
    evals = counters["search.extremal.evaluations"] + counters["search.extremal.swallowed_errors"]
    return {
        "search.rng.us_per_call": per_call("search.rng", total, 1e3),
        "search.sample_pair.self_us": per_call("search.sample_pair", selfs, 1e3),
        "search.sample_pair.calls": calls["search.sample_pair"],
        "search.reduce.self_us_per_pair": (
            selfs["search.reduce"] / pairs_in_reduce / 1e3 if pairs_in_reduce else 0.0
        ),
        "search.pool.busy_share": (
            total["search.reduce"] / tracer.pool_denominator_ns
            if tracer.pool_denominator_ns else 0.0
        ),
        "search.project.us_per_call": per_call("search.project", total, 1e3),
        "search.extremal.accept_ratio": (
            counters["search.extremal.improvements"] / evals if evals else 0.0
        ),
        "search.extremal.swallowed_errors": counters["search.extremal.swallowed_errors"],
        "catalog.evaluate.self_us": per_call("catalog.evaluate", selfs, 1e3),
        "catalog.evaluate.calls": calls["catalog.evaluate"],
        "catalog.verdict.holds": counters["catalog.verdict.holds"],
        "catalog.verdict.borderline": counters["catalog.verdict.borderline"],
        "catalog.verdict.violated": counters["catalog.verdict.violated"],
        "catalog.verdict.nonfinite": counters["catalog.verdict.nonfinite"],
        "core.vector_init.us_per_call": per_call("core.vector_init", total, 1e3),
        "core.vector_init.calls": calls["core.vector_init"],
        "core.p_norm.us_per_call": per_call("core.p_norm", total, 1e3),
        "core.sum_abs_powers.ns_per_entry": (
            total["core.sum_abs_powers"] / entries if entries else 0.0
        ),
        "core.combine.us_per_call": per_call("core.combine", total, 1e3),
        "rearrange.dominance_rearrange.us_per_call": per_call(
            "rearrange.dominance_rearrange", total, 1e3
        ),
        "rearrange.oracle.us_per_call": per_call("rearrange.oracle", total, 1e3),
        "rearrange.oracle.ops": counters["rearrange.oracle.ops"],
        "variational.phi.us_per_call": per_call("variational.phi", total, 1e3),
        "variational.monotonicity_scan.us_per_call": per_call(
            "variational.monotonicity_scan", total, 1e3
        ),
        "variational.chi_sign_scan.us_per_call": per_call(
            "variational.chi_sign_scan", total, 1e3
        ),
        "cli.self_s": per_call("cli", selfs, 1e9),
    }
