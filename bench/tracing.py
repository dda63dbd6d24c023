"""In-memory span tracing of solstab's public functions, from outside.

The benchmark wraps module attributes of `solstab` for the duration of a
traced operation; the program's own code is unchanged.  A span is
(id, name, start, end, cpu_start, cpu_end, parent, operation, thread), with
wall-clock times from perf_counter and busy times from thread_time (CPU time
of the calling thread, which excludes waiting for the GIL).  The parent is the
innermost open span of the same thread; a thread with no open span (a
worker of `table`'s pool) takes the outermost span open in the main thread.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time

# span name -> (module, attribute) pairs wrapped under that name.  A function
# imported by name into a second module is wrapped there too.
TRACED = {
    "algebra.parse": [("algebra", "parse_algebra"), ("algebra", "algebra_hints")],
    "algebra.jacobi": [("algebra", "validate_algebra")],
    "algebra.frame": [("algebra", "orthonormal_frame"), ("soliton", "orthonormal_frame")],
    "algebra.derivations": [("algebra", "derivation_basis")],
    "algebra.profile": [("algebra", "structure_profile")],
    "curvature.summary": [("curvature", "curvature_summary"), ("soliton", "curvature_summary")],
    "soliton.fit": [("soliton", "solve_algebraic_soliton")],
    "soliton.extension": [("soliton", "rank_one_extension")],
    "soliton.gaussian": [("soliton", "gaussian_extension_dimension"),
                         ("soliton", "verify_gaussian_product")],
    "stability.form": [("stability", "sym2_basis"), ("stability", "stability_form")],
    "stability.eigen": [("stability", "jacobi_eigenvalues")],
    "stability.report": [("stability", "stability_report")],
    "cli.analyze": [("cli", "analyze_file")],
    "cli.table": [("cli", "cmd_table")],
    "cli.flow": [("cli", "cmd_flow")],
    "flow.experiment": [("flow", "perturbation_experiment")],
    "flow.ricci": [("flow", "ricci_of_metric")],
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[tuple] = []
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._root = None
        self._saved: list[tuple] = []

    def install(self, op: int) -> None:
        self.op = op
        for name, targets in TRACED.items():
            for mod_name, attr in targets:
                module = getattr(self.package, mod_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock, cpu = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            thread = threading.current_thread()
            parent = stack[-1] if stack else (None if thread is self._main else self._root)
            sid = next(ids)
            if not stack and thread is self._main:
                self._root = sid
            stack.append(sid)
            t0, c0 = clock(), cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                t1, c1 = clock(), cpu()
                stack.pop()
                spans.append((sid, name, t0, t1, c0, c1, parent, self.op, thread.ident))

        return traced


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, and wall and busy seconds, inclusive and self.

    Wall self time is a span's duration minus the union of its children's
    intervals, so children running in parallel threads count once.  Busy
    self time subtracts the busy time of the children in the same thread.
    """
    children: dict[int, list] = {}
    for sid, name, t0, t1, c0, c1, parent, op, thread in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1, c1 - c0, thread))
    keys = ("calls", "wall_s", "wall_self_s", "busy_s", "busy_self_s")
    out: dict[str, dict[str, float]] = {}
    for sid, name, t0, t1, c0, c1, parent, op, thread in spans:
        agg = out.setdefault(name, dict.fromkeys(keys, 0))
        kids = children.get(sid, [])
        agg["calls"] += 1
        agg["wall_s"] += t1 - t0
        agg["wall_self_s"] += (t1 - t0) - _covered([k[:2] for k in kids], t0, t1)
        agg["busy_s"] += c1 - c0
        agg["busy_self_s"] += (c1 - c0) - sum(k[2] for k in kids if k[3] == thread)
    return out


def flow_prep_seconds(spans) -> float:
    """Time of each `cmd_flow` span before its flow experiment started."""
    starts = {s[0]: s[2] for s in spans if s[1] == "cli.flow"}
    total = 0.0
    for sid, name, t0, t1, c0, c1, parent, op, thread in spans:
        if name == "flow.experiment" and parent in starts:
            total += t0 - starts[parent]
    return total
