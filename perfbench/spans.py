"""In-memory span tracer that wraps cubewalk's public functions from outside.

A span is (name, start, end, parent).  Spans live in parallel lists until
the run ends, when ``dump`` writes them out.  The tracer patches each
traced function in its defining module and in every other ``cubewalk``
module that imported it by name (``cubewalk.scanner.pst_offsets``,
``cubewalk.pst.spectrum``, ...), so calls across module boundaries are
seen no matter which binding the caller uses.  Nothing under ``src/`` is
edited; ``installed`` restores every binding on exit.

Self time of a span is its duration minus the durations of its direct
children.  Every traced request is one root span named ``request``, and
the root's own self time is the part no wrapped function accounts for.
The self times of a request add up to its duration only if every span
lies inside its parent and siblings do not overlap; ``check`` verifies
that, and that each root span matches the request time measured around
it.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict

ROOT = "request"
# Spans of one process nest exactly; a child process's spans are read on
# the same system-wide monotonic clock.
NEST_TOL_S = 1e-6
# The request timer starts just before the root span opens and stops just
# after it closes; only a garbage collection could fall in between.
REQUEST_TOL_S = 0.01

# (module, attribute, span name).  A dotted attribute names a method on a
# class in that module.
FUNCTIONS = (
    ("cubewalk.bitspace", "ConnectionSet.__init__", "bitspace.ConnectionSet"),
    ("cubewalk.spectral", "wht", "spectral.wht"),
    ("cubewalk.spectral", "spectrum", "spectral.spectrum"),
    ("cubewalk.spectral", "classify_set", "spectral.classify_set"),
    ("cubewalk.dynamics", "exact_components", "dynamics.exact_components"),
    ("cubewalk.dynamics", "all_amplitudes", "dynamics.all_amplitudes"),
    ("cubewalk.dynamics", "measurement_distribution",
     "dynamics.measurement_distribution"),
    ("cubewalk.graphwalk", "bfs_profile", "graphwalk.bfs_profile"),
    ("cubewalk.pst", "pst_offsets", "pst.pst_offsets"),
    ("cubewalk.pst", "decide_pst_exact", "pst.decide_pst_exact"),
    ("cubewalk.pst", "certify", "pst.certify"),
    ("cubewalk.pst", "pst_at_half_pi", "pst.pst_at_half_pi"),
    ("cubewalk.pst", "plan_route", "pst.plan_route"),
    ("cubewalk.oracle", "verify_equivalence", "oracle.verify_equivalence"),
    ("cubewalk.scanner", "transfer_record", "scanner.records"),
    ("cubewalk.scanner", "audit_record", "scanner.records"),
    ("cubewalk.scanner", "ScanReport.canonical_json", "scanner.digest"),
    ("cubewalk.scanner", "ScanReport.digest", "scanner.digest"),
    ("cubewalk.scanner", "scan_sets", "scanner.survey"),
    ("cubewalk.scanner", "conjecture_scan", "scanner.survey"),
    ("cubewalk.scanner", "antipodality_audit", "scanner.survey"),
)
# Each next() on the iterator enumerate_sets returns is one span.
GENERATORS = (("cubewalk.scanner", "enumerate_sets", "scanner.enumerate"),)


class Tracer:
    """Spans of one traced run, plus counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]} closed out of order")

    @property
    def current(self) -> int:
        """Index of the innermost open span, or -1."""
        return self._stack[-1]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded by a child process under ``parent``.

        ``time.perf_counter`` reads the system-wide monotonic clock on
        Linux, so a child's timestamps compare directly with ours.
        """
        base = len(self.names)
        for name, start, end, par in spans:
            self.names.append(name)
            self.starts.append(start)
            self.ends.append(end)
            self.parents.append(parent if par < 0 else base + par)

    def as_list(self) -> list:
        return [list(s) for s in zip(self.names, self.starts, self.ends,
                                     self.parents)]

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.names)
        for i, par in enumerate(self.parents):
            if par >= 0:
                child[par] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i]
                for i in range(len(self.names))]

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for name, own in zip(self.names, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def check(self, request_times: list[float]) -> None:
        """Raise unless the spans account for the timed requests.

        ``request_times`` are the times measured around each traced
        request, in order.  Every span must lie inside its parent, every
        self time must be non-negative, and the root spans must be the
        requests, each lasting no longer than its measured time and no
        more than ``REQUEST_TOL_S`` shorter.
        """
        found = []
        for i, par in enumerate(self.parents):
            if par >= 0 and (self.starts[i] < self.starts[par] - NEST_TOL_S
                             or self.ends[i] > self.ends[par] + NEST_TOL_S):
                found.append(f"span {i} ({self.names[i]}) lies outside its "
                             f"parent {self.names[par]}")
        for i, own in enumerate(self.self_times()):
            if own < -NEST_TOL_S:
                found.append(f"span {i} ({self.names[i]}) has self time "
                             f"{own:.3g} s")
        roots = [i for i, par in enumerate(self.parents) if par < 0]
        if len(roots) != len(request_times):
            found.append(f"{len(roots)} root spans for "
                         f"{len(request_times)} requests")
        for i, timed in zip(roots, request_times):
            gap = timed - (self.ends[i] - self.starts[i])
            if self.names[i] != ROOT or not 0 <= gap <= REQUEST_TOL_S:
                found.append(f"root span {i} ({self.names[i]}) misses its "
                             f"request time {timed:.6f} s by {gap:.3g} s")
        if found:
            raise RuntimeError("span accounting failed: "
                               + "; ".join(found[:5]))

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.as_list(),
                       "counters": dict(self.counters)}, handle)


def _wrap_function(tracer: Tracer, fn, name: str, count=None):
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if count is not None:
            count(tracer.counters, args, result)
        return result
    traced.__wrapped__ = fn
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str, count=None):
    def traced(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield item
    traced.__wrapped__ = fn
    return traced


def _count_wht_ops(counters, args, result) -> None:
    # Computed, not measured: a length-2ⁿ transform does n·2ⁿ butterflies.
    size = len(args[0])
    counters["spectral.wht.ops"] += (size.bit_length() - 1) * size


def _count_findings(counters, args, result) -> None:
    counters["scanner.findings"] += len(result.findings)


COUNTERS = {"spectral.wht": _count_wht_ops,
            "scanner.survey": _count_findings}


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced function for the duration of the block."""
    for module_name, _, _ in FUNCTIONS + GENERATORS:
        importlib.import_module(module_name)
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "cubewalk"
                                     or key.startswith("cubewalk."))]
    undo = []
    targets = [(m, a, n, _wrap_function) for m, a, n in FUNCTIONS]
    targets += [(m, a, n, _wrap_generator) for m, a, n in GENERATORS]
    try:
        for module_name, attr, name, wrap in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            wrapper = wrap(tracer, original, name, COUNTERS.get(name))
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
