"""Span tracing installed from the benchmark, around each layer's entry
points.

:func:`installed` replaces the entry points listed in it (class methods and
module attributes of ``repro``) with timing wrappers for the duration of a
``with`` block and restores them afterwards; nothing under ``src/`` knows
about it.  It must be entered *before* the deployment is built: the window
clock and the switches capture bound methods (``collector.close_window``,
``analyzer.on_report``) at construction.

Every wrapper records a span — name, start, end, self time, parent span,
window id — except the per-packet and per-report entry points, which only
accumulate into their window's totals (a span per packet would cost more
than the packet).  A layer's self time is its span minus the time its
wrapped callees took, computed on the way out from a stack of open frames,
so the self times of all spans of a window add up to the window's wall
time exactly; the share no wrapper claims is the root span's own self
time, reported as ``harness.unattributed_ms``.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "installed", "ROOT"]

#: Name of the span the harness opens around one window step.
ROOT = "harness.window"
#: Window id of spans recorded outside any window (set-up, idle updates).
OUTSIDE = -1
#: Entry points called once per packet or per report: they add up per
#: window instead of emitting a span each.
ACCUMULATED = frozenset({
    "engine.scalar", "dataplane.pipeline", "collector.ingest",
    "core.analyzer.on_report",
})


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self) -> None:
        #: (name, start, end, self seconds, parent span index or -1,
        #: window id) — appended on entry, filled on exit, so a parent's
        #: index is always below its children's.
        self.spans: List[Optional[Tuple[str, float, float, float,
                                        int, int]]] = []
        #: window id -> name -> [self seconds, inclusive seconds, calls]
        self.cells: Dict[int, Dict[str, List[float]]] = defaultdict(
            lambda: defaultdict(lambda: [0.0, 0.0, 0])
        )
        #: Work counts taken at the same boundaries as the spans.
        self.counts: "Counter[str]" = Counter()
        #: id(memo dict) -> entries, as of the last ``hash_rows`` call.
        self.memo_sizes: Dict[int, int] = {}
        self.window = OUTSIDE
        #: While false the wrappers call straight through.
        self.enabled = True
        #: Open frames: [name, callee seconds, start, span index, emit].
        self._stack: List[List] = []

    # -- recording ------------------------------------------------------ #

    def enter(self, name: str, emit: bool = True) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        if emit:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = parent
        self._stack.append([name, 0.0, perf_counter(), index, emit])

    def exit(self) -> None:
        end = perf_counter()
        name, callees, start, index, emit = self._stack.pop()
        took = end - start
        parent = -1
        if self._stack:
            self._stack[-1][1] += took
            parent = self._stack[-1][3]
        cell = self.cells[self.window][name]
        cell[0] += took - callees
        cell[1] += took
        cell[2] += 1
        if emit:
            self.spans[index] = (name, start, end, took - callees, parent,
                                 self.window)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def in_window(self, window: int) -> Iterator[None]:
        """The root span of one window step."""
        self.window = window
        self.enter(ROOT)
        try:
            yield
        finally:
            self.exit()
            self.window = OUTSIDE

    # -- reading -------------------------------------------------------- #

    def per_window(self, name: str, windows: List[int],
                   inclusive: bool = False) -> List[float]:
        """Seconds spent in ``name`` in each of ``windows``."""
        column = 1 if inclusive else 0
        return [self.cells[w][name][column] if name in self.cells[w] else 0.0
                for w in windows]

    def per_call(self, name: str, inclusive: bool = False) -> List[float]:
        """Seconds of every recorded span called ``name``."""
        return [(s[2] - s[1]) if inclusive else s[3]
                for s in self.spans if s is not None and s[0] == name]

    def total(self, name: str) -> Tuple[float, float, int]:
        """(self seconds, inclusive seconds, calls) of ``name`` over the
        whole run."""
        cells = [c[name] for c in self.cells.values() if name in c]
        return (sum(c[0] for c in cells), sum(c[1] for c in cells),
                int(sum(c[2] for c in cells)))

    def write(self, path: str) -> None:
        """One JSON object per line: the spans, then per-window totals of
        the entry points that accumulate instead of emitting spans."""
        with open(path, "w") as out:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, self_s, parent, window = span
                out.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "self_s": self_s, "parent": parent, "window": window,
                }) + "\n")
            for window in sorted(self.cells):
                for name, (self_s, total_s, calls) in sorted(
                        self.cells[window].items()):
                    if name in ACCUMULATED:
                        out.write(json.dumps({
                            "accumulated": name, "window": window,
                            "self_s": self_s, "total_s": total_s,
                            "calls": calls,
                        }) + "\n")


def _timed(tracer: Tracer, name: str, fn: Callable,
           before: Optional[Callable] = None,
           after: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped in a span; ``before(args)`` / ``after(args, result)``
    take counts at the boundary, outside nothing but inside the span."""
    emit = name not in ACCUMULATED

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter(name, emit)
        try:
            if before is not None:
                before(args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result
        finally:
            tracer.exit()
    wrapper.__wrapped__ = fn
    return wrapper


def _timed_generator(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """A generator function with every resume timed as its own span (the
    time between resumes belongs to the consumer)."""
    def wrapper(*args, **kwargs):
        generator = fn(*args, **kwargs)
        if not tracer.enabled:
            yield from generator
            return
        while True:
            tracer.enter(name)
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                tracer.exit()
            yield item
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed() -> Iterator[Tracer]:
    """Wrap every layer's entry points; restore them on exit."""
    # Imported here so that importing this module costs nothing and the
    # set-up probe times ``import repro`` itself.
    import repro.core.controller as controller_module
    import repro.dataplane.hashing as hashing_module
    import repro.engine.vector as vector_module
    from repro.collector.collector import ReportCollector
    from repro.core.analyzer import Analyzer
    from repro.core.controller import NewtonController
    from repro.ctrlplane.txn import TransactionManager
    from repro.dataplane.pipeline import NewtonPipeline
    from repro.dataplane.registers import RegisterArray
    from repro.dataplane.switch import Switch
    from repro.engine.scalar import ScalarEngine
    from repro.engine.vector import VectorizedEngine
    from repro.network.routing import Router
    from repro.network.simulator import NetworkSimulator

    tracer = Tracer()
    counts = tracer.counts

    def batch_rows(args) -> None:           # _run_batch(self, sim, batch, ..)
        counts["engine.fast_rows"] += len(args[2])

    def memo_before(args) -> None:          # hash_rows(rows, seed, cache)
        cache = args[2] if len(args) > 2 else None
        if cache is not None:
            counts["dataplane.hash_miss"] -= len(cache)

    def memo_after(args, _result) -> None:
        cache = args[2] if len(args) > 2 else None
        if cache is not None:
            counts["dataplane.hash_miss"] += len(cache)
            tracer.memo_sizes[id(cache)] = len(cache)

    def alu_rows(args) -> None:             # execute_many(self, owner, idx..)
        counts["dataplane.alu_rows"] += len(args[2])

    def one_report(_args) -> None:
        counts["collector.reports"] += 1

    def wrap_gate(fn: Callable) -> Callable:
        # _verification_gate builds the closure the transaction calls;
        # the closure is what does the verifying.
        def wrapper(*args, **kwargs):
            return _timed(tracer, "verify.gate", fn(*args, **kwargs))
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_execute(fn: Callable) -> Callable:
        timed = _timed(tracer, "ctrlplane.txn", fn)

        def wrapper(*args, **kwargs):
            try:
                return timed(*args, **kwargs)
            except Exception:
                counts["ctrlplane.txn_aborted"] += 1
                raise
        wrapper.__wrapped__ = fn
        return wrapper

    def t(name: str, **hooks) -> Callable[[Callable], Callable]:
        return lambda fn: _timed(tracer, name, fn, **hooks)

    targets = [
        (VectorizedEngine, "run", t("engine.run")),
        (VectorizedEngine, "_split_at", t("engine.split")),
        (VectorizedEngine, "_run_batch", t("engine.walk", before=batch_rows)),
        (VectorizedEngine, "_path_groups",
         lambda fn: _timed_generator(tracer, "engine.route", fn)),
        (VectorizedEngine, "_run_ingress", t("engine.dispatch")),
        (VectorizedEngine, "_emit_reports", t("engine.emit")),
        (vector_module, "execute_program", t("engine.program")),
        (vector_module, "compile_switch_programs", t("engine.compile")),
        (ScalarEngine, "step", t("engine.scalar")),
        (hashing_module, "hash_rows",
         t("dataplane.hash", before=memo_before, after=memo_after)),
        (RegisterArray, "execute_many", t("dataplane.alu", before=alu_rows)),
        (NewtonPipeline, "process", t("dataplane.pipeline")),
        (Switch, "advance_window", t("dataplane.reset")),
        (Router, "switch_paths", t("network.switch_paths")),
        (NetworkSimulator, "roll_window", t("network.roll")),
        (ReportCollector, "ingest", t("collector.ingest", before=one_report)),
        (ReportCollector, "close_window", t("collector.close")),
        (ReportCollector, "merged_results", t("collector.read")),
        (ReportCollector, "prune_results", t("collector.read")),
        (Analyzer, "on_report", t("core.analyzer.on_report")),
        (Analyzer, "advance_window", t("core.analyzer")),
        (Analyzer, "detections", t("core.analyzer")),
        (Analyzer, "results", t("core.analyzer")),
        (Analyzer, "prune", t("core.analyzer")),
        (controller_module, "compile_query", t("core.compile_query")),
        (NewtonController, "install_query", t("core.install")),
        (NewtonController, "remove_query", t("core.remove")),
        (NewtonController, "update_query", t("core.update")),
        (NewtonController, "_verification_gate", wrap_gate),
        (TransactionManager, "execute", wrap_execute),
    ]
    originals = []
    for owner, attribute, wrap in targets:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, wrap(original))
    try:
        yield tracer
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)
