"""Span tracing for the benchmark's traced run, done from outside the library.

The tracer replaces library functions with timing wrappers at the module name
the caller looks them up under (`scanrank.pipeline.query_topk` is the name
`process_queries` calls; `scanrank.rerank.score_candidates` the one
`rerank_spectral` calls), and restores the originals afterwards. It also
swaps the `ThreadPoolExecutor` name in the modules that start worker pools,
so that a span opened in a worker thread is linked to the span that
submitted the work.

Every span carries a group `(pass, query)`. A pass is one timed run of the
workload, opened by the benchmark. A query starts when `process_queries`
calls `query_topk`; a synthetic `pipeline.query` span then stays open until
the next query starts or `process_queries` returns, so each query has one
root span on the main thread, and every span inside it (worker threads
included) shares its group.

Self time is a span's duration minus the union of its children's intervals.
Children that run in parallel overlap, so per query the self times add up
to the root's wall time plus that overlap; `reconcile` checks exactly that.
Times are integer nanoseconds, so the sums are exact.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from scanrank.errors import ScanrankError

PASS = "bench.pass"
SETUP = "bench.setup"
QUERY = "pipeline.query"
_QUERY_PARENT = "pipeline.process_queries"
_QUERY_START = "retrieval.query_topk"


class WrapperDrift(RuntimeError):
    """A wrapped name is gone, or a stage a workload must call never ran."""


@dataclass
class Span:
    id: int
    parent: int            # 0 for a root span
    name: str
    group: tuple           # (pass number, query number); None where not inside one
    t0: int                # perf_counter_ns
    t1: int = 0
    error: bool = False    # a ScanrankError left the wrapped call
    info: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


@dataclass(frozen=True)
class Target:
    """One library name to wrap; `on_return(span, args, result)` records counters."""

    module: str
    attr: str
    name: str
    on_return: object = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._queries = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- span stack ---------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, group: tuple | None = None) -> Span:
        parent = self.current()
        if group is None:
            group = parent.group if parent is not None else (None, None)
        span = Span(next(self._ids), parent.id if parent is not None else 0, name, group,
                    time.perf_counter_ns())
        self._stack().append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        """Close `span`, first closing a query span left open above it."""
        stack = self._stack()
        while stack and stack[-1] is not span and stack[-1].name == QUERY:
            stack.pop().t1 = time.perf_counter_ns()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()
        span.t1 = time.perf_counter_ns()

    def _start_query(self) -> None:
        stack = self._stack()
        if stack and stack[-1].name == QUERY:
            stack.pop().t1 = time.perf_counter_ns()
        parent = self.current()
        if parent is None or parent.name != _QUERY_PARENT:
            # queries are delimited by this call; elsewhere it would split nothing
            raise WrapperDrift(f"{_QUERY_START} called outside {_QUERY_PARENT}")
        self.open(QUERY, (parent.group[0], next(self._queries)))

    def _run_linked(self, parent: Span | None, fn, *args, **kwargs):
        stack = self._stack()
        saved = stack[:]
        stack[:] = [parent] if parent is not None else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    # -- patching -----------------------------------------------------------

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if target.name == _QUERY_START:
                tracer._start_query()
            span = tracer.open(target.name)
            try:
                result = fn(*args, **kwargs)
            except ScanrankError:
                span.error = True
                raise
            finally:
                tracer.close(span)
            if target.on_return is not None:
                target.on_return(span, args, result)
            return result

        return traced

    def _linked_executor(self):
        tracer = self

        class LinkedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._run_linked, tracer.current(), fn, *args, **kwargs)

        return LinkedExecutor

    def install(self, targets: list[Target], pool_modules: tuple[str, ...]) -> None:
        """Wrap every target; raise WrapperDrift if any name is missing."""
        missing = [f"{t.module}.{t.attr}" for t in targets
                   if not callable(getattr(importlib.import_module(t.module), t.attr, None))]
        missing += [f"{m}.ThreadPoolExecutor" for m in pool_modules
                    if getattr(importlib.import_module(m), "ThreadPoolExecutor", None)
                    is not ThreadPoolExecutor]
        if missing:
            raise WrapperDrift("wrapped names missing from the library: " + ", ".join(missing))
        executor = self._linked_executor()
        for t in targets:
            module = importlib.import_module(t.module)
            original = getattr(module, t.attr)
            self._patched.append((module, t.attr, original))
            setattr(module, t.attr, self._wrap(original, t))
        for m in pool_modules:
            module = importlib.import_module(m)
            self._patched.append((module, "ThreadPoolExecutor", ThreadPoolExecutor))
            module.ThreadPoolExecutor = executor

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


# -- analysis ---------------------------------------------------------------


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


@dataclass
class Analysis:
    by_id: dict[int, Span]
    self_ns: dict[int, int]
    overlap_ns: dict[int, int]  # sum of children's clipped durations minus their union


def analyse(spans: list[Span]) -> Analysis:
    """Self time of every span: its duration minus the union of its children,
    each child clipped to the parent's interval."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent:
            children[s.parent].append(s)
    self_ns: dict[int, int] = {}
    overlap_ns: dict[int, int] = {}
    for s in spans:
        clipped = [(max(c.t0, s.t0), min(c.t1, s.t1)) for c in children.get(s.id, ())]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _union_ns(clipped)
        self_ns[s.id] = s.ns - covered
        overlap_ns[s.id] = sum(b - a for a, b in clipped) - covered
    return Analysis(by_id, self_ns, overlap_ns)


def reconcile(spans: list[Span], analysis: Analysis) -> dict:
    """Per query and per pass: |sum of self times - overlap - root wall| / root wall.

    Members of a group are taken by their group tag, not by walking the tree,
    so a span linked to the wrong parent, or leaking out of its parent's
    interval, leaves a residual.
    """
    groups: dict[tuple, list[Span]] = defaultdict(list)
    for s in spans:
        if s.group[0] is None:
            continue
        groups[("pass", s.group[0])].append(s)
        if s.group[1] is not None:
            groups[("query", s.group[1])].append(s)
    worst = 0.0
    checked = 0
    for key, members in groups.items():
        root_name = PASS if key[0] == "pass" else QUERY
        roots = [s for s in members if s.name == root_name]
        if len(roots) != 1:
            raise WrapperDrift(f"{key[0]} {key[1]} has {len(roots)} root spans")
        wall = roots[0].ns
        total = sum(analysis.self_ns[s.id] - analysis.overlap_ns[s.id] for s in members)
        worst = max(worst, abs(total - wall) / max(wall, 1))
        checked += 1
    return {"groups": checked, "max_rel_residual": worst}


def orphans(spans: list[Span]) -> list[str]:
    """Names of spans that have no parent but are not a pass or setup root."""
    return sorted({s.name for s in spans if not s.parent and s.name not in (PASS, SETUP)})
