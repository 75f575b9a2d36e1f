"""Spans around the program's public functions, installed from outside.

The traced run wraps the layer entry points listed in :data:`LAYER_OF`
(the program itself is not edited) and keeps one span per call in
memory: name, start, end, parent and the id of the unit it belongs to
(a Session run, a sweep cell or an HTTP request).  Each call's self
time is its duration minus the time its timed children cover, so the
per-layer self times add up to the traced wall time.

Scheduling passes are not public functions; the program's own
``sched.pass`` telemetry spans carry their wall cost.  When one is
appended, the children that closed inside it are re-parented under a
synthetic ``slurm.pass`` span so their time is not subtracted twice.
Spans are written out through ``repro.obs.perfetto.export_perfetto``.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict, deque
from typing import Callable, Dict, List, Optional

#: Span name -> owning layer (named after the ``repro`` module).
LAYER_OF = {
    "sim.run": "sim",
    "slurm.submit": "slurm",
    "slurm.finish": "slurm",
    "slurm.pass": "slurm",
    "slurm.reconfig.check": "slurm.reconfig",
    "slurm.reconfig.view": "slurm.reconfig",
    "slurm.reconfig.decide": "slurm.reconfig",
    "runtime.plan": "runtime",
    "metrics.record": "metrics",
    "metrics.summarize": "metrics",
    "workload.parse": "workload",
    "workload.generate": "workload",
    "api.submit": "api",
    "api.execute": "api",
    "sweep.cell": "sweep",
    "store.get": "store",
    "store.put": "store",
}

#: Spans inside which the scheduler's passes run (event callbacks).
PASS_HOSTS = frozenset({"sim.run"})

#: Children closed under one frame that a later pass may adopt; older
#: ones cannot belong to a pass that has not started yet.
_MAX_KIDS = 4096


class _Stats:
    """Running totals of one span name (what the reports read)."""

    __slots__ = ("name", "inclusive", "self_time", "calls", "durations")

    def __init__(self, name: str, keep_durations: bool) -> None:
        self.name = name
        self.inclusive = 0.0
        self.self_time = 0.0
        self.calls = 0
        self.durations: Optional[List[float]] = [] if keep_durations else None


class Tracer:
    """In-memory span recorder with per-name self-time accounting."""

    def __init__(self, max_spans: int = 200_000,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.max_spans = max_spans
        #: Names whose per-call durations are kept (for percentiles).
        self.keep_durations = set()
        #: Exported spans: [name, start, end, parent index, unit].
        self.spans: List[list] = []
        self.dropped = 0
        self.unit: Optional[str] = None
        self._stats: Dict[str, _Stats] = {}
        #: Open frames: [start, child seconds, span index, kids or None].
        #: Only frames of :data:`PASS_HOSTS` keep their closed children,
        #: which a pass ending inside them may adopt.
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    # -- totals ----------------------------------------------------------------
    def stats(self, name: str) -> _Stats:
        found = self._stats.get(name)
        if found is None:
            found = self._stats[name] = _Stats(
                name, name in self.keep_durations)
        return found

    @property
    def inclusive(self) -> Dict[str, float]:
        """Seconds inside each span name, children included."""
        return defaultdict(float, {n: s.inclusive for n, s in self._stats.items()})

    @property
    def self_time(self) -> Dict[str, float]:
        """Seconds inside each span name minus its timed children."""
        return defaultdict(float, {n: s.self_time for n, s in self._stats.items()})

    @property
    def calls(self) -> Counter:
        return Counter({n: s.calls for n, s in self._stats.items()})

    @property
    def durations(self) -> Dict[str, List[float]]:
        return {n: s.durations for n, s in self._stats.items()
                if s.durations is not None}

    # -- span bookkeeping ----------------------------------------------------
    def add_span(self, name: str, start: float, end: float, parent: int = -1,
                 unit: Optional[str] = None) -> int:
        """Record a span timed elsewhere (concurrent requests cannot share
        the call stack); returns its index, or -1 once the buffer is full."""
        stats = self.stats(name)
        stats.inclusive += end - start
        stats.self_time += end - start
        stats.calls += 1
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return -1
        self.spans.append([name, start, end, parent, unit])
        return len(self.spans) - 1

    def adopt_pass(self, duration: float) -> None:
        """Account a pass that just ended and took ``duration`` seconds.

        Children of the current frame that started inside the pass move
        under it; the pass's self time is what they do not cover.
        """
        end = self.clock()
        start = end - duration
        index = -1
        parent_index = self._stack[-1][2] if self._stack else -1
        if len(self.spans) < self.max_spans:
            index = len(self.spans)
            self.spans.append(["slurm.pass", start, end, parent_index, self.unit])
        else:
            self.dropped += 1
        inner = 0.0
        if self._stack:
            top = self._stack[-1]
            kids = top[3] or ()
            for kid_start, kid_duration, kid_index in kids:
                if kid_start >= start:
                    inner += kid_duration
                    if kid_index >= 0 and index >= 0:
                        self.spans[kid_index][3] = index
            if top[3]:
                top[3].clear()
            top[1] += duration - inner
        stats = self.stats("slurm.pass")
        stats.inclusive += duration
        stats.self_time += duration - inner
        stats.calls += 1

    # -- wrappers --------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        if isinstance(owner, type) and attr not in vars(owner):
            raise AttributeError(f"{owner.__name__}.{attr} is inherited")
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str,
             observe: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``observe(result, args)`` sees each call's result, for counts
        the layer exposes only through return values.
        """
        original = getattr(owner, attr)
        stats = self.stats(name)
        clock, stack, spans = self.clock, self._stack, self.spans
        hosts_passes = name in PASS_HOSTS
        tracer = self

        # The bookkeeping is inlined: it runs on every wrapped call, and
        # its cost is the tracing overhead the traced run reports.
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            start = clock()
            if len(spans) < tracer.max_spans:
                index = len(spans)
                spans.append([name, start, None,
                              parent[2] if parent else -1, tracer.unit])
            else:
                index = -1
                tracer.dropped += 1
            frame = [start, 0.0, index,
                     deque(maxlen=_MAX_KIDS) if hosts_passes else None]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.inclusive += duration
                stats.self_time += duration - frame[1]
                stats.calls += 1
                if stats.durations is not None:
                    stats.durations.append(duration)
                if index >= 0:
                    spans[index][2] = end
                if parent is not None:
                    parent[1] += duration
                    kids = parent[3]
                    if kids is not None:
                        kids.append((start, duration, index))
            if observe is not None:
                observe(result, args)
            return result

        wrapper.__wrapped__ = original
        self.patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------
    def layer_self_time(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float)
        for name, stats in self._stats.items():
            if stats.calls:
                totals[LAYER_OF.get(name, name)] += stats.self_time
        return dict(totals)

    def export(self, path: str) -> int:
        """Write the closed spans through the program's Perfetto exporter;
        returns how many were written.

        One wall-clock track per layer; each span's attributes carry its
        index, its parent's index and its unit id, so a unit regroups
        offline.
        """
        from repro.obs.perfetto import export_perfetto
        from repro.obs.spans import CLOCK_WALL, Span

        spans = [
            Span(name, start, end, CLOCK_WALL, LAYER_OF.get(name, name),
                 {"id": index, "parent": parent, "unit": unit})
            for index, (name, start, end, parent, unit) in enumerate(self.spans)
            if end is not None
        ]
        if not spans:
            return 0
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return export_perfetto(path, spans=spans, dropped=self.dropped)["spans"]
