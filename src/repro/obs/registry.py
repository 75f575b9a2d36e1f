"""Process-wide metrics registry with Prometheus text exposition.

The registry is the "numbers" half of :mod:`repro.obs` (spans are the
"intervals" half).  It holds named *families* of counters, gauges and
:class:`LatencyHistogram`\\ s; a family with label names fans out into
one child metric per label-value combination, exactly like a Prometheus
client.  Everything is plain Python — no dependencies — and the whole
surface is built for the repo's two consumption paths:

* ``GET /metrics`` on ``repro serve`` renders :meth:`MetricsRegistry.
  render_prometheus` (the standard ``text/plain; version=0.0.4``
  exposition, parseable back with :func:`parse_prometheus`);
* tests and benches take :meth:`MetricsRegistry.snapshot` before/after
  an operation and assert on :meth:`MetricsRegistry.diff`.

Hot paths (the scheduler inner loop) never talk to the registry per
operation; they keep their plain-int tallies (``SchedStats``, store
hit/miss counts) and *publish* them through the ``publish_*`` bridges
below — either once per run or lazily from a collector callback at
scrape time.

:class:`LatencyHistogram` lives here because the registry is its only
consumer (and ``repro.obs`` must not import from ``repro.metrics``).
It keeps bucket counts, count and sum, the series of a Prometheus
histogram; whoever scrapes them estimates quantiles.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

#: Default bucket geometry: 0.1 ms doubling up to ~104 s (21 finite
#: buckets + overflow), which spans everything from an in-memory status
#: lookup to a full workload simulation behind one request.
DEFAULT_FIRST_BOUND = 0.0001
DEFAULT_BUCKETS = 21
DEFAULT_GROWTH = 2.0


class LatencyHistogram:
    """Streaming histogram over non-negative durations in seconds.

    A Prometheus-style histogram with geometric bucket bounds:
    observations are O(log buckets) to record and the footprint is a
    few dozen integers however many requests are observed.  It holds
    exactly what the exposition and :meth:`MetricsRegistry.snapshot`
    read; quantiles are the scraper's business (Prometheus estimates
    them from the bucket counts at query time), and in-process wall-time
    reports keep their samples and use
    :func:`repro.metrics.summary.order_stats` instead.
    """

    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(
        self,
        first_bound: float = DEFAULT_FIRST_BOUND,
        buckets: int = DEFAULT_BUCKETS,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if first_bound <= 0 or buckets < 1 or growth <= 1:
            raise ValueError(
                "histogram needs first_bound > 0, buckets >= 1, growth > 1"
            )
        bounds: List[float] = []
        bound = first_bound
        for _ in range(buckets):
            bounds.append(bound)
            bound *= growth
        #: Upper bounds of the finite buckets; the implicit last bucket
        #: is (bounds[-1], +inf).
        self.bounds = tuple(bounds)
        self.counts = [0] * (buckets + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration (negative values clamp to zero)."""
        value = 0.0 if seconds < 0 else float(seconds)
        # The first bucket whose bound is >= value; past the last bound
        # that is the overflow bucket.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value


# -- scalar metrics -----------------------------------------------------------

class Counter:
    """A monotonically increasing tally.

    :meth:`set` exists for the publish/collector path, where a plain-int
    hot-path tally is mirrored into the registry wholesale at scrape
    time; interactive code should only :meth:`inc`.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)


class Gauge:
    """A value that can go both ways (queue depth, uptime, RSS)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class MetricFamily:
    """One named metric with zero or more label dimensions.

    ``family.labels(route="GET /health")`` returns (creating on first
    use) the child metric for that label combination; the convenience
    mutators (``inc``/``set``/``observe``) route through ``labels``
    so unlabeled families read naturally: ``family.inc()``.
    """

    __slots__ = ("name", "kind", "help", "label_names", "_children",
                 "_factory", "_lock")

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Tuple[str, ...], factory: Callable) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], object] = {}
        self._factory = factory
        self._lock = threading.Lock()

    def labels(self, **labels: object):
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {sorted(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)

    def set(self, value: float, **labels: object) -> None:
        self.labels(**labels).set(value)

    def observe(self, seconds: float, **labels: object) -> None:
        self.labels(**labels).observe(seconds)

    def samples(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """(label values, child) pairs in sorted label order."""
        return iter(sorted(self._children.items()))


# -- the registry -------------------------------------------------------------

class MetricsRegistry:
    """A named collection of metric families plus scrape-time collectors.

    Families are get-or-create: asking twice for the same name returns
    the same family (and raises if the kind or label names disagree),
    so independent modules can share a metric without coordination.
    Collectors are callables invoked with the registry right before a
    snapshot or render — the bridge for values that live elsewhere
    (store hit counts, queue depths) and are only mirrored on demand.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    # -- family construction -------------------------------------------------
    def _family(self, name: str, kind: str, help_text: str,
                labels: Sequence[str], factory: Callable) -> MetricFamily:
        labels = tuple(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help_text, labels, factory)
                self._families[name] = family
                return family
        if family.kind != kind or family.label_names != labels:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind} with "
                f"labels {list(family.label_names)}; cannot re-register as "
                f"{kind} with labels {list(labels)}"
            )
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        first_bound: float = DEFAULT_FIRST_BOUND,
        buckets: int = DEFAULT_BUCKETS,
        growth: float = DEFAULT_GROWTH,
    ) -> MetricFamily:
        def factory() -> LatencyHistogram:
            return LatencyHistogram(first_bound, buckets, growth)

        return self._family(name, "histogram", help, labels, factory)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- collectors ----------------------------------------------------------
    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        with self._lock:
            self._collectors.append(collector)

    def unregister_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Stop running ``collector`` on scrapes (no-op if not registered)."""
        with self._lock:
            if collector in self._collectors:
                self._collectors.remove(collector)

    def collect(self) -> None:
        """Run every collector (a failing collector is counted, not fatal)."""
        with self._lock:
            collectors = list(self._collectors)
        errors = self.counter(
            "repro_collector_errors_total",
            "Scrape-time collector callbacks that raised.",
        )
        for collector in collectors:
            try:
                collector(self)
            except Exception:  # noqa: BLE001 - a scrape must never 500
                errors.inc()

    # -- snapshot / diff -----------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """Flat ``name{labels}`` → value map (after running collectors).

        Histograms contribute their ``_count`` and ``_sum`` series —
        the scalar views a diff can subtract meaningfully.
        """
        self.collect()
        flat: Dict[str, float] = {}
        for family in self.families():
            for values, child in family.samples():
                key = _sample_name(family.name, family.label_names, values)
                if family.kind == "histogram":
                    flat[_suffix(key, "_count")] = float(child.count)
                    flat[_suffix(key, "_sum")] = float(child.total)
                else:
                    flat[key] = float(child.value)
        return flat

    @staticmethod
    def diff(before: Mapping[str, float],
             after: Mapping[str, float]) -> Dict[str, float]:
        """Non-zero deltas between two :meth:`snapshot` maps."""
        out: Dict[str, float] = {}
        for key, value in after.items():
            delta = value - before.get(key, 0.0)
            if delta:
                out[key] = delta
        return out

    # -- Prometheus text exposition ------------------------------------------
    def render_prometheus(self) -> str:
        """The standard ``text/plain; version=0.0.4`` exposition.

        Families with no children still emit their ``# HELP``/``# TYPE``
        header, so a scraper can assert a metric *exists* (e.g. the
        observer-error counter) before anything has incremented it.
        """
        self.collect()
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.samples():
                pairs = list(zip(family.label_names, values))
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(child.bounds, child.counts):
                        cumulative += count
                        lines.append(_sample_line(
                            family.name + "_bucket",
                            pairs + [("le", _format_value(bound))],
                            cumulative,
                        ))
                    lines.append(_sample_line(
                        family.name + "_bucket", pairs + [("le", "+Inf")],
                        child.count,
                    ))
                    lines.append(_sample_line(
                        family.name + "_sum", pairs, child.total))
                    lines.append(_sample_line(
                        family.name + "_count", pairs, child.count))
                else:
                    lines.append(_sample_line(family.name, pairs, child.value))
        return "\n".join(lines) + "\n"


def _suffix(sample_name: str, suffix: str) -> str:
    if "{" in sample_name:
        base, rest = sample_name.split("{", 1)
        return f"{base}{suffix}{{{rest}"
    return sample_name + suffix


def _sample_name(name: str, label_names: Sequence[str],
                 values: Sequence[str]) -> str:
    if not label_names:
        return name
    inner = ",".join(
        f'{label}="{_escape_label(value)}"'
        for label, value in zip(label_names, values)
    )
    return f"{name}{{{inner}}}"


def _sample_line(name: str, pairs: Sequence[Tuple[str, str]],
                 value: float) -> str:
    if pairs:
        inner = ",".join(
            f'{label}="{_escape_label(text)}"' for label, text in pairs
        )
        name = f"{name}{{{inner}}}"
    return f"{name} {_format_value(value)}"


def _format_value(value: float) -> str:
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace('"', r"\"")
            .replace("\n", r"\n"))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


# -- a tiny exposition parser (CI smoke + tests; no new deps) ----------------

def parse_prometheus(text: str) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Parse a text exposition into ``(samples, types)``.

    ``samples`` maps ``name{labels}`` (exactly as rendered) to the
    float value; ``types`` maps family name to its ``# TYPE``.  Raises
    :class:`ValueError` on any malformed non-comment line, which is the
    point: the CI smoke asserts the server's exposition *parses*.
    """
    samples: Dict[str, float] = {}
    types: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        name, space, value_text = line.rpartition(" ")
        if not space or not name:
            raise ValueError(f"line {lineno}: no value in {raw!r}")
        if name.count("{") != name.count("}") or (
            "{" in name and not name.endswith("}")
        ):
            raise ValueError(f"line {lineno}: malformed labels in {raw!r}")
        bare = name.split("{", 1)[0]
        if not bare or not all(
            c.isalnum() or c in "_:" for c in bare
        ) or bare[0].isdigit():
            raise ValueError(f"line {lineno}: bad metric name in {raw!r}")
        try:
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {value_text!r}"
            ) from exc
        samples[name] = value
    return samples, types


# -- the process default registry --------------------------------------------

_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry (serve renders it next to its own)."""
    return _DEFAULT


# -- publish bridges ----------------------------------------------------------
#
# Hot-path tallies stay plain ints; these helpers mirror a finished
# run's snapshot into a registry as labeled counter increments, so
# repeated runs in one process accumulate operator-visible totals.

def publish_sched_stats(registry: MetricsRegistry,
                        snapshot: Mapping[str, float]) -> None:
    """Fold one run's ``SchedStats.snapshot()`` into the registry."""
    ops = registry.counter(
        "repro_sched_ops_total",
        "Scheduler hot-path operation tallies, accumulated per run.",
        labels=("op",),
    )
    for op in ("fifo_passes", "backfill_passes", "key_evals",
               "running_end_evals", "heap_pushes", "heap_pops",
               "queue_rebuilds", "jobs_examined", "jobs_started",
               "backfill_skips", "decisions_reused"):
        value = snapshot.get(op)
        if value:
            ops.inc(value, op=op)


def publish_store_stats(registry: MetricsRegistry,
                        before: Mapping[str, int],
                        after: Mapping[str, int]) -> None:
    """Fold a store's hit/miss/put delta (two ``store.stats()`` calls)."""
    lookups = registry.counter(
        "repro_store_lookups_total",
        "Result-store lookups by outcome.",
        labels=("result",),
    )
    puts = registry.counter(
        "repro_store_puts_total", "Result-store records written.",
    )
    for key, label in (("hits", "hit"), ("misses", "miss")):
        delta = after.get(key, 0) - before.get(key, 0)
        if delta > 0:
            lookups.inc(delta, result=label)
    delta = after.get("puts", 0) - before.get("puts", 0)
    if delta > 0:
        puts.inc(delta)
