"""Lightweight spans over two clocks: simulation time and wall time.

A :class:`Span` is a named interval with free-form attributes; a
:class:`Telemetry` recorder is a bounded buffer of them plus the
correlation id that ties one recorder's output to the serve job, sweep
cell or session that produced it.  Two clocks coexist deliberately:

* ``sim`` spans carry *simulated* timestamps (seconds of virtual time,
  e.g. a runtime reconfiguration window from quiesce to redistribution
  done) — recorded by engine-side code that already knows both ends of
  the interval, so there is no context-manager bookkeeping on the hot
  path;
* ``wall`` spans carry Unix-epoch timestamps (a sweep cell, a job on a
  wall-clock backend) and are recorded once the interval has ended,
  with ``Telemetry.record(name, start, end, CLOCK_WALL)``.

The Perfetto exporter keeps the two clocks on separate process tracks,
so both timelines stay internally coherent.

The scheduler records one span per pass, so its call site appends a
:class:`PassSpan` rather than a :class:`Span`: one flat tuple built by a
single C-level call, with no ``Span`` instance and no attrs dict.
:attr:`Telemetry.spans` unpacks pass spans into ``Span`` objects when
the spans are read, outside the pass.

The buffer is bounded (:attr:`TelemetryConfig.max_spans`); once full,
further spans increment :attr:`Telemetry.dropped` instead of silently
vanishing or growing without limit — million-job benches can run with
telemetry on and report exactly how much they shed.

Correlation: a :class:`TelemetryConfig` is a frozen, picklable value
that travels on ``Session``.  A parent (serve job,
sweep runner) mints an id, derives per-cell child ids with
:meth:`TelemetryConfig.child`, and process-pool workers build their own
recorder from the shipped config — worker spans come back tagged with
the parent's trace lineage.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Union

CLOCK_SIM = "sim"
CLOCK_WALL = "wall"

#: Default span-buffer bound.  Roughly 2.5 spans/job on the scheduler
#: bench, so 100k holds a 20k-job replay with real headroom while
#: keeping the worst case tens of MB, not unbounded.
DEFAULT_MAX_SPANS = 100_000


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable telemetry settings carried by a Session."""

    correlation_id: Optional[str] = None
    max_spans: int = DEFAULT_MAX_SPANS

    def __post_init__(self) -> None:
        if self.max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {self.max_spans}")

    def child(self, suffix: object) -> "TelemetryConfig":
        """The same config scoped one level down (``parent/suffix``)."""
        base = self.correlation_id
        cid = str(suffix) if base is None else f"{base}/{suffix}"
        return replace(self, correlation_id=cid)


class Span:
    """One named interval (or instant, when ``end`` is None)."""

    __slots__ = ("name", "start", "end", "clock", "track", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        end: Optional[float],
        clock: str = CLOCK_SIM,
        track: str = "main",
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.name = name
        self.start = float(start)
        self.end = None if end is None else float(end)
        self.clock = clock
        self.track = track
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    @property
    def instant(self) -> bool:
        return self.end is None

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "clock": self.clock,
            "track": self.track,
        }
        if self.attrs:
            data["attrs"] = dict(self.attrs)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Span":
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),  # type: ignore[arg-type]
            end=None if data.get("end") is None else float(data["end"]),  # type: ignore[arg-type]
            clock=str(data.get("clock", CLOCK_SIM)),
            track=str(data.get("track", "main")),
            attrs=dict(data.get("attrs", {})),  # type: ignore[arg-type]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        span = f"@{self.start:g}" if self.instant else \
            f"[{self.start:g}, {self.end:g}]"
        return f"Span({self.name!r} {span} {self.clock}/{self.track})"


class PassSpan(tuple):
    """One scheduler pass as a ``sched.pass`` span, packed into a flat
    tuple ``(at, kind, examined, started, wall_us)``.

    Built as ``PassSpan((at, kind, examined, started, wall_us))``.  A pass
    is instantaneous in simulated time, so ``at`` is both ends of the
    span.  ``name`` and ``attrs`` read as a :class:`Span`'s do, for code
    that inspects spans as they are appended; :meth:`unpack` builds the
    :class:`Span` itself.
    """

    __slots__ = ()

    name = "sched.pass"

    @property
    def attrs(self) -> Dict[str, object]:
        _, kind, examined, started, wall_us = self
        return {"kind": kind, "examined": examined, "started": started,
                "wall_us": wall_us}

    def unpack(self) -> Span:
        at = self[0]
        return Span(self.name, at, at, CLOCK_SIM, "scheduler", self.attrs)


class Telemetry:
    """A bounded span recorder with an explicit drop counter."""

    __slots__ = ("config", "_spans", "_unpacked", "dropped")

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config or TelemetryConfig()
        self._spans: List[Union[Span, PassSpan]] = []
        #: How many leading entries of ``_spans`` are known unpacked.
        self._unpacked = 0
        self.dropped = 0

    @property
    def correlation_id(self) -> Optional[str]:
        return self.config.correlation_id

    def __len__(self) -> int:
        """Spans recorded; counting leaves pass spans packed."""
        return len(self._spans)

    @property
    def spans(self) -> List[Span]:
        """Every recorded span, oldest first.

        Pass spans appended since the last read are unpacked in place,
        so each is built once however often the list is read.
        """
        spans = self._spans
        for i in range(self._unpacked, len(spans)):
            span = spans[i]
            if type(span) is PassSpan:
                spans[i] = span.unpack()
        self._unpacked = len(spans)
        return spans  # type: ignore[return-value]

    # -- recording -----------------------------------------------------------
    def record(
        self,
        name: str,
        start: float,
        end: Optional[float],
        clock: str = CLOCK_SIM,
        track: str = "main",
        **attrs: object,
    ) -> None:
        """Record one finished interval (both ends already known)."""
        if len(self._spans) >= self.config.max_spans:
            self.dropped += 1
            return
        self._spans.append(Span(name, start, end, clock, track, attrs or None))

    def append(self, span: Union[Span, PassSpan]) -> None:
        """Append a pre-built span (the scheduler hot-path entry point).

        :meth:`record` packs kwargs into an attrs dict on every call —
        fine everywhere except a per-pass call site, where building a
        :class:`Span` and its attrs dict dominates the recording cost.
        The scheduler passes a :class:`PassSpan` and lands here.
        """
        spans = self._spans
        if len(spans) >= self.config.max_spans:
            self.dropped += 1
            return
        spans.append(span)

    def instant(
        self,
        name: str,
        at: float,
        clock: str = CLOCK_SIM,
        track: str = "main",
        **attrs: object,
    ) -> None:
        """Record a point event (rendered as a Perfetto instant)."""
        self.record(name, at, None, clock, track, **attrs)

    # -- (de)serialization ---------------------------------------------------
    def as_dicts(self) -> List[Dict[str, object]]:
        """JSON-ready span list, each tagged with the correlation id."""
        cid = self.correlation_id
        out = []
        for span in self.spans:
            data = span.as_dict()
            if cid is not None:
                data["cid"] = cid
            out.append(data)
        return out

    def counts_by_name(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for span in self._spans:  # a PassSpan has a name too: no unpacking
            out[span.name] = out.get(span.name, 0) + 1
        return out
