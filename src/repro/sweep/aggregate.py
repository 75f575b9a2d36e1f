"""Statistical aggregation of sweep cells into seed-ensemble bands.

Cells sharing every non-seed axis form one *group*; within a group each
metric's values across seeds collapse into a
:class:`~repro.metrics.summary.MetricStats` (mean, median, sample
stdev, Student-t 95% CI).  That rule is for the simulated paper
metrics only: the cells' wall times are reported as order statistics
(:func:`~repro.metrics.summary.order_stats`, see ``repro bench``).
Output ordering is canonical — groups in grid order, metrics
alphabetically — and the CSV renderer formats floats with a fixed
``%.10g``, so aggregated output is byte-identical regardless of worker
count or completion order (the ``tests/sweep/test_determinism.py``
contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.metrics.report import format_table
from repro.metrics.summary import MetricStats, metric_stats

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.runner import CellOutcome


@dataclass(frozen=True)
class AggregateRow:
    """One (group, metric) ensemble statistic."""

    group: str
    metric: str
    stats: MetricStats


@dataclass(frozen=True)
class Aggregate:
    """The aggregated view of a sweep: one row per (group, metric)."""

    rows: Tuple[AggregateRow, ...]

    def as_table(self) -> str:
        return format_table(
            ["group", "metric", "n", "mean ± 95% CI", "median", "stdev"],
            [
                [
                    r.group,
                    r.metric,
                    r.stats.n,
                    r.stats.format_mean_ci(),
                    r.stats.median,
                    r.stats.stdev,
                ]
                for r in self.rows
            ],
            title="Sweep aggregate (per-metric seed-ensemble statistics)",
        )

    def as_csv(self) -> str:
        lines = ["group,metric,n,mean,ci95_half,ci_low,ci_high,median,stdev"]
        for r in self.rows:
            s = r.stats
            lines.append(
                f"{r.group},{r.metric},{s.n},{s.mean:.10g},{s.ci95_half:.10g},"
                f"{s.ci_low:.10g},{s.ci_high:.10g},{s.median:.10g},{s.stdev:.10g}"
            )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> Dict[str, Dict[str, dict]]:
        """Nested ``group -> metric -> stats`` form (the bench currency)."""
        out: Dict[str, Dict[str, dict]] = {}
        for r in self.rows:
            out.setdefault(r.group, {})[r.metric] = r.stats.as_dict()
        return out


@dataclass(frozen=True)
class SweepResult:
    """Every executed cell of one sweep, in grid order."""

    cells: Tuple["CellOutcome", ...]
    #: Worker-pool width the sweep ran with (1 = serial).
    jobs: int = 1

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def cached_cells(self) -> int:
        return sum(1 for c in self.cells if c.cached)

    @property
    def computed_cells(self) -> int:
        return len(self.cells) - self.cached_cells

    @property
    def compute_wall_time(self) -> float:
        """Total per-cell compute seconds spent *this* run (misses only)."""
        return sum(c.wall_time for c in self.cells if not c.cached)

    def aggregate(self) -> Aggregate:
        """Collapse the seed axis into per-group, per-metric statistics."""
        groups: Dict[str, Dict[str, List[float]]] = {}
        for cell in self.cells:  # grid order fixes group order
            by_metric = groups.setdefault(cell.spec.group_label(), {})
            for metric, value in cell.metrics.items():
                by_metric.setdefault(metric, []).append(value)
        rows = [
            AggregateRow(group=group, metric=metric,
                         stats=metric_stats(values))
            for group, by_metric in groups.items()
            for metric, values in sorted(by_metric.items())
        ]
        return Aggregate(rows=tuple(rows))
