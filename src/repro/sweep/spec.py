"""Sweep grids: picklable cell specs and the :class:`Sweep` builder.

A :class:`RunSpec` is the *fully-resolved* description of one
independent run — everything a worker process needs to reproduce the
cell bit-for-bit, and everything the result store needs to address it.
Two cell kinds exist:

* **artifact cells** re-run a registered paper artifact (``fig3``,
  ``table2``, ...) at a given seed and extract its numeric metric table;
* **workload cells** run a paired fixed/flexible workload comparison on
  a :class:`~repro.api.session.Session` the worker resolves from named
  axes (workload family × size × cluster nodes × policy preset ×
  backend; ``repro.sweep.runner.session_for``).

Seeding is deterministic by construction: each cell carries its own
explicit seed (``Sweep.over(seeds=5)`` expands to base, base+1, ...),
so the grid — and therefore every worker — is independent of scheduling
order and worker count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.errors import SweepError
from repro.slurm.reconfig import PolicyConfig

#: Base seed grids expand from when only a count is given (the paper's
#: year, matching the registry default).
DEFAULT_BASE_SEED = 2017

#: Named Algorithm 1 policy variants a sweep can put on an axis.  The
#: names are the stable, store-addressable identity; the configs mirror
#: the ablation benches (default vs literal-paper readings).
POLICY_PRESETS: Dict[str, PolicyConfig] = {
    "default": PolicyConfig(),
    "deepest": PolicyConfig(shrink_mode="deepest"),
    "literal": PolicyConfig(
        shrink_mode="deepest", expand_with_pending=True, shrink_beneficiary="any"
    ),
}

#: Workload families a workload cell can draw from.
WORKLOAD_FAMILIES = ("fs", "realapps")


@dataclass(frozen=True)
class RunSpec:
    """One sweep cell: a picklable, fully-resolved, hashable run identity."""

    kind: str  # "artifact" | "workload"
    seed: int
    artifact: Optional[str] = None
    workload: Optional[str] = None
    num_jobs: Optional[int] = None
    nodes: Optional[int] = None
    policy: Optional[str] = None
    async_mode: bool = False
    max_sim_time: Optional[float] = None
    #: Execution backend for workload cells (registry name; see
    #: :mod:`repro.backend`).  Artifact cells always render through the
    #: simulator.
    backend: str = "sim"

    def __post_init__(self) -> None:
        if not self.backend:
            raise SweepError("backend must be a registry name, got ''")
        if self.kind == "artifact":
            if not self.artifact:
                raise SweepError("artifact cells need an artifact name")
            if self.backend != "sim":
                raise SweepError(
                    "artifact cells always render through the simulator; "
                    f"backend={self.backend!r} is a workload-cell axis"
                )
            for field_name in ("workload", "num_jobs", "nodes", "policy"):
                if getattr(self, field_name) is not None:
                    raise SweepError(
                        f"artifact cells take no {field_name!r} axis "
                        f"(got {getattr(self, field_name)!r})"
                    )
        elif self.kind == "workload":
            if self.artifact is not None:
                raise SweepError("workload cells take no artifact name")
            if self.workload not in WORKLOAD_FAMILIES:
                raise SweepError(
                    f"unknown workload family {self.workload!r}; "
                    f"known: {', '.join(WORKLOAD_FAMILIES)}"
                )
            if self.num_jobs is None or self.num_jobs < 1:
                raise SweepError(
                    f"workload cells need num_jobs >= 1, got {self.num_jobs}"
                )
            if self.nodes is not None and self.nodes < 1:
                raise SweepError(f"nodes must be >= 1, got {self.nodes}")
            if self.policy is None:
                # Canonicalize: policy=None and policy="default" execute
                # identically, so they must be ONE cell identity (store
                # key, equality, group label).
                object.__setattr__(self, "policy", "default")
            if self.policy not in POLICY_PRESETS:
                raise SweepError(
                    f"unknown policy preset {self.policy!r}; "
                    f"known: {', '.join(POLICY_PRESETS)}"
                )
        else:
            raise SweepError(f"unknown cell kind {self.kind!r}")

    # -- identity -----------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """The canonical (store-addressable) form: every field, resolved."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def group_axes(self) -> Tuple[Tuple[str, Any], ...]:
        """The non-seed axes this cell belongs to (aggregation identity).

        ``async_mode`` only shows when set, and ``backend`` only when
        non-default — both are constant within one sweep, and the
        defaults would just be label noise.
        """
        return tuple(
            (f.name, getattr(self, f.name))
            for f in fields(self)
            if f.name != "seed" and getattr(self, f.name) is not None
            and not (f.name == "async_mode" and not getattr(self, f.name))
            and not (f.name == "backend" and getattr(self, f.name) == "sim")
        )

    def group_label(self) -> str:
        """Human/CSV-safe group identity, e.g. ``workload=fs;num_jobs=25``."""
        return ";".join(
            f"{k}={v}" for k, v in self.group_axes() if k != "kind"
        )

    def describe(self) -> str:
        return f"{self.group_label()};seed={self.seed}"


def _seed_axis(
    seeds: Union[int, Iterable[int]], base_seed: int
) -> Tuple[int, ...]:
    if isinstance(seeds, bool):
        raise SweepError("seeds must be a count or an iterable of seeds")
    if isinstance(seeds, int):
        if seeds < 1:
            raise SweepError(f"need at least one seed, got {seeds}")
        return tuple(range(base_seed, base_seed + seeds))
    expanded = tuple(int(s) for s in seeds)
    if not expanded:
        raise SweepError("need at least one seed")
    if len(set(expanded)) != len(expanded):
        raise SweepError(f"duplicate seeds in {expanded}")
    return expanded


@dataclass(frozen=True)
class Sweep:
    """An ordered grid of independent cells (the unit a runner executes)."""

    cells: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise SweepError("a sweep needs at least one cell")
        if len(set(self.cells)) != len(self.cells):
            raise SweepError("duplicate cells in sweep grid")

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def seeds(self) -> Tuple[int, ...]:
        """The distinct seeds in grid order."""
        return tuple(dict.fromkeys(c.seed for c in self.cells))

    @classmethod
    def over(
        cls,
        *,
        seeds: Union[int, Iterable[int]],
        base_seed: int = DEFAULT_BASE_SEED,
        artifacts: Optional[Sequence[str]] = None,
        workloads: Optional[Sequence[str]] = None,
        num_jobs: Optional[Sequence[int]] = None,
        nodes: Optional[Sequence[Optional[int]]] = None,
        policies: Optional[Sequence[str]] = None,
        async_mode: bool = False,
        max_sim_time: Optional[float] = None,
        backend: str = "sim",
    ) -> "Sweep":
        """Expand a declarative grid into cells.

        Either ``artifacts`` (artifact ensembles) or ``workloads`` (+
        ``num_jobs`` and optionally ``nodes``/``policies``) spans the
        non-seed axes; seeds always span the replication axis.  The
        expansion order is the deterministic row-major product, seeds
        innermost, so cell identity never depends on executor behaviour.
        """
        seed_axis = _seed_axis(seeds, base_seed)
        if artifacts and workloads:
            raise SweepError("a sweep is over artifacts or workloads, not both")
        cells = []
        if artifacts:
            for extra_name, extra in (
                ("num_jobs", num_jobs), ("nodes", nodes), ("policies", policies)
            ):
                if extra:
                    raise SweepError(f"artifact sweeps take no {extra_name!r} axis")
            if backend != "sim":
                raise SweepError(
                    "artifact sweeps always render through the simulator; "
                    "backend applies to workload sweeps"
                )
            for name, seed in itertools.product(artifacts, seed_axis):
                cells.append(
                    RunSpec(
                        kind="artifact",
                        artifact=name,
                        seed=seed,
                        async_mode=async_mode,
                        max_sim_time=max_sim_time,
                    )
                )
        elif workloads:
            if not num_jobs:
                raise SweepError("workload sweeps need a num_jobs axis")
            for family, n, node_count, policy, seed in itertools.product(
                workloads,
                num_jobs,
                nodes or (None,),
                policies or ("default",),
                seed_axis,
            ):
                cells.append(
                    RunSpec(
                        kind="workload",
                        workload=family,
                        num_jobs=n,
                        nodes=node_count,
                        policy=policy,
                        seed=seed,
                        async_mode=async_mode,
                        max_sim_time=max_sim_time,
                        backend=backend,
                    )
                )
        else:
            raise SweepError("a sweep needs an artifacts or workloads axis")
        return cls(cells=tuple(cells))
