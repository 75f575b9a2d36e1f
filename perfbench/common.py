"""Shared plumbing: inputs from the seed, results, checks, memory."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: The seed whose digests and counts are recorded in ``expected.json``.
DEFAULT_SEED = 2017

#: End-to-end metrics every untraced run reports (BENCHMARK.json order).
END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb",
              "setup_s")
#: Units of the end-to-end metrics that are timed.
TIMED_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms",
               "latency_p90_ms": "ms", "setup_s": "s"}

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout the benchmark runs in (the parent of this directory).
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")
#: Scratch space inside the checkout (stores, logs, exported spans).
WORK_DIR = os.path.join(ROOT, ".perfbench-work")


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one generated input, stable across processes."""
    text = ":".join(str(p) for p in (seed,) + parts)
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:8], 16) >> 1


#: Iterations of the reference loop, and the seconds it takes on the
#: 2-vCPU machine the benchmark was built on in a fast phase.
REFERENCE_LOOPS = 500_000
REFERENCE_S = 0.04
#: Loops timed back to back at each sampling point.
REFERENCE_REPS = 3


def reference_loop() -> int:
    """Fixed pure-Python work that no part of the program runs."""
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return total


class MachineSpeed:
    """How fast the machine runs during one run, from a reference loop.

    The host alternates between fast and slow phases that last from
    seconds to minutes and slow every time metric of a run together
    (see README.md, noise profile).  Timing the same fixed loop at points
    spread over a run measures the phase the run saw; the run's times
    are then reported at the reference speed (``REFERENCE_S`` per loop),
    so the phase drops out while a change to the program, which the loop
    does not run, shows in full.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        for _ in range(REFERENCE_REPS):
            t0 = time.perf_counter()
            reference_loop()
            self.samples.append(time.perf_counter() - t0)

    @property
    def factor(self) -> float:
        """Wall seconds times this factor are seconds at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


def add_timed(result: "Result", speed: MachineSpeed, wall: Dict[str, float],
              samples: Dict[str, int]) -> None:
    """Report timed end-to-end metrics at reference speed.

    ``wall`` holds the wall-clock values, which are kept in a note; a
    rate is divided by the speed factor and a time multiplied by it.
    """
    scale = speed.factor
    result.notes.append(
        "wall clock: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items())
        + f"; reported at reference speed, factor {scale:.4f} from "
        f"{len(speed.samples)} samples")
    for name, value in wall.items():
        value = value / scale if name == "ops_per_s" else value * scale
        result.add(name, value, TIMED_UNITS[name], samples[name])


def fresh_heap() -> None:
    """Collect garbage so every timed unit starts from the same heap."""
    gc.collect()


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Result:
    """One run's outcome: the JSON result line plus the readable table."""

    workload: str
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Metric] = field(default_factory=dict)
    #: Extra lines printed before the result (aliases, digests, counts).
    notes: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def fail(self, problem: str, operations: int = 1) -> None:
        self.problems.append(problem)
        self.failed += operations

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def as_json(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": m.value, "unit": m.unit}
                for name, m in self.metrics.items()
            },
        }, sort_keys=True)

    def table(self) -> List[str]:
        lines = [f"# {self.workload}: attempted={self.attempted} "
                 f"failed={self.failed} correct={self.correct}"]
        lines += [f"# {note}" for note in self.notes]
        lines += [f"# problem: {p}" for p in self.problems]
        for name, m in self.metrics.items():
            lines.append(f"{name:34s} {m.value:14.6g} {m.unit:6s} n={m.samples}")
        return lines


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process, or of its largest waited-for
    child process, in MiB (``ru_maxrss`` is KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def work_dir(name: str) -> str:
    """A fresh scratch directory under the checkout's work dir."""
    path = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# -- recorded values on the default seed ----------------------------------------

def load_expected(workload: str) -> Optional[Dict[str, object]]:
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


def check_values(result: Result, label: str, got: Dict[str, object],
                 want: Dict[str, object]) -> None:
    """Fail the run for every key whose value differs from ``want``."""
    for key in sorted(want):
        if got.get(key) != want[key]:
            result.fail(f"{label}: {key} = {got.get(key)!r}, "
                        f"expected {want[key]!r}")


def check_against_record(result: Result, seed: int,
                         observed: Dict[str, object]) -> None:
    """On the default seed, compare the deterministic values with the
    ones recorded by hand in ``expected.json``."""
    if seed != DEFAULT_SEED:
        return
    expected = load_expected(result.workload)
    if expected is None:
        result.fail(f"no recorded values for {result.workload}")
        return
    check_values(result, "default seed", observed, expected)

