"""The Feitelson '96 statistical workload model.

The paper generates its workloads "using the statistical model proposed by
Feitelson, which characterizes rigid jobs based on observations from logs
of actual cluster workloads" and highlights four parameters (Section
VII-C): number of jobs, job size (a hand-tailored discrete distribution
emphasizing small jobs and powers of two), runtime (hyperexponential,
correlated with size), and Poisson inter-arrival times.  Feitelson's
repeated runs of the same job are not modelled: no generated workload
uses them.

This module implements those components with the shapes described in
Feitelson & Rudolph (JSSPP '96): the job-size distribution is harmonic
with a strong boost on powers of two and on "interesting" sizes, and
runtimes come from a two-branch hyperexponential whose long-branch
probability grows with job size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import WorkloadError
from repro.sim.rng import RandomStreams


@dataclass(frozen=True)
class FeitelsonConfig:
    """Parameters of the workload model."""

    #: Largest job size to generate (the paper uses 20 for the preliminary
    #: study: "assigning up to 20 nodes to each job").
    max_size: int = 20
    #: Smallest job size.
    min_size: int = 1
    #: Harmonic exponent of the size distribution (P ~ 1/size^a).
    size_exponent: float = 1.4
    #: Multiplicative weight boost for power-of-two sizes.
    power2_boost: float = 8.0
    #: Mean of the short-runtime exponential branch, seconds.
    runtime_short_mean: float = 30.0
    #: Mean of the long-runtime exponential branch, seconds.
    runtime_long_mean: float = 360.0
    #: Probability of the long branch for the smallest jobs...
    long_prob_small: float = 0.05
    #: ...growing linearly to this value for the largest jobs (runtime is
    #: positively correlated with parallelism in the logs).
    long_prob_large: float = 0.35
    #: Cap applied to sampled runtimes (0 disables the cap).
    runtime_cap: float = 0.0
    #: Mean inter-arrival time of the Poisson process, seconds.
    arrival_mean: float = 10.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_size <= self.max_size:
            raise WorkloadError(
                f"need 1 <= min_size <= max_size, got [{self.min_size}, {self.max_size}]"
            )
        if self.runtime_short_mean <= 0 or self.runtime_long_mean <= 0:
            raise WorkloadError("runtime branch means must be positive")
        if not (0 <= self.long_prob_small <= 1 and 0 <= self.long_prob_large <= 1):
            raise WorkloadError("long-branch probabilities must be in [0, 1]")
        if self.arrival_mean <= 0:
            raise WorkloadError("arrival_mean must be positive")


class FeitelsonModel:
    """Sampler for sizes, runtimes and arrival times."""

    def __init__(self, config: FeitelsonConfig, rng: RandomStreams) -> None:
        self.config = config
        self.rng = rng
        self._size_support = list(range(config.min_size, config.max_size + 1))
        self._size_probs = self._build_size_distribution()

    # -- job size --------------------------------------------------------
    def _build_size_distribution(self) -> np.ndarray:
        cfg = self.config
        weights = []
        for size in self._size_support:
            w = 1.0 / size**cfg.size_exponent
            if size & (size - 1) == 0:  # power of two
                w *= cfg.power2_boost
            weights.append(w)
        probs = np.asarray(weights)
        return probs / probs.sum()

    def sample_size(self) -> int:
        """Draw one job size from the discrete distribution."""
        return int(
            self.rng.choice("feitelson.size", self._size_support, p=self._size_probs)
        )

    # -- runtime -----------------------------------------------------------
    def long_branch_probability(self, size: int) -> float:
        """Probability that a job of ``size`` is long-running."""
        cfg = self.config
        if cfg.max_size == cfg.min_size:
            return cfg.long_prob_small
        frac = (size - cfg.min_size) / (cfg.max_size - cfg.min_size)
        return cfg.long_prob_small + frac * (cfg.long_prob_large - cfg.long_prob_small)

    def sample_runtime(self, size: int) -> float:
        """Hyperexponential runtime, correlated with job size."""
        cfg = self.config
        p_long = self.long_branch_probability(size)
        runtime = self.rng.hyperexponential(
            "feitelson.runtime",
            means=[cfg.runtime_short_mean, cfg.runtime_long_mean],
            probabilities=[1.0 - p_long, p_long],
        )
        runtime = max(1.0, runtime)
        if cfg.runtime_cap > 0:
            runtime = min(runtime, cfg.runtime_cap)
        return runtime

    # -- arrivals ------------------------------------------------------------------
    def sample_interarrival(self) -> float:
        """Exponential inter-arrival gap (Poisson arrivals)."""
        return self.rng.exponential("feitelson.arrival", self.config.arrival_mean)

    def arrival_times(self, count: int) -> List[float]:
        """Cumulative arrival times for ``count`` submissions."""
        if count < 0:
            raise WorkloadError(f"count must be >= 0, got {count}")
        times, t = [], 0.0
        for _ in range(count):
            t += self.sample_interarrival()
            times.append(t)
        return times
