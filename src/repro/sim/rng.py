"""Named, reproducible random-number streams.

Every stochastic component in the simulator draws from its own named stream
derived from a single base seed.  Two runs with the same base seed produce
identical traces, and adding a new consumer of randomness does not perturb
the draws of existing streams (streams are keyed by name, not by creation
order).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Sequence

import numpy as np


def _stream_seed(base_seed: int, name: str) -> np.random.SeedSequence:
    digest = hashlib.sha256(f"{base_seed}:{name}".encode()).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.SeedSequence(words)


class RandomStreams:
    """A registry of independent named :class:`numpy.random.Generator` streams."""

    def __init__(self, base_seed: int = 0) -> None:
        self.base_seed = int(base_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(_stream_seed(self.base_seed, name))
            self._streams[name] = gen
        return gen

    # -- distribution helpers ------------------------------------------------
    def uniform(self, name: str, low: float = 0.0, high: float = 1.0) -> float:
        return float(self.stream(name).uniform(low, high))

    def exponential(self, name: str, mean: float) -> float:
        """Exponential variate with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return float(self.stream(name).exponential(mean))

    def hyperexponential(
        self,
        name: str,
        means: Sequence[float],
        probabilities: Sequence[float],
    ) -> float:
        """Two-or-more branch hyperexponential variate.

        With probability ``probabilities[i]`` the sample is exponential with
        mean ``means[i]``.  Used by the Feitelson workload model to produce
        heavy-tailed runtimes.
        """
        if len(means) != len(probabilities):
            raise ValueError("means and probabilities must have the same length")
        total = float(sum(probabilities))
        # np.isclose(total, 1.0) with its default tolerances, in plain
        # Python: the same totals pass (NaN and infinities fail).
        if not abs(total - 1.0) <= 1e-8 + 1e-5:
            raise ValueError(f"probabilities must sum to 1, got {total}")
        gen = self.stream(name)
        branch = int(gen.choice(len(means), p=np.asarray(probabilities) / total))
        return float(gen.exponential(means[branch]))

    def choice(self, name: str, options: Sequence, p: Sequence[float] | None = None):
        """Pick one element of ``options`` (optionally weighted)."""
        gen = self.stream(name)
        idx = int(gen.choice(len(options), p=p))
        return options[idx]

    def integers(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return int(self.stream(name).integers(low, high + 1))

    def bernoulli(self, name: str, p: float) -> bool:
        """True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {p}")
        return bool(self.stream(name).random() < p)

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child registry (e.g. per experiment cell)."""
        digest = hashlib.sha256(f"{self.base_seed}:spawn:{name}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "little"))
