"""Deterministic, labeled random streams.

Every source of randomness in the project draws from an RngStream, which
is fully determined by a 64-bit seed and a string label. Two streams with
different labels are independent even under the same seed, so adding a new
consumer never perturbs existing draws.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream_seed(seed: int, stream: str) -> int:
    """Derive a stable 63-bit integer from (seed, stream label)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class RngStream:
    """A named PCG64 stream; (seed, label, draw index) pins every value."""

    def __init__(self, seed: int, stream: str):
        self.seed = int(seed)
        self.stream = stream
        self._generator = None

    @property
    def _gen(self) -> np.random.Generator:
        # built on the first draw: a stream that only derives children never needs one
        if self._generator is None:
            entropy = [self.seed & 0xFFFFFFFFFFFFFFFF, stream_seed(self.seed, self.stream)]
            self._generator = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return self._generator

    def child(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.stream}/{label}")

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None) -> np.ndarray:
        return self._gen.uniform(low, high, size)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None) -> np.ndarray:
        return self._gen.normal(loc, scale, size)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high] inclusive."""
        return self._gen.integers(low, high, size, endpoint=True)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
