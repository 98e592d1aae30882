"""Named random-number streams.

Every stochastic subsystem (each noise daemon, the workload's compute-grain
jitter, the balancer's CPU choice, ...) draws from its **own** stream derived
from a master seed and the stream name via :func:`numpy.random.SeedSequence`
spawning.  Two properties follow:

* **Reproducibility** — a campaign is fully determined by its master seed.
* **Independence under reconfiguration** — adding or removing one subsystem
  does not change the numbers any other subsystem draws, so A/B experiment
  arms (stock Linux vs HPL) see identical workload randomness.  This is the
  "common random numbers" variance-reduction technique and is what lets a
  200-repetition simulated campaign show clean separations.

A stream drawn once per compute phase (the workload jitter) can instead be
opened as a :class:`NormalBlock`, which pulls its standard normals from the
generator in blocks.  Each block is the same sequence the scalar draws
would have consumed, so the values are unchanged; but the generator runs
ahead of what has been used, so a blocked stream serves no other draw.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

import numpy as np

__all__ = ["RngStreams", "NormalBlock"]

#: Standard normals a :class:`NormalBlock` draws from its generator at once.
BLOCK_SIZE = 256


class NormalBlock:
    """One stream's standard normals, drawn from its generator in blocks."""

    __slots__ = ("_gen", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._buf: List[float] = []
        self._pos = 0

    def lognormal(self, sigma: float) -> float:
        """The next log-normal variate with underlying mean 0: bit for bit
        what ``RngStreams.lognormal(name, 0.0, sigma)`` would have drawn
        (numpy computes ``exp(mean + sigma * z)`` from one standard normal
        ``z``; a block of them is the same ``z`` sequence)."""
        pos = self._pos
        if pos == len(self._buf):
            self._buf = self._gen.standard_normal(BLOCK_SIZE).tolist()
            pos = 0
        self._pos = pos + 1
        return math.exp(0.0 + sigma * self._buf[pos])


class RngStreams:
    """Factory of named, independent :class:`numpy.random.Generator` objects."""

    def __init__(self, master_seed: int) -> None:
        if not isinstance(master_seed, int):
            raise TypeError("master_seed must be an int")
        self.master_seed = master_seed
        self._cache: Dict[str, np.random.Generator] = {}
        #: Streams opened by :meth:`normal_block`; their generators are
        #: held by the block alone.
        self._blocks: Dict[str, NormalBlock] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        The same ``(master_seed, name)`` pair always yields a generator with
        the same state history, independent of creation order.  A stream
        opened with :meth:`normal_block` has no generator to hand out: its
        state is ahead of the values drawn so far.
        """
        gen = self._cache.get(name)
        if gen is None:
            if name in self._blocks:
                raise ValueError(
                    f"stream {name!r} is drawn in blocks; it serves no other draw"
                )
            # Derive a stable per-name key; crc32 keeps it independent of
            # Python's randomized str hash.
            key = zlib.crc32(name.encode("utf-8"))
            seq = np.random.SeedSequence([self.master_seed, key])
            gen = np.random.default_rng(seq)
            self._cache[name] = gen
        return gen

    def normal_block(self, name: str) -> NormalBlock:
        """The block-drawn form of stream *name*, opened on first use (every
        caller of one name shares its block, as they would the stream).
        From then on every other draw from *name* raises."""
        block = self._blocks.get(name)
        if block is None:
            block = NormalBlock(self.stream(name))
            del self._cache[name]
            self._blocks[name] = block
        return block

    def fork(self, salt: int) -> "RngStreams":
        """Return a new stream family for a sub-experiment (e.g. run *salt* of
        a campaign) that is independent of this one."""
        return RngStreams(self.master_seed * 1_000_003 + salt)

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential variate with the given mean from *name*."""
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw one uniform variate from *name*."""
        return float(self.stream(name).uniform(low, high))

    def lognormal(self, name: str, mean: float, sigma: float) -> float:
        """Draw one log-normal variate (of the underlying normal) from *name*."""
        return float(self.stream(name).lognormal(mean, sigma))

    def integers(self, name: str, low: int, high: int) -> int:
        """Draw one integer in ``[low, high)`` from *name*."""
        return int(self.stream(name).integers(low, high))

    def random(self, name: str) -> float:
        """Draw one U[0,1) variate from *name*."""
        return float(self.stream(name).random())
