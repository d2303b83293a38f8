"""Deterministic seed derivation and named random substreams.

Every source of randomness in an episode is a separate numpy Generator
whose seed is mixed from the episode seed and a role label: arm draws,
winner draws, the per-turn graphs, and one stream that all players share.
Substreams never share state, so the reward sequence of the environment
does not depend on how much randomness a policy consumes, and episodes
can run concurrently without coordination, or side by side in one
lockstep block: ``Streams`` holds a block's generators of one role, one
per episode, and draws from each what that episode draws alone
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011,
for independent streams per task).
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(*parts: int | str) -> int:
    """Mix labels into a stable 64-bit seed.

    Uses SHA-256 over the joined string form of the parts, so the result
    is identical across processes, platforms and Python versions (unlike
    the built-in ``hash``).
    """
    digest = hashlib.sha256("\x1f".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def substream(seed: int, *tags: int | str) -> np.random.Generator:
    """Return an independent generator for a named role under ``seed``."""
    return np.random.default_rng(derive_seed(seed, *tags))


class Streams(tuple):
    """A lockstep block's generators of one role, one per episode, drawn from as one.

    Each method draws from every stream, in episode order, what the
    ``np.random.Generator`` method of its name draws for one episode, and
    stacks the draws along a new first axis, the episode axis, so stream b
    ends where episode b's own calls would leave it.  An array argument is
    split along that axis: episode b's stream gets row b.  Indexing gives
    episode b's own generator, for a draw only some episodes make.
    """

    def random(self, size) -> np.ndarray:
        return np.array([rng.random(size) for rng in self])

    def integers(self, high, size) -> np.ndarray:
        return np.array([rng.integers(high, size=size) for rng in self])

    def standard_gamma(self, shape: np.ndarray) -> np.ndarray:
        return np.array([rng.standard_gamma(row) for rng, row in zip(self, shape)])

    def permuted(self, x: np.ndarray, axis: int) -> np.ndarray:
        return np.array([rng.permuted(row, axis=axis) for rng, row in zip(self, x)])
