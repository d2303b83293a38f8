"""Deterministic seed derivation and named random substreams.

Every source of randomness in an episode is a separate numpy Generator
whose seed is mixed from the episode seed and a role label: arm draws,
winner draws, the per-turn graphs, and one stream that all players share.
Substreams never share state, so the reward sequence of the environment
does not depend on how much randomness a policy consumes, and episodes
can run concurrently without coordination.
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
