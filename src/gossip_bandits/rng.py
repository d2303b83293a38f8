"""Deterministic seed derivation and named random substreams.

Every source of randomness in an episode is a separate numpy Generator
whose seed is mixed from the episode seed and a role label: arm draws,
winner draws, the per-turn graphs, and one stream that all players share.
Substreams never share state, so the reward sequence of the environment
does not depend on how much randomness a policy consumes, and episodes
can run concurrently without coordination.

Two streams whose draws do not depend on the game state are read ahead,
because one NumPy call per turn costs more than the values it returns:
the random policy's arms on the ``players`` stream, one stretch of turns
per call (see ``policies.UniformRandomPolicy``), and the collision
priorities on the ``env-winners`` stream, through ``Prefetched``.  A
stretch of turns asks for the priorities of all its collided turns in one
``random(n)`` call, in turn order.  The values each consumer uses and
their order are unchanged; only the streams' end states differ, since an
episode ends with unread values drawn, and nothing reads those end
states.  The other policies' ``players`` stream is not read ahead: it
interleaves doubles, 32-bit integers and Beta draws, so reading it ahead
would change what each call returns.
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


# Uniforms ``Prefetched`` draws per refill: 8 KiB of float64.
_PREFETCH = 1024


class Prefetched:
    """A generator's ``random(n)``, served from a buffer drawn ``_PREFETCH`` uniforms at a time.

    PCG64 makes each float64 from one 64-bit output, so ``random(a)`` then
    ``random(b)`` returns the values of one ``random(a + b)``, and reading
    ahead leaves every value in its place.  A refill keeps the unread tail
    in front of the new draw, and draws more than ``_PREFETCH`` when ``n``
    asks for it.  The returned arrays are views of the buffer.
    """

    def __init__(self, rng: np.random.Generator):
        self._rng, self._buffer, self._next = rng, np.empty(0), 0

    def random(self, n: int) -> np.ndarray:
        end = self._next + n
        if end > len(self._buffer):
            tail = self._buffer[self._next:]
            self._buffer = np.concatenate((tail, self._rng.random(max(_PREFETCH, n - len(tail)))))
            self._next, end = 0, n
        out = self._buffer[self._next:end]
        self._next = end
        return out
