"""Per-turn random communication graphs and report delivery.

Every turn a fresh undirected graph connects each of the N(N-1)/2 player
pairs independently with probability ``alpha``.  A turn's graph is held
as its boolean reach matrix: the symmetric adjacency plus the identity,
so a player always hears its own report.

Reports land in one shared (N, 2S) tally matrix: its left half counts
every (arm) report a player has heard, its right half the successes among
them.  Delivering a turn is one product, ``tallies += reach @ reports``,
where row j of ``reports`` is player j's one-hot arm followed by the same
one-hot times the reward it received.  Duplicate reports (two neighbours
on one arm) are kept, and a collision loser reports its 0.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


def sample_reach(
    n_players: int, alpha: float, n_turns: int, rng: np.random.Generator
) -> np.ndarray:
    """(turns, N, N) reach matrices of ``n_turns`` independent graphs.

    Always N(N-1)/2 uniforms per turn, pairs in ``itertools.combinations``
    order, so the stream holds the same values whatever ``alpha`` is.
    """
    if n_players < 1:
        raise ValueError(f"need at least 1 player, got {n_players}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"connectivity {alpha} outside [0, 1]")
    first, second = np.triu_indices(n_players, k=1)  # pair k is (first[k], second[k])
    edges = rng.random((n_turns, len(first))) < alpha
    reach = np.zeros((n_turns, n_players, n_players), dtype=bool)
    reach[:, first, second] = edges
    reach[:, second, first] = edges
    reach[:, np.arange(n_players), np.arange(n_players)] = True
    return reach


@lru_cache(maxsize=None)
def _report_rows(n_arms: int) -> np.ndarray:
    """(arm, reward) -> one report row: one-hot arm, then one-hot times reward."""
    rows = np.zeros((n_arms, 2, 2 * n_arms), dtype=np.int64)
    arms = np.arange(n_arms)
    rows[arms, :, arms] = 1
    rows[arms, 1, n_arms + arms] = 1
    rows.flags.writeable = False
    return rows


def disseminate(
    tallies: np.ndarray,
    reach: np.ndarray,
    choices: Sequence[int],
    realized: Sequence[int],
) -> None:
    """Add every player's (arm, reward) report to the tallies of all it reaches."""
    tallies += reach @ _report_rows(tallies.shape[1] // 2)[choices, realized]
