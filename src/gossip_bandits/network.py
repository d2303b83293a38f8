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

The tallies and the report rows are float64 whole-number counts, because
NumPy computes a float64 product through BLAS but an integer one in its
generic loop, several times slower at N=20.  Every count is exact, since
no tally of an episode comes near 2**53.  The reach matrices stay boolean,
one byte per entry, drawn a block of turns at a time; a float64 copy of a
block's would take eight times as much.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def sample_reach(
    n_players: int, alpha: float, n_turns: int, rng: np.random.Generator
) -> np.ndarray:
    """(turns, N, N) reach matrices of ``n_turns`` independent graphs.

    Always N(N-1)/2 uniforms per turn, pairs in ``itertools.combinations``
    order, so the stream holds the same values whatever ``alpha`` is, and
    consecutive blocks of turns draw the same graphs as one draw of all.
    """
    # n_players comes from the validated config; run_episode takes alpha on its own
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"connectivity {alpha} outside [0, 1]")
    first, second = np.triu_indices(n_players, k=1)  # pair k is (first[k], second[k])
    edges = rng.random((n_turns, len(first))) < alpha
    reach = np.zeros((n_turns, n_players * n_players), dtype=bool)
    reach[:, first * n_players + second] = edges  # the upper triangle, one flat scatter
    reach = reach.reshape(n_turns, n_players, n_players)
    reach |= reach.transpose(0, 2, 1)
    reach[:, np.arange(n_players), np.arange(n_players)] = True
    return reach


@lru_cache(maxsize=None)
def _report_rows(n_arms: int) -> np.ndarray:
    """(arm, reward) -> one report row: one-hot arm, then one-hot times reward."""
    rows = np.zeros((n_arms, 2, 2 * n_arms), dtype=np.float64)
    arms = np.arange(n_arms)
    rows[arms, :, arms] = 1
    rows[arms, 1, n_arms + arms] = 1
    rows.flags.writeable = False
    return rows


def disseminate(
    tallies: np.ndarray,
    reach: np.ndarray,
    choices: np.ndarray,
    realized: np.ndarray,
) -> None:
    """Add every player's (arm, reward) report to the float64 tallies of all it reaches.

    ``realized`` may be 0/1 integers or ``env_step``'s booleans.
    """
    rows = _report_rows(tallies.shape[1] // 2)
    # the rewards index the row table, never mask it: booleans become 0/1
    tallies += reach @ rows[choices, realized.astype(np.intp, copy=False)]
