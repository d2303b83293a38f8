"""Game-level reward, loss and regret accounting over an episode's arrays.

The metrics read two of an episode's turn-major arrays: ``choices``
(turns, N), the arm each player chose, and ``rewards`` (turns, S), the
realization of every arm, pulled or not.  ``build_run_record`` marks the
occupied arms of every turn in one boolean mask and takes all four series
as cumulative sums over turns of per-turn reductions of that mask.
``RunRecord`` holds them in ``runner.AggregateRecord``'s column order, so
``np.asarray(record, dtype=float)`` is the episode's (4, turns) matrix.

Two regret flavors are computed for every run.  The literal one charges
each player its chosen arm's true mean even when several players chose
the same arm; under heavy collisions it double-counts and can go
negative.  The occupancy one credits each pulled arm's mean once per
turn, which is the quantity the total-reward definition actually pays,
and is the headline series for plots.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np


class RunRecord(NamedTuple):
    """Per-turn cumulative metric series for one seeded episode."""

    regret_occupancy: np.ndarray
    regret_literal: np.ndarray
    reward: np.ndarray
    loss: np.ndarray


def optimal_per_turn_reward(means: Sequence[float], n_players: int) -> float:
    """Expected per-turn reward of the best static assignment: top-N mean sum.

    Uses a correctly rounded sum so the textbook vectors come out exact.
    """
    return math.fsum(sorted(means, reverse=True)[:n_players])


def build_run_record(
    choices: np.ndarray, rewards: np.ndarray, means: Sequence[float], n_players: int
) -> RunRecord:
    """All four metric series of one episode, from one occupancy mask.

    Reward sums the realizations on occupied arms, once per arm however
    many players chose it; loss sums those on unoccupied arms.  Literal
    regret charges every player its chosen arm's mean, so it can go
    negative when players stack on a good arm.  Occupancy regret is the
    shortfall of the occupied arms' means against the top-N baseline.
    """
    occupied = np.zeros(rewards.shape, dtype=bool)
    occupied[np.arange(len(choices))[:, None], choices] = True
    mu = np.asarray(means, dtype=float)
    best = optimal_per_turn_reward(means, n_players)
    return RunRecord(
        # einsum reads the mask as it is; ``occupied @ mu`` would copy it to float64
        regret_occupancy=np.cumsum(best - np.einsum("ts,s->t", occupied, mu)),
        regret_literal=np.cumsum(best - mu[choices].sum(axis=1)),
        reward=np.cumsum((occupied * rewards).sum(axis=1)),
        loss=np.cumsum((~occupied * rewards).sum(axis=1)),
    )
