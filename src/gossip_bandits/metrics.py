"""Game-level reward, loss and regret accounting over a block of turns.

The metrics read two turn-major arrays of one block of an episode's
turns: ``choices`` (turns, N), the arm each player chose, and
``rewards`` (turns, S), the realization of every arm, pulled or not.
``build_run_record`` marks the occupied arms of every turn in one boolean
mask and takes all four series as running sums over turns of per-turn
reductions of that mask, continued from the totals the previous block
ended on.  Every reduction is row-wise, so a block's terms are the same
numbers however the episode is cut.  ``RunRecord`` holds the series in
``runner.AggregateRecord``'s column order, so ``np.asarray(record,
dtype=float)`` is a (4, turns) matrix.

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
    """Cumulative metric series of one seeded episode, per turn or at chosen turns."""

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
    choices: np.ndarray,
    rewards: np.ndarray,
    means: Sequence[float],
    n_players: int,
    start: Sequence[float] = (0, 0, 0, 0),
) -> RunRecord:
    """All four metric series of a block of turns, from one occupancy mask.

    Reward sums the realizations on occupied arms, once per arm however
    many players chose it; loss sums those on unoccupied arms.  Literal
    regret charges every player its chosen arm's mean, so it can go
    negative when players stack on a good arm.  Occupancy regret is the
    shortfall of the occupied arms' means against the top-N baseline.
    ``start`` holds the four totals, in field order, that the previous
    block ended on; zeros begin an episode.

    ``choices`` holds the block's (turns, N) integer arms and ``rewards``
    its (turns, S) boolean or 0/1 realizations, in any layout: C- or
    Fortran-ordered, transposed or strided.  Neither is written.  The
    record's series are (turns,) arrays, the regrets float64 and reward
    and loss integer.
    """
    occupied = np.zeros(rewards.size, dtype=bool)
    occupied[choices + np.arange(0, rewards.size, rewards.shape[1])[:, None]] = True  # keys turn·S + arm
    occupied = occupied.reshape(rewards.shape)
    mu = np.asarray(means, dtype=float)
    best = optimal_per_turn_reward(means, n_players)
    reward = (occupied * rewards).sum(axis=1)
    per_turn = (
        # einsum reads the mask as it is; ``occupied @ mu`` would copy it to float64
        best - np.einsum("ts,s->t", occupied, mu),
        best - mu[choices].sum(axis=1),
        reward,
        rewards.sum(axis=1) - reward,  # what the unoccupied arms realized
    )
    return RunRecord(*map(_running_sum, per_turn, start))


def _running_sum(per_turn: np.ndarray, start: float) -> np.ndarray:
    """Cumulative sums of ``per_turn`` continued from ``start``.

    The carry is the first addend, so the block's sums are the same float
    additions in the same order as one ``cumsum`` over the whole episode:
    ``start + x0``, then ``+ x1`` and so on.  Adding the carry to a block's
    own ``cumsum`` would round differently from the second turn on.
    """
    per_turn[:1] += start
    return np.cumsum(per_turn, out=per_turn)
