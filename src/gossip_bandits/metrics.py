"""Game-level reward, loss and regret accounting over an episode's arrays.

An episode is three (turn-major) arrays: the arm each player chose, the
realization of every arm, and the reward each player received.  Every
series here is a cumulative sum over turns of a per-turn array reduction.

Two regret flavors are computed for every run.  The literal one charges
each player its chosen arm's true mean even when several players chose
the same arm; under heavy collisions it double-counts and can go
negative.  The occupancy one credits each pulled arm's mean once per
turn, which is the quantity the total-reward definition actually pays,
and is the headline series for plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .env import ArmSet


@dataclass(frozen=True)
class GameHistory:
    """An episode's arrays plus the ground-truth arms (metrics-side only).

    ``choices_matrix`` is (turns, players) chosen arms, ``rewards_matrix``
    (turns, arms) realizations of every arm, pulled or not, and
    ``realized_matrix`` (turns, players) the reward each player received,
    0 for a collision loser.
    """

    choices_matrix: np.ndarray
    rewards_matrix: np.ndarray
    realized_matrix: np.ndarray
    arms: ArmSet

    def __post_init__(self) -> None:
        n_turns, n_players = self.choices_matrix.shape
        if n_turns < 1:
            raise ValueError("history must contain at least one turn")
        if self.rewards_matrix.shape != (n_turns, self.arms.n_arms):
            raise ValueError(f"rewards have shape {self.rewards_matrix.shape}")
        if self.realized_matrix.shape != (n_turns, n_players):
            raise ValueError(f"realized rewards have shape {self.realized_matrix.shape}")

    @property
    def n_turns(self) -> int:
        return self.choices_matrix.shape[0]

    @property
    def n_players(self) -> int:
        return self.choices_matrix.shape[1]

    @cached_property
    def occupancy_matrix(self) -> np.ndarray:
        """(turns, arms) 0/1 whether anyone pulled the arm."""
        occupied = np.zeros((self.n_turns, self.arms.n_arms), dtype=np.int64)
        rows = np.repeat(np.arange(self.n_turns), self.n_players)
        occupied[rows, self.choices_matrix.ravel()] = 1
        return occupied


@dataclass(frozen=True)
class RunRecord:
    """Per-turn cumulative metric series for one seeded episode."""

    cumulative_reward: np.ndarray
    cumulative_loss: np.ndarray
    regret_literal: np.ndarray
    regret_occupancy: np.ndarray
    metadata: dict

    @property
    def n_turns(self) -> int:
        return len(self.cumulative_reward)


def cumulative_reward(history: GameHistory) -> np.ndarray:
    """Running total of each pulled arm's realization, counted once per turn."""
    per_turn = (history.occupancy_matrix * history.rewards_matrix).sum(axis=1)
    return np.cumsum(per_turn)


def cumulative_loss(history: GameHistory) -> np.ndarray:
    """Running total of realizations left on unpulled arms."""
    per_turn = ((1 - history.occupancy_matrix) * history.rewards_matrix).sum(axis=1)
    return np.cumsum(per_turn)


def optimal_per_turn_reward(arms: ArmSet, n_players: int) -> float:
    """Expected per-turn reward of the best static assignment: top-N mean sum.

    Uses a correctly rounded sum so the textbook vectors come out exact.
    """
    if n_players < 1:
        raise ValueError(f"need at least 1 player, got {n_players}")
    if n_players > arms.n_arms:
        raise ValueError(f"{n_players} players cannot occupy {arms.n_arms} distinct arms")
    top = sorted(arms.means, reverse=True)[:n_players]
    return math.fsum(top)


def cumulative_regret_literal(history: GameHistory) -> np.ndarray:
    """Per-player mean-of-chosen-arm shortfall, collisions not deducted.

    Can go negative when players stack on a good arm, since every puller
    is credited the full mean.
    """
    best = optimal_per_turn_reward(history.arms, history.n_players)
    chosen_means = history.arms.means_array[history.choices_matrix].sum(axis=1)
    return np.cumsum(best - chosen_means)


def cumulative_regret_occupancy(history: GameHistory) -> np.ndarray:
    """Shortfall of expected occupied-arm reward against the top-N baseline."""
    best = optimal_per_turn_reward(history.arms, history.n_players)
    occupied_means = history.occupancy_matrix @ history.arms.means_array
    return np.cumsum(best - occupied_means)


def expected_turn_loss(
    mix: Sequence[float], arms: ArmSet, n_players: int
) -> float:
    """Expected one-turn loss when every player samples arms from ``mix``."""
    c = np.asarray(mix, dtype=float)
    if c.shape != (arms.n_arms,):
        raise ValueError(f"mix has shape {c.shape}, expected ({arms.n_arms},)")
    return float(np.sum((1.0 - c) ** n_players * arms.means_array))


def build_run_record(history: GameHistory, metadata: dict) -> RunRecord:
    """Assemble all four metric series for one completed episode."""
    return RunRecord(
        cumulative_reward=cumulative_reward(history),
        cumulative_loss=cumulative_loss(history),
        regret_literal=cumulative_regret_literal(history),
        regret_occupancy=cumulative_regret_occupancy(history),
        metadata=dict(metadata),
    )
