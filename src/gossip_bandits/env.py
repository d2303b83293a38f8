"""Bernoulli arms and the random-winner collision channel.

An episode's arm realizations are one (turns, arms) 0/1 matrix, drawn up
front by ``draw_arm_rewards``: every arm is realized every turn, pulled or
not.  ``env_step`` then pays one turn's row to the players.  A player
alone on an arm receives its realization; when several players chose the
same arm, one uniformly drawn winner receives it and the losers get 0.
The environment never tells a player whether it collided; a loser's zero
is indistinguishable from a true zero draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ArmSet:
    """True Bernoulli success probabilities, hidden from the players."""

    means: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "means", tuple(float(m) for m in self.means))
        if len(self.means) < 2:
            raise ValueError(f"need at least 2 arms, got {len(self.means)}")
        for i, m in enumerate(self.means):
            if not 0.0 <= m <= 1.0:
                raise ValueError(f"arm {i} has mean {m} outside [0, 1]")

    @property
    def n_arms(self) -> int:
        return len(self.means)

    @cached_property
    def means_array(self) -> np.ndarray:
        return np.asarray(self.means, dtype=float)


def draw_arm_rewards(arms: ArmSet, n_turns: int, rng: np.random.Generator) -> np.ndarray:
    """(turns, arms) 0/1 realizations of every arm, pulled or not.

    One draw of ``n_turns * n_arms`` uniforms in row-major order: the
    same values as one draw of ``n_arms`` uniforms per turn.
    """
    return (rng.random((n_turns, arms.n_arms)) < arms.means_array).astype(np.int64)


def env_step(
    choices: Sequence[int],
    arm_rewards: Sequence[int],
    winner_rng: np.random.Generator,
) -> list[int]:
    """Each player's reward for one turn of ``arm_rewards``.

    Collided arms are resolved in ascending arm order, one
    ``winner_rng.integers(k)`` each, over their k contenders in ascending
    player order; the losers receive 0.  ``winner_rng`` must be a
    substream of its own, so the rewards do not depend on the collision
    pattern.
    """
    realized = [arm_rewards[arm] for arm in choices]
    if len(set(choices)) == len(choices):
        return realized
    pullers: dict[int, list[int]] = {}
    for player, arm in enumerate(choices):
        pullers.setdefault(arm, []).append(player)
    for arm in sorted(pullers):
        contenders = pullers[arm]
        if len(contenders) > 1:
            winner = contenders[int(winner_rng.integers(len(contenders)))]
            for player in contenders:
                if player != winner:
                    realized[player] = 0
    return realized
