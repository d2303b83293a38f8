"""Bernoulli arms and the random-winner collision channel.

The arms are the config's mean vector; nothing here re-checks it.  An
episode's arm realizations are one (turns, arms) boolean matrix, drawn up
front by ``draw_arm_rewards``: every arm is realized every turn, pulled or
not.  ``env_step`` then pays one turn's row to the players.  A player
alone on an arm receives its realization; when several players chose the
same arm, one uniformly drawn winner receives it and the losers get 0.
The environment never tells a player whether it collided; a loser's zero
is indistinguishable from a true zero draw.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def draw_arm_rewards(means: Sequence[float], n_turns: int, rng: np.random.Generator) -> np.ndarray:
    """(turns, arms) boolean realizations of every arm, pulled or not.

    ``means`` are the validated ``ExperimentConfig.means``.  One draw of
    ``n_turns * n_arms`` uniforms in row-major order, the same values as one
    draw of ``n_arms`` per turn.  Bool, not int64: one byte per entry.
    """
    return rng.random((n_turns, len(means))) < np.asarray(means)


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
