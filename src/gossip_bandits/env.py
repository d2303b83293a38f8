"""Bernoulli arms and the random-winner collision channel.

The arms are the config's mean vector; nothing here re-checks it.
``draw_arm_rewards`` draws the realizations of a block of turns as one
(turns, arms) boolean matrix: every arm is realized every turn, pulled or
not.  Consecutive blocks drawn from one generator hold the same values as
one draw of the whole episode.  ``env_step`` then pays one turn's row to
the players.  A player alone on an arm receives its realization; when
several players chose the same arm, one uniformly drawn winner receives
it and the losers get 0: random priorities decide, one uniform per player
on a turn with a collision.  The environment never tells a player whether
it collided; a loser's zero is indistinguishable from a true zero draw.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def draw_arm_rewards(means: Sequence[float], n_turns: int, rng: np.random.Generator) -> np.ndarray:
    """(turns, arms) boolean realizations of every arm, pulled or not.

    ``means`` are the validated ``ExperimentConfig.means``.  One draw of
    ``n_turns * n_arms`` uniforms in row-major order, the same values as one
    draw of ``n_arms`` per turn, so the episode may be drawn in blocks of
    any length.  Bool, not int64: one byte per entry.
    """
    return rng.random((n_turns, len(means))) < np.asarray(means)


def env_step(choices: np.ndarray, arm_rewards: np.ndarray, winner_rng: np.random.Generator) -> np.ndarray:
    """Each player's reward for one turn's row ``arm_rewards`` of realizations.

    Only on a turn with a collision, every player draws a priority from one
    ``winner_rng.random(N)`` call, and a player receives 0 when another
    player on its arm has a higher one; the highest of k contenders wins
    with probability 1/k each.  ``winner_rng`` must be a substream of its
    own, so the realizations do not depend on the collision pattern.
    """
    realized = arm_rewards[choices]
    same_arm = choices[:, None] == choices
    if same_arm.sum() > len(choices):
        priority = winner_rng.random(len(choices))
        realized &= ~(same_arm & (priority > priority[:, None])).any(axis=1)
    return realized
