"""Bernoulli arms and the random-winner collision channel.

The arms are the config's mean vector; nothing here re-checks it.
``draw_arm_rewards`` draws the realizations of a block of turns as one
(turns, arms) boolean matrix: every arm is realized every turn, pulled or
not.  Consecutive blocks drawn from one generator hold the same values as
one draw of the whole episode.  ``env_step`` then pays one turn's row to
the players.  A player alone on an arm receives its realization; when
several players chose the same arm, one uniformly drawn winner receives
it and the losers get 0.  Random priorities decide, one uniform per
player on a turn with a collision: each arm's highest priority is found
once, in one vector over the arms, and a player is paid when its own
priority reaches its arm's.  The environment never tells a player whether
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
    ``winner_rng.random(N)`` call, and a player is paid when its priority
    is at least the highest on its arm; the highest of k contenders wins
    with probability 1/k each.  This is the pairwise rule "a player loses
    when another player on its arm has a strictly higher priority", exact
    ties included: a priority below the arm's maximum is below some
    contender's, and one equal to it is below none.  ``winner_rng`` must be
    a substream of its own, so the realizations do not depend on the
    collision pattern.

    The per-arm maximum replaces two (N, N) matrices.  At N=20, S=25 that
    took a traced turn of ``env_step`` from about 18 to 10 µs (NumPy 2.4.6,
    Python 3.11, a 2-vCPU Xeon).
    """
    realized = arm_rewards[choices]
    if len(set(choices.tolist())) < len(choices):
        priority = winner_rng.random(len(choices))
        top = np.zeros(len(arm_rewards))  # priorities are >= 0
        np.maximum.at(top, choices, priority)
        realized &= priority >= top[choices]
    return realized
