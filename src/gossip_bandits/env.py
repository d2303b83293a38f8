"""Bernoulli arms and the random-winner collision channel.

The arms are the config's mean vector; nothing here re-checks it.
``draw_arm_rewards`` draws the realizations of a block of turns as one
(turns, arms) boolean matrix: every arm is realized every turn, pulled or
not.  Consecutive blocks drawn from one generator hold the same values as
one draw of the whole episode.  ``env_step`` then pays one turn's row, or
a stretch of turns' rows, to the players.  A player alone on an arm
receives its realization; when several players chose the same arm, one
uniformly drawn winner receives it and the losers get 0.  Random
priorities decide, one uniform per player on a turn with a collision:
each (turn, arm)'s highest priority is found once, in one vector over
the stretch's flat keys ``turn * S + arm`` (a row's keys are its arms),
and a player is paid when its own priority reaches its key's.  A stretch finds its collided turns with one sort of each
turn's arms, where a repeated arm sits next to its twin; a row turn, the
learning rules' turn, tests its arms with one ``set``, which is cheaper
than the sort at small N.  The environment never tells a player whether
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
    """Each player's boolean rewards for a row turn, (N,), or a stretch of k >= 1 turns, (k, N).

    ``choices`` holds a row turn's (N,) integer arms and ``arm_rewards``
    its (S,) boolean realizations, or a stretch's (k, N) arms and (k, S)
    realizations.  Any layout of either is accepted, C- or
    Fortran-ordered, transposed or strided; the result is a new array of
    the shape of ``choices`` and neither input is written.  The payout
    mask is applied in the result's logical order, whatever layout it
    takes from ``choices``.

    Only on a turn with a collision, every player draws a priority, and a
    player is paid when its priority is at least the highest on its arm
    that turn; the highest of k contenders wins with probability 1/k each.
    This is the pairwise rule "a player loses when another player on its
    arm has a strictly higher priority", exact ties included: a priority
    below the arm's maximum is below some contender's, and one equal to it
    is below none.  The collided turns draw N priorities each, in turn
    order, from one ``winner_rng.random`` call, which returns the values
    one call per collided turn would; a turn without a collision keeps
    priorities of 0, so each of its players tops its own key.  One
    ``np.maximum.at`` over the raveled keys resolves every turn.
    ``winner_rng`` must be a substream of its own, so the realizations do
    not depend on the collision pattern; the runner passes the episode's
    ``env-winners`` substream.

    The collided turns of a stretch are the rows of ``np.sort(choices,
    axis=1)`` with two equal neighbours, found without a Python loop.  A
    learning rule's turns, its sweep's included, come as rows, and a row
    skips what is known for it: its keys are its arms, and a ``set`` of
    them shorter than N is its collision.  A row and a stretch share the
    collision tail.
    """
    n_players = choices.shape[-1]
    if choices.ndim == 1:
        keys = choices  # a row turn's keys are its arms
        drawn = len(set(choices.tolist())) < n_players  # a repeated arm is its collision
    else:
        keys = choices + np.arange(0, arm_rewards.size, arm_rewards.shape[1])[:, None]
        ranked = np.sort(choices, axis=1)  # a turn's repeated arms sit side by side
        collided = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        drawn = np.count_nonzero(collided)
    realized = arm_rewards.ravel()[keys]
    if drawn:
        keys = keys.ravel()
        priority = winner_rng.random(drawn * n_players)
        if len(priority) < len(keys):  # some turn of the stretch has no collision
            priority, spread = np.zeros(len(keys)), priority
            priority[np.repeat(collided, n_players)] = spread
        top = np.zeros(arm_rewards.size)  # priorities are >= 0
        np.maximum.at(top, keys, priority)
        realized &= (priority >= top[keys]).reshape(realized.shape)
    return realized
