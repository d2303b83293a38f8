"""Bernoulli arms and the random-winner collision channel.

The arms are the config's mean vector; nothing here re-checks it.
``draw_arm_rewards`` draws the realizations of a block of turns as one
(turns, arms) boolean matrix: every arm is realized every turn, pulled or
not.  Consecutive blocks drawn from one generator hold the same values as
one draw of the whole episode.  ``env_step`` then pays one turn's row, a
stretch of turns' rows, or the rows of one turn of a lockstep block of
episodes, to the players.  A player alone on an arm receives its
realization; when several players chose the same arm, one uniformly
drawn winner receives it and the losers get 0.  Random priorities
decide, one uniform per player on a turn with a collision: each
(row, arm)'s highest priority is found once, in one vector over the flat
keys ``row * S + arm`` (a lone row's keys are its arms), and a player is
paid when its own priority reaches its key's.  A stretch finds its
collided turns with one sort of each turn's arms, where a repeated arm
sits next to its twin; a row turn, the learning rules' turn, and each
row of a block turn test their arms with one ``set``, which is cheaper
than the sort at small N.  The environment never tells a player whether
it collided; a loser's zero is indistinguishable from a true zero draw.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .rng import Streams


def draw_arm_rewards(means: Sequence[float], n_turns: int, rng: np.random.Generator) -> np.ndarray:
    """(turns, arms) boolean realizations of every arm, pulled or not.

    ``means`` are the validated ``ExperimentConfig.means``.  One draw of
    ``n_turns * n_arms`` uniforms in row-major order, the same values as one
    draw of ``n_arms`` per turn, so the episode may be drawn in blocks of
    any length.  Bool, not int64: one byte per entry.
    """
    return rng.random((n_turns, len(means))) < np.asarray(means)


def env_step(choices: np.ndarray, arm_rewards: np.ndarray, winner_rng: np.random.Generator | Streams) -> np.ndarray:
    """Each player's boolean rewards for a row turn, (N,), a stretch of k >= 1 turns, (k, N), or a block turn, (B, N).

    ``choices`` holds a row turn's (N,) integer arms and ``arm_rewards``
    its (S,) boolean realizations, a stretch's (k, N) arms and (k, S)
    realizations, or one turn of a lockstep block of B episodes, the
    (B, N) arms and (B, S) realizations, row b episode b's.  Any layout of
    either is accepted, C- or Fortran-ordered, transposed or strided; the
    result is a new array of the shape of ``choices`` and neither input is
    written.  The payout mask is applied in the result's logical order,
    whatever layout it takes from ``choices``.

    Only on a turn with a collision, every player draws a priority, and a
    player is paid when its priority is at least the highest on its arm
    that turn; the highest of k contenders wins with probability 1/k each.
    This is the pairwise rule "a player loses when another player on its
    arm has a strictly higher priority", exact ties included: a priority
    below the arm's maximum is below some contender's, and one equal to it
    is below none.  A row or a stretch draws from the one generator
    ``winner_rng``: the collided turns draw N priorities each, in turn
    order, from one ``winner_rng.random`` call, which returns the values
    one call per collided turn would.  A block turn passes ``rng.Streams``,
    one generator per row, and each collided row draws its N priorities
    from its own.  A turn or row without a collision keeps priorities of
    0, so each of its players tops its own key.  One ``np.maximum.at`` over
    the raveled keys resolves every row.  Each generator must be a
    substream of its own, so the realizations do not depend on the
    collision pattern; the runner passes each episode's ``env-winners``
    substream.

    The collided turns of a stretch are the rows of ``np.sort(choices,
    axis=1)`` with two equal neighbours, found without a Python loop.  A
    learning rule's turns, its sweep's included, come as rows or block
    turns, which skip what is known for them: a row's keys are its arms,
    and a ``set`` of a row's arms shorter than N is its collision.  Rows,
    stretches and block turns share the collision tail.
    """
    n_players, priority = choices.shape[-1], None
    keys = choices if choices.ndim == 1 else choices + np.arange(0, arm_rewards.size, arm_rewards.shape[-1])[:, None]
    realized = arm_rewards.ravel()[keys]
    if choices.ndim == 1:  # a row turn: a repeated arm is its collision
        priority = winner_rng.random(n_players) if len(set(choices.tolist())) < n_players else None
    elif isinstance(winner_rng, Streams):  # a block turn: a collided episode draws from its own stream
        collided = [len(set(arms)) < n_players for arms in choices.tolist()]
        if True in collided:
            priority = np.zeros(keys.shape)
            priority[collided] = [rng.random(n_players) for rng, hit in zip(winner_rng, collided) if hit]
    else:  # a stretch: the sort puts a turn's repeated arms side by side
        ranked = np.sort(choices, axis=1)
        collided = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        drawn = np.count_nonzero(collided)
        priority = winner_rng.random((drawn, n_players)) if drawn else None
        if 0 < drawn < len(keys):  # some turn of the stretch has no collision
            priority, spread = np.zeros(keys.shape), priority
            priority[collided] = spread
    if priority is not None:
        top = np.zeros(arm_rewards.size)  # priorities are >= 0
        np.maximum.at(top, keys.ravel(), priority.ravel())  # raveled: ufunc.at's fast path
        realized &= priority >= top[keys]
    return realized
