"""The arm-selection algorithms, one object per episode.

All N players run the same algorithm, so an episode builds one policy
from its validated ``ExperimentConfig``, the only place the knobs are
checked, and reads them from it.  It reads the shared (N, 2S) tally matrix
that the network layer writes: row p holds how many reports of each arm
player p has heard, then how many of them were successes, its own pulls
and its neighbours' reports counted alike.  It never writes the tallies.
They are float64 whole-number counts, float so that the network layer
delivers a turn with a BLAS product over its boolean reach matrix, and
exact below 2**53, so every rule reads the same numbers as from integers.
``select()`` returns the turn's N choices: the sweep's next turn, else the
algorithm's own step ``choose()``, which works on all rows at once.

All players draw from one generator, the episode's ``players``
substream, and every draw of a turn is one array call over the rows:
the sweep's permutations, the tie-breaks, the exploration coins and arms,
Thompson's Beta draws and asympopt's categorical draws.  A run is
reproducible from its seed alone, but a player's choices depend on the
draws of the others.  The annealed ε is one shared value: every player
selects once per turn, so all of theirs are equal at every turn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .config import ExperimentConfig

INIT_ORDERS = ("sequential", "random")


def argmax_rows(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Each row's index of its maximum; exact ties are broken uniformly at random.

    ``values`` holds no NaN.  The first maximum of each row comes from one
    ``argmax``, and one gather of those maxima marks every entry that
    equals its row's; with one mark per row that index is the answer and
    nothing is drawn.  Only when some row has several maxima, one uniform
    per entry ranks them, and each row takes its best-ranked one.
    """
    best = values.argmax(axis=1)
    top = values[np.arange(len(values)), best]
    tied = values == top[:, None]
    if np.count_nonzero(tied) == len(tied):
        return best
    return np.where(tied, rng.random(tied.shape), -1.0).argmax(axis=1)


def mix_probabilities(mu: np.ndarray, n_players: int) -> np.ndarray:
    """Closed-form minimizer of the expected per-turn loss over the simplex.

    For each row of means ``mu`` (the last axis runs over arms), returns the
    per-arm pull probabilities that minimize ``sum_i (1 - c_i)^N * mu_i``
    subject to the c_i forming a probability vector.  They equalize
    ``(1 - c_i)^(N-1) * mu_i`` across the active arms, so
    ``c_i = 1 - level * r_i`` with ``r_i = mu_i^(-1/(N-1))`` and
    ``level = (K - 1) / sum(active r)`` for K active arms; every other arm
    carries exactly 0.

    Why the largest prefix level is exact: c_i falls as r_i grows, so the
    active arms are the K with the smallest r.  Sort r ascending into s and
    let ``level_k = (k - 1) / (s_1 + ... + s_k)``, the level of the first k
    arms.  Arm k+1 is positive under ``level_{k+1}`` exactly when
    ``level_{k+1} > level_k``: both say ``k * s_{k+1} < s_1 + ... + s_{k+1}``.
    The left side minus the right grows with k (its step is
    ``(k - 1) * (s_{k+1} - s_k) >= 0``), so the arms that pass form a prefix,
    tied arms pass together, and the levels rise along it and never rise
    again.  The largest level is therefore the prefix's own, every arm past
    the prefix reads ``c <= 0`` under it, and the prefix's arms stay
    positive under the lower level of any larger set: dropping nonpositive
    arms from the full set, which only ever shrinks it, stops exactly there.

    Needs N >= 2 and every mean positive, which the config and the
    policy's ``mean_floor`` clamp guarantee.
    """
    inv_root = mu ** (-1.0 / (n_players - 1))
    s = np.sort(inv_root, axis=-1)
    level = (np.arange(s.shape[-1]) / s.cumsum(axis=-1)).max(axis=-1, keepdims=True)
    return np.maximum(1.0 - level * inv_root, 0.0)


class Policy:
    """Every player's selection for one episode, from the shared tallies.

    ``counts`` and ``successes`` are the (N, S) halves of the tally
    matrix.  A policy that sweeps first pulls each arm once before its own
    rule: in arm order, or with ``init_order="random"`` in a permutation
    per player, drawn at construction.  Reports heard during the sweep
    still reach the tallies; they just don't redirect it.
    """

    sweeps_first = True

    def __init__(self, config: ExperimentConfig, tallies: np.ndarray, rng: np.random.Generator):
        self.config = config
        self.epsilon = config.epsilon0
        self.n_arms = n_arms = config.n_arms
        self.counts, self.successes = tallies[:, :n_arms], tallies[:, n_arms:]
        self.rng = rng
        self.sweep: list[np.ndarray] = []  # the sweep's turns still to play, last turn first
        if self.sweeps_first:
            order = np.tile(np.arange(n_arms), (len(tallies), 1))
            if config.init_order == "random":
                order = rng.permuted(order, axis=1)
            self.sweep = list(order.T[::-1])

    def select(self) -> np.ndarray:
        """The turn's N choices; ε then decays once, sweep turns included."""
        arms = self.sweep.pop() if self.sweep else self.choose()
        self.epsilon *= self.config.decay
        return arms

    def choose(self) -> np.ndarray:
        """The algorithm's own step for one turn after the sweep."""
        raise NotImplementedError

    def explore(self, arms: np.ndarray) -> np.ndarray:
        """``arms``, but each player pulls a uniform arm instead with probability ε.

        The uniform arms are drawn only on a turn where some player explores.
        """
        rng = self.rng
        exploring = rng.random(len(arms)) >= 1.0 - self.epsilon
        if exploring.any():
            arms = np.where(exploring, rng.integers(self.n_arms, size=len(arms)), arms)
        return arms


class Ucb1Policy(Policy):
    """Upper-confidence-bound selection on all observations seen so far."""

    def choose(self) -> np.ndarray:
        # the sweep's own reports make every count positive from here on
        counts = self.counts
        total = counts.sum(axis=1, keepdims=True)
        index = self.successes / counts + np.sqrt(2.0 * np.log(total) / counts)
        return argmax_rows(index, self.rng)


class EpsilonGreedyPolicy(Policy):
    """Exploit the best observed mean, explore uniformly with decaying odds."""

    def choose(self) -> np.ndarray:
        # unseen arms read mean 0: their successes are 0 too
        means = self.successes / np.maximum(self.counts, 1)
        return self.explore(argmax_rows(means, self.rng))


class ThompsonPolicy(Policy):
    """Sample a Beta posterior per arm and pull the best draw."""

    def choose(self) -> np.ndarray:
        successes = self.successes
        theta = self.rng.beta(successes + 1.0, self.counts - successes + 1.0)
        return argmax_rows(theta, self.rng)


class AsympOptPolicy(Policy):
    """Anneal from uniform exploration into the closed-form mixing play.

    With probability ``epsilon`` a player pulls a uniform random arm,
    otherwise it samples from the mixing probabilities of its current
    observed means (clamped below at ``mean_floor`` so unseen or all-zero
    arms stay admissible).  No pull-each-arm-once sweep: the initial
    ``epsilon = 1`` plays that role.
    """

    sweeps_first = False

    def choose(self) -> np.ndarray:
        config = self.config
        # unseen arms read mean 0, so they clamp to the floor too
        means = np.maximum(self.successes / np.maximum(self.counts, 1), config.mean_floor)
        cdf = mix_probabilities(means, config.n_players).cumsum(axis=1)
        # scaled to the row's total, a uniform stays below its last cumulative
        # mass, and the first arm whose mass exceeds it has positive probability;
        # cdf never decreases along a row, so the masses at or below the draw
        # are a prefix, and that first index equals their count
        draw = self.rng.random(len(cdf)) * cdf[:, -1]
        return self.explore((cdf > draw[:, None]).argmax(axis=1))


class UniformRandomPolicy(Policy):
    """Calibration baseline: every turn an independent uniform arm per player."""

    sweeps_first = False

    def choose(self) -> np.ndarray:
        return self.rng.integers(self.n_arms, size=len(self.counts))


_KINDS = {
    "ucb1": Ucb1Policy,
    "egreedy": EpsilonGreedyPolicy,
    "thompson": ThompsonPolicy,
    "asympopt": AsympOptPolicy,
    "random": UniformRandomPolicy,
}
POLICY_NAMES = tuple(_KINDS)


def make_policy(config: ExperimentConfig, tallies: np.ndarray, rng: np.random.Generator) -> Policy:
    """The episode's policy for ``config.algorithm``, over the whole tally matrix.

    ``rng`` is the players' one substream; ``config`` has been validated.
    """
    return _KINDS[config.algorithm](config, tallies, rng)
