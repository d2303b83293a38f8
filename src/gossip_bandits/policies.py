"""The arm-selection algorithms, one object per episode.

All N players run the same algorithm, so an episode builds one policy
from its validated ``ExperimentConfig``, the only place the knobs are
checked, and reads them from it.  It reads the shared (N, 2S) tally matrix
that the network layer writes: row p holds how many reports of each arm
player p has heard, then how many of them were successes, its own pulls
and its neighbours' reports counted alike.  It never writes the tallies.
``select()`` returns the turn's N choices: the sweep's next turn, else the
algorithm's own step ``choose()``, which works on all rows at once.

Player p's randomness (sweep order, ties, exploration, posterior draws)
comes only from ``rngs[p]``, in the same order of calls a lone player
would make, so a run is reproducible from its seed alone and a player's
choices do not depend on how many others draw.  The annealed ε is one
shared value: every player selects once per turn, so all of theirs are
equal at every turn.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .config import ExperimentConfig

INIT_ORDERS = ("sequential", "random")


def argmax_rows(values: np.ndarray, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """Each row's index of its maximum; exact ties are broken uniformly at random.

    Only a row with more than one maximum draws: ``rngs[row].integers(k)``
    over its k maxima in index order.
    """
    tied = values == values.max(axis=1, keepdims=True)
    best = tied.argmax(axis=1)
    n_tied = tied.sum(axis=1)
    for row in np.flatnonzero(n_tied > 1):
        best[row] = np.flatnonzero(tied[row])[rngs[row].integers(n_tied[row])]
    return best


def sample_categorical(probabilities: Sequence[float], rng: np.random.Generator) -> int:
    """Draw one index by cumulative-sum inversion over ``probabilities``."""
    draw = rng.random()
    acc = 0.0
    last_positive = -1
    for arm, p in enumerate(probabilities):
        if p <= 0.0:
            continue
        acc += p
        last_positive = arm
        if acc >= draw:
            return arm
    if last_positive < 0:
        raise ValueError("no positive probability to sample from")
    return last_positive  # float shortfall when the masses sum to just under 1


def mix_probabilities(mu: Sequence[float], n_players: int) -> tuple[list[float], list[int]]:
    """Closed-form minimizer of the expected per-turn loss over the simplex.

    Returns the per-arm pull probabilities that minimize
    ``sum_i (1 - c_i)^N * mu_i`` subject to the c_i forming a probability
    vector, with their active arm set.  They equalize
    ``(1 - c_i)^(N-1) * mu_i`` across the active set; arms whose
    probability would go nonpositive are discarded and carry exactly 0.
    Dropping only ever shrinks the active set: removing an arm raises the
    common level for the rest, which can only push further arms out.

    Needs N >= 2 and every mean positive, which the config and the
    policy's ``mean_floor`` clamp guarantee.  Runs on Python floats: it
    sits on the per-select hot path and the arm count is small, so NumPy's
    per-call cost would dominate.
    """
    exponent = 1.0 / (n_players - 1)
    inv_root = [(1.0 / m) ** exponent for m in mu]
    active = list(range(len(mu)))
    c = [0.0] * len(mu)
    while True:
        level = (len(active) - 1) / sum(inv_root[i] for i in active)
        kept = []
        for i in active:
            c[i] = 1.0 - level * inv_root[i]
            if c[i] > 0.0:
                kept.append(i)
            else:
                c[i] = 0.0
        if len(kept) == len(active):
            return c, active
        active = kept
        if not active:  # impossible: the active c always sum to 1
            raise AssertionError("all arms discarded from the active set")


class Policy:
    """Every player's selection for one episode, from the shared tallies.

    ``counts`` and ``successes`` are the (N, S) halves of the tally
    matrix.  A policy that sweeps first pulls each arm once before its own
    rule: in arm order, or with ``init_order="random"`` in a permutation
    each player draws from its generator at construction.  Reports heard
    during the sweep still reach the tallies; they just don't redirect it.
    """

    sweeps_first = True

    def __init__(self, config: ExperimentConfig, tallies: np.ndarray,
                 rngs: Sequence[np.random.Generator]):
        self.config = config
        self.epsilon = config.epsilon0
        self.n_arms = n_arms = config.n_arms
        self.counts, self.successes = tallies[:, :n_arms], tallies[:, n_arms:]
        self.rngs = rngs
        self.sweep: list[list[int]] = []  # the sweep's turns still to play, last turn first
        if self.sweeps_first:
            if config.init_order == "random":
                order = [rng.permutation(n_arms) for rng in rngs]
            else:
                order = [range(n_arms)] * len(rngs)
            self.sweep = np.array(order).T[::-1].tolist()

    def select(self) -> list[int]:
        """The turn's N choices; ε then decays once, sweep turns included."""
        arms = self.sweep.pop() if self.sweep else self.choose()
        self.epsilon *= self.config.decay
        return arms

    def choose(self) -> list[int]:
        """The algorithm's own step for one turn after the sweep."""
        raise NotImplementedError


def _annealed_draws(rngs: Sequence[np.random.Generator], epsilon: float, n_arms: int) -> list[int]:
    """Each player exploits with probability 1 - ``epsilon`` (-1 here), else draws a uniform arm."""
    threshold = 1.0 - epsilon
    return [-1 if rng.random() < threshold else int(rng.integers(n_arms)) for rng in rngs]


class Ucb1Policy(Policy):
    """Upper-confidence-bound selection on all observations seen so far."""

    def choose(self) -> list[int]:
        # the sweep's own reports make every count positive from here on
        counts = self.counts
        total = counts.sum(axis=1, keepdims=True)
        index = self.successes / counts + np.sqrt(2.0 * np.log(total) / counts)
        return argmax_rows(index, self.rngs).tolist()


class EpsilonGreedyPolicy(Policy):
    """Exploit the best observed mean, explore uniformly with decaying odds."""

    def choose(self) -> list[int]:
        arms = _annealed_draws(self.rngs, self.epsilon, self.n_arms)
        greedy = [p for p, arm in enumerate(arms) if arm < 0]
        if greedy:
            # unseen arms read mean 0: their successes are 0 too
            means = self.successes[greedy] / np.maximum(self.counts[greedy], 1)
            best = argmax_rows(means, [self.rngs[p] for p in greedy])
            for p, arm in zip(greedy, best.tolist()):
                arms[p] = arm
        return arms


class ThompsonPolicy(Policy):
    """Sample a Beta posterior per arm and pull the best draw."""

    def choose(self) -> list[int]:
        successes = self.successes
        a, b = successes + 1.0, self.counts - successes + 1.0
        theta = np.array([rng.beta(a[p], b[p]) for p, rng in enumerate(self.rngs)])
        return argmax_rows(theta, self.rngs).tolist()


class AsympOptPolicy(Policy):
    """Anneal from uniform exploration into the closed-form mixing play.

    With probability ``epsilon`` a player pulls a uniform random arm,
    otherwise it recomputes the mixing probabilities from its current
    observed means (clamped below at ``mean_floor`` so unseen or all-zero
    arms stay admissible) and samples from them.  No pull-each-arm-once
    sweep: the initial ``epsilon = 1`` plays that role.
    """

    sweeps_first = False

    def choose(self) -> list[int]:
        arms = _annealed_draws(self.rngs, self.epsilon, self.n_arms)
        if min(arms) < 0:
            config = self.config
            # unseen arms read mean 0, so they clamp to the floor too
            means = np.maximum(self.successes / np.maximum(self.counts, 1), config.mean_floor)
            for p, row in enumerate(means.tolist()):
                if arms[p] < 0:
                    arms[p] = sample_categorical(mix_probabilities(row, config.n_players)[0], self.rngs[p])
        return arms


class UniformRandomPolicy(Policy):
    """Calibration baseline: every turn an independent uniform arm per player."""

    sweeps_first = False

    def choose(self) -> list[int]:
        n_arms = self.n_arms
        return [int(rng.integers(n_arms)) for rng in self.rngs]


_KINDS = {
    "ucb1": Ucb1Policy,
    "egreedy": EpsilonGreedyPolicy,
    "thompson": ThompsonPolicy,
    "asympopt": AsympOptPolicy,
    "random": UniformRandomPolicy,
}
POLICY_NAMES = tuple(_KINDS)


def make_policy(config: ExperimentConfig, tallies: np.ndarray,
                rngs: Sequence[np.random.Generator]) -> Policy:
    """The episode's policy for ``config.algorithm``, over the whole tally matrix.

    ``rngs[p]`` is player p's substream; ``config`` has been validated.
    """
    return _KINDS[config.algorithm](config, tallies, rngs)
