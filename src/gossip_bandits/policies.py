"""The arm-selection algorithms.

Every player's knowledge is its row of two shared (N, S) tally matrices:
how many (arm) reports it has heard and how many of them were successes,
its own pulls and its neighbours' reports counted alike.  The network
layer writes the tallies; a policy only reads its rows in ``select()``.
Selection randomness (ties, exploration, posterior draws) comes
exclusively from the player's own substream, so a run is reproducible
from its seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

POLICY_NAMES = ("ucb1", "egreedy", "thompson", "asympopt", "random")
INIT_ORDERS = ("sequential", "random")

DEFAULT_EPSILON = 1.0
DEFAULT_DECAY = 0.995
DEFAULT_MEAN_FLOOR = 1e-3


def argmax_random_tie(values: Sequence[float], rng: np.random.Generator) -> int:
    """Index of the maximum; exact ties are broken uniformly at random."""
    values = np.asarray(values)
    best = int(np.argmax(values))
    ties = np.flatnonzero(values == values[best])
    if len(ties) > 1:
        best = int(ties[rng.integers(len(ties))])
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


@dataclass(frozen=True)
class MixProbabilities:
    """Optimal symmetric sampling probabilities with their active arm set.

    Arms dropped by the active-set iteration carry probability exactly 0;
    the rest sum to 1 (up to float rounding).
    """

    probabilities: np.ndarray
    active: tuple[int, ...]


def compute_mix_probabilities(means: Sequence[float], n_players: int) -> MixProbabilities:
    """Closed-form minimizer of the expected per-turn loss over the simplex.

    Solves for the per-arm pull probabilities that minimize
    ``sum_i (1 - c_i)^N * mu_i`` subject to the c_i forming a probability
    vector, by equalizing ``(1 - c_i)^(N-1) * mu_i`` across the active set
    and discarding arms whose probability would go nonpositive.  Dropping
    only ever shrinks the active set: removing an arm raises the common
    level for the rest, which can only push further arms out.
    """
    if n_players < 2:
        raise ValueError(f"need at least 2 players for the mixing exponent, got {n_players}")
    mu = [float(m) for m in means]
    if not mu:
        raise ValueError("means must be a nonempty vector")
    if not min(mu) > 0.0:
        raise ValueError("every candidate mean must be positive (clamp before calling)")
    c, active = _mix(mu, n_players)
    return MixProbabilities(probabilities=np.asarray(c), active=tuple(active))


def _mix(mu: list[float], n_players: int) -> tuple[list[float], list[int]]:
    """``compute_mix_probabilities`` on checked inputs, as plain lists.

    Runs on Python floats: it sits on the per-select hot path and the arm
    count is small, so NumPy's per-call cost would dominate.
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
    """A player's arm selection: its rows of the shared tallies plus a private RNG.

    ``counts`` and ``successes`` are views of the player's rows; the
    policy reads them and never writes them.
    """

    name = "?"

    def __init__(self, counts: np.ndarray, successes: np.ndarray, rng: np.random.Generator):
        self.counts = counts
        self.successes = successes
        self.n_arms = len(counts)
        self.rng = rng

    def select(self) -> int:
        raise NotImplementedError


class _InitSweepPolicy(Policy):
    """Base for policies that start by pulling each arm once.

    The sweep order is by arm index, or a per-player random permutation
    when ``init_order="random"``.  Reports heard during the sweep still
    reach the tallies; they just don't redirect it.
    """

    def __init__(self, counts, successes, rng, init_order: str = "sequential"):
        super().__init__(counts, successes, rng)
        if init_order == "sequential":
            order = list(range(self.n_arms))
        elif init_order == "random":
            order = rng.permutation(self.n_arms).tolist()
        else:
            raise ValueError(f"unknown init_order {init_order!r}, expected one of {INIT_ORDERS}")
        self.init_pending = order[::-1]  # arms still to sweep; pop() yields the next


def _check_annealing(epsilon: float, decay: float) -> None:
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon {epsilon} outside [0, 1]")
    if not 0.0 < decay < 1.0:
        raise ValueError(f"decay {decay} outside (0, 1)")


class Ucb1Policy(_InitSweepPolicy):
    """Upper-confidence-bound selection on all observations seen so far."""

    name = "ucb1"

    def select(self) -> int:
        if self.init_pending:
            return self.init_pending.pop()
        # the sweep's own reports make every count positive from here on
        counts = self.counts
        index = self.successes / counts + np.sqrt(2.0 * np.log(counts.sum()) / counts)
        return argmax_random_tie(index, self.rng)


class EpsilonGreedyPolicy(_InitSweepPolicy):
    """Exploit the best observed mean, explore uniformly with decaying odds."""

    name = "egreedy"

    def __init__(
        self,
        counts,
        successes,
        rng: np.random.Generator,
        epsilon: float = DEFAULT_EPSILON,
        decay: float = DEFAULT_DECAY,
        init_order: str = "sequential",
    ):
        super().__init__(counts, successes, rng, init_order)
        _check_annealing(epsilon, decay)
        self.epsilon = epsilon
        self.decay = decay

    def select(self) -> int:
        if self.init_pending:
            arm = self.init_pending.pop()
        elif self.rng.random() < 1.0 - self.epsilon:
            # unseen arms read mean 0: their successes are 0 too
            means = self.successes / np.maximum(self.counts, 1)
            arm = argmax_random_tie(means, self.rng)
        else:
            arm = int(self.rng.integers(self.n_arms))
        self.epsilon *= self.decay  # once per selection, so epsilon = eps0 * k^t exactly
        return arm


class ThompsonPolicy(_InitSweepPolicy):
    """Sample a Beta posterior per arm and pull the best draw."""

    name = "thompson"

    def select(self) -> int:
        if self.init_pending:
            return self.init_pending.pop()
        successes = self.successes
        theta = self.rng.beta(successes + 1.0, self.counts - successes + 1.0)
        return argmax_random_tie(theta, self.rng)


class AsympOptPolicy(Policy):
    """Anneal from uniform exploration into the closed-form mixing play.

    With probability ``epsilon`` pulls a uniform random arm, otherwise
    recomputes the mixing probabilities from the current observed means
    (clamped below at ``mean_floor`` so unseen or all-zero arms stay
    admissible) and samples from them.  No pull-each-arm-once sweep: the
    initial ``epsilon = 1`` plays that role.
    """

    name = "asympopt"

    def __init__(
        self,
        counts,
        successes,
        n_players: int,
        rng: np.random.Generator,
        epsilon: float = DEFAULT_EPSILON,
        decay: float = DEFAULT_DECAY,
        mean_floor: float = DEFAULT_MEAN_FLOOR,
    ):
        super().__init__(counts, successes, rng)
        if n_players < 2:
            raise ValueError(f"need at least 2 players for the mixing exponent, got {n_players}")
        _check_annealing(epsilon, decay)
        if not (mean_floor > 0.0 and math.isfinite(mean_floor)):
            raise ValueError(f"mean_floor must be positive and finite, got {mean_floor}")
        self.n_players = n_players
        self.epsilon = epsilon
        self.decay = decay
        self.mean_floor = mean_floor

    def current_mix(self) -> list[float]:
        """Mixing probabilities for the observed means, clamped at the floor."""
        floor = self.mean_floor
        clamped = [
            max(s / c, floor) if c else floor
            for c, s in zip(self.counts.tolist(), self.successes.tolist())
        ]
        return _mix(clamped, self.n_players)[0]

    def select(self) -> int:
        if self.rng.random() < 1.0 - self.epsilon:
            arm = sample_categorical(self.current_mix(), self.rng)
        else:
            arm = int(self.rng.integers(self.n_arms))
        self.epsilon *= self.decay
        return arm


class UniformRandomPolicy(Policy):
    """Calibration baseline: every turn an independent uniform arm."""

    name = "random"

    def select(self) -> int:
        return int(self.rng.integers(self.n_arms))


def make_policy(
    name: str,
    counts: np.ndarray,
    successes: np.ndarray,
    n_players: int,
    rng: np.random.Generator,
    *,
    epsilon: float = DEFAULT_EPSILON,
    decay: float = DEFAULT_DECAY,
    mean_floor: float = DEFAULT_MEAN_FLOOR,
    init_order: str = "sequential",
) -> Policy:
    """Build one player's policy by configured kind, reading the given tally rows."""
    if name == "ucb1":
        return Ucb1Policy(counts, successes, rng, init_order=init_order)
    if name == "egreedy":
        return EpsilonGreedyPolicy(
            counts, successes, rng, epsilon=epsilon, decay=decay, init_order=init_order
        )
    if name == "thompson":
        return ThompsonPolicy(counts, successes, rng, init_order=init_order)
    if name == "asympopt":
        return AsympOptPolicy(
            counts, successes, n_players, rng, epsilon=epsilon, decay=decay, mean_floor=mean_floor
        )
    if name == "random":
        return UniformRandomPolicy(counts, successes, rng)
    raise ValueError(f"unknown policy {name!r}, expected one of {POLICY_NAMES}")
