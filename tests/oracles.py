"""Independent numeric oracles backing the test-suite.

These deliberately avoid the closed-form mixing solution: the minimizer
works the expected-loss objective directly with accelerated projected
gradient steps, and the baseline enumerator checks every arm subset.
Agreement between the two routes is what the tests assert.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Sequence

import numpy as np

from support import failures_of, new_tallies, successes_of


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    thresholds = (np.cumsum(u) - 1.0) / np.arange(1, len(v) + 1)
    k = np.nonzero(thresholds < u)[0][-1]
    return np.clip(v - thresholds[k], 0.0, None)


def minimize_expected_turn_loss(
    means: Sequence[float],
    n_players: int,
    max_iter: int = 20000,
    tol: float = 1e-14,
) -> np.ndarray:
    """Minimize sum_i (1-c_i)^N mu_i over the simplex by accelerated PGD.

    The objective is convex with a diagonal Hessian bounded by
    N(N-1)*max(mu), so a fixed step of its inverse is safe.  Momentum is
    restarted whenever the objective rises, which keeps late iterations
    monotone and lets the iterate settle to the constrained optimum well
    below the tolerances asserted in the tests.
    """
    mu = np.asarray(means, dtype=float)
    if np.any(mu <= 0.0):
        raise ValueError("means must be positive")
    if n_players < 2:
        raise ValueError(f"need at least 2 players, got {n_players}")

    def objective(c: np.ndarray) -> float:
        return float(np.sum((1.0 - c) ** n_players * mu))

    def gradient(c: np.ndarray) -> np.ndarray:
        return -n_players * (1.0 - c) ** (n_players - 1) * mu

    step = 1.0 / (n_players * (n_players - 1) * float(mu.max()))
    c = np.full(len(mu), 1.0 / len(mu))
    momentum = c.copy()
    t_prev = 1.0
    f_prev = objective(c)
    for _ in range(max_iter):
        c_next = project_to_simplex(momentum - step * gradient(momentum))
        f_next = objective(c_next)
        if f_next > f_prev:  # restart momentum, plain projected step
            c_next = project_to_simplex(c - step * gradient(c))
            f_next = objective(c_next)
            t_prev = 1.0
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_prev * t_prev))
        momentum = c_next + ((t_prev - 1.0) / t_next) * (c_next - c)
        shift = float(np.max(np.abs(c_next - c)))
        c, t_prev, f_prev = c_next, t_next, f_next
        if shift < tol:
            break
    return c


def best_subset_reward(means: Sequence[float], n_players: int) -> float:
    """Max total mean over every assignment of players to distinct arms.

    Exhaustive enumeration; tractable for the small desk-scale settings
    the tests use.
    """
    means = [float(m) for m in means]
    if n_players > len(means):
        raise ValueError(f"{n_players} players cannot occupy {len(means)} distinct arms")
    return max(math.fsum(subset) for subset in combinations(means, n_players))


def random_simplex_points(
    n_points: int, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """(n_points, dim) rows drawn uniformly from the probability simplex."""
    return rng.dirichlet(np.ones(dim), size=n_points)


def mix_by_dropping(means: Sequence[float], n_players: int) -> list[float]:
    """The closed-form mix, one row, by dropping nonpositive arms until none is left.

    The scalar reference for ``policies.mix_probabilities``: start from
    every arm, set ``c_i = 1 - level * r_i`` with ``r_i = mu_i^(-1/(N-1))``
    and ``level = (K - 1) / sum(active r)``, and repeat on the arms that
    stayed positive.
    """
    inv_root = [(1.0 / m) ** (1.0 / (n_players - 1)) for m in means]
    active = list(range(len(inv_root)))
    while True:
        level = (len(active) - 1) / math.fsum(inv_root[i] for i in active)
        c = [0.0] * len(inv_root)
        for i in active:
            c[i] = max(1.0 - level * inv_root[i], 0.0)
        kept = [i for i in active if c[i] > 0.0]
        if kept == active:
            return c
        active = kept


def pairwise_env_step(choices: np.ndarray, arm_rewards: np.ndarray, winner_rng) -> np.ndarray:
    """One turn's rewards by the pairwise collision rule, the reference for ``env.env_step``.

    Builds the (N, N) same-arm matrix, draws ``winner_rng.random(N)`` only
    when some off-diagonal entry is set, and pays a player unless another
    player on its arm has a strictly higher priority.
    """
    realized = arm_rewards[choices]
    same_arm = choices[:, None] == choices
    if same_arm.sum() > len(choices):
        priority = winner_rng.random(len(choices))
        realized &= ~(same_arm & (priority > priority[:, None])).any(axis=1)
    return realized


def argmax_rows_by_mask(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row-wise argmax with uniform tie-breaks, the reference for ``policies.argmax_rows``.

    Marks every entry equal to its row's maximum; only when some row has
    several marks does it draw one uniform per entry and take each row's
    best-ranked mark.
    """
    tied = values == values.max(axis=1, keepdims=True)
    if tied.sum() == len(tied):
        return tied.argmax(axis=1)
    return np.where(tied, rng.random(tied.shape), -1.0).argmax(axis=1)


def reference_tallies(reach, choices, realized, n_arms: int) -> np.ndarray:
    """One turn's report-by-report delivery, the reference for ``network.disseminate``.

    Every receiver tallies each sender whose row of the (N, N) sender-row
    ``reach`` reaches it, once per unit of the entry: a success of the
    sender's arm if its reward is 1, else a failure.
    """
    n = len(choices)
    tallies = new_tallies(n, n_arms, dtype=np.int64)
    for receiver in range(n):
        for sender in range(n):
            heard = successes_of(tallies) if realized[sender] else failures_of(tallies)
            for _ in range(int(reach[sender, receiver])):
                heard[receiver, choices[sender]] += 1
    return tallies
