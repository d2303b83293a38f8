"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Heavy Monte Carlo batches (50 repetitions x 5000 turns) run through the
runner's process pool and are shared between criteria through
session-scoped fixtures; everything is seeded, so reruns are
bit-identical whatever the pool size.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest
import scipy.stats

from gossip_bandits import ExperimentConfig, episode_seed, sweep_alpha
from gossip_bandits import runner
from gossip_bandits.cli import main as cli_main
from gossip_bandits.metrics import build_run_record, optimal_per_turn_reward
from gossip_bandits.network import sample_reach
from oracles import (
    best_subset_reward,
    minimize_expected_turn_loss,
    random_simplex_points,
)
from gossip_bandits.policies import mix_probabilities
from support import counts_of, simulate_episode, successes_of

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
MU_CLUSTERED = (0.7, 0.68, 0.66, 0.64, 0.62, 0.4, 0.38, 0.36, 0.34, 0.32)
REPS = 50
TURNS = 5000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_batch(algorithm: str, alpha: float, base_seed: int, means=MU_SPREAD) -> dict:
    """50 seeded episodes; per-episode metric values at the turns we use.

    Repetition r is the episode of seed ``episode_seed(base_seed, 0, r)``.
    """
    cfg = ExperimentConfig(
        algorithm=algorithm, means=means, alphas=(alpha,),
        turns=TURNS, repetitions=REPS, base_seed=base_seed,
    )
    # (repetitions, series, checkpoints), series in RunRecord order
    rows = runner._episode_rows(cfg, (2500, 4000, 5000), n_jobs=os.cpu_count() or 1)[0]
    occ, reward = rows[:, 0], rows[:, 2]
    return {
        "occ_2500": occ[:, 0], "occ_4000": occ[:, 1], "occ_5000": occ[:, 2],
        "g_4000": reward[:, 1], "g_5000": reward[:, 2],
    }


@pytest.fixture(scope="session")
def thompson_alpha0():
    return run_batch("thompson", 0.0, base_seed=101)


@pytest.fixture(scope="session")
def thompson_alpha1():
    return run_batch("thompson", 1.0, base_seed=102)


def test_criterion_1_loss_reward_identity():
    # L + G == total realized draws, exactly, every turn, for every policy
    # and no/half/full communication.
    policies = ("ucb1", "egreedy", "thompson", "asympopt", "random")
    alphas = (0.0, 0.5, 1.0)
    checked = 0
    for i in range(100):
        algorithm = policies[i % len(policies)]
        alpha = alphas[(i // len(policies)) % len(alphas)]
        cfg = ExperimentConfig(
            algorithm=algorithm, means=MU_SPREAD, alphas=(alpha,),
            turns=60, repetitions=1, base_seed=9000 + i,
        )
        choices, rewards, _ = simulate_episode(cfg, alpha, episode_seed(9000 + i, 0, 0))
        record = build_run_record(choices, rewards, cfg.means, cfg.n_players)
        draws = np.cumsum(rewards.sum(axis=1))
        assert np.array_equal(record.loss + record.reward, draws)
        checked += 1
    report(1, checked == 100, f"L + G identity exact on {checked} episodes")


def test_criterion_2_top_n_baseline():
    spread = optimal_per_turn_reward(MU_SPREAD, 5)
    clustered = optimal_per_turn_reward(MU_CLUSTERED, 5)
    ok = spread == 3.5 and clustered == 3.30
    rng = np.random.default_rng(201)
    for n_arms in range(2, 9):
        for n_players in range(1, min(n_arms, 4) + 1):
            for _ in range(3):
                means = rng.random(n_arms)
                ok = ok and optimal_per_turn_reward(means, n_players) == best_subset_reward(
                    means, n_players
                )
    report(2, ok, f"top-N sums: spread={spread}, clustered={clustered}, enumeration matched")


def test_criterion_3_mixing_matches_numeric_minimizer():
    rng = np.random.default_rng(202)
    worst_coord = 0.0
    for _ in range(100):
        n_players = int(rng.integers(2, 6))
        n_arms = int(rng.integers(n_players + 1, 11))
        mu = rng.uniform(0.01, 1.0, size=n_arms)
        c = mix_probabilities(mu, n_players)
        oracle = minimize_expected_turn_loss(mu, n_players)
        worst_coord = max(worst_coord, float(np.max(np.abs(c - oracle))))

        def loss(points):
            return np.sum((1.0 - np.atleast_2d(points)) ** n_players * mu, axis=1)

        cloud = random_simplex_points(1000, n_arms, rng)
        assert np.all(loss(c)[0] <= loss(cloud) + 1e-12)

    symmetric = mix_probabilities(np.full(10, 0.37), 5)
    sym_err = float(np.max(np.abs(symmetric - 0.1)))
    ok = worst_coord < 1e-6 and sym_err < 1e-12
    report(3, ok, f"worst coordinate gap {worst_coord:.2e} (tol 1e-6), symmetric gap {sym_err:.1e}")


def test_criterion_4_uniform_random_calibration():
    batch = run_batch("random", 0.0, base_seed=106, means=(0.5,) * 10)
    per_turn = batch["g_5000"] / TURNS
    expected = 0.5 * 10 * (1 - (1 - 1 / 10) ** 5)  # mu * S * (1-(1-1/S)^N)
    se = per_turn.std(ddof=1) / math.sqrt(REPS)
    gap = abs(per_turn.mean() - expected)
    report(4, gap < 3 * se, f"per-turn reward {per_turn.mean():.4f} vs {expected:.4f} (|gap| {gap:.4f} < 3se {3*se:.4f})")


def test_criterion_5_regret_grows_with_connectivity(thompson_alpha0, thompson_alpha1):
    r0, r1 = thompson_alpha0["occ_5000"], thompson_alpha1["occ_5000"]
    pooled_se = math.sqrt(r0.var(ddof=1) / REPS + r1.var(ddof=1) / REPS)
    gap = r1.mean() - r0.mean()
    ok = r0.mean() < r1.mean() and gap >= 3 * pooled_se
    report(5, ok, f"thompson regret a=0: {r0.mean():.0f}, a=1: {r1.mean():.0f}, gap {gap:.0f} = {gap/pooled_se:.0f} pooled SE")


def test_criterion_6_sublinear_without_linear_with_communication(thompson_alpha0):
    # no communication: the second half of the horizon adds less regret
    first_half = thompson_alpha0["occ_2500"]
    second_half = thompson_alpha0["occ_5000"] - thompson_alpha0["occ_2500"]
    diff = first_half - second_half
    se = diff.std(ddof=1) / math.sqrt(REPS)
    sublinear_ok = diff.mean() > 3 * se

    # full communication: late per-turn regret stays bounded away from zero
    linear_detail = []
    linear_ok = True
    for algorithm, seed in (("ucb1", 103), ("egreedy", 104)):
        batch = run_batch(algorithm, 1.0, base_seed=seed)
        per_turn = (batch["occ_5000"] - batch["occ_4000"]) / 1000
        se_pt = per_turn.std(ddof=1) / math.sqrt(REPS)
        linear_ok = linear_ok and (per_turn.mean() - 3 * se_pt > 0.1)
        linear_detail.append(f"{algorithm} {per_turn.mean():.2f}")
    report(
        6,
        sublinear_ok and linear_ok,
        f"thompson a=0 increments {first_half.mean():.0f} -> {second_half.mean():.0f}; "
        f"a=1 late per-turn regret: {', '.join(linear_detail)} (all > 0.1)",
    )


def test_criterion_7_mixing_policy_near_optimal_at_full_communication():
    batch = run_batch("asympopt", 1.0, base_seed=105)
    per_turn_reward = (batch["g_5000"] - batch["g_4000"]) / 1000
    c_star = minimize_expected_turn_loss(MU_SPREAD, 5)
    target = float(np.sum(np.asarray(MU_SPREAD) * (1 - (1 - c_star) ** 5)))
    ratio = per_turn_reward.mean() / target
    report(7, abs(ratio - 1.0) <= 0.05, f"late per-turn reward {per_turn_reward.mean():.4f} vs target {target:.4f} (ratio {ratio:.4f})")


def edge_counts(reach: np.ndarray) -> np.ndarray:
    """Edges per graph: off-diagonal reach entries, each edge counted twice."""
    n_players = reach.shape[1]
    return (reach.sum(axis=(1, 2)) - n_players) // 2


def test_criterion_8_graph_statistics():
    rng = np.random.default_rng(203)
    n_draws = 10**4
    counts = edge_counts(sample_reach(5, 0.5, n_draws, rng))
    sigma = math.sqrt(10 * 0.25 / n_draws)
    mean_ok = abs(counts.mean() - 5.0) < 3 * sigma

    observed = np.bincount(counts, minlength=11)
    expected = scipy.stats.binom.pmf(np.arange(11), 10, 0.5) * n_draws
    chi2 = scipy.stats.chisquare(observed, expected)
    fit_ok = chi2.pvalue >= 1e-3

    extremes_ok = (edge_counts(sample_reach(5, 0.0, 200, rng)) == 0).all() and (
        edge_counts(sample_reach(5, 1.0, 200, rng)) == 10
    ).all()
    report(
        8,
        mean_ok and fit_ok and extremes_ok,
        f"mean edges {counts.mean():.3f} (3sigma {3*sigma:.3f}), chi2 p={chi2.pvalue:.3f}, extremes exact",
    )


def test_criterion_9_determinism_and_parallel_equivalence(tmp_path):
    args = [
        "sweep-alpha", "--algorithm", "thompson", "--means", ",".join(map(str, MU_SPREAD)),
        "--alpha", "0,1", "--turns", "200", "--reps", "3", "--seed", "12345",
    ]
    path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(path_a)]) == 0
    assert cli_main(args + ["--out", str(path_b)]) == 0
    bytes_ok = path_a.read_bytes() == path_b.read_bytes()

    cfg = ExperimentConfig(
        algorithm="egreedy", means=MU_SPREAD, alphas=(0.0, 1.0),
        turns=120, repetitions=4, base_seed=777,
    )
    parallel_ok = sweep_alpha(cfg, n_jobs=1) == sweep_alpha(cfg, n_jobs=3)
    report(9, bytes_ok and parallel_ok, "re-run byte-identical; serial == concurrent aggregates")


def test_criterion_10_payouts_conserve_reward():
    # what env_step paid reaches the tallies as successes: one winner per
    # occupied arm takes its realization, so the paid total is the reward; at
    # alpha 0 each player hears only itself, at alpha 1 every player hears all
    policies = ("ucb1", "egreedy", "thompson", "asympopt", "random")
    alphas, reps, turns = (0.0, 1.0), 3, 400
    broken = []
    for algorithm in policies:
        cfg = ExperimentConfig(
            algorithm=algorithm, means=MU_SPREAD, alphas=alphas,
            turns=turns, repetitions=reps, base_seed=108,
        )
        n_players = cfg.n_players
        for alpha_index, alpha in enumerate(alphas):
            for r in range(reps):
                choices, rewards, tallies = simulate_episode(cfg, alpha, episode_seed(108, alpha_index, r))
                reward = build_run_record(choices, rewards, cfg.means, n_players).reward[-1]
                counts, successes = counts_of(tallies).sum(axis=1), successes_of(tallies).sum(axis=1)
                if alpha == 0.0:
                    ok = successes.sum() == reward and (counts == turns).all()
                else:
                    ok = (successes == reward).all() and (counts == n_players * turns).all()
                if not ok:
                    broken.append(f"{algorithm} a={alpha:g} rep {r}")
    total = len(policies) * len(alphas) * reps
    report(10, not broken, f"successes equal the reward and counts the pulls exactly on "
                           f"{total - len(broken)} of {total} episodes; broken: {broken}")


def test_criterion_11_collision_winner_is_fair():
    # at alpha 0 a tally row holds only its own player's payouts; players 0 and
    # N-1 pull alike, so only a biased collision winner moves their difference
    reps = 20
    cfg = ExperimentConfig(
        algorithm="random", means=MU_SPREAD, alphas=(0.0,),
        turns=2000, repetitions=reps, base_seed=107,
    )
    diffs = np.empty(reps)
    for r in range(reps):
        successes = successes_of(simulate_episode(cfg, 0.0, episode_seed(107, 0, r))[2]).sum(axis=1)
        diffs[r] = successes[0] - successes[-1]
    se = diffs.std(ddof=1) / math.sqrt(reps)
    z = diffs.mean() / se
    report(11, abs(z) < 4, f"player 0 minus player N-1 payouts {diffs.mean():.1f} = {z:.2f} SE (|z| < 4)")


def test_criterion_12_single_player_thompson_regret():
    # one player hears only itself, so its regret rests on its own Beta(s + 1, f + 1)
    # posterior alone; the band is the median episode regret of 60 calibration
    # batches (base seeds 2030-2089, same config) +-3 of their standard deviations,
    # fixed before base seed 109 first ran
    reps, turns = 30, 2000
    centre, spread = 33.33, 1.49
    cfg = ExperimentConfig(
        algorithm="thompson", means=MU_SPREAD, n_players=1, alphas=(0.0,),
        turns=turns, repetitions=reps, base_seed=109,
    )
    regret = runner._episode_rows(cfg, (turns,), n_jobs=1)[0][:, 0, 0]
    median = float(np.median(regret))
    low, high = centre - 3 * spread, centre + 3 * spread
    report(12, low <= median <= high,
           f"N=1 median regret {median:.2f} after {turns} turns in [{low:.2f}, {high:.2f}] (mean {regret.mean():.2f})")
