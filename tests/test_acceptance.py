"""Acceptance suite: one test per shipped guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Heavy Monte Carlo batches (50 repetitions x 5000 turns) are shared
between criteria through session-scoped fixtures; everything is seeded,
so reruns are bit-identical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats

from gossip_bandits import (
    ExperimentConfig,
    cumulative_loss,
    cumulative_reward,
    episode_seed,
    optimal_per_turn_reward,
    run_episode,
    run_episode_with_history,
    sample_reach,
    sweep_alpha,
)
from gossip_bandits.cli import main as cli_main
from gossip_bandits.env import ArmSet
from oracles import (
    best_subset_reward,
    minimize_expected_turn_loss,
    random_simplex_points,
)
from gossip_bandits.policies import compute_mix_probabilities

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
MU_CLUSTERED = (0.7, 0.68, 0.66, 0.64, 0.62, 0.4, 0.38, 0.36, 0.34, 0.32)
REPS = 50
TURNS = 5000


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def run_batch(algorithm: str, alpha: float, base_seed: int, means=MU_SPREAD) -> dict:
    """50 seeded episodes; per-episode metric values at the turns we use."""
    cfg = ExperimentConfig(
        algorithm=algorithm, means=means, alphas=(alpha,),
        turns=TURNS, repetitions=REPS, base_seed=base_seed,
    )
    rows = {"occ_2500": [], "occ_4000": [], "occ_5000": [], "g_4000": [], "g_5000": []}
    for r in range(REPS):
        record = run_episode(cfg, alpha, episode_seed(base_seed, 0, r))
        rows["occ_2500"].append(record.regret_occupancy[2499])
        rows["occ_4000"].append(record.regret_occupancy[3999])
        rows["occ_5000"].append(record.regret_occupancy[4999])
        rows["g_4000"].append(record.cumulative_reward[3999])
        rows["g_5000"].append(record.cumulative_reward[4999])
    return {key: np.asarray(vals, dtype=float) for key, vals in rows.items()}


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
        record, history = run_episode_with_history(cfg, alpha, episode_seed(9000 + i, 0, 0))
        draws = np.cumsum(history.rewards_matrix.sum(axis=1))
        assert np.array_equal(record.cumulative_loss + record.cumulative_reward, draws)
        assert np.array_equal(cumulative_loss(history) + cumulative_reward(history), draws)
        checked += 1
    report(1, checked == 100, f"L + G identity exact on {checked} episodes")


def test_criterion_2_top_n_baseline():
    spread = optimal_per_turn_reward(ArmSet(MU_SPREAD), 5)
    clustered = optimal_per_turn_reward(ArmSet(MU_CLUSTERED), 5)
    ok = spread == 3.5 and clustered == 3.30
    rng = np.random.default_rng(201)
    for n_arms in range(2, 9):
        for n_players in range(1, min(n_arms, 4) + 1):
            for _ in range(3):
                means = rng.random(n_arms)
                ok = ok and optimal_per_turn_reward(ArmSet(means), n_players) == best_subset_reward(
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
        c = compute_mix_probabilities(mu, n_players).probabilities
        oracle = minimize_expected_turn_loss(mu, n_players)
        worst_coord = max(worst_coord, float(np.max(np.abs(c - oracle))))

        def loss(points):
            return np.sum((1.0 - np.atleast_2d(points)) ** n_players * mu, axis=1)

        cloud = random_simplex_points(1000, n_arms, rng)
        assert np.all(loss(c)[0] <= loss(cloud) + 1e-12)

    symmetric = compute_mix_probabilities([0.37] * 10, 5).probabilities
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
