import math

import numpy as np
import pytest

from gossip_bandits.env import ArmSet
from gossip_bandits.metrics import (
    GameHistory,
    build_run_record,
    cumulative_loss,
    cumulative_regret_literal,
    cumulative_regret_occupancy,
    cumulative_reward,
    optimal_per_turn_reward,
)
from oracles import best_subset_reward
from support import build_random_history, make_history, occupancy_indicator, total_loss, total_reward

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
MU_CLUSTERED = (0.7, 0.68, 0.66, 0.64, 0.62, 0.4, 0.38, 0.36, 0.34, 0.32)


class TestOccupancyIndicator:
    def test_all_players_one_arm(self):
        assert np.array_equal(occupancy_indicator([0, 0, 0], 3), [1, 0, 0])

    def test_all_arms_covered(self):
        assert np.array_equal(occupancy_indicator([0, 1, 2], 3), [1, 1, 1])

    def test_partial_coverage(self):
        assert np.array_equal(occupancy_indicator([2, 2, 3], 4), [0, 0, 1, 1])

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError, match="nonempty"):
            occupancy_indicator([], 3)
        with pytest.raises(ValueError, match="outside"):
            occupancy_indicator([3], 3)


class TestRewardAndLoss:
    def test_single_turn_distinct_arms(self):
        arms = ArmSet((0.5, 0.5, 0.5))
        hist = make_history(arms, [(([0, 1]), [1, 1, 0])])
        assert total_reward(hist) == 2

    def test_collision_counts_once(self):
        arms = ArmSet((0.5, 0.5))
        hist = make_history(arms, [(([0] * 5), [1, 0])])
        assert total_reward(hist) == 1

    def test_reward_equals_sum_of_realized(self):
        hist = build_random_history(MU_SPREAD, 5, 200, seed=61)
        assert total_reward(hist) == int(hist.realized_matrix.sum())

    def test_loss_zero_when_every_arm_pulled(self):
        arms = ArmSet((0.9, 0.9))
        hist = make_history(arms, [([0, 1], [1, 1]), ([1, 0], [1, 0])])
        assert total_loss(hist) == 0

    def test_single_player_leaves_other_arm_on_table(self):
        arms = ArmSet((0.5, 0.5))
        hist = make_history(arms, [([0], [1, 1])])
        assert total_loss(hist) == 1

    def test_loss_reward_identity_exact(self):
        hist = build_random_history(MU_SPREAD, 5, 100, seed=62)
        total_draws = int(hist.rewards_matrix.sum())
        assert total_loss(hist) + total_reward(hist) == total_draws
        # per-turn series version of the same identity
        per_turn_draws = np.cumsum(hist.rewards_matrix.sum(axis=1))
        assert np.array_equal(cumulative_loss(hist) + cumulative_reward(hist), per_turn_draws)


class TestOptimalPerTurnReward:
    def test_spread_vector_exact(self):
        assert optimal_per_turn_reward(ArmSet(MU_SPREAD), 5) == 3.5

    def test_clustered_vector_exact(self):
        assert optimal_per_turn_reward(ArmSet(MU_CLUSTERED), 5) == 3.30

    def test_all_arms_taken(self):
        means = (0.3, 0.2, 0.4)
        assert optimal_per_turn_reward(ArmSet(means), 3) == math.fsum(means)

    def test_rejects_too_many_players(self):
        with pytest.raises(ValueError, match="distinct arms"):
            optimal_per_turn_reward(ArmSet((0.5, 0.5)), 3)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(63)
        for s in range(2, 9):
            for n in range(1, min(s, 4) + 1):
                for _ in range(5):
                    means = rng.random(s)
                    assert optimal_per_turn_reward(ArmSet(means), n) == best_subset_reward(means, n)


class TestRegretLiteral:
    def test_distinct_top_arms_have_zero_regret(self):
        arms = ArmSet(MU_SPREAD)
        hist = make_history(arms, [([0, 1, 2, 3, 4], [0] * 10)] * 6)
        assert np.allclose(cumulative_regret_literal(hist), 0.0, atol=1e-12)

    def test_stacked_players_go_negative(self):
        # every player credited the full best mean: 3.5 - 5*0.9 = -1 per turn
        arms = ArmSet(MU_SPREAD)
        hist = make_history(arms, [([0] * 5, [0] * 10)] * 4)
        assert np.allclose(cumulative_regret_literal(hist), -1.0 * np.arange(1, 5))

    def test_single_player_on_best_arm(self):
        arms = ArmSet(MU_SPREAD)
        hist = make_history(arms, [([0], [0] * 10)] * 3)
        assert np.allclose(cumulative_regret_literal(hist), 0.0, atol=1e-12)


class TestRegretOccupancy:
    def test_distinct_top_arms_have_zero_regret(self):
        arms = ArmSet(MU_SPREAD)
        hist = make_history(arms, [([4, 3, 2, 1, 0], [0] * 10)] * 6)
        assert np.allclose(cumulative_regret_occupancy(hist), 0.0, atol=1e-12)

    def test_full_stack_pays_one_mean(self):
        # only arm 0 occupied: 3.5 - 0.9 = 2.6 per turn
        arms = ArmSet(MU_SPREAD)
        hist = make_history(arms, [([0] * 5, [0] * 10)] * 4)
        assert np.allclose(cumulative_regret_occupancy(hist), 2.6 * np.arange(1, 5))

    def test_decomposes_into_per_turn_terms(self):
        hist = build_random_history(MU_SPREAD, 5, 150, seed=64)
        best = optimal_per_turn_reward(hist.arms, hist.n_players)
        per_turn = [
            best - float(occupancy_indicator(choices, 10) @ hist.arms.means_array)
            for choices in hist.choices_matrix
        ]
        assert np.allclose(cumulative_regret_occupancy(hist), np.cumsum(per_turn), atol=1e-9)

    def test_nondecreasing_when_stuck_on_wrong_arms(self):
        # exploitation of non-top arms: every per-turn term is positive
        arms = ArmSet(MU_SPREAD)
        hist = make_history(arms, [([9, 9, 8, 8, 7], [0] * 10)] * 10)
        series = cumulative_regret_occupancy(hist)
        assert np.all(np.diff(series) > 0)

    def test_uniform_play_occupancy_expectation(self):
        # closed form: E[#occupied] = S(1-(1-1/S)^N) = 4.0951 for S=10, N=5
        rng = np.random.default_rng(65)
        n_turns = 20000
        choices = rng.integers(10, size=(n_turns, 5))
        occupied = np.zeros((n_turns, 10), dtype=bool)
        occupied[np.arange(n_turns).repeat(5), choices.ravel()] = True
        counts = occupied.sum(axis=1)
        expected = 10 * (1 - (1 - 1 / 10) ** 5)
        sigma = counts.std() / np.sqrt(n_turns)
        assert abs(counts.mean() - expected) < 3 * sigma


class TestHistoryAndRunRecord:
    def test_history_validates_shapes(self):
        arms = ArmSet((0.5, 0.5))
        choices, rewards = np.zeros((3, 2), dtype=int), np.zeros((3, 2), dtype=int)
        with pytest.raises(ValueError, match="realized"):
            GameHistory(choices, rewards, np.zeros((3, 1), dtype=int), arms)
        with pytest.raises(ValueError, match="rewards"):
            GameHistory(choices, np.zeros((2, 2), dtype=int), choices, arms)
        with pytest.raises(ValueError, match="at least one turn"):
            GameHistory(choices[:0], rewards[:0], choices[:0], arms)

    def test_random_history_pays_collision_winners_only(self):
        hist = build_random_history(MU_SPREAD, 5, 100, seed=67)
        paid = hist.rewards_matrix[np.arange(100)[:, None], hist.choices_matrix]
        assert (hist.realized_matrix <= paid).all()
        assert np.array_equal(hist.realized_matrix.sum(axis=1),
                              (hist.occupancy_matrix * hist.rewards_matrix).sum(axis=1))

    def test_run_record_series_are_consistent(self):
        hist = build_random_history(MU_SPREAD, 5, 80, seed=66)
        record = build_run_record(hist)
        assert record.n_turns == 80
        assert np.array_equal(record.cumulative_reward, cumulative_reward(hist))
        assert np.array_equal(record.cumulative_loss, cumulative_loss(hist))
        assert np.array_equal(record.regret_literal, cumulative_regret_literal(hist))
        assert np.array_equal(record.regret_occupancy, cumulative_regret_occupancy(hist))
