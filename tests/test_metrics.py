import math

import numpy as np
import pytest

from gossip_bandits.metrics import build_run_record, optimal_per_turn_reward
from oracles import best_subset_reward
from support import SERIES, build_random_history, make_history, occupancy_indicator, per_turn_terms

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
MU_CLUSTERED = (0.7, 0.68, 0.66, 0.64, 0.62, 0.4, 0.38, 0.36, 0.34, 0.32)


def record_of(means, turn_specs):
    """The run record of a hand-built episode."""
    choices, rewards = make_history(turn_specs)
    return build_run_record(choices, rewards, means, choices.shape[1])


def random_record(n_turns, seed):
    """The run record of uniformly random play on ``MU_SPREAD``, with the episode's arrays."""
    choices, rewards, realized = build_random_history(MU_SPREAD, 5, n_turns, seed=seed)
    return build_run_record(choices, rewards, MU_SPREAD, 5), choices, rewards, realized


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
        record = record_of((0.5, 0.5, 0.5), [([0, 1], [1, 1, 0])])
        assert record.reward[-1] == 2

    def test_collision_counts_once(self):
        record = record_of((0.5, 0.5), [([0] * 5, [1, 0])])
        assert record.reward[-1] == 1

    def test_reward_equals_sum_of_realized(self):
        record, _, _, realized = random_record(200, seed=61)
        assert record.reward[-1] == realized.sum()

    def test_loss_zero_when_every_arm_pulled(self):
        record = record_of((0.9, 0.9), [([0, 1], [1, 1]), ([1, 0], [1, 0])])
        assert record.loss[-1] == 0

    def test_single_player_leaves_other_arm_on_table(self):
        record = record_of((0.5, 0.5), [([0], [1, 1])])
        assert record.loss[-1] == 1

    def test_loss_reward_identity_exact(self):
        record, _, rewards, _ = random_record(100, seed=62)
        assert record.loss[-1] + record.reward[-1] == rewards.sum()
        # per-turn series version of the same identity
        per_turn_draws = np.cumsum(rewards.sum(axis=1))
        assert np.array_equal(record.loss + record.reward, per_turn_draws)


class TestOptimalPerTurnReward:
    def test_spread_vector_exact(self):
        assert optimal_per_turn_reward(MU_SPREAD, 5) == 3.5

    def test_clustered_vector_exact(self):
        assert optimal_per_turn_reward(MU_CLUSTERED, 5) == 3.30

    def test_all_arms_taken(self):
        means = (0.3, 0.2, 0.4)
        assert optimal_per_turn_reward(means, 3) == math.fsum(means)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(63)
        for s in range(2, 9):
            for n in range(1, min(s, 4) + 1):
                for _ in range(5):
                    means = rng.random(s)
                    assert optimal_per_turn_reward(means, n) == best_subset_reward(means, n)


class TestRegretLiteral:
    def test_distinct_top_arms_have_zero_regret(self):
        record = record_of(MU_SPREAD, [([0, 1, 2, 3, 4], [0] * 10)] * 6)
        assert np.allclose(record.regret_literal, 0.0, atol=1e-12)

    def test_stacked_players_go_negative(self):
        # every player credited the full best mean: 3.5 - 5*0.9 = -1 per turn
        record = record_of(MU_SPREAD, [([0] * 5, [0] * 10)] * 4)
        assert np.allclose(record.regret_literal, -1.0 * np.arange(1, 5))

    def test_single_player_on_best_arm(self):
        record = record_of(MU_SPREAD, [([0], [0] * 10)] * 3)
        assert np.allclose(record.regret_literal, 0.0, atol=1e-12)


class TestRegretOccupancy:
    def test_distinct_top_arms_have_zero_regret(self):
        record = record_of(MU_SPREAD, [([4, 3, 2, 1, 0], [0] * 10)] * 6)
        assert np.allclose(record.regret_occupancy, 0.0, atol=1e-12)

    def test_full_stack_pays_one_mean(self):
        # only arm 0 occupied: 3.5 - 0.9 = 2.6 per turn
        record = record_of(MU_SPREAD, [([0] * 5, [0] * 10)] * 4)
        assert np.allclose(record.regret_occupancy, 2.6 * np.arange(1, 5))

    def test_nondecreasing_when_stuck_on_wrong_arms(self):
        # exploitation of non-top arms: every per-turn term is positive
        record = record_of(MU_SPREAD, [([9, 9, 8, 8, 7], [0] * 10)] * 10)
        assert np.all(np.diff(record.regret_occupancy) > 0)

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
    def test_random_history_pays_collision_winners_only(self):
        choices, rewards, realized = build_random_history(MU_SPREAD, 5, 100, seed=67)
        paid = rewards[np.arange(100)[:, None], choices]
        assert (realized <= paid).all()
        reward_terms = per_turn_terms(choices, rewards, MU_SPREAD)["reward"]
        assert np.array_equal(realized.sum(axis=1), reward_terms)

    @pytest.mark.parametrize("series", SERIES)
    def test_decomposes_into_per_turn_terms(self, series):
        record, choices, rewards, _ = random_record(150, seed=64)
        expected = np.cumsum(per_turn_terms(choices, rewards, MU_SPREAD)[series])
        assert np.allclose(getattr(record, series), expected, rtol=0, atol=1e-9)
