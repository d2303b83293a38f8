import numpy as np
import pytest

from gossip_bandits.env import draw_arm_rewards, env_step
from gossip_bandits.rng import substream

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)


class TestDrawArmRewards:
    def test_degenerate_all_ones(self, rng):
        assert np.array_equal(draw_arm_rewards((1.0, 1.0), 3, rng), [[1, 1]] * 3)

    def test_degenerate_all_zeros(self, rng):
        assert np.array_equal(draw_arm_rewards((0.0, 0.0, 0.0), 3, rng), [[0, 0, 0]] * 3)

    def test_empirical_mean_matches_first_arm(self):
        # 1e5 draws: arm 0 frequency within 3 sigma of 0.9
        n = 10**5
        hits = int(draw_arm_rewards(MU_SPREAD, n, np.random.default_rng(11))[:, 0].sum())
        sigma = np.sqrt(0.9 * 0.1 / n)
        assert abs(hits / n - 0.9) < 3 * sigma

    def test_equals_one_draw_per_turn(self):
        # the whole-episode draw keeps the stream of S uniforms per turn
        rng = substream(5, "env-arms")
        per_turn = [(rng.random(10) < np.array(MU_SPREAD)).astype(np.int64) for _ in range(50)]
        assert np.array_equal(draw_arm_rewards(MU_SPREAD, 50, substream(5, "env-arms")), per_turn)


class TestEnvStep:
    def test_no_collision_passes_rewards_through(self, rng):
        assert env_step([0, 1, 2], [1, 1, 0], rng) == [1, 1, 0]

    def test_full_collision_pays_exactly_one_player(self, rng):
        realized = env_step([3, 3, 3, 3, 3], [0, 0, 0, 1], rng)
        assert sorted(realized) == [0, 0, 0, 0, 1]

    def test_winner_is_uniform_over_pullers(self):
        # oracle: exact binomial, p = 1/2 per resolution
        rng = np.random.default_rng(12)
        n = 10**4
        wins = sum(env_step([0, 0], [1, 1], rng)[0] for _ in range(n))
        sigma = np.sqrt(0.25 / n)
        assert abs(wins / n - 0.5) < 3 * sigma

    def test_collided_arms_draw_in_arm_then_player_order(self):
        # arm 1 (players 1, 3, 4) draws before arm 3 (players 0, 2)
        replay = substream(8, "env-winners")
        first = [1, 3, 4][int(replay.integers(3))]
        second = [0, 2][int(replay.integers(2))]
        realized = env_step([3, 1, 3, 1, 1], [0, 1, 0, 1], substream(8, "env-winners"))
        assert [p for p, r in enumerate(realized) if r] == sorted([first, second])

    def test_rejects_out_of_range_choice(self, rng):
        with pytest.raises(IndexError):
            env_step([0, 5], [1, 1], rng)

    def test_conservation_per_turn(self):
        # total paid == sum of realizations on pulled arms, exactly
        rng = np.random.default_rng(13)
        for _ in range(200):
            n_arms = int(rng.integers(2, 8))
            choices = rng.integers(n_arms, size=int(rng.integers(1, 7))).tolist()
            rewards = rng.integers(2, size=n_arms).tolist()
            realized = env_step(choices, rewards, rng)
            pulled = np.zeros(n_arms, dtype=int)
            pulled[choices] = 1
            assert sum(realized) == (pulled * rewards).sum()

    def test_each_paying_arm_pays_one_of_its_pullers(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            choices = rng.integers(4, size=5).tolist()
            rewards = rng.integers(2, size=4).tolist()
            realized = env_step(choices, rewards, rng)
            for arm in set(choices):
                paid = [realized[p] for p, c in enumerate(choices) if c == arm]
                assert sorted(paid) == [0] * (len(paid) - 1) + [rewards[arm]]

    def test_losers_get_zero_even_when_arm_paid(self):
        realized = env_step([2, 2, 2], [0, 0, 1], np.random.default_rng(15))
        assert sorted(realized) == [0, 0, 1]

    def test_total_reward_under_full_collision_matches_mean(self):
        # all 5 players on arm 0: exactly one winner, so the expected
        # per-turn total is just mu_0 = 0.9
        n = 10**5
        rewards = draw_arm_rewards(MU_SPREAD, n, substream(99, "env-arms")).tolist()
        winner_rng = substream(99, "env-winners")
        total = sum(sum(env_step([0] * 5, row, winner_rng)) for row in rewards)
        sigma = np.sqrt(0.9 * 0.1 / n)
        assert abs(total / n - 0.9) < 3 * sigma

    def test_deterministic_given_seed_and_choices(self):
        choice_rng = np.random.default_rng(3)
        choice_seq = [choice_rng.integers(10, size=5).tolist() for _ in range(50)]

        def run():
            rewards = draw_arm_rewards(MU_SPREAD, 50, substream(77, "env-arms"))
            winner_rng = substream(77, "env-winners")
            return [env_step(c, r, winner_rng) for c, r in zip(choice_seq, rewards.tolist())]

        assert run() == run()
