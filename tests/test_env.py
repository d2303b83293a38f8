import numpy as np
import pytest

from gossip_bandits.env import draw_arm_rewards, env_step
from gossip_bandits.rng import substream
from oracles import pairwise_env_step

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


def step(choices, arm_rewards, rng):
    """``env_step`` on plain lists, as a list."""
    return env_step(np.asarray(choices), np.asarray(arm_rewards, dtype=bool), rng).tolist()


class TestEnvStep:
    def test_no_collision_passes_rewards_through(self):
        rng = substream(8, "env-winners")
        assert step([0, 1, 2], [1, 1, 0], rng) == [1, 1, 0]
        # a turn without a collision draws nothing
        assert rng.random() == substream(8, "env-winners").random()

    def test_full_collision_pays_exactly_one_player(self, rng):
        realized = step([3, 3, 3, 3, 3], [0, 0, 0, 1], rng)
        assert sorted(realized) == [0, 0, 0, 0, 1]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_winner_is_uniform_over_pullers(self, k):
        # oracle: each of k contenders wins a resolution with probability 1/k
        rng = np.random.default_rng(12)
        n = 10**4
        wins = np.array([env_step(np.zeros(k, dtype=np.int64), np.array([True, True]), rng)
                         for _ in range(n)])
        assert (wins.sum(axis=1) == 1).all()
        sigma = np.sqrt((1 / k) * (1 - 1 / k) / n)
        assert (np.abs(wins.mean(axis=0) - 1 / k) < 3 * sigma).all()

    def test_collided_players_lose_to_a_higher_priority(self):
        # arm 1 (players 1, 3, 4) and arm 3 (players 0, 2) pay; one priority per player
        priority = substream(8, "env-winners").random(5)
        winners = [max(pullers, key=lambda p: priority[p]) for pullers in ([1, 3, 4], [0, 2])]
        realized = step([3, 1, 3, 1, 1], [0, 1, 0, 1], substream(8, "env-winners"))
        assert [p for p, r in enumerate(realized) if r] == sorted(winners)

    def test_rejects_out_of_range_choice(self, rng):
        with pytest.raises(IndexError):
            step([0, 5], [1, 1], rng)

    def test_conservation_per_turn(self):
        # total paid == sum of realizations on pulled arms, exactly
        rng = np.random.default_rng(13)
        for _ in range(200):
            n_arms = int(rng.integers(2, 8))
            choices = rng.integers(n_arms, size=int(rng.integers(1, 7))).tolist()
            rewards = rng.integers(2, size=n_arms).tolist()
            realized = step(choices, rewards, rng)
            pulled = np.zeros(n_arms, dtype=int)
            pulled[choices] = 1
            assert sum(realized) == (pulled * rewards).sum()

    def test_each_paying_arm_pays_one_of_its_pullers(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            choices = rng.integers(4, size=5).tolist()
            rewards = rng.integers(2, size=4).tolist()
            realized = step(choices, rewards, rng)
            for arm in set(choices):
                paid = [realized[p] for p, c in enumerate(choices) if c == arm]
                assert sorted(paid) == [0] * (len(paid) - 1) + [rewards[arm]]

    def test_losers_get_zero_even_when_arm_paid(self):
        realized = step([2, 2, 2], [0, 0, 1], np.random.default_rng(15))
        assert sorted(realized) == [0, 0, 1]

    def test_total_reward_under_full_collision_matches_mean(self):
        # all 5 players on arm 0: exactly one winner, so the expected
        # per-turn total is just mu_0 = 0.9
        n = 10**5
        rewards = draw_arm_rewards(MU_SPREAD, n, substream(99, "env-arms"))
        winner_rng = substream(99, "env-winners")
        pulls = np.zeros(5, dtype=np.int64)
        total = sum(int(env_step(pulls, row, winner_rng).sum()) for row in rewards)
        sigma = np.sqrt(0.9 * 0.1 / n)
        assert abs(total / n - 0.9) < 3 * sigma

    def test_deterministic_given_seed_and_choices(self):
        choice_rng = np.random.default_rng(3)
        choice_seq = [choice_rng.integers(10, size=5) for _ in range(50)]

        def run():
            rewards = draw_arm_rewards(MU_SPREAD, 50, substream(77, "env-arms"))
            winner_rng = substream(77, "env-winners")
            return [env_step(c, r, winner_rng).tolist() for c, r in zip(choice_seq, rewards)]

        assert run() == run()


class LevelDraws:
    """A winner-generator stand-in whose priorities take ``levels`` values, so exact ties are common."""

    def __init__(self, seed, levels):
        self.rng, self.levels = np.random.default_rng(seed), levels

    def random(self, size):
        return np.floor(self.rng.random(size) * self.levels) / self.levels


class TestMatchesPairwiseReference:
    """``env_step`` against the pairwise rule it replaced, draw for draw."""

    @staticmethod
    def turns(seed, n_players, count):
        """``count`` random (choices, realizations) turns; a narrow arm range makes collisions common."""
        data = np.random.default_rng(seed)
        for _ in range(count):
            n_arms = int(data.integers(2, 26))
            used = int(data.integers(1, n_arms + 1))
            yield data.integers(used, size=n_players), data.random(n_arms) < 0.5

    @pytest.mark.parametrize("n_players", [1, 2, 5, 9, 20])
    def test_random_turns_pay_and_draw_alike(self, n_players):
        fast, reference = np.random.default_rng(81), np.random.default_rng(81)
        drew = 0
        for choices, arm_rewards in self.turns(80 + n_players, n_players, 500):
            before = fast.bit_generator.state
            paid = env_step(choices, arm_rewards, fast)
            expected = pairwise_env_step(choices, arm_rewards, reference)
            assert paid.dtype == expected.dtype and np.array_equal(paid, expected)
            assert fast.bit_generator.state == reference.bit_generator.state
            drew += fast.bit_generator.state != before
        # N=1 never collides; at N=2 and N=5 some turns do not either, and draw nothing
        assert (drew > 0) == (n_players > 1)
        assert drew < 500 or n_players > 5

    @pytest.mark.parametrize("n_players", [2, 5, 9, 20])
    def test_exactly_tied_priorities_pay_alike(self, n_players):
        fast, reference = LevelDraws(82, levels=3), LevelDraws(82, levels=3)
        for choices, arm_rewards in self.turns(90 + n_players, n_players, 300):
            paid = env_step(choices, arm_rewards, fast)
            assert np.array_equal(paid, pairwise_env_step(choices, arm_rewards, reference))
            assert fast.rng.bit_generator.state == reference.rng.bit_generator.state

    def test_players_tied_at_the_top_are_all_paid(self):
        # every priority is 0.0: no player on arm 1 has a strictly higher one than another
        assert step([1, 1, 0, 1], [1, 1], LevelDraws(0, levels=1)) == [1, 1, 1, 1]
