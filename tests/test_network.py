from itertools import combinations

import numpy as np
import pytest

from gossip_bandits import disseminate, env_step, sample_reach


def reference_tallies(reach, choices, realized, n_arms):
    """Report-by-report delivery: every receiver tallies each sender it reaches."""
    n = len(choices)
    tallies = np.zeros((n, 2 * n_arms), dtype=np.int64)
    for receiver in range(n):
        for sender in range(n):
            for _ in range(int(reach[receiver, sender])):
                tallies[receiver, choices[sender]] += 1
                tallies[receiver, n_arms + choices[sender]] += realized[sender]
    return tallies


def deliver(reach, choices, realized, n_arms):
    tallies = np.zeros((len(choices), 2 * n_arms), dtype=np.int64)
    disseminate(tallies, reach, np.asarray(choices), np.asarray(realized))
    return tallies


class TestSampleReach:
    def test_alpha_zero_reaches_only_self(self, rng):
        reach = sample_reach(5, 0.0, 100, rng)
        assert np.array_equal(reach, np.broadcast_to(np.eye(5, dtype=int), (100, 5, 5)))

    def test_alpha_one_reaches_everyone(self, rng):
        assert (sample_reach(5, 1.0, 100, rng) == 1).all()

    def test_symmetric_with_unit_diagonal(self, rng):
        reach = sample_reach(6, 0.5, 200, rng)
        assert np.array_equal(reach, reach.transpose(0, 2, 1))
        assert (reach[:, np.arange(6), np.arange(6)] == 1).all()

    def test_rejects_bad_alpha(self, rng):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError, match="connectivity"):
                sample_reach(5, bad, 1, rng)
        with pytest.raises(ValueError, match="player"):
            sample_reach(0, 0.5, 1, rng)

    def test_edge_count_mean_matches_binomial(self):
        # Binomial(10, 0.5) oracle: mean 5, var 2.5
        n = 10**4
        reach = sample_reach(5, 0.5, n, np.random.default_rng(21))
        edges = (reach.sum(axis=(1, 2)) - 5) // 2
        sigma = np.sqrt(10 * 0.25 / n)
        assert abs(edges.mean() - 5.0) < 3 * sigma

    def test_pairs_follow_combinations_order_per_turn(self):
        # one draw of N(N-1)/2 uniforms per turn, pair k = k-th combination
        turns, n, alpha = 30, 5, 0.4
        replay = np.random.default_rng(24)
        expected = np.zeros((turns, n, n), dtype=bool)
        for t in range(turns):
            keep = replay.random(n * (n - 1) // 2) < alpha
            for (a, b), kept in zip(combinations(range(n), 2), keep):
                expected[t, a, b] = expected[t, b, a] = kept
            expected[t] |= np.eye(n, dtype=bool)
        assert np.array_equal(sample_reach(n, alpha, turns, np.random.default_rng(24)), expected)


class TestDisseminate:
    def test_no_edges_deliver_own_report_only(self):
        tallies = deliver(np.eye(3, dtype=np.int64), [0, 1, 2], [1, 0, 1], n_arms=3)
        assert np.array_equal(tallies[:, :3], np.eye(3))
        assert np.array_equal(tallies[:, 3:], np.diag([1, 0, 1]))

    def test_complete_graph_delivers_everything_to_everyone(self):
        tallies = deliver(np.ones((5, 5), dtype=np.int64), [0, 1, 2, 3, 4], [1] * 5, n_arms=5)
        assert (tallies == 1).all()

    def test_hand_traced_single_edge(self):
        # players 0,1 on arm 2 (0 won), player 2 alone on arm 4 (reward 0);
        # the edge 0-1 makes both hear two reports on arm 2, one a success
        reach = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        tallies = deliver(reach, [2, 2, 4], [1, 0, 0], n_arms=5)
        assert tallies[0].tolist() == [0, 0, 2, 0, 0] + [0, 0, 1, 0, 0]
        assert tallies[1].tolist() == [0, 0, 2, 0, 0] + [0, 0, 1, 0, 0]
        assert tallies[2].tolist() == [0, 0, 0, 0, 1] + [0, 0, 0, 0, 0]

    def test_accumulates_across_turns(self):
        tallies = np.zeros((2, 4), dtype=np.int64)
        reach = np.ones((2, 2), dtype=np.int64)
        disseminate(tallies, reach, np.array([0, 1]), np.array([1, 0]))
        disseminate(tallies, reach, np.array([0, 0]), np.array([0, 1]))
        assert tallies.tolist() == [[3, 1, 2, 0]] * 2

    def test_matches_report_by_report_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            n_arms = int(rng.integers(2, 5))
            choices = rng.integers(n_arms, size=n)
            realized = env_step(choices.tolist(), rng.integers(2, size=n_arms).tolist(), rng)
            reach = sample_reach(n, float(rng.random()), 1, rng)[0]
            tallies = deliver(reach, choices, realized, n_arms)
            assert np.array_equal(tallies, reference_tallies(reach, choices, realized, n_arms))
            # one report per (receiver, sender) pair the reach matrix links
            assert tallies[:, :n_arms].sum() == n + 2 * int(np.triu(reach, 1).sum())
            # a tally's successes never exceed its count
            assert (tallies[:, n_arms:] <= tallies[:, :n_arms]).all()

    def test_collision_losers_report_zero(self):
        # the arm paid 1 but only the winner's report carries it
        realized = env_step([0, 0, 0], [1, 1], np.random.default_rng(23))
        tallies = deliver(np.ones((3, 3), dtype=np.int64), [0, 0, 0], realized, n_arms=2)
        assert tallies.tolist() == [[3, 0, 1, 0]] * 3
