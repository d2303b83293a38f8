import math

import numpy as np
import pytest

from gossip_bandits import (
    AsympOptPolicy,
    EpsilonGreedyPolicy,
    ThompsonPolicy,
    Ucb1Policy,
    UniformRandomPolicy,
    argmax_random_tie,
    compute_mix_probabilities,
    disseminate,
    make_policy,
    sample_categorical,
)
from oracles import minimize_expected_turn_loss, random_simplex_points

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)


def rows(n_arms):
    """A lone player's (counts, successes) rows of a fresh tally matrix."""
    tallies = np.zeros((2, n_arms), dtype=np.int64)
    return tallies[0], tallies[1]


def prime(policy, counts, successes):
    """Load the policy's tally rows directly."""
    policy.counts[:] = counts
    policy.successes[:] = successes


def skip_init(policy):
    policy.init_pending.clear()
    return policy


class TestSharedTallies:
    @pytest.mark.parametrize("name", ["ucb1", "egreedy", "thompson", "asympopt", "random"])
    def test_policy_reads_live_rows_and_never_writes_them(self, name):
        tallies = np.zeros((3, 8), dtype=np.int64)
        players = [
            make_policy(name, tallies[p, :4], tallies[p, 4:], 3, np.random.default_rng(p))
            for p in range(3)
        ]
        reach = np.ones((3, 3), dtype=np.int64)
        for _ in range(20):
            choices = np.array([player.select() for player in players])
            before = tallies.copy()
            disseminate(tallies, reach, choices, choices % 2)
            assert (tallies - before)[:, :4].sum() == 9
            for player in players:
                assert np.shares_memory(player.counts, tallies)
                assert player.counts.sum() == tallies[:, :4].sum() // 3
        snapshot = tallies.copy()
        for player in players:
            player.select()
        assert np.array_equal(tallies, snapshot)


class TestArgmaxRandomTie:
    def test_unique_maximum(self, rng):
        assert argmax_random_tie([0.1, 0.9, 0.3], rng) == 1

    def test_tie_is_uniform(self):
        rng = np.random.default_rng(32)
        n = 10**4
        picks = np.array([argmax_random_tie([1.0, 0.2, 1.0], rng) for _ in range(n)])
        frac = (picks == 0).mean()
        sigma = np.sqrt(0.25 / n)
        assert abs(frac - 0.5) < 3 * sigma
        assert not (picks == 1).any()

    def test_scale_invariance_of_maximizer_set(self):
        # exact powers of two keep float comparisons exact
        rng = np.random.default_rng(33)
        for _ in range(100):
            v = np.round(rng.random(6), 3)
            base = set(np.flatnonzero(v == v.max()))
            for scale in (0.25, 0.5, 2.0, 1024.0):
                w = v * scale
                assert set(np.flatnonzero(w == w.max())) == base


class TestUcb1:
    def test_init_phase_sweeps_arms_in_order(self):
        pol = Ucb1Policy(*rows(10), np.random.default_rng(0))
        assert [pol.select() for _ in range(4)] == [0, 1, 2, 3]
        assert len(pol.init_pending) == 6
        assert pol.select() == 4
        assert len(pol.init_pending) == 5

    def test_random_init_order_is_a_permutation(self):
        pol = Ucb1Policy(*rows(10), np.random.default_rng(1), init_order="random")
        sweep = [pol.select() for _ in range(10)]
        assert sorted(sweep) == list(range(10))

    def test_index_formula_prefers_observed_winner(self, rng):
        # n = [1, 1], means [1.0, 0.0]: indices 1 + sqrt(2 ln 2) vs sqrt(2 ln 2)
        pol = skip_init(Ucb1Policy(*rows(2), rng))
        prime(pol, counts=[1, 1], successes=[1, 0])
        bonus = math.sqrt(2 * math.log(2))
        assert 1.0 + bonus == pytest.approx(2.177410022515475)
        assert bonus == pytest.approx(1.1774100225154747)
        assert pol.select() == 0

    def test_symmetric_tie_selects_uniformly(self):
        pol = skip_init(Ucb1Policy(*rows(3), np.random.default_rng(34)))
        prime(pol, counts=[2, 2, 2], successes=[1, 1, 1])
        n = 10**4
        picks = np.array([pol.select() for _ in range(n)])
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        for arm in range(3):
            assert abs((picks == arm).mean() - 1 / 3) < 3 * sigma


class TestEpsilonGreedy:
    def test_pure_greedy(self, rng):
        pol = skip_init(EpsilonGreedyPolicy(*rows(3), rng, epsilon=0.0))
        prime(pol, counts=[10, 10, 10], successes=[1, 9, 3])
        assert all(pol.select() == 1 for _ in range(100))

    def test_unseen_arms_read_mean_zero(self, rng):
        pol = skip_init(EpsilonGreedyPolicy(*rows(3), rng, epsilon=0.0))
        prime(pol, counts=[4, 0, 0], successes=[1, 0, 0])
        assert all(pol.select() == 0 for _ in range(100))

    def test_pure_exploration_is_uniform(self):
        pol = EpsilonGreedyPolicy(*rows(5), np.random.default_rng(35), epsilon=1.0, decay=0.9999999)
        skip_init(pol)
        n = 10**4
        picks = np.array([pol.select() for _ in range(n)])
        sigma = np.sqrt(0.2 * 0.8 / n)
        for arm in range(5):
            assert abs((picks == arm).mean() - 0.2) < 3 * sigma

    def test_decay_is_geometric_in_selections(self):
        pol = EpsilonGreedyPolicy(*rows(4), np.random.default_rng(2), epsilon=1.0, decay=0.9)
        for _ in range(3):
            pol.select()
        assert pol.epsilon == 1.0 * 0.9 * 0.9 * 0.9  # 0.729 up to float repr

        expected = pol.epsilon
        for _ in range(37):
            pol.select()
            expected *= 0.9
        assert pol.epsilon == expected

    @pytest.mark.parametrize(
        "kwargs", [{"epsilon": -0.1}, {"epsilon": 1.1}, {"decay": 0.0}, {"decay": 1.0}]
    )
    def test_rejects_bad_hyperparameters(self, rng, kwargs):
        with pytest.raises(ValueError):
            EpsilonGreedyPolicy(*rows(3), rng, **kwargs)


class TestThompson:
    def test_fresh_priors_are_symmetric(self):
        pol = skip_init(ThompsonPolicy(*rows(2), np.random.default_rng(36)))
        prime(pol, counts=[0, 0], successes=[0, 0])
        n = 10**4
        picks = np.array([pol.select() for _ in range(n)])
        sigma = np.sqrt(0.25 / n)
        assert abs((picks == 0).mean() - 0.5) < 3 * sigma

    def test_separated_posteriors_pick_the_winner(self):
        # P(Beta(101,1) < Beta(1,101)) is negligible
        pol = skip_init(ThompsonPolicy(*rows(2), np.random.default_rng(37)))
        prime(pol, counts=[100, 100], successes=[100, 0])
        n = 10**4
        picks = np.array([pol.select() for _ in range(n)])
        assert (picks == 0).mean() > 0.99

    def test_beta_sampler_mean(self):
        # mean of Beta(3,1) is 0.75, var is 3/80
        rng = np.random.default_rng(38)
        n = 10**5
        draws = rng.beta(3.0, 1.0, size=n)
        sigma = np.sqrt((3 / 80) / n)
        assert abs(draws.mean() - 0.75) < 3 * sigma


class TestComputeMixProbabilities:
    def test_equal_means_give_uniform_mix(self):
        mix = compute_mix_probabilities([0.5] * 10, 5)
        # symmetry: level is 9/10 of the common root, so every c is 1/10
        assert np.allclose(mix.probabilities, 0.1, atol=1e-12)
        assert mix.active == tuple(range(10))

    def test_matches_numeric_minimizer_on_spread_means(self):
        mix = compute_mix_probabilities(MU_SPREAD, 5)
        oracle = minimize_expected_turn_loss(MU_SPREAD, 5)
        assert np.max(np.abs(mix.probabilities - oracle)) < 1e-6
        # frozen from the numeric minimizer; guards both routes at once
        expected = [0.2405564, 0.21786151, 0.1913108, 0.1595375,
                    0.12034242, 0.06987535, 0.00051602, 0.0, 0.0, 0.0]
        assert np.allclose(mix.probabilities, expected, atol=1e-7)
        assert mix.active == tuple(range(7))

    def test_near_zero_arms_are_dropped_and_rest_resolves(self):
        means = [0.9, 0.9, 0.9] + [1e-9] * 7
        mix = compute_mix_probabilities(means, 5)
        # unconstrained first pass goes negative exactly on the tiny arms
        inv_root = [(1.0 / m) ** 0.25 for m in means]
        first_pass = [1.0 - (9 / sum(inv_root)) * r for r in inv_root]
        expect_dropped = [i for i, c in enumerate(first_pass) if c <= 0]
        assert expect_dropped == [3, 4, 5, 6, 7, 8, 9]
        assert all(mix.probabilities[i] == 0.0 for i in expect_dropped)
        assert mix.active == (0, 1, 2)
        # restricted problem matches the oracle on the surviving arms
        oracle = minimize_expected_turn_loss([0.9, 0.9, 0.9], 5)
        assert np.max(np.abs(mix.probabilities[:3] - oracle)) < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="2 players"):
            compute_mix_probabilities([0.5, 0.5], 1)
        with pytest.raises(ValueError, match="positive"):
            compute_mix_probabilities([0.5, 0.0], 3)
        with pytest.raises(ValueError, match="nonempty"):
            compute_mix_probabilities([], 3)

    def test_is_probability_vector_on_random_inputs(self):
        rng = np.random.default_rng(39)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(2, 11))
            mu = rng.uniform(1e-3, 1.0, size=s)
            mix = compute_mix_probabilities(mu, n)
            c = mix.probabilities
            assert np.all(c >= 0.0) and np.all(c <= 1.0)
            assert abs(c.sum() - 1.0) < 1e-9
            assert set(np.flatnonzero(c > 0)) == set(mix.active)

    def test_objective_beats_random_simplex_points_and_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(max(3, n + 1), 11))
            mu = rng.uniform(0.01, 1.0, size=s)

            def loss(c):
                return np.sum((1.0 - np.asarray(c)) ** n * mu, axis=-1)

            c = compute_mix_probabilities(mu, n).probabilities
            assert np.all(loss(c) <= loss(random_simplex_points(1000, s, rng)) + 1e-12)
            oracle_value = loss(minimize_expected_turn_loss(mu, n))
            assert abs(loss(c) - oracle_value) < 1e-6

    def test_better_arms_get_at_least_as_much_probability(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            mu = rng.uniform(1e-3, 1.0, size=8)
            c = compute_mix_probabilities(mu, int(rng.integers(2, 6))).probabilities
            order = np.argsort(mu)
            assert np.all(np.diff(c[order]) >= -1e-12)


class TestSampleCategorical:
    def test_frequencies(self):
        rng = np.random.default_rng(42)
        n = 10**4
        picks = np.array([sample_categorical([0.3, 0.0, 0.7], rng) for _ in range(n)])
        assert not (picks == 1).any()
        sigma = np.sqrt(0.3 * 0.7 / n)
        assert abs((picks == 0).mean() - 0.3) < 3 * sigma

    def test_rejects_all_zero(self, rng):
        with pytest.raises(ValueError, match="positive"):
            sample_categorical([0.0, 0.0], rng)


class TestAsympOpt:
    def test_full_exploration_is_uniform(self):
        pol = AsympOptPolicy(*rows(10), 5, np.random.default_rng(43), epsilon=1.0, decay=0.9999999)
        n = 10**4
        picks = np.array([pol.select() for _ in range(n)])
        sigma = np.sqrt(0.1 * 0.9 / n)
        for arm in range(10):
            assert abs((picks == arm).mean() - 0.1) < 3 * sigma

    def test_equal_observed_means_mix_uniformly(self):
        pol = AsympOptPolicy(*rows(10), 5, np.random.default_rng(44), epsilon=0.0)
        prime(pol, counts=[10] * 10, successes=[5] * 10)
        n = 10**4
        picks = np.array([pol.select() for _ in range(n)])
        sigma = np.sqrt(0.1 * 0.9 / n)
        for arm in range(10):
            assert abs((picks == arm).mean() - 0.1) < 3 * sigma

    def test_exact_observed_means_reproduce_mix_frequencies(self):
        # tallies primed so observed means equal the spread vector exactly
        pol = AsympOptPolicy(*rows(10), 5, np.random.default_rng(45), epsilon=0.0)
        prime(pol, counts=[100] * 10, successes=[90, 80, 70, 60, 50, 40, 30, 20, 10, 1])
        assert np.array_equal(pol.successes / pol.counts, MU_SPREAD)
        c = compute_mix_probabilities(MU_SPREAD, 5).probabilities
        n = 10**5
        picks = np.array([pol.select() for _ in range(n)])
        for arm in range(10):
            frac = (picks == arm).mean()
            if c[arm] == 0.0:
                assert frac == 0.0
            else:
                sigma = np.sqrt(c[arm] * (1 - c[arm]) / n)
                assert abs(frac - c[arm]) < 3 * sigma

    def test_unseen_arms_fall_back_to_floor(self):
        pol = AsympOptPolicy(*rows(4), 3, np.random.default_rng(46), epsilon=0.0)
        mix = pol.current_mix()  # nothing observed: all means clamp to the floor
        assert np.allclose(mix, 0.25, atol=1e-12)

    def test_decay_matches_sequential_product(self):
        pol = AsympOptPolicy(*rows(5), 2, np.random.default_rng(47), epsilon=1.0, decay=0.995)
        expected = 1.0
        for _ in range(25):
            pol.select()
            expected *= 0.995
        assert pol.epsilon == expected

    def test_rejects_single_player(self, rng):
        with pytest.raises(ValueError, match="2 players"):
            AsympOptPolicy(*rows(5), 1, rng)


class TestUniformRandom:
    def test_uniform_over_arms(self):
        pol = UniformRandomPolicy(*rows(4), np.random.default_rng(48))
        n = 10**4
        picks = np.array([pol.select() for _ in range(n)])
        sigma = np.sqrt(0.25 * 0.75 / n)
        for arm in range(4):
            assert abs((picks == arm).mean() - 0.25) < 3 * sigma


class TestMakePolicyAndDeterminism:
    def test_factory_builds_each_kind(self, rng):
        kinds = {
            "ucb1": Ucb1Policy,
            "egreedy": EpsilonGreedyPolicy,
            "thompson": ThompsonPolicy,
            "asympopt": AsympOptPolicy,
            "random": UniformRandomPolicy,
        }
        for name, cls in kinds.items():
            assert isinstance(make_policy(name, *rows(10), 5, rng), cls)
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("oracle", *rows(10), 5, rng)

    @pytest.mark.parametrize("name", ["ucb1", "egreedy", "thompson", "asympopt", "random"])
    def test_identical_seed_and_observations_give_identical_selections(self, name):
        def run():
            tallies = np.zeros((3, 12), dtype=np.int64)
            pol = make_policy(name, tallies[0, :6], tallies[0, 6:], 3, np.random.default_rng(4242))
            obs_rng = np.random.default_rng(777)
            picks = []
            for _ in range(200):
                arm = pol.select()
                picks.append(arm)
                choices = np.array([arm, obs_rng.integers(6), obs_rng.integers(6)])
                disseminate(tallies, np.ones((3, 3), dtype=np.int64), choices,
                            obs_rng.integers(2, size=3))
            return picks

        assert run() == run()
