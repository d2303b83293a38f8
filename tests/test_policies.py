import copy
import math

import numpy as np
import pytest

from gossip_bandits.config import ConfigError, ExperimentConfig
from gossip_bandits.network import disseminate
from gossip_bandits.policies import (
    AsympOptPolicy,
    EpsilonGreedyPolicy,
    ThompsonPolicy,
    Ucb1Policy,
    UniformRandomPolicy,
    argmax_rows,
    make_policy,
    mix_probabilities,
)
from oracles import (
    argmax_rows_by_mask,
    minimize_expected_turn_loss,
    mix_by_dropping,
    random_simplex_points,
)

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
POLICIES = ["ucb1", "egreedy", "thompson", "asympopt", "random"]


def episode(name, n_arms, n_players=1, seed=0, **fields):
    """An episode policy over a fresh tally matrix; the players draw from one generator."""
    cfg = ExperimentConfig(algorithm=name, means=(0.5,) * n_arms, n_players=n_players, **fields)
    tallies = np.zeros((n_players, 2 * n_arms), dtype=np.float64)
    return make_policy(cfg, tallies, np.random.default_rng(seed)), tallies


def prime(tallies, counts, successes):
    """Load every player's tally row directly; a flat list is copied to each row."""
    n_arms = tallies.shape[1] // 2
    tallies[:, :n_arms] = counts
    tallies[:, n_arms:] = successes


def prob_beta_exceeds(a, b, c, d):
    """Exact P(Beta(a, b) > Beta(c, d)) for a whole number ``a``: a finite sum of ``a`` terms."""

    def log_beta(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    return math.fsum(
        math.exp(log_beta(c + i, d + b) - math.log(b + i) - log_beta(1 + i, b) - log_beta(c, d))
        for i in range(a)
    )


def skip_sweep(policy):
    policy.sweep.clear()
    return policy


def picks(policy, turns):
    """(turns, players) choices of ``turns`` selections."""
    return np.array([policy.select() for _ in range(turns)])


class TestSharedTallies:
    @pytest.mark.parametrize("name", POLICIES)
    def test_policy_reads_live_rows_and_never_writes_them(self, name):
        policy, tallies = episode(name, 4, n_players=3)
        reach = np.ones((3, 3), dtype=bool)
        for _ in range(20):
            choices = np.array(policy.select())
            before = tallies.copy()
            disseminate(tallies, reach, choices, choices % 2)
            assert (tallies - before)[:, :4].sum() == 9
            assert np.shares_memory(policy.counts, tallies)
            assert np.array_equal(policy.counts, tallies[:, :4])
            assert np.array_equal(policy.successes, tallies[:, 4:])
        snapshot = tallies.copy()
        policy.select()
        assert np.array_equal(tallies, snapshot)

    @pytest.mark.parametrize("name", POLICIES)
    @pytest.mark.parametrize("init_order", ["sequential", "random"])
    def test_choices_do_not_depend_on_the_tally_dtype(self, name, init_order):
        # whole-number counts read the same as int64 or float64: the sweep,
        # then 200 turns from one seed, row 0 tied across every arm at first
        counts = [[3, 3, 3, 3], [5, 1, 2, 4], [0, 2, 7, 1]]
        successes = [[1, 1, 1, 1], [4, 0, 1, 2], [0, 2, 3, 0]]
        runs = []
        for dtype in (np.int64, np.float64):
            cfg = ExperimentConfig(algorithm=name, means=(0.5,) * 4, n_players=3,
                                   init_order=init_order, epsilon0=0.5, decay=0.99)
            tallies = np.zeros((3, 8), dtype=dtype)
            prime(tallies, counts, successes)
            policy = make_policy(cfg, tallies, np.random.default_rng(41))
            rows = np.arange(3)
            chosen = []
            for _ in range(200):
                arms = policy.select()
                chosen.append(arms)
                # each player's own report, the same whole numbers in either dtype
                tallies[rows, arms] += 1
                tallies[rows, 4 + arms] += arms % 2
            runs.append(np.array(chosen))
        assert np.array_equal(*runs)


class TestArgmaxRandomTie:
    def test_unique_maximum(self):
        values = np.array([[0.1, 0.9, 0.3], [0.5, 0.2, 0.1]])
        untouched = np.random.default_rng(5)
        assert argmax_rows(values, untouched).tolist() == [1, 0]
        # a call without a tie draws nothing from the stream
        assert untouched.random() == np.random.default_rng(5).random()

    def test_tie_is_uniform(self):
        rng = np.random.default_rng(32)
        values = np.array([[1.0, 0.2, 1.0], [0.2, 0.2, 0.0], [0.1, 0.7, 0.3]])
        n = 10**4
        chosen = np.array([argmax_rows(values, rng) for _ in range(n)])
        sigma = np.sqrt(0.25 / n)
        assert abs((chosen[:, 0] == 0).mean() - 0.5) < 3 * sigma
        assert not (chosen[:, 0] == 1).any()
        assert abs((chosen[:, 1] == 0).mean() - 0.5) < 3 * sigma
        assert not (chosen[:, 1] == 2).any()
        # the draws for the other rows' ties never move a unique maximum
        assert (chosen[:, 2] == 1).all()

    def test_scale_invariance_of_maximizer_set(self):
        # exact powers of two keep float comparisons exact
        rng = np.random.default_rng(33)
        for _ in range(100):
            v = np.round(rng.random(6), 3)
            base = set(np.flatnonzero(v == v.max()))
            pick = argmax_rows(v[None], np.random.default_rng(0))[0]
            assert pick in base
            for scale in (0.25, 0.5, 2.0, 1024.0):
                w = v * scale
                assert set(np.flatnonzero(w == w.max())) == base
                assert argmax_rows(w[None], np.random.default_rng(0))[0] == pick

    def test_random_rows_match_the_mask_reference(self):
        # odd calls hold values on a few levels, so rows tie exactly and often
        data = np.random.default_rng(34)
        fast, reference = np.random.default_rng(35), np.random.default_rng(35)
        tie_calls = 0
        for call in range(2000):
            shape = (int(data.integers(1, 21)), int(data.integers(1, 26)))
            levels = int(data.integers(1, 5))
            values = data.integers(levels, size=shape) / levels if call % 2 else data.random(shape)
            before = fast.bit_generator.state
            chosen = argmax_rows(values, fast)
            assert np.array_equal(chosen, argmax_rows_by_mask(values, reference))
            assert fast.bit_generator.state == reference.bit_generator.state
            tie_calls += fast.bit_generator.state != before
        assert 0 < tie_calls < 2000

    @pytest.mark.parametrize("values", [
        np.zeros((3, 4)),
        np.full((2, 5), np.inf),
        np.array([[0.5, 0.5, 0.1], [0.2, 0.9, 0.9], [0.3, 0.1, 0.2]]),
        np.array([[0.7, 0.7, 0.7, 0.7]]),
    ])
    def test_exactly_tied_rows_match_the_mask_reference(self, values):
        fast, reference = np.random.default_rng(36), np.random.default_rng(36)
        for _ in range(50):
            assert np.array_equal(argmax_rows(values, fast), argmax_rows_by_mask(values, reference))
            assert fast.bit_generator.state == reference.bit_generator.state


class TestUcb1:
    def test_init_phase_sweeps_arms_in_order(self):
        pol, _ = episode("ucb1", 10, n_players=3)
        assert [pol.select().tolist() for _ in range(4)] == [[0, 0, 0], [1, 1, 1], [2, 2, 2], [3, 3, 3]]
        assert len(pol.sweep) == 6
        assert pol.select().tolist() == [4, 4, 4]
        assert len(pol.sweep) == 5

    def test_random_init_order_is_a_permutation(self):
        pol, _ = episode("ucb1", 10, n_players=3, seed=1, init_order="random")
        sweep = picks(pol, 10)
        for p in range(3):
            assert sorted(sweep[:, p]) == list(range(10))
        # one permutation per row of a single call, drawn at construction
        expected = np.random.default_rng(1).permuted(np.tile(np.arange(10), (3, 1)), axis=1)
        assert np.array_equal(sweep.T, expected)
        assert not np.array_equal(sweep[:, 0], sweep[:, 1])

    def test_index_formula_prefers_observed_winner(self, rng):
        # n = [1, 1], means [1.0, 0.0]: indices 1 + sqrt(2 ln 2) vs sqrt(2 ln 2)
        bonus = math.sqrt(2 * math.log(2))
        assert 1.0 + bonus == pytest.approx(2.177410022515475)
        assert bonus == pytest.approx(1.1774100225154747)
        pol, tallies = episode("ucb1", 2)
        prime(tallies, counts=[1, 1], successes=[1, 0])
        assert skip_sweep(pol).select().tolist() == [0]
        # each row's bonus uses its own total: row 1 prefers its least-pulled arm
        pol, tallies = episode("ucb1", 3, n_players=2)
        prime(tallies, counts=[[1, 1, 1], [4, 1, 2]], successes=[[1, 0, 0], [3, 0, 1]])
        counts, successes = tallies[:, :3], tallies[:, 3:]
        expected = [
            int(np.argmax(s / c + np.sqrt(2.0 * np.log(c.sum()) / c)))
            for c, s in zip(counts, successes)
        ]
        assert skip_sweep(pol).select().tolist() == expected == [0, 1]

    def test_symmetric_tie_selects_uniformly(self):
        pol, tallies = episode("ucb1", 3, n_players=2, seed=34)
        prime(tallies, counts=[2, 2, 2], successes=[1, 1, 1])
        n = 10**4
        chosen = picks(skip_sweep(pol), n)
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        for p in range(2):
            for arm in range(3):
                assert abs((chosen[:, p] == arm).mean() - 1 / 3) < 3 * sigma


class TestEpsilonGreedy:
    def test_pure_greedy(self):
        pol, tallies = episode("egreedy", 3, n_players=2, epsilon0=0.0)
        prime(tallies, counts=[10, 10, 10], successes=[[1, 9, 3], [5, 1, 3]])
        assert all(skip_sweep(pol).select().tolist() == [1, 0] for _ in range(100))

    def test_unseen_arms_read_mean_zero(self):
        pol, tallies = episode("egreedy", 3, epsilon0=0.0)
        prime(tallies, counts=[4, 0, 0], successes=[1, 0, 0])
        assert all(skip_sweep(pol).select().tolist() == [0] for _ in range(100))

    def test_pure_exploration_is_uniform(self):
        pol, _ = episode("egreedy", 5, n_players=2, seed=35, epsilon0=1.0, decay=0.9999999)
        n = 10**4
        chosen = picks(skip_sweep(pol), n // 2).ravel()
        sigma = np.sqrt(0.2 * 0.8 / n)
        for arm in range(5):
            assert abs((chosen == arm).mean() - 0.2) < 3 * sigma

    def test_decay_is_geometric_in_selections(self):
        pol, _ = episode("egreedy", 4, n_players=2, seed=2, epsilon0=1.0, decay=0.9)
        for _ in range(3):
            pol.select()
        assert pol.epsilon == 1.0 * 0.9 * 0.9 * 0.9  # 0.729 up to float repr

        expected = pol.epsilon
        for _ in range(37):
            pol.select()
            expected *= 0.9
        assert pol.epsilon == expected

    @pytest.mark.parametrize(
        "kwargs", [{"epsilon0": -0.1}, {"epsilon0": 1.1}, {"decay": 0.0}, {"decay": 1.0}]
    )
    def test_rejects_bad_hyperparameters(self, kwargs):
        # the config is the only validator: no policy is built from these
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="egreedy", **kwargs)


class TestThompson:
    def test_fresh_priors_are_symmetric(self):
        pol, _ = episode("thompson", 2, seed=36)
        n = 10**4
        chosen = picks(skip_sweep(pol), n)
        sigma = np.sqrt(0.25 / n)
        assert abs((chosen == 0).mean() - 0.5) < 3 * sigma

    def test_separated_posteriors_pick_the_winner(self):
        # P(Beta(101,1) < Beta(1,101)) is negligible
        pol, tallies = episode("thompson", 3, n_players=2, seed=37)
        prime(tallies, counts=[100, 100, 100], successes=[[100, 0, 0], [0, 0, 100]])
        n = 10**4
        chosen = picks(skip_sweep(pol), n)
        assert (chosen[:, 0] == 0).mean() > 0.99
        assert (chosen[:, 1] == 2).mean() > 0.99

    def test_pick_frequency_is_the_posterior_probability(self):
        # arm 0: 7 of 10 reports paid, arm 1: 2 of 4; the posteriors are
        # Beta(8, 4) and Beta(3, 3), and arm 0 draws higher with probability 0.758
        # (a Beta(s + 1, counts + 1) posterior would give 0.601)
        pol, tallies = episode("thompson", 2, seed=39)
        prime(tallies, counts=[10, 4], successes=[7, 2])
        p = prob_beta_exceeds(8, 4, 3, 3)
        n = 10**4
        freq = (picks(skip_sweep(pol), n) == 0).mean()
        assert abs(freq - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_exact_beta_comparison(self):
        # symmetry and complement checks of the finite sum
        assert prob_beta_exceeds(1, 1, 1, 1) == pytest.approx(0.5, abs=1e-12)
        assert prob_beta_exceeds(7, 3, 7, 3) == pytest.approx(0.5, abs=1e-12)
        for a, b, c, d in [(8, 4, 3, 3), (3, 1, 13, 9), (2, 5, 4, 2)]:
            assert prob_beta_exceeds(a, b, c, d) + prob_beta_exceeds(c, d, a, b) == pytest.approx(1, abs=1e-12)
        # P(Beta(2, 1) > U) = E[X] = 2/3
        assert prob_beta_exceeds(2, 1, 1, 1) == pytest.approx(2 / 3, abs=1e-12)

    def test_beta_sampler_mean(self):
        # mean of Beta(3,1) is 0.75, var is 3/80
        rng = np.random.default_rng(38)
        n = 10**5
        draws = rng.beta(3.0, 1.0, size=n)
        sigma = np.sqrt((3 / 80) / n)
        assert abs(draws.mean() - 0.75) < 3 * sigma


class TestComputeMixProbabilities:
    def test_equal_means_give_uniform_mix(self):
        c = mix_probabilities(np.full(10, 0.5), 5)
        # symmetry: level is 9/10 of the common root, so every c is 1/10
        assert np.allclose(c, 0.1, atol=1e-12)
        assert (c > 0).all()

    def test_matches_numeric_minimizer_on_spread_means(self):
        c = mix_probabilities(np.array(MU_SPREAD), 5)
        oracle = minimize_expected_turn_loss(MU_SPREAD, 5)
        assert np.max(np.abs(c - oracle)) < 1e-6
        # frozen from the numeric minimizer; guards both routes at once
        expected = [0.2405564, 0.21786151, 0.1913108, 0.1595375,
                    0.12034242, 0.06987535, 0.00051602, 0.0, 0.0, 0.0]
        assert np.allclose(c, expected, atol=1e-7)
        assert np.flatnonzero(c).tolist() == list(range(7))

    def test_near_zero_arms_are_dropped_and_rest_resolves(self):
        means = [0.9, 0.9, 0.9] + [1e-9] * 7
        c = mix_probabilities(np.array(means), 5)
        # unconstrained first pass goes negative exactly on the tiny arms
        inv_root = [(1.0 / m) ** 0.25 for m in means]
        first_pass = [1.0 - (9 / sum(inv_root)) * r for r in inv_root]
        expect_dropped = [i for i, c in enumerate(first_pass) if c <= 0]
        assert expect_dropped == [3, 4, 5, 6, 7, 8, 9]
        assert all(c[i] == 0.0 for i in expect_dropped)
        assert np.flatnonzero(c).tolist() == [0, 1, 2]
        # restricted problem matches the oracle on the surviving arms
        oracle = minimize_expected_turn_loss([0.9, 0.9, 0.9], 5)
        assert np.max(np.abs(c[:3] - oracle)) < 1e-6

    def test_is_probability_vector_on_random_inputs(self):
        rng = np.random.default_rng(39)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(2, 11))
            c = mix_probabilities(rng.uniform(1e-3, 1.0, size=s), n)
            assert np.all(c >= 0.0) and np.all(c <= 1.0)
            assert abs(c.sum() - 1.0) < 1e-9

    def test_rows_match_the_scalar_dropping_loop(self):
        # batches of rows, with tied means in every other batch; float64
        # rounding in a handful of operations bounds the gap well below 1e-12
        rng = np.random.default_rng(49)
        for batch in range(200):
            n = int(rng.integers(2, 8))
            mu = rng.uniform(1e-3, 1.0, size=(int(rng.integers(1, 6)), int(rng.integers(2, 15))))
            if batch % 2:
                mu = np.take_along_axis(mu, rng.integers(2, size=mu.shape), axis=1)
            c = mix_probabilities(mu, n)
            reference = np.array([mix_by_dropping(row, n) for row in mu.tolist()])
            assert np.array_equal(c > 0, reference > 0)
            assert np.max(np.abs(c - reference)) < 1e-12

    def test_objective_beats_random_simplex_points_and_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            s = int(rng.integers(max(3, n + 1), 11))
            mu = rng.uniform(0.01, 1.0, size=s)

            def loss(c):
                return np.sum((1.0 - np.asarray(c)) ** n * mu, axis=-1)

            c = mix_probabilities(mu, n)
            assert np.all(loss(c) <= loss(random_simplex_points(1000, s, rng)) + 1e-12)
            oracle_value = loss(minimize_expected_turn_loss(mu, n))
            assert abs(loss(c) - oracle_value) < 1e-6

    def test_better_arms_get_at_least_as_much_probability(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            mu = rng.uniform(1e-3, 1.0, size=8)
            c = mix_probabilities(mu, int(rng.integers(2, 6)))
            order = np.argsort(mu)
            assert np.all(np.diff(c[order]) >= -1e-12)


class TestAsympOpt:
    def test_full_exploration_is_uniform(self):
        pol, _ = episode("asympopt", 10, n_players=5, seed=43, epsilon0=1.0, decay=0.9999999)
        n = 10**4
        chosen = picks(pol, n // 5).ravel()
        sigma = np.sqrt(0.1 * 0.9 / n)
        for arm in range(10):
            assert abs((chosen == arm).mean() - 0.1) < 3 * sigma

    def test_equal_observed_means_mix_uniformly(self):
        pol, tallies = episode("asympopt", 10, n_players=5, seed=44, epsilon0=0.0)
        prime(tallies, counts=[10] * 10, successes=[5] * 10)
        n = 10**4
        chosen = picks(pol, n // 5).ravel()
        sigma = np.sqrt(0.1 * 0.9 / n)
        for arm in range(10):
            assert abs((chosen == arm).mean() - 0.1) < 3 * sigma

    def test_exact_observed_means_reproduce_mix_frequencies(self):
        # tallies primed so observed means equal the spread vector exactly
        pol, tallies = episode("asympopt", 10, n_players=5, seed=45, epsilon0=0.0)
        prime(tallies, counts=[100] * 10, successes=[90, 80, 70, 60, 50, 40, 30, 20, 10, 1])
        assert np.array_equal(pol.successes[0] / pol.counts[0], MU_SPREAD)
        c = mix_probabilities(np.array(MU_SPREAD), 5)
        n = 10**5
        chosen = picks(pol, n // 5).ravel()
        for arm in range(10):
            frac = (chosen == arm).mean()
            if c[arm] == 0.0:
                assert frac == 0.0
            else:
                sigma = np.sqrt(c[arm] * (1 - c[arm]) / n)
                assert abs(frac - c[arm]) < 3 * sigma

    def test_unseen_arms_fall_back_to_floor(self):
        # nothing observed: every mean clamps to the floor, so the mix is uniform
        pol, _ = episode("asympopt", 4, n_players=3, seed=46, epsilon0=0.0)
        n = 3 * 10**3
        chosen = picks(pol, n // 3).ravel()
        sigma = np.sqrt(0.25 * 0.75 / n)
        for arm in range(4):
            assert abs((chosen == arm).mean() - 0.25) < 3 * sigma

    def test_draw_lands_where_the_old_count_put_it(self):
        # the old rule counted the cumulative masses at or below the draw;
        # primed rows give zero-probability arms, whose flat cdf steps the count must skip
        data = np.random.default_rng(49)
        flat_rows = 0
        for call in range(200):
            n_arms = int(data.integers(3, 12))
            n_players = int(data.integers(2, n_arms))
            pol, tallies = episode("asympopt", n_arms, n_players=n_players, seed=call, epsilon0=0.0)
            counts = data.integers(30, size=(n_players, n_arms))
            prime(tallies, counts, data.binomial(counts, data.random(n_arms)))
            replay = copy.deepcopy(pol.rng)
            chosen = pol.select()
            means = np.maximum(pol.successes / np.maximum(pol.counts, 1), pol.config.mean_floor)
            mix = mix_probabilities(means, n_players)
            cdf = mix.cumsum(axis=1)
            draw = replay.random(n_players) * cdf[:, -1]
            assert np.array_equal(chosen, (cdf <= draw[:, None]).sum(axis=1))
            flat_rows += int((mix == 0).any(axis=1).sum())
        assert flat_rows > 0

    def test_decay_matches_sequential_product(self):
        pol, _ = episode("asympopt", 5, n_players=2, seed=47, epsilon0=1.0, decay=0.995)
        expected = 1.0
        for _ in range(25):
            pol.select()
            expected *= 0.995
        assert pol.epsilon == expected


class TestUniformRandom:
    def test_uniform_over_arms(self):
        pol, _ = episode("random", 4, n_players=2, seed=48)
        n = 10**4
        chosen = picks(pol, n // 2).ravel()
        sigma = np.sqrt(0.25 * 0.75 / n)
        for arm in range(4):
            assert abs((chosen == arm).mean() - 0.25) < 3 * sigma


def drive(policy, tallies, turns=200):
    """Choices of ``turns`` selections under reports that do not depend on them."""
    n_players, n_arms = tallies.shape[0], tallies.shape[1] // 2
    obs_rng = np.random.default_rng(777)
    chosen = []
    for _ in range(turns):
        chosen.append(policy.select())
        disseminate(tallies, np.ones((n_players, n_players), dtype=bool),
                    obs_rng.integers(n_arms, size=n_players), obs_rng.integers(2, size=n_players))
    return np.array(chosen)


class TestMakePolicyAndDeterminism:
    def test_factory_builds_each_kind(self):
        kinds = {
            "ucb1": Ucb1Policy,
            "egreedy": EpsilonGreedyPolicy,
            "thompson": ThompsonPolicy,
            "asympopt": AsympOptPolicy,
            "random": UniformRandomPolicy,
        }
        for name, cls in kinds.items():
            assert isinstance(episode(name, 10, n_players=5)[0], cls)

    @pytest.mark.parametrize("name", POLICIES)
    def test_identical_seed_and_observations_give_identical_selections(self, name):
        def run():
            return drive(*episode(name, 6, n_players=3, seed=4242, init_order="random"))

        assert np.array_equal(run(), run())
