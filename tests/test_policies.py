import copy
import math

import numpy as np
import pytest

from gossip_bandits import policies
from gossip_bandits.config import ConfigError, ExperimentConfig
from gossip_bandits.network import disseminate
from gossip_bandits.rng import Streams
from gossip_bandits.policies import (
    INIT_ORDERS,
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
from support import (
    LAYOUTS,
    counts_of,
    failures_of,
    layouts,
    new_tallies,
    select_turn,
    simulate_episode,
    stretch_cap,
    successes_of,
)

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
POLICIES = ["ucb1", "egreedy", "thompson", "asympopt", "random"]


def episode(name, n_arms, n_players=1, seed=0, **fields):
    """An episode policy over a fresh tally matrix; the players draw from one generator."""
    cfg = ExperimentConfig(algorithm=name, means=(0.5,) * n_arms, n_players=n_players, **fields)
    tallies = new_tallies(n_players, n_arms)
    return make_policy(cfg, tallies, np.random.default_rng(seed)), tallies


def prime(tallies, counts, successes):
    """Load every player's tally row directly, failures = counts - successes; a flat list is copied to each row."""
    successes_of(tallies)[:] = successes
    failures_of(tallies)[:] = np.subtract(counts, successes)


def report_own(tallies, arms):
    """Add each player's own report of ``arms``, a success on odd arms, to its tally row."""
    rows, won = np.arange(len(tallies)), arms % 2
    successes_of(tallies)[rows, arms] += won
    failures_of(tallies)[rows, arms] += 1 - won


def prob_beta_exceeds(a, b, c, d):
    """Exact P(Beta(a, b) > Beta(c, d)) for a whole number ``a``: a finite sum of ``a`` terms."""

    def log_beta(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    return math.fsum(
        math.exp(log_beta(c + i, d + b) - math.log(b + i) - log_beta(1 + i, b) - log_beta(c, d))
        for i in range(a)
    )


def skip_sweep(policy):
    policy.sweep = policy.sweep[:0]
    return policy


def picks(policy, turns):
    """(turns, players) choices of ``turns`` selections."""
    return np.array([select_turn(policy) for _ in range(turns)])


class TestSharedTallies:
    @pytest.mark.parametrize("name", POLICIES)
    def test_policy_reads_live_rows_and_never_writes_them(self, name):
        policy, tallies = episode(name, 4, n_players=3)
        reach = np.ones((3, 3), dtype=bool)
        for _ in range(20):
            choices = np.array(select_turn(policy))
            before = tallies.copy()
            disseminate(tallies, reach[None], choices[None], (choices % 2)[None])
            assert counts_of(tallies - before).sum() == 9
            assert np.shares_memory(policy.successes, tallies) and np.shares_memory(policy.failures, tallies)
            assert np.array_equal(policy.successes, successes_of(tallies))
            assert np.array_equal(policy.failures, failures_of(tallies))
            if name == "thompson":
                assert np.shares_memory(policy.outcomes, tallies) and policy.outcomes.flags.c_contiguous
                assert np.array_equal(policy.outcomes, np.stack([successes_of(tallies), failures_of(tallies)], -1))
        snapshot = tallies.copy()
        select_turn(policy)
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
            tallies = new_tallies(3, 4, dtype=dtype)
            prime(tallies, counts, successes)
            policy = make_policy(cfg, tallies, np.random.default_rng(41))
            chosen = []
            for _ in range(200):
                arms = select_turn(policy)
                chosen.append(arms)
                # each player's own report, the same whole numbers in either dtype
                report_own(tallies, arms)
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

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("levels", [None, 3])
    def test_any_layout_matches_the_mask_reference(self, levels, layout):
        # values on a few levels tie within rows and draw; continuous ones do not
        data = np.random.default_rng(37)
        values = data.random((20, 25)) if levels is None else data.integers(levels, size=(20, 25)) / levels
        fast, reference = np.random.default_rng(38), np.random.default_rng(38)
        given = layouts(values)[layout]
        assert np.array_equal(argmax_rows(given, fast), argmax_rows_by_mask(values, reference))
        assert fast.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(given, values)


class TestBlocks:
    """A lockstep block of B episodes against its episodes played alone, each on a twin of its stream."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("levels", [None, 3])
    def test_argmax_rows_breaks_each_episodes_ties_on_its_own_stream(self, levels, layout):
        # values on a few levels tie in some episodes and not in others; an
        # episode without a tied row draws nothing
        data = np.random.default_rng(39)
        for call in range(30):
            shape = (int(data.integers(1, 8)), int(data.integers(1, 21)), int(data.integers(1, 26)))
            values = data.random(shape) if levels is None else data.integers(levels, size=shape) / levels
            fast = Streams(np.random.default_rng([40, call, b]) for b in range(shape[0]))
            twins = [np.random.default_rng([40, call, b]) for b in range(shape[0])]
            given = layouts(values)[layout]
            chosen = argmax_rows(given, fast)
            assert chosen.shape == shape[:2]
            assert np.array_equal(chosen, [argmax_rows(v, twin) for v, twin in zip(values, twins)])
            assert [rng.bit_generator.state for rng in fast] == [twin.bit_generator.state for twin in twins]
            assert np.array_equal(given, values)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("init_order", INIT_ORDERS)
    @pytest.mark.parametrize("name", POLICIES)
    def test_a_block_selects_what_its_episodes_select_alone(self, name, init_order, layout):
        # a policy over the (B, N, 2S) tallies in any layout, on rng.Streams, against
        # B policies over (N, 2S) copies: few distinct counts make ties common, and
        # each player's own reports reach both sides' tallies every turn
        n_episodes, n_players, n_arms = 3, 4, 5
        cfg = ExperimentConfig(algorithm=name, means=(0.5,) * n_arms, n_players=n_players,
                               init_order=init_order, epsilon0=0.5, decay=0.99)
        start = np.random.default_rng(42).integers(0, 3, size=(n_episodes, n_players, 2 * n_arms)).astype(float)
        alone = [start[b].copy() for b in range(n_episodes)]
        twins = [make_policy(cfg, tallies, np.random.default_rng([43, b])) for b, tallies in enumerate(alone)]
        block = layouts(start)[layout]
        policy = make_policy(cfg, block, Streams(np.random.default_rng([43, b]) for b in range(n_episodes)))
        for _ in range(30):
            arms = policy.select(1)[:, 0] if name == "random" else policy.select()
            assert arms.shape == (n_episodes, n_players)
            for b, (twin, tallies) in enumerate(zip(twins, alone)):
                assert np.array_equal(arms[b], select_turn(twin)), b
                report_own(tallies, arms[b])
                report_own(block[b], arms[b])
        assert [rng.bit_generator.state for rng in policy.rng] == [twin.rng.bit_generator.state for twin in twins]


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
        counts, successes = counts_of(tallies), successes_of(tallies)
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

    def test_posterior_draws_are_what_beta_draws(self, monkeypatch):
        # over 3000 random tally matrices with every count >= 1, choose's
        # posterior draws equal Generator.beta(s + 1, f + 1) on a twin
        # generator, value for value, and both end in the same state.  About
        # a fifth of the arms have count 1, so a or b is 1 and the gamma
        # sampler's shape-1 branch runs; argmax is taken without tie draws
        drawn = []

        def recording(values, rng):
            drawn.append(values)
            return values.argmax(axis=1)

        monkeypatch.setattr(policies, "argmax_rows", recording)
        tally_rng = np.random.default_rng(40)
        for n_players, n_arms in [(1, 2), (5, 10), (9, 10), (20, 25)]:
            pol, tallies = episode("thompson", n_arms, n_players=n_players, seed=41)
            skip_sweep(pol)
            twin = np.random.default_rng(41)
            for _ in range(750):
                shape = (n_players, n_arms)
                counts = np.where(tally_rng.random(shape) < 0.2, 1, tally_rng.integers(1, 10**4, size=shape))
                successes = tally_rng.integers(0, counts + 1)
                prime(tallies, counts, successes)
                pol.choose()
                assert np.array_equal(drawn[-1], twin.beta(successes + 1.0, counts - successes + 1.0))
            assert pol.rng.bit_generator.state == twin.bit_generator.state, (n_players, n_arms)

    @pytest.mark.parametrize("init_order", INIT_ORDERS)
    @pytest.mark.parametrize("n_players", [5, 9])
    def test_no_arm_reaches_choose_at_count_zero(self, monkeypatch, n_players, init_order):
        # beta takes Jöhnk's branch, which the gamma draw does not follow, only
        # for a = b = 1, an arm at count 0; the sweep and every player's own
        # report leave none by the time choose runs, even with no gossip
        smallest = []
        unchecked = ThompsonPolicy.choose

        def checked(policy):
            smallest.append((policy.successes + policy.failures).min())
            return unchecked(policy)

        monkeypatch.setattr(ThompsonPolicy, "choose", checked)
        cfg = ExperimentConfig(algorithm="thompson", means=MU_SPREAD, n_players=n_players,
                               init_order=init_order, turns=300)
        for alpha in (0.0, 0.5, 1.0):
            simulate_episode(cfg, alpha, 43)
        assert len(smallest) == 3 * (300 - len(MU_SPREAD))
        assert min(smallest) >= 1

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
        assert np.array_equal(pol.successes[0] / counts_of(tallies)[0], MU_SPREAD)
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
            means = np.maximum(pol.successes / np.maximum(counts_of(tallies), 1), pol.config.mean_floor)
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

    @pytest.mark.parametrize("n_players, n_arms", [(1, 2), (5, 10), (20, 25)])
    @pytest.mark.parametrize("longest", [7, None])
    def test_select_draws_what_one_call_per_turn_draws(self, n_players, n_arms, longest):
        # mixed limits of 1 to 7 turns, or to the runner's longest stretch of either
        # kind of block: every turn's row is the twin generator's per-turn draw, and
        # after each stretch both streams stand in the same state
        longest = longest or max(stretch_cap(n_players, n_arms, alpha) for alpha in (0.5, 1.0))
        pol, _ = episode("random", n_arms, n_players=n_players, seed=53)
        twin = np.random.default_rng(53)
        for limit in np.random.default_rng(54).integers(1, longest + 1, size=8).tolist():
            per_turn = [twin.integers(n_arms, size=n_players) for _ in range(limit)]
            assert np.array_equal(pol.select(limit), per_turn), limit
            assert pol.rng.bit_generator.state == twin.bit_generator.state


class TestStretches:
    def test_the_sweep_is_served_one_row_per_select(self):
        pol, _ = episode("egreedy", 10, n_players=3)
        for arm in range(10):
            assert pol.select().tolist() == [arm] * 3, arm
            assert len(pol.sweep) == 9 - arm
        # nothing left decided: one turn of the rule itself, a row
        assert pol.select().shape == (3,)

    @pytest.mark.parametrize("name", POLICIES)
    def test_stretches_select_what_single_turns_do(self, name):
        # the random policy returns the limit's turns, a learning rule one row
        # with no limit, and ε decays once per select; every turn's own reports
        # reach both twins before either chooses again
        limits = np.random.default_rng(8).integers(1, 40, size=60)
        fields = dict(n_players=3, seed=5, init_order="random", epsilon0=1.0, decay=0.9)
        (stretched, stretched_tallies), (single, single_tallies) = (episode(name, 6, **fields) for _ in range(2))
        for limit in limits.tolist():
            arms = stretched.select(limit) if name == "random" else stretched.select()[None]
            assert arms.shape == (limit if name == "random" else 1, 3)
            for row in arms:
                assert np.array_equal(row, select_turn(single))
                for tallies in (stretched_tallies, single_tallies):
                    report_own(tallies, row)
            assert stretched.epsilon == single.epsilon

    def test_the_random_policy_draws_exactly_the_turns_asked(self):
        pol, _ = episode("random", 25, n_players=20, seed=9)
        twin = np.random.default_rng(9)
        for limit in (1000, 5, 1, 32, 7):
            assert np.array_equal(pol.select(limit), twin.integers(25, size=(limit, 20))), limit
        assert pol.rng.bit_generator.state == twin.bit_generator.state


def drive(policy, tallies, turns=200):
    """Choices of ``turns`` selections under reports that do not depend on them."""
    n_players, n_arms = successes_of(tallies).shape
    obs_rng = np.random.default_rng(777)
    chosen = []
    for _ in range(turns):
        chosen.append(select_turn(policy))
        disseminate(tallies, np.ones((n_players, n_players), dtype=bool)[None],
                    obs_rng.integers(n_arms, size=n_players)[None], obs_rng.integers(2, size=n_players)[None])
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
