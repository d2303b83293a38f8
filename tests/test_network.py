from itertools import combinations

import numpy as np
import pytest

from gossip_bandits.config import ExperimentConfig
from gossip_bandits.env import env_step
from gossip_bandits.network import _report_rows, disseminate, sample_reach
from gossip_bandits.runner import block_turns
from oracles import reference_tallies
from support import LAYOUTS, counts_of, failures_of, layouts, new_tallies, stretch_cap, successes_of


def deliver(reach, choices, realized, n_arms):
    """The tallies one row turn delivers: a learning rule's (N, N) reach, (N,) arms and (N,) rewards."""
    tallies = new_tallies(len(choices), n_arms)
    disseminate(tallies, np.asarray(reach), np.asarray(choices), np.asarray(realized))
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

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_endpoint_alphas_leave_the_stream_where_drawing_would(self, alpha, n):
        # no uniform decides an endpoint edge, so the stream jumps over them: the
        # twin draws and thresholds them, and both must end in the same state
        first, second = np.triu_indices(n, k=1)
        jumped, drawn = np.random.default_rng(27), np.random.default_rng(27)
        for turns in (1, 7, 0, 609, 2):
            reach = sample_reach(n, alpha, turns, jumped)
            expected = np.zeros((turns, n, n), dtype=bool)
            expected[:, first, second] = expected[:, second, first] = drawn.random((turns, len(first))) < alpha
            expected |= np.eye(n, dtype=bool)
            assert np.array_equal(reach, expected)
            assert jumped.bit_generator.state == drawn.bit_generator.state
            assert jumped.random() == drawn.random()

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_an_endpoint_block_is_one_read_only_graph(self, alpha, n, rng):
        # every turn reads the same matrix: the block and the runner's slices of it
        # are stride-0 views, and one turn reshapes to its (N, N) matrix uncopied
        reach = sample_reach(n, alpha, 609, rng)
        assert reach.strides[0] == 0 and not reach.flags.writeable
        for t, end in ((0, 32), (100, 101), (577, 609)):
            assert reach[t:end].strides[0] == 0
        assert np.shares_memory(reach[5:6].reshape(-1, n), reach)
        with pytest.raises(ValueError, match="read-only"):
            reach[0, 0, 0] = not reach[0, 0, 0]

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_a_drawn_block_is_c_ordered_and_its_stretches_are_views(self, n, rng):
        # a stretch's (k·N, N) sender rows are the block's own memory, not a copy
        reach = sample_reach(n, 0.5, 609, rng)
        assert reach.flags.c_contiguous and reach.flags.writeable
        for t, end in ((0, 32), (100, 101), (577, 609)):
            assert np.shares_memory(reach[t:end].reshape(-1, n), reach)


class TestDisseminate:
    def test_no_edges_deliver_own_report_only(self):
        tallies = deliver(np.eye(3, dtype=np.int64), [0, 1, 2], [1, 0, 1], n_arms=3)
        assert np.array_equal(counts_of(tallies), np.eye(3))
        assert np.array_equal(successes_of(tallies), np.diag([1, 0, 1]))
        assert np.array_equal(failures_of(tallies), np.diag([0, 1, 0]))
        # the one-hot report rows: exactly one 1, at column 2·arm for a success and 2·arm + 1 for a failure
        table = _report_rows(3)
        assert table.shape == (3, 2, 6) and not table.flags.writeable
        for arm in range(3):
            assert np.array_equal(table[arm, 1], np.eye(6)[2 * arm])
            assert np.array_equal(table[arm, 0], np.eye(6)[2 * arm + 1])

    def test_complete_graph_delivers_everything_to_everyone(self):
        tallies = deliver(np.ones((5, 5), dtype=np.int64), [0, 1, 2, 3, 4], [1] * 5, n_arms=5)
        assert (counts_of(tallies) == 1).all() and (successes_of(tallies) == 1).all() and (failures_of(tallies) == 0).all()

    def test_hand_traced_single_edge(self):
        # players 0,1 on arm 2 (0 won), player 2 alone on arm 4 (reward 0);
        # the edge 0-1 makes both hear two reports on arm 2, one a success and one a failure
        reach = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        tallies = deliver(reach, [2, 2, 4], [1, 0, 0], n_arms=5)
        for p, (counts, successes, failures) in enumerate([
            ([0, 0, 2, 0, 0], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0]),
            ([0, 0, 2, 0, 0], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0]),
            ([0, 0, 0, 0, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]),
        ]):
            assert counts_of(tallies[p]).tolist() == counts
            assert successes_of(tallies[p]).tolist() == successes
            assert failures_of(tallies[p]).tolist() == failures

    def test_accumulates_across_turns(self):
        tallies = new_tallies(2, 2)
        reach = np.ones((2, 2), dtype=np.int64)
        disseminate(tallies, reach, np.array([0, 1]), np.array([1, 0]))
        disseminate(tallies, reach, np.array([0, 0]), np.array([0, 1]))
        assert counts_of(tallies).tolist() == [[3, 1]] * 2
        assert successes_of(tallies).tolist() == [[2, 0]] * 2
        assert failures_of(tallies).tolist() == [[1, 1]] * 2

    def test_matches_report_by_report_reference(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            n_arms = int(rng.integers(2, 5))
            choices = rng.integers(n_arms, size=n)
            realized = env_step(choices[None], rng.integers(2, size=n_arms).astype(bool)[None], rng)[0]
            reach = sample_reach(n, float(rng.random()), 1, rng)[0]
            tallies = deliver(reach, choices, realized, n_arms)
            assert np.array_equal(tallies, reference_tallies(reach, choices, realized, n_arms))
            # one report per (receiver, sender) pair the reach matrix links
            assert counts_of(tallies).sum() == n + 2 * int(np.triu(reach, 1).sum())

    def test_collision_losers_report_zero(self):
        # the arm paid 1 but only the winner's report carries it
        realized = env_step(np.zeros(3, dtype=np.int64)[None], np.ones(2, dtype=bool)[None], np.random.default_rng(23))[0]
        tallies = deliver(np.ones((3, 3), dtype=np.int64), [0, 0, 0], realized, n_arms=2)
        assert counts_of(tallies).tolist() == [[3, 0]] * 3
        assert successes_of(tallies).tolist() == [[1, 0]] * 3
        assert failures_of(tallies).tolist() == [[2, 0]] * 3

    def test_boolean_rewards_count_as_rewards(self):
        # env_step's booleans; with two players a mask would fit the reward axis
        tallies = deliver(np.ones((2, 2), dtype=bool), [0, 1], [True, False], n_arms=3)
        assert counts_of(tallies).tolist() == [[1, 1, 0]] * 2
        assert successes_of(tallies).tolist() == [[1, 0, 0]] * 2
        assert failures_of(tallies).tolist() == [[0, 1, 0]] * 2

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("graph", ["drawn", "constant"])
    @pytest.mark.parametrize("n_turns", [None, 1, 7])
    def test_any_layout_delivers_what_the_reference_delivers(self, n_turns, graph, layout):
        # one-way matrices, so a sender read as a receiver shows; a constant graph keeps
        # its turn stride 0 and only the stretch's arms and rewards change layout.
        # n_turns None is a row turn, the first row of a two-turn block in the layout,
        # so a Fortran-ordered or strided block's row is strided; its constant graph
        # is one sender row broadcast over the senders, an (N, N) reach of stride 0
        # that a row delivers by the gather, not by a stretch's summed rows
        rng = np.random.default_rng(30)
        n, n_arms = 5, 4
        one_way = (rng.random((n_turns or 2, n, n)) < 0.4) | np.eye(n, dtype=bool)
        choices = rng.integers(n_arms, size=(n_turns or 2, n))
        realized = rng.random((n_turns or 2, n)) < 0.5
        if graph == "constant":
            one_way = np.broadcast_to(one_way[0], one_way.shape)
        reach = one_way if graph == "constant" else layouts(one_way)[layout]
        given = reach, layouts(choices)[layout], layouts(realized)[layout]
        if n_turns is None:
            one_way, choices, realized = one_way[:1], choices[:1], realized[:1]
            given = tuple(values[0] for values in given)
            if graph == "constant":
                one_way = np.broadcast_to(one_way[0, 0], one_way.shape)
                given = (one_way[0], *given[1:])
                assert given[0].strides[0] == 0
        tallies = new_tallies(n, n_arms)
        disseminate(tallies, *given)
        expected = sum(reference_tallies(r, c, w, n_arms) for r, c, w in zip(one_way, choices, realized))
        assert np.array_equal(tallies, expected)


class TestBlockTurn:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n, n_arms, n_episodes", [(5, 10, 3), (20, 25, 7), (1, 3, 2), (4, 2, 1)])
    def test_a_block_turn_delivers_what_its_episodes_do_alone(self, n, n_arms, n_episodes, layout):
        # one-way reach, read in sender rows; episode b's reports reach only
        # episode b's (N, 2S) tallies, which start at distinct counts, and every
        # operand, the tallies written in place included, comes in the layout
        rng = np.random.default_rng(31)
        one_way = (rng.random((n_episodes, n, n)) < 0.4) | np.eye(n, dtype=bool)
        choices = rng.integers(n_arms, size=(n_episodes, n))
        realized = rng.random((n_episodes, n)) < 0.5
        start = rng.integers(0, 9, size=(n_episodes, n, 2 * n_arms)).astype(np.float64)
        expected = start + [reference_tallies(r, c, w, n_arms) for r, c, w in zip(one_way, choices, realized)]
        tallies = layouts(start)[layout]
        disseminate(tallies, layouts(one_way)[layout], layouts(choices)[layout], layouts(realized)[layout])
        assert np.array_equal(tallies, expected)


class TestStretch:
    @pytest.mark.parametrize("n, n_arms, n_turns", [(5, 10, 7), (20, 25, 32), (3, 2, 1), (1, 3, 4)])
    def test_a_stretch_delivers_the_sum_of_its_turns(self, n, n_arms, n_turns):
        # one-way reach matrices, read as sender rows, so a receiver mixed up with a
        # sender shows, in a stretch and in a row turn alike
        rng = np.random.default_rng(26)
        for _ in range(20):
            reach = (rng.random((n_turns, n, n)) < 0.4) | np.eye(n, dtype=bool)
            choices = rng.integers(n_arms, size=(n_turns, n))
            realized = rng.random((n_turns, n)) < 0.5
            stretch = new_tallies(n, n_arms)
            disseminate(stretch, reach, choices, realized)
            turns = new_tallies(n, n_arms)
            for t in range(n_turns):
                disseminate(turns, reach[t], choices[t], realized[t])
            assert np.array_equal(stretch, turns)
            expected = sum(reference_tallies(r, c, w, n_arms) for r, c, w in zip(reach, choices, realized))
            assert np.array_equal(stretch, expected)
            # the first turn twice is a stretch: it and the row read its one-way matrix alike
            once, twice = new_tallies(n, n_arms), new_tallies(n, n_arms)
            disseminate(once, reach[0], choices[0], realized[0])
            disseminate(twice, reach[[0, 0]], choices[[0, 0]], realized[[0, 0]])
            assert np.array_equal(twice, 2 * once)

    @pytest.mark.parametrize("n, n_arms", [(1, 2), (2, 3), (20, 25)])
    def test_a_maximal_stretch_adds_exactly_onto_large_tallies(self, n, n_arms):
        # the product's largest entry: every report of the longest drawn stretch on one arm, paid
        n_turns = stretch_cap(n, n_arms, 0.5)
        reach = np.ones((n_turns, n, n), dtype=bool)
        choices = np.ones((n_turns, n), dtype=np.int64)
        realized = np.ones((n_turns, n), dtype=bool)
        stretch = new_tallies(n, n_arms, 2.0**40)
        disseminate(stretch, reach, choices, realized)
        turns = new_tallies(n, n_arms, 2.0**40)
        for t in range(n_turns):
            disseminate(turns, reach[t], choices[t], realized[t])
        assert np.array_equal(stretch, turns)
        assert (successes_of(stretch)[:, 1] == 2.0**40 + n_turns * n).all()


class TestConstantGraph:
    """A stretch whose turns share one graph, as a turn-stride-0 view, is delivered once."""

    @staticmethod
    def graphs(n):
        one_way = np.triu(np.random.default_rng(28).random((n, n)) < 0.5) | np.eye(n, dtype=bool)
        assert n == 1 or not np.array_equal(one_way, one_way.T)
        return {"empty": np.eye(n, dtype=bool), "complete": np.ones((n, n), dtype=bool), "one_way": one_way}

    @pytest.mark.parametrize("rewards", [bool, np.int64])
    @pytest.mark.parametrize("k", [2, 7, "drawn", "constant", "block"])
    @pytest.mark.parametrize("n, n_arms", [(1, 3), (5, 10), (20, 25)])
    def test_delivers_what_its_turns_deliver_one_by_one(self, n, n_arms, k, rewards):
        # a one-way graph, read as sender rows, catches a transposed graph in the sum;
        # k runs up to the drawn and the constant cap and a whole block, the most any cap could allow
        block = block_turns(ExperimentConfig(n_players=n, means=(0.5,) * n_arms))
        k = {"drawn": stretch_cap(n, n_arms, 0.5), "constant": stretch_cap(n, n_arms, 1.0), "block": block}.get(k, k)
        rng = np.random.default_rng(29)
        for name, graph in self.graphs(n).items():
            reach = np.broadcast_to(graph, (k, n, n))
            choices = rng.integers(n_arms, size=(k, n))
            realized = (rng.random((k, n)) < 0.5).astype(rewards)
            stretch = new_tallies(n, n_arms)
            disseminate(stretch, reach, choices, realized)
            expected = sum(reference_tallies(graph, c, w, n_arms) for c, w in zip(choices, realized))
            assert np.array_equal(stretch, expected), name
            # the same turns as a drawn block's copy take the per-turn product
            drawn = new_tallies(n, n_arms)
            disseminate(drawn, np.ascontiguousarray(reach), choices, realized)
            assert np.array_equal(drawn, expected), name
