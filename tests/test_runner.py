import concurrent.futures
import functools
import json
import tracemalloc

import numpy as np
import pytest

from gossip_bandits import (
    SPREAD_MEANS,
    AggregateRecord,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    emit_results,
    episode_seed,
    regret_vs_turns,
    run_episode,
    sweep_alpha,
)
from gossip_bandits import runner
from gossip_bandits.metrics import RunRecord
from gossip_bandits.network import sample_reach
from gossip_bandits.policies import INIT_ORDERS, POLICY_NAMES
from gossip_bandits.rng import substream
from gossip_bandits.runner import CSV_COLUMNS
import support
from support import (
    SERIES,
    counts_of,
    failures_of,
    new_tallies,
    read_results_csv,
    received_rewards,
    reference_episode,
    simulate_block,
    simulate_episode,
    successes_of,
)

SMALL = dict(means=(0.9, 0.5, 0.3, 0.1), n_players=2, turns=40, repetitions=3)


def small_config(**overrides):
    kwargs = dict(SMALL, alphas=(0.0, 1.0), base_seed=7)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def every_turn(cfg):
    return range(1, cfg.turns + 1)


class TestRunEpisode:
    @pytest.mark.parametrize("algorithm", ["ucb1", "egreedy", "thompson"])
    def test_init_phase_covers_every_arm_once(self, algorithm):
        cfg = small_config(algorithm=algorithm, turns=4)
        choices, _, _ = simulate_episode(cfg, 0.5, 123)
        for column in choices.T:
            assert sorted(column) == [0, 1, 2, 3]

    def test_random_init_order_still_covers_every_arm(self):
        cfg = small_config(algorithm="thompson", turns=4, init_order="random")
        choices, _, _ = simulate_episode(cfg, 0.0, 5)
        for column in choices.T:
            assert sorted(column) == [0, 1, 2, 3]

    def test_no_communication_counts_only_own_pulls(self):
        cfg = small_config(algorithm="thompson")
        choices, rewards, tallies = simulate_episode(cfg, 0.0, 11)
        realized = received_rewards(choices, rewards, 11)
        for p in range(cfg.n_players):
            own = np.bincount(choices[:, p], minlength=4)
            assert np.array_equal(counts_of(tallies[p]), own)
            own_wins = np.bincount(choices[:, p], realized[:, p], 4)
            assert np.array_equal(successes_of(tallies[p]), own_wins)
            assert np.array_equal(failures_of(tallies[p]), own - own_wins)

    def test_full_communication_counts_everyones_pulls(self):
        cfg = ExperimentConfig(algorithm="thompson", turns=100, repetitions=1, alphas=(1.0,))
        choices, rewards, tallies = simulate_episode(cfg, 1.0, 13)
        realized = received_rewards(choices, rewards, 13)
        everyone = np.bincount(choices.ravel(), minlength=10)
        for row in tallies:
            assert np.array_equal(counts_of(row), everyone)
            assert successes_of(row).sum() == realized.sum()

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("algorithm", POLICY_NAMES)
    def test_counts_are_successes_plus_failures(self, algorithm, alpha):
        # every delivered report lands in exactly one of the two halves, so their
        # sum counts the reports heard: at least a player's own pulls, at most everyone's
        cfg = small_config(algorithm=algorithm, n_players=3, turns=300)
        n_arms = cfg.n_arms
        choices, rewards, tallies = simulate_episode(cfg, alpha, 17)
        realized = received_rewards(choices, rewards, 17)
        assert tallies.shape == (3, 2 * n_arms)
        assert np.array_equal(tallies, np.rint(tallies)) and tallies.min() >= 0
        everyone = np.bincount(choices.ravel(), minlength=n_arms)
        all_wins = np.bincount(choices.ravel(), realized.ravel(), n_arms)
        for p, row in enumerate(tallies):
            own = np.bincount(choices[:, p], minlength=n_arms)
            own_wins = np.bincount(choices[:, p], realized[:, p], n_arms)
            counts, wins = counts_of(row), successes_of(row)
            assert np.all((own <= counts) & (counts <= everyone))
            assert np.all((own_wins <= wins) & (wins <= all_wins))
            assert np.all((own - own_wins <= failures_of(row)) & (failures_of(row) <= everyone - all_wins))
            if alpha == 0.0:
                assert np.array_equal(counts, own) and np.array_equal(wins, own_wins)
            if alpha == 1.0:
                assert np.array_equal(counts, everyone) and np.array_equal(wins, all_wins)

    def test_identical_inputs_reproduce_bitwise(self):
        cfg = small_config(algorithm="egreedy")
        a, = run_episode(cfg, [0.7], [99], every_turn(cfg))
        b, = run_episode(cfg, [0.7], [99], every_turn(cfg))
        assert np.array_equal(a.reward, b.reward)
        assert np.array_equal(a.loss, b.loss)
        assert np.array_equal(a.regret_literal, b.regret_literal)
        assert np.array_equal(a.regret_occupancy, b.regret_occupancy)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="connectivity"):
            run_episode(small_config(), [1.5], [0], (1,))

    def test_metadata_reruns_bit_identically(self, tmp_path):
        # the config echoed into JSON output is enough to rerun any of its episodes
        cfg = small_config(algorithm="asympopt", n_players=2)
        path = tmp_path / "out.json"
        emit_results(sweep_alpha(cfg), "json", path, config=cfg)
        rebuilt = config_from_dict(json.loads(path.read_text())["config"])
        assert rebuilt == cfg
        seed = episode_seed(rebuilt.base_seed, 1, 2)
        record, = run_episode(cfg, [1.0], [seed], every_turn(cfg))
        again, = run_episode(rebuilt, [rebuilt.alphas[1]], [seed], every_turn(rebuilt))
        assert np.array_equal(record.regret_occupancy, again.regret_occupancy)


# (n_players, n_arms, turns): the alphas each is played at.  700 turns at
# N=20, S=25 cross a 609-turn block, and 7000 turns at N=5, S=10 a 6553-turn
# one.  The random policy's 262-turn stretches on a constant graph are cut by
# both block ends of 1250 turns, 85 turns after a stretch began; its 32-turn
# drawn stretches leave a one-turn stretch at the end of a 609-turn block, its
# 34-turn drawn stretches fill a 612-turn block exactly at N=20, S=24, while
# at N=20, S=23 a 615-turn block ends on a 20-turn drawn stretch, cut short of
# its 35-turn cap, and the 6553-turn block cuts a 327-turn drawn stretch at
# N=5, S=10 13 turns after it began
PER_TURN_CASES = {
    (3, 5, 301): (0.0, 0.5, 1.0),
    (20, 25, 700): (0.0, 0.5, 1.0),
    (20, 24, 700): (0.5,),
    (20, 23, 700): (0.5,),
    (20, 25, 1250): (0.0, 0.5, 1.0),
    (5, 10, 7000): (0.5,),
}


@functools.cache
def against_the_per_turn_reference(algorithm, n_players, n_arms, turns, alpha, block=(61,)):
    """Play one config once with the engine and once with the per-turn loop,
    recording the substreams each makes, for the tests that compare them: the
    arrays that differ, the tags of the substreams each side made, and the
    substreams that end in different states.  The engine plays episode seed 61
    in a lockstep block of the seeds ``block``: seed 61 alone by default, else
    beside seeds at alpha 0 and 1, which mixes stride-0 and drawn reach."""
    def recorded(module):
        made = {}

        def recording(seed, *tags):
            made[seed, tags] = substream(seed, *tags)
            return made[seed, tags]

        patch.setattr(module, "substream", recording)
        return made

    cfg = ExperimentConfig(algorithm=algorithm, n_players=n_players, turns=turns,
                           means=tuple(np.linspace(0.95, 0.05, n_arms)))
    alphas = [{61: alpha, 62: 0.0, 63: 1.0}[seed] for seed in block]
    with pytest.MonkeyPatch.context() as patch:
        engine, reference = recorded(runner), recorded(support)
        played = simulate_block(cfg, alphas, block)[block.index(61)]
        differ = [name for name, got, expected in zip(("choices", "realizations", "tallies"),
                                                      played, reference_episode(cfg, alpha, 61))
                  if not np.array_equal(got, expected)]
    engine = {tags: rng for (seed, tags), rng in engine.items() if seed == 61}
    reference = {tags: rng for (_, tags), rng in reference.items()}
    moved = [tags for tags, rng in engine.items()
             if rng.bit_generator.state != reference[tags].bit_generator.state]
    return differ, (sorted(engine), sorted(reference)), moved


class TestStreamContract:
    @pytest.mark.parametrize("seed", [3, 8])
    def test_realizations_and_graphs_do_not_depend_on_the_algorithm(self, seed):
        # every algorithm's tallies are exactly what the graphs drawn on their
        # own substream deliver of its reports, so no policy moves them; the
        # reports' rewards replay env_step from the choices and its own substream
        cfg = small_config()
        n_players, n_arms, turns = cfg.n_players, cfg.n_arms, cfg.turns
        reach = sample_reach(n_players, 0.5, turns, substream(seed, "graph")).astype(np.int64)
        first = None
        for algorithm in POLICY_NAMES:
            choices, rewards, tallies = simulate_episode(
                small_config(algorithm=algorithm), 0.5, seed)
            realized = received_rewards(choices, rewards, seed)
            first = rewards if first is None else first
            assert np.array_equal(rewards, first), algorithm
            assert tallies.dtype == np.float64, algorithm
            reports = new_tallies(turns * n_players, n_arms, dtype=np.int64).reshape(turns, n_players, -1)
            turn, player = np.indices(choices.shape)
            successes_of(reports)[turn, player, choices] = realized
            failures_of(reports)[turn, player, choices] = 1 - realized
            assert np.array_equal(tallies, np.einsum("tji,tjk->ik", reach, reports)), algorithm

    @pytest.mark.parametrize("algorithm", POLICY_NAMES)
    @pytest.mark.parametrize("n_players, n_arms, turns, alpha", [
        (*config, alpha) for config, alphas in PER_TURN_CASES.items() for alpha in alphas])
    def test_blocks_match_the_per_turn_reference(self, algorithm, n_players, n_arms, turns, alpha):
        differ, _, _ = against_the_per_turn_reference(algorithm, n_players, n_arms, turns, alpha)
        assert differ == []

    @pytest.mark.parametrize("algorithm", POLICY_NAMES)
    @pytest.mark.parametrize("n_players, n_arms, turns", list(PER_TURN_CASES))
    def test_every_stream_ends_where_the_per_turn_reference_ends(self, algorithm, n_players, n_arms, turns):
        # nothing is drawn ahead of play: each of the four substreams ends in the
        # state the per-turn loop leaves it in
        for alpha in PER_TURN_CASES[n_players, n_arms, turns]:
            _, streams, moved = against_the_per_turn_reference(algorithm, n_players, n_arms, turns, alpha)
            assert streams == 2 * ([("env-arms",), ("env-winners",), ("graph",), ("players",)],), alpha
            assert moved == [], alpha

    @pytest.mark.parametrize("algorithm", POLICY_NAMES)
    @pytest.mark.parametrize("n_players, n_arms, turns, alpha", [
        (3, 5, 301, 0.5), (5, 10, 2500, 0.5), (20, 25, 700, 0.5), (20, 25, 700, 1.0)])
    def test_an_episode_in_a_block_of_three_matches_the_per_turn_reference(
            self, algorithm, n_players, n_arms, turns, alpha):
        # the block's 2184-turn blocks at N=5, S=10 and its 203-turn ones at N=20,
        # S=25 are a third of one episode's, and these horizons cross them
        differ, streams, moved = against_the_per_turn_reference(
            algorithm, n_players, n_arms, turns, alpha, block=(62, 61, 63))
        assert differ == [] and moved == []
        assert streams == 2 * ([("env-arms",), ("env-winners",), ("graph",), ("players",)],)

    def test_a_repetition_does_not_depend_on_how_many_run(self):
        # alpha index 1, repetition 1
        rows = [
            runner._episode_rows(small_config(repetitions=reps), (10, 40), n_jobs=1)[1, 1]
            for reps in (2, 5)
        ]
        assert np.array_equal(*rows)


class TestBlocks:
    CHECKPOINTS = (1, 6, 7, 8, 10, 14, 21, 23, 35, 36, 39, 40)  # edges and insides of 7-turn blocks

    @staticmethod
    def set_block_turns(monkeypatch, cfg, turns):
        pairs = cfg.n_players * (cfg.n_players - 1) // 2
        monkeypatch.setattr(runner, "BLOCK_BYTES", turns * 8 * (cfg.n_arms + pairs))
        assert runner.block_turns(cfg) == turns

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])  # 0 and 1 cut constant-graph stretches
    @pytest.mark.parametrize("algorithm", POLICY_NAMES)
    def test_block_length_does_not_change_results(self, monkeypatch, algorithm, alpha):
        cfg = small_config(algorithm=algorithm, n_players=3, means=(0.9, 0.6, 0.5, 0.3, 0.1))
        assert runner.block_turns(cfg) >= cfg.turns
        record, = run_episode(cfg, [alpha], [21], self.CHECKPOINTS)
        _, _, tallies = simulate_episode(cfg, alpha, 21)
        for turns in (1, 3, 7, cfg.turns, 1000):  # 3 cuts the five-turn sweep
            self.set_block_turns(monkeypatch, cfg, turns)
            again, = run_episode(cfg, [alpha], [21], self.CHECKPOINTS)
            for name, series, other in zip(SERIES, record, again):
                assert np.array_equal(series, other), (turns, name)
            assert np.array_equal(simulate_episode(cfg, alpha, 21)[2], tallies), turns

    @pytest.mark.parametrize("checkpoints", [(0,), (41,), (5, 41)])
    def test_rejects_checkpoints_outside_the_episode(self, checkpoints):
        with pytest.raises(ValueError, match="checkpoints"):
            run_episode(small_config(), [0.5], [0], checkpoints)

    def test_memory_does_not_grow_with_the_horizon(self):
        def peak(turns):
            cfg = ExperimentConfig(algorithm="random", means=SPREAD_MEANS, n_players=5,
                                   alphas=(0.5,), turns=turns, repetitions=1)
            tracemalloc.start()
            try:
                run_episode(cfg, [0.5], [episode_seed(cfg.base_seed, 0, 0)], runner.default_checkpoints(turns))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # caches and lazy imports fill outside the measurement
        assert peak(40_000) - peak(4_000) <= 0.5 * 2**20


def block_play(cfg, episodes, size):
    """Each episode's record and final tallies, the (alpha, seed) ``episodes`` played in order in blocks of ``size``."""
    records, tallies = [], []
    for first in range(0, len(episodes), size):
        alphas, seeds = zip(*episodes[first:first + size])
        records += run_episode(cfg, alphas, seeds, every_turn(cfg))
        tallies += [final for _, _, final in simulate_block(cfg, alphas, seeds)]
    return records, tallies


class TestLockstep:
    # nine episodes, alpha 0, 0.3 and 1 in turn: blocks of two and of seven mix
    # stride-0 reach with drawn reach
    EPISODES = [(alpha, seed) for seed in (41, 42, 43) for alpha in (0.0, 0.3, 1.0)]

    @pytest.mark.parametrize("means", [(0.9, 0.6, 0.5, 0.3, 0.1), (0.5,) * 5])  # equal means tie often
    @pytest.mark.parametrize("init_order", INIT_ORDERS)
    @pytest.mark.parametrize("algorithm", POLICY_NAMES)
    def test_an_episode_does_not_depend_on_its_block(self, monkeypatch, algorithm, init_order, means):
        cfg = small_config(algorithm=algorithm, init_order=init_order, means=means, n_players=3, turns=60)
        # 40-turn blocks for one episode, 20 for a block of two and 5 for a block of
        # seven: the 60-turn horizon crosses block ends at every size
        TestBlocks.set_block_turns(monkeypatch, cfg, 40)
        alone = block_play(cfg, self.EPISODES, 1)
        for size in (2, 7):
            assert runner.block_turns(cfg, size) == runner.block_turns(cfg) // size
            records, tallies = block_play(cfg, self.EPISODES, size)
            for episode, (record, again) in enumerate(zip(alone[0], records)):
                for name, series, other in zip(SERIES, record, again):
                    assert np.array_equal(series, other), (size, episode, name)
            for episode, (final, other) in enumerate(zip(alone[1], tallies)):
                assert np.array_equal(final, other), (size, episode)

    def test_a_block_is_cut_into_a_bth_of_the_turns(self):
        for cfg in (small_config(), ExperimentConfig(n_players=20, means=(0.5,) * 25), ExperimentConfig()):
            for size in (1, 2, 3, 7, 50):
                assert runner.block_turns(cfg, size) == max(1, runner.block_turns(cfg) // size)


class TestSeeding:
    def test_each_repetition_gets_its_own_outcome(self):
        cfg = small_config(algorithm="thompson")
        seeds = {episode_seed(cfg.base_seed, 0, r) for r in range(10)}
        assert len(seeds) == 10
        a, = run_episode(cfg, [0.5], [episode_seed(cfg.base_seed, 0, 0)], every_turn(cfg))
        b, = run_episode(cfg, [0.5], [episode_seed(cfg.base_seed, 0, 1)], every_turn(cfg))
        assert not np.array_equal(a.reward, b.reward)

    def test_output_path_does_not_touch_outcomes(self):
        records_a = sweep_alpha(small_config(out_path="a.csv"))
        records_b = sweep_alpha(small_config(out_path="b.csv"))
        assert records_a == records_b


class TestAggregation:
    def test_single_repetition_has_zero_std(self):
        cfg = small_config(repetitions=1)
        records = sweep_alpha(cfg)
        assert len(records) == 2
        assert all(r.regret_occupancy_std == 0.0 for r in records)
        assert all(r.repetitions == 1 for r in records)

    def test_checkpoint_at_horizon_reduces_to_sweep(self):
        cfg = small_config(alphas=(0.5,), checkpoints=(40,))
        assert regret_vs_turns(cfg) == sweep_alpha(cfg)

    def test_default_checkpoints_cover_horizon(self):
        cfg = small_config(alphas=(0.0,))
        records = regret_vs_turns(cfg)
        turns = [r.turn for r in records]
        assert turns == sorted(turns)
        assert turns[-1] == cfg.turns

    def test_serial_and_concurrent_agree_exactly(self):
        cfg = small_config(algorithm="ucb1")
        assert sweep_alpha(cfg, n_jobs=1) == sweep_alpha(cfg, n_jobs=3)

    @pytest.mark.parametrize("n_jobs", [0, -1, 1.5, True])
    def test_rejects_jobs_below_one_or_not_integer(self, n_jobs):
        with pytest.raises(ConfigError, match="jobs"):
            sweep_alpha(small_config(), n_jobs=n_jobs)

    @pytest.mark.parametrize(
        "n_jobs, cpus, expected", [(8, 2, 2), (8, 64, 6), (3, 64, 3), (np.int64(2), 64, 2)]
    )
    def test_pool_is_capped_by_cpus_and_tasks(self, monkeypatch, n_jobs, cpus, expected):
        # 2 alphas x 3 repetitions = 6 episodes; the fake pool starts no process
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = small_config()
        assert sweep_alpha(cfg, n_jobs=n_jobs) == sweep_alpha(cfg)
        assert started == [expected]

    def test_series_follow_the_csv_column_order(self):
        assert [f"{name}_mean" for name in RunRecord._fields] == [
            col for col in CSV_COLUMNS if col.endswith("_mean")
        ]

    def test_regret_curve_serial_and_concurrent_agree(self):
        cfg = small_config(algorithm="thompson", alphas=(1.0,), checkpoints=(10, 40))
        assert regret_vs_turns(cfg, n_jobs=1) == regret_vs_turns(cfg, n_jobs=2)


def one_record(**overrides):
    base = dict(
        algorithm="thompson",
        alpha=0.25,
        turn=5000,
        repetitions=50,
        regret_occupancy_mean=1234.5678,
        regret_occupancy_std=12.25,
        regret_literal_mean=-345.678901,
        regret_literal_std=9.5,
        reward_mean=10987.654,
        loss_mean=7654.321,
        seed_base=42,
    )
    base.update(overrides)
    return AggregateRecord(**base)


class TestEmission:
    def test_csv_is_header_plus_one_row(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([one_record()], "csv", path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("algorithm,alpha,turn,repetitions,regret_occupancy_mean")
        assert lines[1].split(",")[0] == "thompson"

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_results([one_record(regret_occupancy_mean=1234.5678)], "csv", path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[4] == "1234.57"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        records = [one_record(), one_record(alpha=0.75, reward_mean=3.0)]
        emit_results(records, "csv", path)
        parsed = read_results_csv(path)
        assert len(parsed) == 2
        for original, back in zip(records, parsed):
            assert back.algorithm == original.algorithm
            assert back.turn == original.turn
            assert back.reward_mean == pytest.approx(original.reward_mean, rel=1e-5)
            assert back.regret_literal_mean == pytest.approx(
                original.regret_literal_mean, rel=1e-5
            )

    def test_same_records_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results([one_record()], "csv", a)
        emit_results([one_record()], "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_json_mirrors_columns_and_echoes_config(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "out.json"
        emit_results([one_record()], "json", path, config=cfg)
        payload = json.loads(path.read_text())
        assert payload["config"]["turns"] == cfg.turns
        assert payload["config"]["means"] == list(cfg.means)
        row = payload["records"][0]
        assert row["algorithm"] == "thompson"
        assert row["regret_occupancy_mean"] == pytest.approx(1234.57)

    def test_stdout_when_no_path(self, capsys):
        emit_results([one_record()], "csv", None)
        out = capsys.readouterr().out
        assert out.count("\n") == 2

    def test_unwritable_path_names_the_path(self):
        with pytest.raises(OSError, match="no/such/dir/out.csv"):
            emit_results([one_record()], "csv", "no/such/dir/out.csv")

    def test_rejects_empty_and_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit_results([], "csv", tmp_path / "x.csv")
        with pytest.raises(ValueError, match="unknown format"):
            emit_results([one_record()], "xml", tmp_path / "x.xml")
