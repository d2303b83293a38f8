import concurrent.futures

import numpy as np
import pytest

from gossip_bandits import (
    AggregateRecord,
    ConfigError,
    ExperimentConfig,
    config_from_dict,
    emit_results,
    episode_seed,
    regret_vs_turns,
    run_episode,
    run_episode_with_history,
    simulate_episode,
    sweep_alpha,
)
from gossip_bandits import runner
from support import read_results_csv

SMALL = dict(means=(0.9, 0.5, 0.3, 0.1), n_players=2, turns=40, repetitions=3)


def small_config(**overrides):
    kwargs = dict(SMALL, alphas=(0.0, 1.0), base_seed=7)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRunEpisode:
    @pytest.mark.parametrize("algorithm", ["ucb1", "egreedy", "thompson"])
    def test_init_phase_covers_every_arm_once(self, algorithm):
        cfg = small_config(algorithm=algorithm, turns=4)
        _, history = run_episode_with_history(cfg, 0.5, 123)
        for column in history.choices_matrix.T:
            assert sorted(column) == [0, 1, 2, 3]

    def test_random_init_order_still_covers_every_arm(self):
        cfg = small_config(algorithm="thompson", turns=4, init_order="random")
        _, history = run_episode_with_history(cfg, 0.0, 5)
        for column in history.choices_matrix.T:
            assert sorted(column) == [0, 1, 2, 3]

    def test_no_communication_counts_only_own_pulls(self):
        cfg = small_config(algorithm="thompson")
        history, tallies = simulate_episode(cfg, 0.0, 11)
        for p in range(cfg.n_players):
            own = np.bincount(history.choices_matrix[:, p], minlength=4)
            assert np.array_equal(tallies[p, :4], own)
            own_wins = np.bincount(history.choices_matrix[:, p], history.realized_matrix[:, p], 4)
            assert np.array_equal(tallies[p, 4:], own_wins)

    def test_full_communication_counts_everyones_pulls(self):
        cfg = ExperimentConfig(algorithm="thompson", turns=100, repetitions=1, alphas=(1.0,))
        history, tallies = simulate_episode(cfg, 1.0, 13)
        everyone = np.bincount(history.choices_matrix.ravel(), minlength=10)
        for row in tallies:
            assert np.array_equal(row[:10], everyone)
            assert row[10:].sum() == history.realized_matrix.sum()

    def test_identical_inputs_reproduce_bitwise(self):
        cfg = small_config(algorithm="egreedy")
        a = run_episode(cfg, 0.7, 99)
        b = run_episode(cfg, 0.7, 99)
        assert np.array_equal(a.cumulative_reward, b.cumulative_reward)
        assert np.array_equal(a.cumulative_loss, b.cumulative_loss)
        assert np.array_equal(a.regret_literal, b.regret_literal)
        assert np.array_equal(a.regret_occupancy, b.regret_occupancy)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="connectivity"):
            run_episode(small_config(), 1.5, 0)

    def test_metadata_reruns_bit_identically(self):
        cfg = small_config(algorithm="asympopt", n_players=2)
        record = run_episode(cfg, 1.0, episode_seed(cfg.base_seed, 1, 2))
        meta = record.metadata
        rebuilt = config_from_dict({k: v for k, v in meta.items() if k not in ("alpha", "seed")})
        assert rebuilt == cfg
        again = run_episode(rebuilt, meta["alpha"], meta["seed"])
        assert np.array_equal(record.regret_occupancy, again.regret_occupancy)


class TestSeeding:
    def test_each_repetition_gets_its_own_outcome(self):
        cfg = small_config(algorithm="thompson")
        seeds = {episode_seed(cfg.base_seed, 0, r) for r in range(10)}
        assert len(seeds) == 10
        a = run_episode(cfg, 0.5, episode_seed(cfg.base_seed, 0, 0))
        b = run_episode(cfg, 0.5, episode_seed(cfg.base_seed, 0, 1))
        assert not np.array_equal(a.cumulative_reward, b.cumulative_reward)

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

    @pytest.mark.parametrize("n_jobs, cpus, expected", [(8, 2, 2), (8, 64, 6), (3, 64, 3)])
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

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(runner.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = small_config()
        assert sweep_alpha(cfg, n_jobs=n_jobs) == sweep_alpha(cfg)
        assert started == [expected]

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
        import json

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
