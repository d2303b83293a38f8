import json

import numpy as np
import pytest

from gossip_bandits import ConfigError, ExperimentConfig, apply_overrides, config_from_file
from gossip_bandits.config import (
    _FIELD_TYPES,
    FIELD_NAMES,
    SPREAD_MEANS,
    config_from_dict,
)


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.n_arms == 10
        assert cfg.means == SPREAD_MEANS
        assert len(cfg.alphas) == 11

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"means": (0.5,)}, "at least 2 arms"),
            ({"means": (0.5, 1.5)}, "lie in"),
            ({"algorithm": "lri"}, "unknown algorithm"),
            ({"n_players": 10}, "n_players"),
            ({"n_players": 0}, "n_players"),
            ({"algorithm": "asympopt", "n_players": 1}, "n_players"),
            ({"alphas": ()}, "at least one"),
            ({"alphas": (0.5, 1.2)}, "lie in"),
            ({"turns": 5}, "pull-each-arm-once"),
            ({"repetitions": 0}, "repetitions"),
            ({"epsilon0": 1.5}, "epsilon0"),
            ({"decay": 1.0}, "decay"),
            ({"mean_floor": 0.0}, "mean_floor"),
            ({"init_order": "alphabetical"}, "init_order"),
            ({"checkpoints": (0, 10)}, "checkpoints"),
            ({"checkpoints": (10, 10)}, "increasing"),
            ({"checkpoints": (10, 6000)}, "checkpoints"),
            ({"out_format": "xml"}, "format"),
            ({"mean_floor": 1.0}, "mean_floor"),
            ({"means": (0.5, -0.1)}, "lie in"),
        ],
    )
    def test_rejects_invalid_fields(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_players": 2.5}, "n_players must be an integer"),
            ({"repetitions": 1.5}, "repetitions must be an integer"),
            ({"turns": "5000"}, "turns must be an integer"),
            ({"alphas": 0.5}, "alphas must be a list"),
            ({"means": "0.5"}, "means must be a list"),
            ({"means": (0.5, float("nan"))}, "means must be a list of finite"),
            ({"mean_floor": float("nan")}, "mean_floor must be a finite number"),
            ({"mean_floor": float("inf")}, "mean_floor must be a finite number"),
            ({"n_players": True}, "n_players must be an integer"),
            ({"turns": False}, "turns must be an integer"),
            ({"checkpoints": (True, 10)}, "checkpoints must be a list of integers"),
            ({"epsilon0": "1"}, "epsilon0 must be a finite number"),
        ],
    )
    def test_rejects_wrong_types_and_non_finite_values(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, field, expected",
        [
            ({"means": (m for m in (0.9, 0.5, 0.2)), "n_players": 1}, "means", (0.9, 0.5, 0.2)),
            ({"alphas": iter([0.0, 1.0])}, "alphas", (0.0, 1.0)),
            ({"checkpoints": iter([1, 2])}, "checkpoints", (1, 2)),
        ],
    )
    def test_iterators_are_read_once(self, kwargs, field, expected):
        assert getattr(ExperimentConfig(**kwargs), field) == expected

    def test_json_fields_of_the_wrong_type_are_config_errors(self):
        for raw in ({"turns": "5000"}, {"alphas": 0.5}, {"means": "0.5"}):
            with pytest.raises(ConfigError):
                config_from_dict(raw)

    def test_type_table_covers_every_field_once(self):
        names = [name for row_names, *_ in _FIELD_TYPES for name in row_names]
        assert sorted(names) == sorted(FIELD_NAMES)

    def test_numpy_integers_are_stored_as_python_ints(self):
        cfg = ExperimentConfig(n_players=np.int64(2), turns=np.int32(100), base_seed=np.uint8(3))
        assert json.loads(json.dumps(cfg.echo()))["n_players"] == 2
        assert type(cfg.turns) is int and type(cfg.base_seed) is int

    @pytest.mark.parametrize("kwargs, field, expected", [
        (dict(decay=np.float32(0.99)), "decay", float(np.float32(0.99))),
        (dict(epsilon0=np.int64(1)), "epsilon0", 1),
        (dict(epsilon0=1), "epsilon0", 1),
    ])
    def test_numpy_scalar_hyperparameters_echo_as_json(self, kwargs, field, expected):
        echoed = json.loads(json.dumps(ExperimentConfig(**kwargs).echo()))[field]
        assert echoed == expected and type(echoed) is type(expected)

    def test_single_player_fine_for_nonmixing_policies(self):
        cfg = ExperimentConfig(algorithm="ucb1", n_players=1)
        assert cfg.n_players == 1

    def test_clustered_means_are_valid(self):
        ExperimentConfig(means=(0.7, 0.68, 0.66, 0.64, 0.62, 0.4, 0.38, 0.36, 0.34, 0.32))


class TestFileLoading:
    def test_round_trip_through_json(self, tmp_path):
        cfg = ExperimentConfig(algorithm="egreedy", turns=60, repetitions=3, alphas=(0.0, 1.0))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(cfg.echo()))
        assert config_from_file(path) == cfg

    def test_partial_file_fills_defaults(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text('{"algorithm": "ucb1", "turns": 100}')
        cfg = config_from_file(path)
        assert cfg.algorithm == "ucb1"
        assert cfg.turns == 100
        assert cfg.repetitions == ExperimentConfig().repetitions

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            config_from_dict({"turbo": True})

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            config_from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            config_from_file(bad)
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_file(array)


class TestOverrides:
    def test_none_values_keep_existing(self):
        cfg = ExperimentConfig(turns=100)
        assert apply_overrides(cfg, turns=None, repetitions=None) == cfg

    def test_overrides_are_validated(self):
        with pytest.raises(ConfigError):
            apply_overrides(ExperimentConfig(), alphas=(2.0,))

    def test_override_changes_field(self):
        cfg = apply_overrides(ExperimentConfig(), algorithm="random", repetitions=7)
        assert cfg.algorithm == "random"
        assert cfg.repetitions == 7
