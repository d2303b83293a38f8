import dataclasses
import json

import pytest

from gossip_bandits import ExperimentConfig, cli
from gossip_bandits.cli import _assemble_config, build_parser, main
from support import read_results_csv


def run_cli(*args):
    return main(list(args))


class TestSweepAlpha:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep-alpha",
            "--algorithm", "random",
            "--means", "0.9,0.5,0.2",
            "--players", "2",
            "--alpha", "0,1",
            "--turns", "20",
            "--reps", "2",
            "--seed", "3",
            "--out", str(out),
        )
        assert code == 0
        records = read_results_csv(out)
        assert [r.alpha for r in records] == [0.0, 1.0]
        assert all(r.algorithm == "random" and r.seed_base == 3 for r in records)

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "sweep-alpha", "--algorithm", "ucb1", "--means", "0.8,0.4,0.2", "--players", "2",
            "--alpha", "0.5", "--turns", "30", "--reps", "2", "--seed", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_by_default(self, capsys):
        code = run_cli(
            "sweep-alpha", "--algorithm", "random", "--means", "0.9,0.1", "--players", "1",
            "--alpha", "0", "--turns", "10", "--reps", "1", "--seed", "0",
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("algorithm,")


class TestRegretCurve:
    def test_json_output_with_checkpoints(self, tmp_path):
        out = tmp_path / "curve.json"
        code = run_cli(
            "regret-curve",
            "--algorithm", "thompson",
            "--means", "0.9,0.5,0.2,0.1",
            "--players", "2",
            "--alpha", "0",
            "--turns", "50",
            "--reps", "2",
            "--seed", "1",
            "--checkpoints", "25,50",
            "--format", "json",
            "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [row["turn"] for row in payload["records"]] == [25, 50]
        assert payload["config"]["algorithm"] == "thompson"


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "algorithm": "egreedy",
            "means": [0.9, 0.5, 0.2],
            "n_players": 2,
            "alphas": [0.0],
            "turns": 20,
            "repetitions": 1,
        }))
        out = tmp_path / "r.csv"
        code = run_cli("sweep-alpha", "--config", str(cfg_path),
                       "--algorithm", "random", "--out", str(out))
        assert code == 0
        assert read_results_csv(out)[0].algorithm == "random"

    def test_config_error_exits_nonzero_with_diagnostic(self, capsys):
        code = run_cli(
            "sweep-alpha", "--algorithm", "random", "--means", "0.9,0.5", "--players", "1",
            "--alpha", "1.5", "--turns", "10", "--reps", "1", "--seed", "0",
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--jobs", "0"], ["--jobs", "-2"], ["--mean-floor", "nan"],
                                      ["--mean-floor", "inf"], ["--mean-floor", "2"]])
    def test_bad_numeric_flag_is_a_config_error(self, capsys, flag):
        code = run_cli(
            "sweep-alpha", "--algorithm", "asympopt", "--means", "0.9,0.5,0.2", "--players", "2",
            "--alpha", "0", "--turns", "10", "--reps", "1", "--seed", "0", *flag,
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file_exits_nonzero(self, capsys, tmp_path):
        code = run_cli("sweep-alpha", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_config_file_that_is_not_utf8_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"turns": 20}'.encode("utf-16-le"))
        assert run_cli("sweep-alpha", "--config", str(path)) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "not UTF-8" in err

    def test_unwritable_output_exits_nonzero(self, capsys):
        code = run_cli(
            "sweep-alpha", "--algorithm", "random", "--means", "0.9,0.5", "--players", "1",
            "--alpha", "0", "--turns", "10", "--reps", "1", "--seed", "0",
            "--out", "no/such/dir/x.csv",
        )
        assert code == 1
        assert "no/such/dir/x.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["no/such/dir/x.csv", "a-file/x.csv", ".", ""])
    def test_unwritable_output_fails_before_any_episode(self, capsys, monkeypatch, tmp_path, out):
        calls = []
        monkeypatch.setattr(cli, "sweep_alpha", lambda *a, **kw: calls.append((a, kw)))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a-file").write_text("")
        assert run_cli("sweep-alpha", "--out", out) == 1
        assert out in capsys.readouterr().err
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["a-file"]

    def test_bad_flag_value_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-alpha", "--alpha", "zero")
        assert exc.value.code == 2

    @pytest.mark.parametrize("args", [["sweep-alpha", "--alpha", "0.5,x"],
                                      ["regret-curve", "--checkpoints", "10,x"]])
    def test_malformed_comma_list_is_a_usage_error(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run_cli(*args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "expected comma-separated" in err and repr(args[-1]) in err

    def test_unknown_algorithm_is_an_argparse_error(self):
        with pytest.raises(SystemExit):
            run_cli("sweep-alpha", "--algorithm", "oracle")


# field -> (command line that sets only that field, the field's expected value)
FLAG_CASES = {
    "means": (["sweep-alpha", "--means", "0.9,0.5,0.2,0.1,0.05,0.01"], (0.9, 0.5, 0.2, 0.1, 0.05, 0.01)),
    "n_players": (["sweep-alpha", "--players", "3"], 3),
    "algorithm": (["sweep-alpha", "--algorithm", "ucb1"], "ucb1"),
    "alphas": (["sweep-alpha", "--alpha", "0.25,0.75"], (0.25, 0.75)),
    "turns": (["sweep-alpha", "--turns", "40"], 40),
    "repetitions": (["sweep-alpha", "--reps", "7"], 7),
    "base_seed": (["sweep-alpha", "--seed", "11"], 11),
    "epsilon0": (["sweep-alpha", "--epsilon0", "0.5"], 0.5),
    "decay": (["sweep-alpha", "--decay", "0.9"], 0.9),
    "mean_floor": (["sweep-alpha", "--mean-floor", "0.01"], 0.01),
    "init_order": (["sweep-alpha", "--init-order", "random"], "random"),
    "checkpoints": (["regret-curve", "--checkpoints", "10,20"], (10, 20)),
    "out_path": (["sweep-alpha", "--out", "results.csv"], "results.csv"),
    "out_format": (["sweep-alpha", "--format", "json"], "json"),
}


class TestFlagsReachTheConfig:
    def test_every_field_has_a_flag(self):
        assert set(FLAG_CASES) == {f.name for f in dataclasses.fields(ExperimentConfig)}

    @pytest.mark.parametrize("field", sorted(FLAG_CASES))
    def test_flag_sets_its_field(self, field):
        argv, expected = FLAG_CASES[field]
        default = ExperimentConfig()
        assert getattr(default, field) != expected
        config = _assemble_config(build_parser().parse_args(argv))
        assert config == dataclasses.replace(default, **{field: expected})
