"""Cross-version byte identity of the emitted CSV and JSON.

The digests were computed with the shared-stream engine: an episode draws
from four substreams of its seed (``env-arms``, ``graph``,
``env-winners`` and one ``players`` stream for every player's draws), and
each policy consumes the players' stream in one array call per draw
kind.  Thompson's posterior is one ``standard_gamma`` call over every
arm's pair of shapes, which draws the values ``Generator.beta`` did when
the digests were computed, in the same order.  Any engine that draws the
same values in the same order reproduces them byte for byte; a digest
change means a seeded experiment's published numbers changed.
"""

import hashlib

import pytest

from gossip_bandits import ExperimentConfig, emit_results, regret_vs_turns

MU_SPREAD = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
MU_DENSE = (
    0.1946, 0.0503, 0.2449, 0.3812, 0.0518, 0.2238, 0.9418, 0.7582, 0.1592, 0.2532,
    0.7401, 0.8752, 0.3684, 0.7571, 0.182, 0.5376, 0.5872, 0.7609, 0.3008, 0.4223,
    0.3885, 0.1741, 0.6584, 0.5516, 0.5056,
)

GOLDEN = {
    ("ucb1", "sequential"): "fa545ac9b2b0d310eb9035472f6d1298646695308b2180c1c13d332a3a28568d",
    ("ucb1", "random"): "ed9e051b1a0551da3e1c42c1146b5d4766583278011f132850aa600439067db8",
    ("egreedy", "sequential"): "e9a04be0a81de5c860c419179c44275af194c95cd96e8d850c36b94996fc7f25",
    ("egreedy", "random"): "65eaed75705b214c2074a690f0d45f2c744033c5cdd5d5d3fe4ec608e911b6c2",
    ("thompson", "sequential"): "8709f6ba6a3a33757ddc17469c9bfa3762940949bfdd0aca10bc873122d48cbf",
    ("thompson", "random"): "68bf4da56748d104a184dfb7cfad4c174bc89c496c188da1fa120bf7dff79bd6",
    ("asympopt", "sequential"): "e254931657a9a97a55fb43c97ec2e99aa91c2a8bb6d89e6dda83019cd5c3620f",
    ("asympopt", "random"): "e254931657a9a97a55fb43c97ec2e99aa91c2a8bb6d89e6dda83019cd5c3620f",
    ("random", "sequential"): "41b57579e203a1e8dc3e096be2660f8dc4834a1df1c10c7c22b0620b35072c21",
    ("random", "random"): "41b57579e203a1e8dc3e096be2660f8dc4834a1df1c10c7c22b0620b35072c21",
}
GOLDEN_DENSE = "1b93f7cc7af8ca551f74980d1a9f07d9e4bfff4f6b3ef6979e19769d950866b0"
# N=9 players: row-wise selection and tie-breaks over more than five rows
GOLDEN_N9 = {
    "ucb1": "4f2299bd06f6eca104cb2e51a230c5fb27047dc8c92fbacffb99a4f5f3f16e06",
    "egreedy": "3a88dc31788ca4dc1ff6a917f2defcf03df52dce4463dbcfd4e56abb7b226113",
    "thompson": "a635fbc5b5388b625d130ee06aa184df8ef314625e253a486b609032b74717cb",
    "asympopt": "6132d07b9ac5b0f6064e4e1ae3b7fc7bab470ee3c71e591a422252132b8a8eb5",
}
# JSON output with the echoed config: number formatting and key order
GOLDEN_JSON = "a3a2befa20e57d711f6a349ded5522c7bcdbd9ac8600f10209b0205e5a294e56"


def csv_digest(config, path) -> str:
    emit_results(regret_vs_turns(config), "csv", path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("algorithm, init_order", sorted(GOLDEN))
def test_regret_curve_csv_is_byte_identical(algorithm, init_order, tmp_path):
    cfg = ExperimentConfig(
        algorithm=algorithm, init_order=init_order, means=MU_SPREAD, n_players=5,
        alphas=(0.0, 0.5, 1.0), turns=200, repetitions=2, base_seed=2024,
    )
    assert csv_digest(cfg, tmp_path / "out.csv") == GOLDEN[algorithm, init_order]


def test_dense_random_sweep_csv_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        algorithm="random", means=MU_DENSE, n_players=20,
        alphas=(0.0, 0.5, 1.0), turns=100, repetitions=2, base_seed=2024,
    )
    assert csv_digest(cfg, tmp_path / "out.csv") == GOLDEN_DENSE


@pytest.mark.parametrize("algorithm", sorted(GOLDEN_N9))
def test_nine_player_regret_curve_csv_is_byte_identical(algorithm, tmp_path):
    cfg = ExperimentConfig(
        algorithm=algorithm, means=MU_SPREAD, n_players=9,
        alphas=(0.0, 0.5, 1.0), turns=600, repetitions=2, base_seed=2024,
    )
    assert csv_digest(cfg, tmp_path / "out.csv") == GOLDEN_N9[algorithm]


def test_regret_curve_json_is_byte_identical(tmp_path):
    cfg = ExperimentConfig(
        algorithm="asympopt", means=MU_SPREAD, n_players=5,
        alphas=(0.0, 0.5, 1.0), turns=200, repetitions=2, base_seed=2024, out_format="json",
    )
    path = tmp_path / "out.json"
    emit_results(regret_vs_turns(cfg), "json", path, config=cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_JSON
