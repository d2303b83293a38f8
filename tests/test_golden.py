"""Cross-version byte identity of the emitted CSV.

The digests were computed once with the object-per-turn engine (one
``TurnOutcome``, ``CommGraph`` and inbox list per turn).  Any engine that
consumes the same random substreams in the same order reproduces them
byte for byte; a digest change means a seeded experiment's published
numbers changed.
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
    ("ucb1", "sequential"): "30138111ef33727eda1f9a955ef69b2a7d544766827732a9187e46eee67d954e",
    ("ucb1", "random"): "1c3e6961503b1d79d41743e028007864614bc5afb364f8f8dfda0663e392de09",
    ("egreedy", "sequential"): "2173afe7aa2c4012d8fdfb2d426d640afa7c456cb26c1a643fcd53037c8dd62d",
    ("egreedy", "random"): "8ab225679ff81326a456274421ccc24b5dc5e5f3de72d6f81204aa8cad092cfb",
    ("thompson", "sequential"): "32de21bc431d38a6f8196426ab2df6b6a0fec54f5f402acd17f716475811960d",
    ("thompson", "random"): "3cf3520e28b38a118327faf9ad7151c4663ffa96ec1d2d2a5255f48f719fef19",
    ("asympopt", "sequential"): "d3050c19e386212463178da02ceff38a79f56d5d3bff46300cda956c8d1b70c3",
    ("asympopt", "random"): "d3050c19e386212463178da02ceff38a79f56d5d3bff46300cda956c8d1b70c3",
    ("random", "sequential"): "646bff62a1a402628ceef79c3c8584ad15787de809e05be779cf559a66de036d",
    ("random", "random"): "646bff62a1a402628ceef79c3c8584ad15787de809e05be779cf559a66de036d",
}
GOLDEN_DENSE = "66fc858b547ce7adede0b1ba16408cba14c75e42aed9ffe083384d1e679ff483"


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
