"""Decentralized multi-player bandit simulator with collisions and gossip.

N players repeatedly pull S Bernoulli arms; same-arm pulls collide and a
uniformly chosen winner takes the single realization.  After every turn a
fresh random communication graph delivers each player's (arm, reward)
outcome to its neighbors.  The package provides the environment, the
communication layer, five policies, the reward/loss/regret metrics and a
seed-reproducible experiment runner with a CLI.
"""

from .config import (
    SPREAD_MEANS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_from_file,
)
from .runner import (
    AggregateRecord,
    emit_results,
    episode_seed,
    regret_vs_turns,
    run_episode,
    sweep_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRecord",
    "ConfigError",
    "ExperimentConfig",
    "SPREAD_MEANS",
    "apply_overrides",
    "config_from_dict",
    "config_from_file",
    "emit_results",
    "episode_seed",
    "regret_vs_turns",
    "run_episode",
    "sweep_alpha",
]
