"""Decentralized multi-player bandit simulator with collisions and gossip.

N players repeatedly pull S Bernoulli arms; same-arm pulls collide and a
uniformly chosen winner takes the single realization.  After every turn a
fresh random communication graph delivers each player's (arm, reward)
outcome to its neighbors.  The package provides the environment, the
communication layer, five policies, the reward/loss/regret metrics and a
seed-reproducible experiment runner with a CLI.
"""

from .config import (
    CLUSTERED_MEANS,
    SPREAD_MEANS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    config_from_file,
)
from .env import ArmSet, draw_arm_rewards, env_step
from .metrics import (
    GameHistory,
    RunRecord,
    build_run_record,
    cumulative_loss,
    cumulative_regret_literal,
    cumulative_regret_occupancy,
    cumulative_reward,
    expected_turn_loss,
    optimal_per_turn_reward,
)
from .network import disseminate, sample_reach
from .policies import (
    AsympOptPolicy,
    EpsilonGreedyPolicy,
    MixProbabilities,
    Policy,
    ThompsonPolicy,
    Ucb1Policy,
    UniformRandomPolicy,
    argmax_random_tie,
    compute_mix_probabilities,
    make_policy,
    sample_categorical,
)
from .rng import derive_seed, substream
from .runner import (
    AggregateRecord,
    emit_results,
    episode_seed,
    regret_vs_turns,
    run_episode,
    run_episode_with_history,
    simulate_episode,
    sweep_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateRecord",
    "ArmSet",
    "AsympOptPolicy",
    "CLUSTERED_MEANS",
    "ConfigError",
    "EpsilonGreedyPolicy",
    "ExperimentConfig",
    "GameHistory",
    "MixProbabilities",
    "Policy",
    "RunRecord",
    "SPREAD_MEANS",
    "ThompsonPolicy",
    "Ucb1Policy",
    "UniformRandomPolicy",
    "apply_overrides",
    "argmax_random_tie",
    "build_run_record",
    "compute_mix_probabilities",
    "config_from_dict",
    "config_from_file",
    "cumulative_loss",
    "cumulative_regret_literal",
    "cumulative_regret_occupancy",
    "cumulative_reward",
    "derive_seed",
    "disseminate",
    "draw_arm_rewards",
    "emit_results",
    "env_step",
    "episode_seed",
    "expected_turn_loss",
    "make_policy",
    "optimal_per_turn_reward",
    "regret_vs_turns",
    "run_episode",
    "run_episode_with_history",
    "sample_categorical",
    "sample_reach",
    "simulate_episode",
    "substream",
    "sweep_alpha",
]
