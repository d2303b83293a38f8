"""Test-only helpers: hand-built histories and the per-turn reference reductions."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np

from gossip_bandits import ArmSet, GameHistory, draw_arm_rewards, env_step
from gossip_bandits.metrics import cumulative_loss, cumulative_reward
from gossip_bandits.runner import CSV_COLUMNS, AggregateRecord


def build_random_history(means, n_players: int, n_turns: int, seed: int) -> GameHistory:
    """Episode of uniformly random play, bypassing the policy layer."""
    arms = ArmSet(means)
    choices = np.random.default_rng(seed).integers(arms.n_arms, size=(n_turns, n_players))
    rewards = draw_arm_rewards(arms, n_turns, np.random.default_rng(seed + 1))
    winner_rng = np.random.default_rng(seed + 2)
    realized = np.array(
        [env_step(c.tolist(), r.tolist(), winner_rng) for c, r in zip(choices, rewards)]
    )
    return GameHistory(choices, rewards, realized, arms)


def make_history(arms: ArmSet, turn_specs) -> GameHistory:
    """History from (choices, arm_rewards) pairs; the lowest-index puller wins."""
    choices, rewards, realized = [], [], []
    for turn_choices, arm_rewards in turn_specs:
        paid = [0] * len(turn_choices)
        for arm in set(turn_choices):
            paid[list(turn_choices).index(arm)] = arm_rewards[arm]
        choices.append(turn_choices)
        rewards.append(arm_rewards)
        realized.append(paid)
    return GameHistory(np.array(choices), np.array(rewards), np.array(realized), arms)


def occupancy_indicator(choices, n_arms: int) -> np.ndarray:
    """0/1 vector over arms: was the arm chosen by at least one player."""
    if len(choices) == 0:
        raise ValueError("choices must be nonempty")
    out = np.zeros(n_arms, dtype=np.int64)
    for choice in choices:
        arm = int(choice)
        if not 0 <= arm < n_arms:
            raise ValueError(f"choice {arm} outside [0, {n_arms})")
        out[arm] = 1
    return out


def total_reward(history: GameHistory) -> int:
    return int(cumulative_reward(history)[-1])


def total_loss(history: GameHistory) -> int:
    return int(cumulative_loss(history)[-1])


def read_results_csv(path) -> list[AggregateRecord]:
    """Parse a CSV written by ``emit_results`` back into records."""
    types = {f.name: f.type for f in dataclasses.fields(AggregateRecord)}
    records = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            kwargs = {}
            for col in CSV_COLUMNS:
                kind = types[col]
                if kind == "int":
                    kwargs[col] = int(row[col])
                elif kind == "float":
                    kwargs[col] = float(row[col])
                else:
                    kwargs[col] = row[col]
            records.append(AggregateRecord(**kwargs))
    return records
