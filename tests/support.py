"""Test-only helpers: hand-built episode arrays and the per-turn reference reductions."""

from __future__ import annotations

import csv
import dataclasses

import numpy as np

from gossip_bandits.env import draw_arm_rewards, env_step
from gossip_bandits.runner import CSV_COLUMNS, AggregateRecord
from oracles import best_subset_reward

SERIES = ("reward", "loss", "regret_literal", "regret_occupancy")


def build_random_history(means, n_players: int, n_turns: int, seed: int):
    """(choices, rewards, realized) of uniformly random play, bypassing the policy layer."""
    choices = np.random.default_rng(seed).integers(len(means), size=(n_turns, n_players))
    rewards = draw_arm_rewards(means, n_turns, np.random.default_rng(seed + 1))
    winner_rng = np.random.default_rng(seed + 2)
    realized = np.array(
        [env_step(c, r, winner_rng) for c, r in zip(choices, rewards)], dtype=np.int64
    )
    return choices, rewards, realized


def make_history(turn_specs):
    """(choices, rewards, realized) from (choices, arm_rewards) pairs; the lowest-index puller wins."""
    choices, rewards, realized = [], [], []
    for turn_choices, arm_rewards in turn_specs:
        paid = [0] * len(turn_choices)
        for arm in set(turn_choices):
            paid[list(turn_choices).index(arm)] = arm_rewards[arm]
        choices.append(turn_choices)
        rewards.append(arm_rewards)
        realized.append(paid)
    return np.array(choices), np.array(rewards), np.array(realized)


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


def per_turn_terms(choices, rewards, means) -> dict[str, list]:
    """Each metric series' per-turn term, one turn at a time, keyed like ``SERIES``.

    The baseline is the subset-enumeration oracle, and reward and loss are
    summed independently over the occupied and unoccupied arms.
    """
    best = best_subset_reward(means, len(choices[0]))
    terms: dict[str, list] = {name: [] for name in SERIES}
    for turn_choices, arm_rewards in zip(choices, rewards):
        occupied = occupancy_indicator(turn_choices, len(means))
        terms["reward"].append(int(occupied @ arm_rewards))
        terms["loss"].append(int((1 - occupied) @ arm_rewards))
        terms["regret_literal"].append(best - sum(means[arm] for arm in turn_choices))
        terms["regret_occupancy"].append(best - float(occupied @ np.asarray(means)))
    return terms


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
