"""Test-only helpers: hand-built episode arrays and the per-turn reference reductions."""

from __future__ import annotations

import csv

import numpy as np

from gossip_bandits.env import draw_arm_rewards, env_step
from gossip_bandits.metrics import RunRecord
from gossip_bandits.rng import substream
from gossip_bandits.runner import _FIELD_TYPES, CSV_COLUMNS, AggregateRecord
from oracles import best_subset_reward

SERIES = RunRecord._fields


def pay(choices, rewards, winner_rng) -> np.ndarray:
    """(turns, N) 0/1 rewards ``env_step`` pays turn by turn, collisions drawn on ``winner_rng``."""
    return np.array([env_step(c, r, winner_rng) for c, r in zip(choices, rewards)], dtype=np.int64)


def received_rewards(choices, rewards, seed: int) -> np.ndarray:
    """What episode ``seed``'s players received: ``env_step`` replayed on its own substream."""
    return pay(choices, rewards, substream(seed, "env-winners"))


def build_random_history(means, n_players: int, n_turns: int, seed: int):
    """(choices, rewards, realized) of uniformly random play, bypassing the policy layer."""
    choices = np.random.default_rng(seed).integers(len(means), size=(n_turns, n_players))
    rewards = draw_arm_rewards(means, n_turns, np.random.default_rng(seed + 1))
    return choices, rewards, pay(choices, rewards, np.random.default_rng(seed + 2))


def make_history(turn_specs):
    """(choices, rewards) arrays from (choices, arm_rewards) pairs."""
    choices, rewards = zip(*turn_specs)
    return np.array(choices), np.array(rewards)


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
    with open(path, newline="", encoding="utf-8") as handle:
        return [
            AggregateRecord(**{col: _FIELD_TYPES[col](row[col]) for col in CSV_COLUMNS})
            for row in csv.DictReader(handle)
        ]
