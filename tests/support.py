"""Test-only helpers: whole-episode arrays, hand-built histories and the per-turn reference reductions."""

from __future__ import annotations

import csv

import numpy as np

from gossip_bandits.env import draw_arm_rewards, env_step
from gossip_bandits.metrics import RunRecord
from gossip_bandits.network import disseminate, stretch_turns
from gossip_bandits.policies import UniformRandomPolicy, make_policy
from gossip_bandits.rng import substream
from gossip_bandits.runner import _FIELD_TYPES, CSV_COLUMNS, AggregateRecord, episode_blocks

SERIES = RunRecord._fields


def new_tallies(n_players: int, n_arms: int, fill: float = 0.0, dtype=np.float64) -> np.ndarray:
    """An (N, 2S) tally matrix, every entry ``fill``: row p holds ``[s_0, f_0, s_1, f_1, ...]``."""
    return np.full((n_players, 2 * n_arms), fill, dtype=dtype)


def successes_of(tallies: np.ndarray) -> np.ndarray:
    """The (..., S) successes each row has heard of each arm: a view of the even columns."""
    return tallies[..., 0::2]


def failures_of(tallies: np.ndarray) -> np.ndarray:
    """The (..., S) failures each row has heard of each arm: a view of the odd columns."""
    return tallies[..., 1::2]


def counts_of(tallies: np.ndarray) -> np.ndarray:
    """The (..., S) reports each row has heard of each arm: its successes plus its failures."""
    return successes_of(tallies) + failures_of(tallies)


def simulate_block(config, alphas, seeds):
    """Episodes (``alphas[b]``, ``seeds[b]``) played in one lockstep block, the engine's blocks of turns
    joined: each episode's choices (turns, N), realizations (turns, S) and final tallies (N, 2S)."""
    choices, rewards, tallies = zip(*episode_blocks(config, alphas, seeds))
    return list(zip(np.concatenate(choices).swapaxes(0, 1), np.concatenate(rewards).swapaxes(0, 1), tallies[-1]))


def simulate_episode(config, alpha: float, seed: int):
    """One episode played alone: choices (turns, N), realizations (turns, S), final tallies (N, 2S)."""
    return simulate_block(config, [alpha], [seed])[0]


def stretch_cap(n_players: int, n_arms: int, alpha: float) -> int:
    """The runner's longest stretch in a block of graphs drawn at ``alpha``.

    At ``alpha`` 0 or 1 the block is one graph broadcast over its turns, turn
    stride 0, as ``sample_reach`` returns it; otherwise its turns are stored
    one after another, and a stretch is capped by its (N, 2S) float64 report
    rows.  The stand-in block stores one or two bytes whatever N is.
    """
    stored = 1 if alpha in (0.0, 1.0) else 2
    return stretch_turns(np.broadcast_to(np.zeros((stored, 1, 1), dtype=bool), (2, n_players, n_players)), n_arms)


LAYOUTS = ("C", "F", "transposed", "strided")


def layouts(values) -> dict[str, np.ndarray]:
    """The values of ``values`` in each of ``LAYOUTS``, keyed by name.

    C- and Fortran-ordered copies; a transposed view, a C-ordered copy with
    the first axis moved last and moved back, so the first axis runs
    fastest; and a strided view of every other entry of each axis of a
    larger array.
    """
    values = np.asarray(values)
    spread = np.zeros(tuple(2 * length for length in values.shape), dtype=values.dtype)
    strided = spread[(slice(None, None, 2),) * values.ndim]
    strided[...] = values
    return {
        "C": np.ascontiguousarray(values),
        "F": np.asfortranarray(values),
        "transposed": np.moveaxis(np.ascontiguousarray(np.moveaxis(values, 0, -1)), -1, 0),
        "strided": strided,
    }


def select_turn(policy) -> np.ndarray:
    """One turn's (N,) arms: a learning rule's ``select()`` row, or the random policy's one-turn stretch."""
    return policy.select(1)[0] if isinstance(policy, UniformRandomPolicy) else policy.select()


def reference_episode(config, alpha: float, seed: int):
    """``simulate_episode``'s arrays from a per-turn loop on the episode's plain substreams.

    Every turn draws its realizations, its graph (a ``random(N(N-1)/2)`` in
    pair order) and ``env_step``'s priorities straight from the generators,
    one call each, takes one turn of every policy (``select_turn``), and
    plays it through ``env_step`` and ``disseminate`` as a one-turn (1, N)
    stretch, whichever loop ``episode_blocks`` plays; nothing is drawn per
    block or per stretch.
    """
    n_players, n_arms, turns = config.n_players, config.n_arms, config.turns
    arm_rng, graph_rng, winner_rng, players = (
        substream(seed, tag) for tag in ("env-arms", "graph", "env-winners", "players"))
    first, second = np.triu_indices(n_players, k=1)
    tallies = new_tallies(n_players, n_arms)
    policy = make_policy(config, tallies, players)
    choices = np.empty((turns, n_players), dtype=np.int64)
    rewards = np.empty((turns, n_arms), dtype=bool)
    for t in range(turns):
        rewards[t] = arm_rng.random(n_arms) < np.asarray(config.means)
        reach = np.eye(n_players, dtype=bool)
        reach[first, second] = reach[second, first] = graph_rng.random(len(first)) < alpha
        choices[t] = select_turn(policy)
        disseminate(tallies, reach[None], choices[t][None], env_step(choices[t][None], rewards[t][None], winner_rng))
    return choices, rewards, tallies


def pay(choices, rewards, winner_rng) -> np.ndarray:
    """(turns, N) 0/1 rewards ``env_step`` pays turn by turn, collisions drawn on ``winner_rng``."""
    return np.array([env_step(c[None], r[None], winner_rng)[0] for c, r in zip(choices, rewards)], dtype=np.int64)


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
    from oracles import best_subset_reward  # imported here: the oracles read the tally layout from this module

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
