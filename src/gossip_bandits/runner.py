"""Seeded episode execution, Monte Carlo sweeps and result emission.

An episode's state is arrays.  Its arm realizations (turns, S) and graph
reach matrices (turns, N, N) are drawn up front, each from its own
substream of the episode seed, and the players share one (N, 2S) tally
matrix of which each policy reads its own row.  Each turn every player
selects an arm, ``env_step`` pays the turn's realizations and
``disseminate`` adds every report to the tallies it reaches.  The history
is three preallocated arrays: choices (turns, N), realizations (turns, S)
and received rewards (turns, N).

Determinism contract: an episode is a pure function of (config, alpha,
seed), and a config with a given ``base_seed`` writes byte-identical CSV
and JSON whatever ``n_jobs`` is, because serial and pooled sweeps run the
same seeded episodes and aggregate them in task order.  The CSV digests
are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig
from .env import ArmSet, draw_arm_rewards, env_step
from .metrics import GameHistory, RunRecord, build_run_record
from .network import disseminate, sample_reach
from .policies import make_policy
from .rng import derive_seed, substream

@dataclass(frozen=True)
class AggregateRecord:
    """Metric means/stds over repetitions at one (algorithm, alpha, turn).

    The ``*_std`` fields are population standard deviations (ddof=0); the
    acceptance tests compute their standard errors with ddof=1.
    """

    algorithm: str
    alpha: float
    turn: int
    repetitions: int
    regret_occupancy_mean: float
    regret_occupancy_std: float
    regret_literal_mean: float
    regret_literal_std: float
    reward_mean: float
    loss_mean: float
    seed_base: int


CSV_COLUMNS = tuple(f.name for f in fields(AggregateRecord))


def episode_seed(base_seed: int, alpha_index: int, repetition: int) -> int:
    """Stable per-episode seed from the sweep coordinates."""
    return derive_seed(base_seed, "episode", alpha_index, repetition)


def run_episode(config: ExperimentConfig, alpha: float, seed: int) -> RunRecord:
    """Play one full episode and return its metric series."""
    record, _ = run_episode_with_history(config, alpha, seed)
    return record


def run_episode_with_history(
    config: ExperimentConfig, alpha: float, seed: int
) -> tuple[RunRecord, GameHistory]:
    """As ``run_episode`` but also return the raw turn-by-turn history."""
    history, _ = simulate_episode(config, alpha, seed)
    metadata = dict(config.echo(), alpha=alpha, seed=seed)
    return build_run_record(history, metadata), history


def simulate_episode(
    config: ExperimentConfig, alpha: float, seed: int
) -> tuple[GameHistory, np.ndarray]:
    """Play the turns; return the history and the final (N, 2S) tallies."""
    arms = ArmSet(config.means)
    n_players, n_arms, n_turns = config.n_players, arms.n_arms, config.turns
    rewards = draw_arm_rewards(arms, n_turns, substream(seed, "env-arms"))
    reach = sample_reach(n_players, alpha, n_turns, substream(seed, "graph"))
    winner_rng = substream(seed, "env-winners")
    tallies = np.zeros((n_players, 2 * n_arms), dtype=np.int64)
    players = [
        make_policy(
            config.algorithm,
            tallies[p, :n_arms],
            tallies[p, n_arms:],
            n_players,
            substream(seed, "player", p),
            epsilon=config.epsilon0,
            decay=config.decay,
            mean_floor=config.mean_floor,
            init_order=config.init_order,
        )
        for p in range(n_players)
    ]

    choices = np.empty((n_turns, n_players), dtype=np.int64)
    realized = np.empty((n_turns, n_players), dtype=np.int64)
    for t in range(n_turns):
        chosen = [player.select() for player in players]
        choices[t] = chosen
        realized[t] = env_step(chosen, rewards[t].tolist(), winner_rng)
        disseminate(tallies, reach[t], choices[t], realized[t])

    return GameHistory(choices, rewards, realized, arms), tallies


def _episode_checkpoints(args: tuple) -> np.ndarray:
    """Worker: run one episode, return its metric values at the checkpoints.

    Module-level so process pools can pickle it; returns a
    (4, n_checkpoints) array of occupancy and literal regret, reward, loss.
    """
    config, alpha_index, alpha, repetition, checkpoints = args
    record = run_episode(config, alpha, episode_seed(config.base_seed, alpha_index, repetition))
    idx = np.asarray(checkpoints, dtype=np.int64) - 1
    return np.stack(
        [
            record.regret_occupancy[idx],
            record.regret_literal[idx],
            record.cumulative_reward[idx].astype(float),
            record.cumulative_loss[idx].astype(float),
        ]
    )


def _aggregate(
    config: ExperimentConfig,
    checkpoints: Sequence[int],
    n_jobs: int,
) -> list[AggregateRecord]:
    if isinstance(n_jobs, bool) or not isinstance(n_jobs, int) or n_jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {n_jobs!r}")
    tasks = [
        (config, alpha_index, alpha, repetition, tuple(checkpoints))
        for alpha_index, alpha in enumerate(config.alphas)
        for repetition in range(config.repetitions)
    ]
    workers = min(n_jobs, os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # imported here: the pool machinery costs ~20 ms, an eighth of the package import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_episode_checkpoints, tasks, chunksize=1))
    else:
        results = [_episode_checkpoints(task) for task in tasks]

    # map keeps task order: (alphas, repetitions, metrics, checkpoints)
    stacked = np.reshape(results, (len(config.alphas), config.repetitions, 4, len(checkpoints)))
    means = stacked.mean(axis=1)
    stds = stacked.std(axis=1)
    # per (alpha, checkpoint), in field order: occ mean/std, lit mean/std, reward, loss
    stats = np.stack([means[:, 0], stds[:, 0], means[:, 1], stds[:, 1], means[:, 2], means[:, 3]], -1)
    return [
        AggregateRecord(
            config.algorithm, alpha, int(turn), config.repetitions,
            *map(float, stats[alpha_index, c]), config.base_seed,
        )
        for alpha_index, alpha in enumerate(config.alphas)
        for c, turn in enumerate(checkpoints)
    ]


def sweep_alpha(config: ExperimentConfig, n_jobs: int = 1) -> list[AggregateRecord]:
    """Run every (alpha, repetition) episode and aggregate final-turn metrics."""
    return _aggregate(config, [config.turns], n_jobs)


def default_checkpoints(turns: int, n_points: int = 10) -> tuple[int, ...]:
    """Evenly spaced measurement turns ending at the horizon."""
    n_points = min(n_points, turns)
    return tuple(sorted({round(turns * (i + 1) / n_points) for i in range(n_points)}))


def regret_vs_turns(config: ExperimentConfig, n_jobs: int = 1) -> list[AggregateRecord]:
    """Aggregate both regret variants at each checkpoint across repetitions."""
    checkpoints = config.checkpoints or default_checkpoints(config.turns)
    return _aggregate(config, checkpoints, n_jobs)


def _format_field(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.6g}"


def _render_csv(records: Iterable[AggregateRecord]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow([_format_field(getattr(record, col)) for col in CSV_COLUMNS])
    return buffer.getvalue()


def _render_json(records: Iterable[AggregateRecord], config: ExperimentConfig | None) -> str:
    rows = []
    for record in records:
        row = {}
        for col in CSV_COLUMNS:
            value = getattr(record, col)
            if isinstance(value, str):
                row[col] = value
            elif isinstance(value, (int, np.integer)):
                row[col] = int(value)
            else:
                row[col] = float(f"{value:.6g}")
        rows.append(row)
    payload: dict = {"records": rows}
    if config is not None:
        payload["config"] = config.echo()
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_results(
    records: Sequence[AggregateRecord],
    out_format: str,
    path: str | Path | None,
    config: ExperimentConfig | None = None,
) -> None:
    """Write aggregates as CSV or JSON; ``path=None`` prints to stdout.

    Output is byte-deterministic for identical records (fixed column
    order, 6-significant-digit floats, ``\\n`` newlines).
    """
    if not records:
        raise ValueError("no records to emit")
    if out_format == "csv":
        text = _render_csv(records)
    elif out_format == "json":
        text = _render_json(records, config)
    else:
        raise ValueError(f"unknown format {out_format!r}, expected csv or json")
    if path is None:
        sys.stdout.write(text)
        return
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
