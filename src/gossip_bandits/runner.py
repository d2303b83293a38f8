"""Seeded episode execution, Monte Carlo sweeps and result emission.

An episode's state is arrays.  Its arm realizations (turns, S) and graph
reach matrices (turns, N, N) are drawn up front, each from its own
substream of the episode seed, and the players share one (N, 2S) tally
matrix.  There are no per-player objects: one policy, built once per
episode, reads the whole matrix and returns every player's choice each
turn.  ``env_step`` pays the turn's realizations and ``disseminate`` adds
every report to the tallies it reaches.  ``simulate_episode`` returns
the episode as three plain arrays: choices (turns, N), realizations
(turns, S) and the final tallies (N, 2S).  The rewards the players
received go from ``env_step`` straight to ``disseminate`` and are not
kept; replaying ``env_step`` on the ``env-winners`` substream rebuilds
them.  ``run_episode`` hands the choices and realizations, with the
config's means, to ``metrics.build_run_record``.  Results leave the
runner as ``AggregateRecord`` rows, a ``NamedTuple`` in column order.

Determinism contract: an episode is a pure function of (config, alpha,
seed).  It draws from four named substreams of its seed: ``env-arms``
for the arm realizations, ``graph`` for the reach matrices,
``env-winners`` for the collision priorities and ``players`` for every
draw of every player.  The realizations and the graphs therefore do not
depend on the policy.  All players share one stream, so a player's
choices depend on the other players' draws.  Each repetition's seed
comes from (``base_seed``, alpha index, repetition), so an episode does
not depend on ``repetitions`` either, and a config with a given
``base_seed`` writes byte-identical CSV and JSON whatever ``n_jobs`` is,
because serial and pooled sweeps run the same seeded episodes and
aggregate them in task order.  CSV and JSON digests are pinned by
``tests/test_golden.py``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, get_type_hints

import numpy as np

from .config import ConfigError, ExperimentConfig, _is_int
from .env import draw_arm_rewards, env_step
from .metrics import RunRecord, build_run_record
from .network import disseminate, sample_reach
from .policies import make_policy
from .rng import derive_seed, substream


class AggregateRecord(NamedTuple):
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


CSV_COLUMNS = AggregateRecord._fields
_FIELD_TYPES = get_type_hints(AggregateRecord)


def episode_seed(base_seed: int, alpha_index: int, repetition: int) -> int:
    """Stable per-episode seed from the sweep coordinates."""
    return derive_seed(base_seed, "episode", alpha_index, repetition)


def run_episode(config: ExperimentConfig, alpha: float, seed: int) -> RunRecord:
    """Play one full episode and return its metric series."""
    choices, rewards, _ = simulate_episode(config, alpha, seed)
    return build_run_record(choices, rewards, config.means, config.n_players)


def simulate_episode(
    config: ExperimentConfig, alpha: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play the turns; return choices, realizations and the final tallies."""
    n_players, n_arms, n_turns = config.n_players, config.n_arms, config.turns
    rewards = draw_arm_rewards(config.means, n_turns, substream(seed, "env-arms"))
    reach = sample_reach(n_players, alpha, n_turns, substream(seed, "graph"))
    winner_rng = substream(seed, "env-winners")
    tallies = np.zeros((n_players, 2 * n_arms), dtype=np.int64)
    policy = make_policy(config, tallies, substream(seed, "players"))

    choices = np.empty((n_turns, n_players), dtype=np.int64)
    for t in range(n_turns):
        chosen = policy.select()
        choices[t] = chosen
        disseminate(tallies, reach[t], chosen, env_step(chosen, rewards[t], winner_rng))

    return choices, rewards, tallies


def _episode_checkpoints(args: tuple) -> np.ndarray:
    """Worker: run one episode, return its (series, n_checkpoints) ``RunRecord`` values.

    Module-level so process pools can pickle it.
    """
    config, alpha_index, repetition, checkpoints = args
    seed = episode_seed(config.base_seed, alpha_index, repetition)
    record = run_episode(config, config.alphas[alpha_index], seed)
    return np.asarray(record, dtype=float)[:, np.asarray(checkpoints, dtype=np.int64) - 1]


def _episode_rows(config: ExperimentConfig, checkpoints: Sequence[int], n_jobs: int) -> np.ndarray:
    """Every episode's checkpoint values, (alphas, repetitions, series, checkpoints)."""
    if not _is_int(n_jobs) or n_jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {n_jobs!r}")
    tasks = [
        (config, alpha_index, repetition, tuple(checkpoints))
        for alpha_index in range(len(config.alphas))
        for repetition in range(config.repetitions)
    ]
    workers = min(int(n_jobs), os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # imported here: the pool machinery costs ~20 ms, an eighth of the package import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_episode_checkpoints, tasks, chunksize=1))
    else:
        results = [_episode_checkpoints(task) for task in tasks]
    # map keeps task order
    return np.reshape(results, (len(config.alphas), config.repetitions, len(RunRecord._fields), -1))


def _aggregate(
    config: ExperimentConfig, checkpoints: Sequence[int], n_jobs: int
) -> list[AggregateRecord]:
    """Reduce ``_episode_rows`` over repetitions into one record per (alpha, checkpoint)."""
    rows = _episode_rows(config, checkpoints, n_jobs)
    means, stds = rows.mean(axis=1), rows.std(axis=1)
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


def default_checkpoints(turns: int) -> tuple[int, ...]:
    """Ten evenly spaced measurement turns ending at the horizon; every turn if ``turns`` < 10."""
    return tuple(sorted({max(1, round(turns * i / 10)) for i in range(1, 11)}))


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
    writer.writerows([_format_field(value) for value in record] for record in records)
    return buffer.getvalue()


def _render_json(records: Iterable[AggregateRecord], config: ExperimentConfig | None) -> str:
    # each field's CSV text, read back as its declared type
    rows = [
        {col: _FIELD_TYPES[col](_format_field(value)) for col, value in zip(CSV_COLUMNS, record)}
        for record in records
    ]
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
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc
