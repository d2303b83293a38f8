"""Seeded episode execution, Monte Carlo sweeps and result emission.

An episode's state is arrays, and it is played in blocks of turns so
that its memory does not grow with the horizon.  Each block draws its arm
realizations (turns, S) and graph reach matrices (turns, N, N), each from
its own substream of the episode seed, which carries on from the previous
block.  A block is ``BLOCK_BYTES`` of float64 uniforms, arm and graph
draws together, rounded down to whole turns.  The players share one
(N, 2S) tally matrix for the whole episode, of float64 whole-number
counts: row p holds ``[s_0, f_0, s_1, f_1, ...]``, the successes and
failures of each arm that player p has heard.  Delivering a turn is a
BLAS product (see ``network``); the reach matrices stay boolean.  There
are no per-player objects: one policy, built once per episode, reads the
whole matrix and returns every player's choices.  A learning rule plays one turn at a time, as a row:
its ``select()`` returns the (N,) arms, its sweep's next row or its
rule's choice, and the turn's realizations, reach matrix and arms go to
``env_step`` and ``disseminate`` as rows too, one call each per turn.
Only the random policy, whose arms read no tally, is played in
stretches of turns: it returns as many (k, N) turns as the runner asks
for, drawn for just those turns.  The runner sizes every stretch: it
never crosses a block and holds at most ``network.stretch_turns`` turns
of the block's reach, a cap sized by what the block's delivery path
builds.  ``env_step`` pays the stretch's realizations and
``disseminate`` adds every report of it to the tallies it reaches, one
call each per stretch.  The runner picks the loop from the policy it
built.
``episode_blocks`` yields each block's choices (turns, N) and
realizations (turns, S) with the live tallies (N, 2S).  The rewards the
players received go from ``env_step`` straight to ``disseminate`` and
are not kept; replaying ``env_step`` on the ``env-winners`` substream
rebuilds them.  ``run_episode`` hands each block, with the config's
means and the totals the previous block ended on, to
``metrics.build_run_record`` and keeps the values at the checkpoints
that fall inside it.  Results leave the runner as ``AggregateRecord``
rows, a ``NamedTuple`` in column order.

Determinism contract: an episode is a pure function of (config, alpha,
seed).  It draws from four named substreams of its seed: ``env-arms``
for the arm realizations, ``graph`` for the reach matrices,
``env-winners`` for the collision priorities and ``players`` for every
draw of every player.  The realizations and the graphs therefore do not
depend on the policy.  Nothing is drawn ahead of the turns that use it:
every substream draws exactly the values, in the same order, and ends in
exactly the state that a loop drawing one turn at a time would.  At
alpha 0 or 1, where no uniform decides an edge, the ``graph`` substream
is advanced over its uniforms, not drawn, and ends in the same state.  The
random policy's stretch is played as one: one row sort finds its
collided turns, which draw their priorities in turn order in one call,
and its reports are added to the tallies in one product.  All players
share one stream, so a player's choices depend on the other players'
draws.  Each repetition's seed comes from (``base_seed``, alpha index,
repetition), so an episode does not depend on ``repetitions`` either,
and a config with a given ``base_seed`` writes byte-identical CSV and
JSON whatever ``n_jobs`` is, because serial and pooled sweeps run the
same seeded episodes and aggregate them in task order.  Nor does output
depend on the block length: blocks draw the same uniforms as one
whole-episode draw, every per-turn reduction is row-wise, and each
running sum takes the carry as its first addend.  CSV and JSON digests
are pinned by ``tests/test_golden.py``.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence, get_type_hints

import numpy as np

from .config import ConfigError, ExperimentConfig, _is_int
from .env import draw_arm_rewards, env_step
from .metrics import RunRecord, build_run_record
from .network import disseminate, sample_reach, stretch_turns
from .policies import UniformRandomPolicy, make_policy
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

# Float64 uniforms one block of turns draws, arm and graph draws together:
# 6553 turns at N=5, S=10 and 609 at N=20, S=25.
BLOCK_BYTES = 1 << 20


def episode_seed(base_seed: int, alpha_index: int, repetition: int) -> int:
    """Stable per-episode seed from the sweep coordinates."""
    return derive_seed(base_seed, "episode", alpha_index, repetition)


def block_turns(config: ExperimentConfig) -> int:
    """Turns per block: ``BLOCK_BYTES`` of arm and graph uniforms, at least one turn."""
    n = config.n_players
    return max(1, BLOCK_BYTES // (8 * (config.n_arms + n * (n - 1) // 2)))


def episode_blocks(
    config: ExperimentConfig, alpha: float, seed: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Play the turns a block at a time; yield choices, realizations and the live tallies."""
    n_players, n_turns, block = config.n_players, config.turns, block_turns(config)
    arm_rng, graph_rng = substream(seed, "env-arms"), substream(seed, "graph")
    winner_rng = substream(seed, "env-winners")
    tallies = np.zeros((n_players, 2 * config.n_arms), dtype=np.float64)
    policy = make_policy(config, tallies, substream(seed, "players"))
    for first in range(0, n_turns, block):
        length = min(block, n_turns - first)
        rewards = draw_arm_rewards(config.means, length, arm_rng)
        reach = sample_reach(n_players, alpha, length, graph_rng)
        choices = np.empty((length, n_players), dtype=np.int64)
        if isinstance(policy, UniformRandomPolicy):  # its arms read no tally: whole stretches
            stretch = stretch_turns(reach, config.n_arms)  # bounds a stretch's working set
            t = 0
            while t < length:
                chosen = policy.select(min(length - t, stretch))
                end = t + len(chosen)
                choices[t:end] = chosen
                disseminate(tallies, reach[t:end], chosen, env_step(chosen, rewards[t:end], winner_rng))
                t = end
        else:
            for t in range(length):  # a learning rule plays its turns as rows
                arms = choices[t] = policy.select()
                disseminate(tallies, reach[t], arms, env_step(arms, rewards[t], winner_rng))
        yield choices, rewards, tallies
        del choices, rewards, reach  # gone before the next block is drawn


def run_episode(
    config: ExperimentConfig, alpha: float, seed: int, checkpoints: Sequence[int]
) -> RunRecord:
    """Play one episode; return its metric series at ``checkpoints`` (turns from 1)."""
    wanted = np.asarray(checkpoints, dtype=np.int64) - 1
    if not ((wanted >= 0) & (wanted < config.turns)).all():
        raise ValueError(f"checkpoints must lie in [1, {config.turns}], got {list(checkpoints)}")
    values = np.empty((len(RunRecord._fields), len(wanted)))
    totals, first = (0, 0, 0, 0), 0
    for choices, rewards, _ in episode_blocks(config, alpha, seed):
        record = build_run_record(choices, rewards, config.means, config.n_players, totals)
        inside = (wanted >= first) & (wanted < first + len(choices))
        for row, series in zip(values, record):
            row[inside] = series[wanted[inside] - first]
        totals = [series[-1] for series in record]
        first += len(choices)
        del choices, rewards, record  # gone before the next block is drawn
    return RunRecord(*values)


def _episode_rows(config: ExperimentConfig, checkpoints: Sequence[int], n_jobs: int) -> np.ndarray:
    """Every episode's checkpoint values, (alphas, repetitions, series, checkpoints)."""
    if not _is_int(n_jobs) or n_jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {n_jobs!r}")
    tasks = [
        (config, alpha, episode_seed(config.base_seed, alpha_index, repetition), tuple(checkpoints))
        for alpha_index, alpha in enumerate(config.alphas)
        for repetition in range(config.repetitions)
    ]
    workers = min(int(n_jobs), os.cpu_count() or 1, len(tasks))
    if workers > 1:
        # imported here: the pool machinery costs ~20 ms, an eighth of the package import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_episode, *zip(*tasks), chunksize=1))
    else:
        results = [run_episode(*task) for task in tasks]
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
