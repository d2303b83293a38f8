"""Seeded episode execution, Monte Carlo sweeps and result emission.

A sweep's episodes are played side by side, in lockstep blocks: B
episodes of one config, at their own alphas and seeds, take each turn
together.  An episode's state is arrays, and a block plays its turns in
blocks of turns so that its memory does not grow with the horizon.  Each
block of turns draws every episode's arm realizations (turns, S) and
graph reach matrices (turns, N, N), each from that episode's own
substream, which carries on from the previous block.  One episode's
block of turns is ``BLOCK_BYTES`` of float64 uniforms, arm and graph
draws together, rounded down to whole turns; a block of B episodes
plays a B-th of it (``block_turns``), so all B episodes' draws together
stay within ``BLOCK_BYTES``.  Each episode's players share one (N, 2S)
tally matrix, row b of the block's (B, N, 2S) tallies, of float64
whole-number counts: row p holds ``[s_0, f_0, s_1, f_1, ...]``, the
successes and failures of each arm that player p has heard.
Delivering a turn is a BLAS product (see ``network``); the reach
matrices stay boolean.  There are no per-player objects: one policy,
built once per block over the whole tally array and the block's
``rng.Streams``, returns every episode's every player's choices.

A learning rule plays one turn of every episode at a time: its
``select()`` returns the (B, N) arms, and the turn's (B, S)
realizations, (B, N, N) reach and arms go to ``env_step`` and
``disseminate``, one call each per turn for the whole block.  The
arithmetic is batched over the episodes; only the draws loop over them,
each episode drawing from its own streams.  A lone episode, B = 1, is
played in rows, as the kernels' (N,) arms, (S,) realizations, (N, N)
reach and (N, 2S) tallies, which skip the batch's bookkeeping.  Only the
random policy, whose arms read no tally, is played in stretches of
turns: it returns as many turns of each episode as the runner asks for,
drawn for just those turns, and each episode's stretch goes to
``env_step`` and ``disseminate`` on its own.  The runner sizes every
stretch: it never crosses a block and holds at most
``network.stretch_turns`` turns of any of the block's reach, a cap sized
by what the delivery path builds.  The runner picks the loop from the
policy it built.  ``episode_blocks`` yields each block's choices
(turns, B, N) and realizations (turns, B, S) with the live tallies
(B, N, 2S).  The rewards the players received go from ``env_step``
straight to ``disseminate`` and are not kept; replaying ``env_step`` on
the ``env-winners`` substream rebuilds them.  ``run_episode`` hands each
episode's share of each block, with the config's means and the totals
the previous block ended on, to ``metrics.build_run_record`` and keeps
the values at the checkpoints that fall inside it.  A sweep cuts its
tasks, in task order, into one contiguous run per worker, each run into
blocks that keep at least ``BLOCK_MIN_TURNS`` turns, and the pool maps
``run_episode`` over the blocks.  The random policy gains nothing from
a block, and a sweep plays its episodes alone.  Results leave the runner
as ``AggregateRecord`` rows, a ``NamedTuple`` in column order.

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
of an episode share one stream, so a player's choices depend on the
other players' draws.  Nor does an episode depend on which episodes
share its block, or how many: each draws only from its own substreams,
its keys, tallies and reports are its own rows of the block's arrays,
and every batched reduction is row-wise.  Each repetition's seed comes
from (``base_seed``, alpha index, repetition), so an episode does not
depend on ``repetitions`` either, and a config with a given
``base_seed`` writes byte-identical CSV and JSON whatever ``n_jobs`` is,
because serial and pooled sweeps run the same seeded episodes and
aggregate them in task order.  Nor does output depend on the block
length: blocks draw the same uniforms as one whole-episode draw, every
per-turn reduction is row-wise, and each running sum takes the carry as
its first addend.  CSV and JSON digests are pinned by
``tests/test_golden.py``.
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
from .rng import Streams, derive_seed, substream


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

# Float64 uniforms one block of turns draws, arm and graph draws of all its
# episodes together: 6553 turns of one episode at N=5, S=10 and 609 at N=20, S=25.
BLOCK_BYTES = 1 << 20
# Fewest turns per block that a sweep's lockstep blocks keep, which caps a block
# at 102 episodes at N=5, S=10 and 9 at N=20, S=25: a shorter block pays each
# episode's draws and metrics call more often than the batched turn saves.
BLOCK_MIN_TURNS = 64


def episode_seed(base_seed: int, alpha_index: int, repetition: int) -> int:
    """Stable per-episode seed from the sweep coordinates."""
    return derive_seed(base_seed, "episode", alpha_index, repetition)


def block_turns(config: ExperimentConfig, n_episodes: int = 1) -> int:
    """Turns per block of ``n_episodes`` lockstep episodes, at least one.

    One episode's block is ``BLOCK_BYTES`` of arm and graph uniforms; a
    block of B episodes plays a B-th of it, rounded down.
    """
    n = config.n_players
    return max(1, BLOCK_BYTES // (8 * (config.n_arms + n * (n - 1) // 2)) // n_episodes)


def episode_blocks(
    config: ExperimentConfig, alphas: Sequence[float], seeds: Sequence[int]
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Play the B episodes (``alphas[b]``, ``seeds[b]``) in lockstep, a block of turns at a time.

    Yields each block's choices (turns, B, N) and realizations (turns, B, S)
    with the live tallies (B, N, 2S), episode b in row b of each.
    """
    n_players, n_turns, block = config.n_players, config.turns, block_turns(config, len(seeds))
    arm_rngs, graph_rngs, winner_rngs, player_rngs = (
        Streams(substream(seed, tag) for seed in seeds) for tag in ("env-arms", "graph", "env-winners", "players"))
    tallies = np.zeros((len(seeds), n_players, 2 * config.n_arms), dtype=np.float64)
    # a lone episode is played in rows, with no episode axis
    heard, players, winners = (x[0] if len(seeds) == 1 else x for x in (tallies, player_rngs, winner_rngs))
    policy = make_policy(config, heard, players)
    for first in range(0, n_turns, block):
        length = min(block, n_turns - first)
        rewards = np.stack([draw_arm_rewards(config.means, length, rng) for rng in arm_rngs], axis=1)
        reach = [sample_reach(n_players, alpha, length, rng) for alpha, rng in zip(alphas, graph_rngs)]
        choices = np.empty((length, len(seeds), n_players), dtype=np.int64)
        if isinstance(policy, UniformRandomPolicy):  # its arms read no tally: each episode's stretches
            stretch = min(stretch_turns(graphs, config.n_arms) for graphs in reach)  # bounds a stretch's working set
            for t in range(0, length, stretch):
                span = slice(t, t + stretch)  # the last stretch ends with the block
                for b, arms in enumerate(policy.select(min(length - t, stretch)).reshape(len(seeds), -1, n_players)):
                    choices[span, b] = arms
                    disseminate(tallies[b], reach[b][span], arms, env_step(arms, rewards[span, b], winner_rngs[b]))
        else:  # a learning rule plays one turn of every episode at a time
            reach = reach[0] if len(seeds) == 1 else np.stack(reach, axis=1)
            played, paid = (x[:, 0] if len(seeds) == 1 else x for x in (choices, rewards))
            for t in range(length):
                arms = played[t] = policy.select()
                disseminate(heard, reach[t], arms, env_step(arms, paid[t], winners))
            del played, paid  # they hold the block: gone with it
        yield choices, rewards, tallies
        del choices, rewards, reach  # gone before the next block is drawn


def run_episode(
    config: ExperimentConfig, alphas: Sequence[float], seeds: Sequence[int], checkpoints: Sequence[int]
) -> list[RunRecord]:
    """Play the episodes (``alphas[b]``, ``seeds[b]``) in one lockstep block.

    Returns each episode's metric series at ``checkpoints`` (turns from 1),
    in episode order.  A record does not depend on which episodes share
    its block: ``run_episode(config, [alpha], [seed], checkpoints)`` plays
    one episode alone and returns the same record.
    """
    wanted = np.asarray(checkpoints, dtype=np.int64) - 1
    if not ((wanted >= 0) & (wanted < config.turns)).all():
        raise ValueError(f"checkpoints must lie in [1, {config.turns}], got {list(checkpoints)}")
    values = np.empty((len(seeds), len(RunRecord._fields), len(wanted)))
    totals, first = [(0, 0, 0, 0)] * len(seeds), 0
    for choices, rewards, _ in episode_blocks(config, alphas, seeds):
        inside = (wanted >= first) & (wanted < first + len(choices))
        for b, episode in enumerate(values):
            record = build_run_record(choices[:, b], rewards[:, b], config.means, config.n_players, totals[b])
            for row, series in zip(episode, record):
                row[inside] = series[wanted[inside] - first]
            totals[b] = [series[-1] for series in record]
        first += len(choices)
        del choices, rewards, record  # gone before the next block is drawn
    return [RunRecord(*episode) for episode in values]


def _episode_rows(config: ExperimentConfig, checkpoints: Sequence[int], n_jobs: int) -> np.ndarray:
    """Every episode's checkpoint values, (alphas, repetitions, series, checkpoints)."""
    if not _is_int(n_jobs) or n_jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {n_jobs!r}")
    tasks = [(alpha, episode_seed(config.base_seed, alpha_index, repetition))
             for alpha_index, alpha in enumerate(config.alphas) for repetition in range(config.repetitions)]
    workers = min(int(n_jobs), os.cpu_count() or 1, len(tasks))
    # blocks of consecutive tasks, in task order: at most one worker's share, and few enough
    # episodes to keep BLOCK_MIN_TURNS turns; the random policy gains nothing from a block
    most = 1 if config.algorithm == "random" else max(1, block_turns(config) // BLOCK_MIN_TURNS)
    size = min(-(-len(tasks) // workers), most)
    blocks = [(config, *zip(*tasks[i:i + size]), tuple(checkpoints)) for i in range(0, len(tasks), size)]
    if workers > 1:
        # imported here: the pool machinery costs ~20 ms, an eighth of the package import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_episode, *zip(*blocks), chunksize=1))
    else:
        results = [run_episode(*block) for block in blocks]
    # map keeps task order
    records = [record for block in results for record in block]
    return np.reshape(records, (len(config.alphas), config.repetitions, len(RunRecord._fields), -1))


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
