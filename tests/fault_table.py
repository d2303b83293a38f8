"""Plant known faults one at a time and record which behavioural test kills each.

    python3 tests/fault_table.py

For each fault in ``FAULTS`` the script copies the repository to a
temporary directory, replaces one exact snippet of one source file, and
runs pytest there on every test file but ``tests/test_golden.py``.  The
engine's unit tests (``ENGINE_TESTS``) run first and in full, and a
fault that fails any of them is *killed* by every one that fails, so the
table names the tests that check what the fault breaks, not only the
first in file order, which may trip over a side effect (a zero count's
divide warning, say).  Only a fault that every engine test passes goes
on to ``pytest -x`` over the other unit tests and then
``tests/test_acceptance.py``, whose Monte Carlo runs last, and is killed
by the first test that fails there.  The golden digests are left out
because they catch every change in output, so they would hide whether
the behavioural tests still say what the engine means, and so is
``tests/test_fault_table.py``, which a planted copy fails by
construction, since it checks that every snippet is in the source.  A fault
*survives* when every test passes, and is *not planted* when its snippet
is no longer in the source, which fails the script rather than passing
silently.  The table is printed and appended to ``CHANGES.md`` as one
line, where a test with several failing cases appears once, as
``test`` ×cases, and each fault in ``UNIT_LEVEL`` is marked unit-level
by design: no acceptance criterion is meant to see it.

The file name does not match pytest's ``test_*.py`` pattern, so Tier-1
never collects it: each fault costs a full run of the suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
ENGINE_TESTS = ["test_env.py", "test_network.py", "test_policies.py", "test_runner.py"]
# Run in full first, then, up to the first failure, the other unit-test files
# in name order and the acceptance suite; no golden digests.
TEST_RUNS = (
    ([f"tests/{name}" for name in ENGINE_TESTS], []),
    ([f"tests/{path.name}" for path in sorted((ROOT / "tests").glob("test_*.py"))
      if path.name not in ("test_golden.py", "test_acceptance.py", "test_fault_table.py", *ENGINE_TESTS)]
     + ["tests/test_acceptance.py"], ["-x"]),
)


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    what: str


FAULTS = (
    Fault(
        "thompson_posterior", "src/gossip_bandits/policies.py",
        "np.add(self.outcomes, 1.0, out=self.shapes)", "np.add(self.outcomes.cumsum(axis=-1), 1.0, out=self.shapes)",
        "Thompson samples Beta(s + 1, s + f + 1), counts for failures, not Beta(s + 1, f + 1)",
    ),
    Fault(
        "thompson_shapes_swapped", "src/gossip_bandits/policies.py",
        "tallies.reshape(*tallies.shape[:-1], self.n_arms, 2, copy=False)",
        "tallies.reshape(*tallies.shape[:-1], self.n_arms, 2, copy=False)[..., ::-1]",
        "Thompson samples Beta(f + 1, s + 1): the two shapes swap places",
    ),
    Fault(
        "thompson_no_prior", "src/gossip_bandits/policies.py",
        "np.add(self.outcomes, 1.0, out=self.shapes)", "np.add(self.outcomes, 0.0, out=self.shapes)",
        "Thompson samples Beta(s, f): the uniform prior's + 1 is dropped",
    ),
    Fault(
        "winner_lowest_priority", "src/gossip_bandits/env.py",
        "        top = np.zeros(arm_rewards.size)  # priorities are >= 0\n"
        "        np.maximum.at(top, keys.ravel(), priority.ravel())  # raveled: ufunc.at's fast path\n"
        "        realized &= priority >= top[keys]\n",
        "        top = np.ones(arm_rewards.size)\n"
        "        np.minimum.at(top, keys.ravel(), priority.ravel())\n"
        "        realized &= priority <= top[keys]\n",
        "a collision goes to the lowest priority on the arm",
    ),
    Fault(
        "loser_keeps_realization", "src/gossip_bandits/env.py",
        "        realized &= priority >= top[keys]\n", "",
        "every player on a collided arm receives its realization",
    ),
    Fault(
        "priorities_every_turn", "src/gossip_bandits/env.py",
        "        priority = winner_rng.random(n_players) if len(set(choices.tolist())) < n_players else None\n"
        "    elif isinstance(winner_rng, Streams):  # a block turn: a collided episode draws from its own stream\n"
        "        collided = [len(set(arms)) < n_players for arms in choices.tolist()]\n",
        "        priority = winner_rng.random(n_players)\n"
        "    elif isinstance(winner_rng, Streams):\n"
        "        collided = [True] * len(choices)\n",
        "the priorities are drawn on every turn, with or without a collision",
    ),
    Fault(
        "argmax_first_tie", "src/gossip_bandits/policies.py",
        "    if True in tied.ravel().tolist():  # cheaper than ndarray.any() on a few rows\n",
        "    if False:\n",
        "argmax_rows always takes the first tied index",
    ),
    Fault(
        "carry_after_cumsum", "src/gossip_bandits/metrics.py",
        "    per_turn[:1] += start\n    return np.cumsum(per_turn, out=per_turn)\n",
        "    return np.cumsum(per_turn, out=per_turn) + start\n",
        "a block's carried totals are added after its cumsum",
    ),
    Fault(
        "occupancy_keys_without_turn", "src/gossip_bandits/metrics.py",
        "    occupied[choices + np.arange(0, rewards.size, rewards.shape[1])[:, None]] = True",
        "    occupied[choices] = True",
        "a block's occupancy mask marks every turn's arms in its first turn's row",
    ),
    Fault(
        "loss_counts_occupied_arms", "src/gossip_bandits/metrics.py",
        "        rewards.sum(axis=1) - reward,",
        "        rewards.sum(axis=1),",
        "loss counts the realizations of every arm, occupied ones too",
    ),
    Fault(
        "winner_lowest_index", "src/gossip_bandits/env.py",
        "    if priority is not None:\n",
        "    if priority is not None:\n"
        "        priority = np.where(priority > 0, np.linspace(1.0, 0.5, n_players), 0.0)\n",
        "a collision goes to the lowest-numbered player on the arm; the draw still happens",
    ),
    Fault(
        "no_self_report", "src/gossip_bandits/network.py",
        "    edges = np.ones((n_turns, pairs + 1), dtype=bool)  # the last column stays True for every self-report\n",
        "    edges = np.zeros((n_turns, pairs + 1), dtype=bool)\n",
        "a player does not hear its own report",
    ),
    Fault(
        "one_way_edges", "src/gossip_bandits/network.py",
        "    columns[first, second] = columns[second, first] = np.arange(pairs)\n",
        "    columns[first, second] = np.arange(pairs)\n",
        "a pair's edge sets only its reach entry above the diagonal; the one below reads the self-report column",
    ),
    Fault(
        "sweep_skipped", "src/gossip_bandits/policies.py",
        "            self.sweep = np.moveaxis(order, -1, 0)\n",
        "            self.sweep = np.moveaxis(order, -1, 0)[:0]\n",
        "the pull-each-arm-once sweep is skipped",
    ),
    Fault(
        "epsilon_decays_on_choose_only", "src/gossip_bandits/policies.py",
        "            arms = self.choose()\n"
        "        self.epsilon *= self.config.decay\n",
        "            arms = self.choose()\n"
        "            self.epsilon *= self.config.decay\n",
        "epsilon decays only on turns after the sweep",
    ),
    Fault(
        "mix_exponent_one_over_n", "src/gossip_bandits/policies.py",
        "    inv_root = mu ** (-1.0 / (n_players - 1))\n", "    inv_root = mu ** (-1.0 / n_players)\n",
        "the mixing probabilities use the exponent 1/N instead of 1/(N - 1)",
    ),
    Fault(
        "mean_floor_ignored", "src/gossip_bandits/policies.py",
        "np.maximum(self.successes / np.maximum(self.successes + self.failures, 1.0), config.mean_floor)",
        "self.successes / np.maximum(self.successes + self.failures, 1.0)",
        "asympopt does not clamp its observed means at mean_floor",
    ),
    Fault(
        "random_chunk_transposed", "src/gossip_bandits/policies.py",
        "self.rng.integers(self.n_arms, size=(limit, self.config.n_players))",
        "self.rng.integers(self.n_arms, size=(self.config.n_players, limit)).swapaxes(-1, -2)",
        "the random policy draws its turns (N, turns) and transposes them",
    ),
    Fault(
        "stretch_delivers_first_turn_only", "src/gossip_bandits/network.py",
        "    tallies += np.dot(reach.reshape(-1, n_players).T, reports.reshape(-1, width)) if tallies.ndim == 2 \\\n",
        "    tallies += np.dot(reach[0].T, reports[0]) if tallies.ndim == 2 \\\n",
        "a stretch delivers only its first turn's reports",
    ),
    Fault(
        "endpoint_stream_not_advanced", "src/gossip_bandits/network.py",
        "        rng.bit_generator.advance(n_turns * pairs)\n", "",
        "at alpha 0 or 1 the graph stream is not advanced over the uniforms it skips",
    ),
    Fault(
        "endpoint_alpha_one_reaches_nobody", "src/gossip_bandits/network.py",
        "np.ones((n_players, n_players), dtype=bool) if alpha == 1.0 else np.eye(n_players, dtype=bool)",
        "np.eye(n_players, dtype=bool)",
        "at alpha 1 no pair is connected, as at alpha 0",
    ),
    Fault(
        "endpoint_alpha_zero_deaf", "src/gossip_bandits/network.py",
        "else np.eye(n_players, dtype=bool)", "else np.zeros((n_players, n_players), dtype=bool)",
        "at alpha 0 a player does not hear even its own report",
    ),
    Fault(
        "constant_graph_first_turn_only", "src/gossip_bandits/network.py",
        "        sent = 2 * choices + realized + np.arange(",
        "        sent = (2 * choices + realized)[:1] + np.arange(",
        "a constant-graph stretch counts only its first turn's reports",
    ),
    Fault(
        "constant_graph_receiver_rows", "src/gossip_bandits/network.py",
        "        reach = reach[:1]\n", "        reach = reach[:1].transpose(0, 2, 1)\n",
        "a constant-graph stretch reads its graph in receiver rows, not sender rows",
    ),
    Fault(
        "one_turn_reads_receiver_rows", "src/gossip_bandits/network.py",
        "    tallies += np.dot(reach.reshape(-1, n_players).T, reports.reshape(-1, width)) if tallies.ndim == 2 \\\n",
        "    tallies += np.dot(reach if choices.ndim == 1 else reach.reshape(-1, n_players).T,\n"
        "                      reports.reshape(-1, width)) if tallies.ndim == 2 \\\n",
        "a row turn reads its reach matrix in receiver rows, not sender rows",
    ),
    Fault(
        "constant_graph_drawn_cap", "src/gossip_bandits/network.py",
        "    per_turn = 8 * (n_arms + 5 * n_players) if _one_graph(reach) else 16 * n_players * n_arms\n",
        "    per_turn = 16 * n_players * n_arms\n",
        "a constant-graph block is cut into stretches sized by report rows it never builds",
    ),
    Fault(
        "priorities_for_every_stretch_row", "src/gossip_bandits/env.py",
        "        priority = winner_rng.random((drawn, n_players)) if drawn else None\n"
        "        if 0 < drawn < len(keys):  # some turn of the stretch has no collision\n",
        "        priority = winner_rng.random((len(keys), n_players)) if drawn else None\n"
        "        if False:\n",
        "a stretch with a collision draws priorities for every one of its turns",
    ),
    Fault(
        "collision_rows_unsorted", "src/gossip_bandits/env.py",
        "        ranked = np.sort(choices, axis=1)\n",
        "        ranked = choices\n",
        "a stretch compares each turn's neighbouring players' arms without sorting them",
    ),
    Fault(
        "collision_rows_sorted_over_turns", "src/gossip_bandits/env.py",
        "        ranked = np.sort(choices, axis=1)\n",
        "        ranked = np.sort(choices, axis=0)\n",
        "a stretch sorts its arms down the turns, not along each turn, to find collisions",
    ),
    Fault(
        "block_shares_players_stream", "src/gossip_bandits/runner.py",
        "    heard, players, winners = (x[0] if len(seeds) == 1 else x for x in (tallies, player_rngs, winner_rngs))\n",
        "    player_rngs = Streams([player_rngs[0]] * len(seeds))\n"
        "    heard, players, winners = (x[0] if len(seeds) == 1 else x for x in (tallies, player_rngs, winner_rngs))\n",
        "every episode of a block draws from episode 0's players stream",
    ),
    Fault(
        "block_keys_without_episode", "src/gossip_bandits/env.py",
        "    keys = choices if choices.ndim == 1 else choices + np.arange(",
        "    keys = choices if choices.ndim == 1 or isinstance(winner_rng, Streams) else choices + np.arange(",
        "a block turn's collision keys drop the b*S offset: every episode is paid and collides on episode 0's arms",
    ),
    Fault(
        "paid_mask_on_a_copy", "src/gossip_bandits/env.py",
        "        realized &= priority >= top[keys]\n",
        "        paid = realized.ravel()\n"
        "        paid &= (priority >= top[keys]).ravel()\n",
        "the payout mask lands on ravel's copy of rewards that are not C-ordered: every collider is paid",
    ),
)

# Behavioural faults that only unit tests can see, by design: a tie broken
# towards the first arm and an ε that skips the sweep's decays change no
# statistic an acceptance criterion can resolve at its bounds, so the
# engine's unit tests are their only killers.
UNIT_LEVEL = ("argmax_first_tie", "epsilon_decays_on_choose_only")


def plant(fault: Fault, copy: Path) -> None:
    """Replace the fault's one snippet in ``copy``; raise if it is not there exactly once."""
    path = copy / fault.path
    text = path.read_text(encoding="utf-8")
    if text.count(fault.old) != 1:
        raise LookupError(f"{fault.name}: snippet found {text.count(fault.old)} times in {fault.path}")
    path.write_text(text.replace(fault.old, fault.new), encoding="utf-8")


def killers(fault: Fault) -> list[str]:
    """The ids of the tests that kill ``fault`` (see the module docstring); empty if all pass."""
    with tempfile.TemporaryDirectory(prefix=f"fault-{fault.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_out"))
        plant(fault, copy)
        for files, flags in TEST_RUNS:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *flags, "-q", "-rfE", "-p", "no:cacheprovider", *files],
                cwd=copy, env=dict(os.environ, PYTHONPATH="src"),
                capture_output=True, text=True, timeout=1800,
            )
            if proc.returncode == 0:
                continue
            # "FAILED <id> - <message>"; a parametrized id may hold spaces
            failed = [line.split(" ", 1)[1].split(" - ", 1)[0]
                      for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
            if not failed:
                raise RuntimeError(
                    f"{fault.name}: pytest exited {proc.returncode}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
            return failed
    return []


def credit(ids: list[str]) -> str:
    """The killers in short: a test with several failing cases once, as ``test`` ×cases."""
    cases: dict[str, list[str]] = {}
    for test_id in ids:
        cases.setdefault(test_id.partition("[")[0], []).append(test_id)
    return ", ".join(f"`{same[0]}`" if len(same) == 1 else f"`{test}` ×{len(same)}" for test, same in cases.items())


def main() -> int:
    rows = []
    for fault in FAULTS:
        ids = killers(fault)
        label = f"`{fault.name}`" + (" (unit-level by design)" if fault.name in UNIT_LEVEL else "")
        rows.append((label, ids))
        print(f"| {label} | {fault.what} | {credit(ids) if ids else 'SURVIVED'} |", flush=True)
    summary = "; ".join(f"{label} killed by {credit(ids)}" if ids else f"{label} SURVIVED" for label, ids in rows)
    with open(ROOT / "CHANGES.md", "a", encoding="utf-8") as changes:
        changes.write(f"- Fault table (`python3 tests/fault_table.py`, golden digests left out): {summary}.\n")
    return 1 if not all(ids for _, ids in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
