"""Plant known faults one at a time and record which behavioural test kills each.

    python3 tests/fault_table.py

For each fault in ``FAULTS`` the script copies the repository to a
temporary directory, replaces one exact snippet of one source file, and
runs ``pytest -x --ignore=tests/test_golden.py`` there.
The golden digests are left out because they catch every change in
output, so they would hide whether the behavioural tests still say what
the engine means.  A fault is *killed* by the first test that fails,
*survives* when the suite passes, and is *not planted* when its snippet
is no longer in the source, which fails the script rather than passing
silently.  The table is printed and appended to ``CHANGES.md`` as one
line.

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


class Fault(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    what: str


FAULTS = (
    Fault(
        "thompson_posterior", "src/gossip_bandits/policies.py",
        "self.rng.beta(successes + 1.0, self.counts - successes + 1.0)",
        "self.rng.beta(successes + 1.0, self.counts + 1.0)",
        "Thompson samples Beta(s + 1, counts + 1), not Beta(s + 1, failures + 1)",
    ),
    Fault(
        "winner_lowest_priority", "src/gossip_bandits/env.py",
        "        top = np.zeros(len(arm_rewards))  # priorities are >= 0\n"
        "        np.maximum.at(top, choices, priority)\n"
        "        realized &= priority >= top[choices]\n",
        "        top = np.ones(len(arm_rewards))\n"
        "        np.minimum.at(top, choices, priority)\n"
        "        realized &= priority <= top[choices]\n",
        "a collision goes to the lowest priority on the arm",
    ),
    Fault(
        "loser_keeps_realization", "src/gossip_bandits/env.py",
        "        realized &= priority >= top[choices]\n", "",
        "every player on a collided arm receives its realization",
    ),
    Fault(
        "priorities_every_turn", "src/gossip_bandits/env.py",
        "    if len(set(choices.tolist())) < len(choices):\n", "    if True:\n",
        "the priorities are drawn on every turn, with or without a collision",
    ),
    Fault(
        "argmax_first_tie", "src/gossip_bandits/policies.py",
        "    return np.where(tied, rng.random(tied.shape), -1.0).argmax(axis=1)\n",
        "    return best\n",
        "argmax_rows always takes the first tied index",
    ),
    Fault(
        "carry_after_cumsum", "src/gossip_bandits/metrics.py",
        "    per_turn[:1] += start\n    return np.cumsum(per_turn, out=per_turn)\n",
        "    return np.cumsum(per_turn, out=per_turn) + start\n",
        "a block's carried totals are added after its cumsum",
    ),
    Fault(
        "winner_lowest_index", "src/gossip_bandits/env.py",
        "        priority = winner_rng.random(len(choices))\n",
        "        winner_rng.random(len(choices))\n        priority = np.linspace(1.0, 0.0, len(choices))\n",
        "a collision goes to the lowest-numbered player on the arm; the draw still happens",
    ),
    Fault(
        "no_self_report", "src/gossip_bandits/network.py",
        "    reach[:, np.arange(n_players), np.arange(n_players)] = True\n", "",
        "a player does not hear its own report",
    ),
    Fault(
        "one_way_edges", "src/gossip_bandits/network.py",
        "    reach[:, second, first] = edges\n", "",
        "a graph edge carries reports one way only",
    ),
    Fault(
        "sweep_skipped", "src/gossip_bandits/policies.py",
        "            self.sweep = list(order.T[::-1])\n", "            self.sweep = []\n",
        "the pull-each-arm-once sweep is skipped",
    ),
    Fault(
        "epsilon_decays_on_choose_only", "src/gossip_bandits/policies.py",
        "        arms = self.sweep.pop() if self.sweep else self.choose()\n",
        "        if self.sweep:\n            return self.sweep.pop()\n        arms = self.choose()\n",
        "epsilon decays only on turns after the sweep",
    ),
    Fault(
        "mix_exponent_one_over_n", "src/gossip_bandits/policies.py",
        "    inv_root = mu ** (-1.0 / (n_players - 1))\n", "    inv_root = mu ** (-1.0 / n_players)\n",
        "the mixing probabilities use the exponent 1/N instead of 1/(N - 1)",
    ),
    Fault(
        "mean_floor_ignored", "src/gossip_bandits/policies.py",
        "np.maximum(self.successes / np.maximum(self.counts, 1), config.mean_floor)",
        "self.successes / np.maximum(self.counts, 1)",
        "asympopt does not clamp its observed means at mean_floor",
    ),
)


def plant(fault: Fault, copy: Path) -> None:
    """Replace the fault's one snippet in ``copy``; raise if it is not there exactly once."""
    path = copy / fault.path
    text = path.read_text(encoding="utf-8")
    if text.count(fault.old) != 1:
        raise LookupError(f"{fault.name}: snippet found {text.count(fault.old)} times in {fault.path}")
    path.write_text(text.replace(fault.old, fault.new), encoding="utf-8")


def first_failure(fault: Fault) -> str | None:
    """The id of the first test that fails with ``fault`` planted, or None if all pass."""
    with tempfile.TemporaryDirectory(prefix=f"fault-{fault.name}-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".bench_out"))
        plant(fault, copy)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
             "--ignore=tests/test_golden.py"],
            cwd=copy, env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True, timeout=1800,
        )
    if proc.returncode == 0:
        return None
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    raise RuntimeError(f"{fault.name}: pytest exited {proc.returncode}:\n{proc.stdout[-3000:]}{proc.stderr[-3000:]}")


def main() -> int:
    rows = []
    for fault in FAULTS:
        killer = first_failure(fault)
        rows.append((fault, killer))
        print(f"| `{fault.name}` | {fault.what} | {f'`{killer}`' if killer else 'SURVIVED'} |", flush=True)
    summary = "; ".join(
        f"`{fault.name}` killed by `{killer}`" if killer else f"`{fault.name}` SURVIVED"
        for fault, killer in rows
    )
    with open(ROOT / "CHANGES.md", "a", encoding="utf-8") as changes:
        changes.write(f"- Fault table (`python3 tests/fault_table.py`, golden digests left out): {summary}.\n")
    return 1 if any(killer is None for _, killer in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
