"""Benchmark workloads: seeded configs, entry points and output checks.

Each workload stresses a different layer of one turn, so a change to one
layer shows on one workload and is predicted to leave another alone:

* ``sweep_thompson`` -- the paper's regret-vs-connectivity experiment.
  Thompson's NumPy Beta draws in ``policies.select`` take most of a turn.
* ``gossip_dense`` -- the uniform random policy with N=20 at alpha=1.
  Selection is nearly free while every turn delivers N^2 reports, so
  ``policies.observe`` and ``network`` dominate.
* ``long_horizon`` -- one 100 000-turn asympopt episode at alpha=0.  The
  episode history dominates peak memory, and asympopt's scalar
  closed-form select is a second selection path next to Thompson's.

The package only ever sees the generated ``ExperimentConfig`` dict; the
workload seed is consumed here.  Arm means are written out rather than
imported so the inputs do not move when the package's constants do.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPREAD_MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)
CLUSTERED_MEANS = (0.7, 0.68, 0.66, 0.64, 0.62, 0.4, 0.38, 0.36, 0.34, 0.32)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Half-width of every statistical band, in standard errors.  Wide enough
# that a correct engine drawing from different random streams passes;
# narrow enough that a broken layer (zeroed payouts, no learning) fails.
BAND_Z = 6.0


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "sweep_alpha" or "regret_vs_turns"
    why: str
    config: dict  # everything but base_seed (and drawn means)
    # When set, the seed draws this many arm means uniformly in [0.05, 0.95].
    drawn_arms: int = 0
    # Regret at the largest alpha must exceed regret at the smallest.
    regret_grows_with_alpha: bool = False

    def config_dict(self, seed: int, turns: int | None = None) -> dict:
        """The package-facing config for one workload seed."""
        cfg = dict(self.config, base_seed=int(seed))
        if self.drawn_arms:
            rng = np.random.default_rng([int(seed), self.drawn_arms])
            cfg["means"] = [round(float(m), 4) for m in rng.uniform(0.05, 0.95, self.drawn_arms)]
        if turns is not None:
            cfg["turns"] = int(turns)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_thompson",
            entry="sweep_alpha",
            why="paper's regret-vs-connectivity sweep; Thompson's select dominates the turn",
            config=dict(algorithm="thompson", means=list(SPREAD_MEANS), n_players=5,
                        alphas=[0.0, 0.5, 1.0], turns=5000, repetitions=1),
            regret_grows_with_alpha=True,
        ),
        Workload(
            name="gossip_dense",
            entry="sweep_alpha",
            why="random policy, N=20 at alpha=1: select is cheap, N^2 reports per turn make observe and network dominate",
            config=dict(algorithm="random", n_players=20, alphas=[1.0], turns=5000, repetitions=1),
            drawn_arms=25,
        ),
        Workload(
            name="long_horizon",
            entry="regret_vs_turns",
            why="one 100k-turn asympopt episode at alpha=0: history memory sets peak RSS; scalar select path",
            config=dict(algorithm="asympopt", means=list(CLUSTERED_MEANS), n_players=5,
                        alphas=[0.0], turns=100_000, repetitions=1),
        ),
    )
}


def load_reference() -> dict:
    """Per-workload Monte Carlo regret references, keyed by workload name."""
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["workloads"]


def random_policy_regret(means, n_players: int, turns: int) -> tuple[float, float]:
    """Closed-form mean and sd of one episode's occupancy regret under uniform play.

    Each arm is left unoccupied with probability q = (1-1/S)^N and a pair
    of arms with probability (1-2/S)^N; turns are independent.
    """
    mu = np.asarray(means, dtype=float)
    s = len(mu)
    q = (1.0 - 1.0 / s) ** n_players
    q2 = (1.0 - 2.0 / s) ** n_players
    best = math.fsum(sorted(mu, reverse=True)[:n_players])
    per_turn = best - float(mu.sum()) * (1.0 - q)
    cov = np.full((s, s), q2 - q * q)
    np.fill_diagonal(cov, q * (1.0 - q))
    return turns * per_turn, math.sqrt(turns * float(mu @ cov @ mu))


def regret_band(workload: Workload, cfg: dict, alpha: float, reference: dict):
    """(centre, half-width) for the final mean occupancy regret, or None.

    Random play has a closed form.  Other workloads use the Monte Carlo
    reference in ``reference.json``, which only holds at its own horizon.
    """
    reps = cfg["repetitions"]
    if cfg["algorithm"] == "random":
        mean, sd = random_policy_regret(cfg["means"], cfg["n_players"], cfg["turns"])
        return mean, BAND_Z * sd / math.sqrt(reps)
    ref = reference.get(workload.name)
    if ref is None or ref["turns"] != cfg["turns"]:
        return None
    row = ref["alphas"][repr(float(alpha))]
    se = row["sd"] * math.sqrt(1.0 / reps + 1.0 / ref["episodes"])
    return row["mean"], BAND_Z * se


def check_records(workload: Workload, cfg: dict, records, reference: dict) -> list[str]:
    """Output checks on one entry-point result; returns the problems found.

    * every aggregate is finite;
    * at the horizon, reward + loss (every arm realization, pulled or not)
      lies in its closed-form band T * sum(mu) +- z * sd;
    * the mean final occupancy regret lies in its reference band;
    * on the connectivity sweep, regret at the top alpha exceeds regret
      at the bottom alpha.
    """
    problems = []
    numeric = ("regret_occupancy_mean", "regret_occupancy_std", "regret_literal_mean",
               "regret_literal_std", "reward_mean", "loss_mean")
    for rec in records:
        bad = [f for f in numeric if not math.isfinite(getattr(rec, f))]
        if bad:
            problems.append(f"non-finite {bad} at alpha={rec.alpha} turn={rec.turn}")

    turns, reps = cfg["turns"], cfg["repetitions"]
    mu = np.asarray(cfg["means"], dtype=float)
    realized_mean = turns * float(mu.sum())
    realized_half = BAND_Z * math.sqrt(turns * float((mu * (1 - mu)).sum()) / reps)
    final = {float(r.alpha): r for r in records if r.turn == turns}
    if sorted(final) != sorted(float(a) for a in cfg["alphas"]):
        problems.append(f"final-turn records cover alphas {sorted(final)}, expected {cfg['alphas']}")
        return problems
    for alpha, rec in final.items():
        realized = rec.reward_mean + rec.loss_mean
        if not abs(realized - realized_mean) <= realized_half:
            problems.append(f"alpha={alpha}: reward+loss {realized:.1f} outside "
                            f"{realized_mean:.1f} +- {realized_half:.1f}")
        band = regret_band(workload, cfg, alpha, reference)
        if band is not None and not abs(rec.regret_occupancy_mean - band[0]) <= band[1]:
            problems.append(f"alpha={alpha}: regret {rec.regret_occupancy_mean:.1f} outside "
                            f"{band[0]:.1f} +- {band[1]:.1f}")
    if workload.regret_grows_with_alpha:
        lo, hi = final[min(final)], final[max(final)]
        if not hi.regret_occupancy_mean > lo.regret_occupancy_mean:
            problems.append(f"regret at alpha={hi.alpha} ({hi.regret_occupancy_mean:.1f}) not above "
                            f"alpha={lo.alpha} ({lo.regret_occupancy_mean:.1f})")
    return problems
