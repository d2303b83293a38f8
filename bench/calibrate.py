"""Measure the Monte Carlo regret references that the output checks compare against.

    python3 bench/calibrate.py [--jobs 2] [--out bench/reference.json]

For ``sweep_thompson`` and ``long_horizon`` it runs many seeded episodes
per alpha and records the mean and the sample sd (ddof=1) of the final
occupancy regret.  ``gossip_dense`` uses a closed form; here it is only
cross-checked by simulation and the z-score is recorded.  The seeds used
(``CALIBRATION_SEED``) are not workload seeds the benchmark would draw.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import bootstrap
from workloads import REFERENCE_PATH, WORKLOADS, random_policy_regret

CALIBRATION_SEED = 1_000_003
EPISODES = {"sweep_thompson": 40, "long_horizon": 24, "gossip_dense": 16}


def _final_rows(pkg, cfg: dict, jobs: int):
    config = pkg.config_from_dict(cfg)
    records = pkg.sweep_alpha(config, n_jobs=jobs)
    n = cfg["repetitions"]
    return {
        repr(float(r.alpha)): {
            "mean": r.regret_occupancy_mean,
            "sd": r.regret_occupancy_std * math.sqrt(n / (n - 1)),
        }
        for r in records
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", default=str(REFERENCE_PATH))
    args = parser.parse_args(argv)
    pkg = bootstrap.import_package()

    out = {
        "how": "python3 bench/calibrate.py; final occupancy regret over `episodes` seeded "
               "episodes per alpha (sd is ddof=1)",
        "seed": CALIBRATION_SEED,
        "provenance": bootstrap.provenance(),
        "workloads": {},
    }
    for name, episodes in EPISODES.items():
        workload = WORKLOADS[name]
        cfg = dict(workload.config_dict(CALIBRATION_SEED), repetitions=episodes)
        t0 = time.perf_counter()
        rows = _final_rows(pkg, cfg, args.jobs)
        entry = {"turns": cfg["turns"], "episodes": episodes, "alphas": rows,
                 "seconds": round(time.perf_counter() - t0, 1)}
        if name == "gossip_dense":
            mean, sd = random_policy_regret(cfg["means"], cfg["n_players"], cfg["turns"])
            (row,) = rows.values()
            entry["closed_form"] = {"mean": mean, "sd": sd,
                                    "z": (row["mean"] - mean) / (sd / math.sqrt(episodes))}
            out["closed_form_checks"] = {name: entry}
        else:
            out["workloads"][name] = entry
        print(name, json.dumps(entry), file=sys.stderr)

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
