"""Run every workload over several seeds and summarise the spread.

    python3 bench/collect.py [--seeds 1-10] [--workloads a,b] [--trace] [--out FILE]

Each run is a separate ``run.py`` process (so ``peak_rss_mb`` and
``setup_s`` are per process) with ``run_seconds`` from ``BENCHMARK.json``.
Seeds are the outer loop, so slow drift of the machine hits every
workload alike.  For each end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median against the metric's bound.  ``--trace`` adds one
traced run per workload on the first seed, prints its per-layer table,
and checks that its CSV digest equals the untraced run's for that seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import bootstrap


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    detail["process_s"] = time.perf_counter() - t0
    return json.loads(lines[-1]), detail


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--workloads", help="comma list (default: all in BENCHMARK.json)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            result, detail = run_once(name, seed, spec["run_seconds"], trace=False)
            runs[name].append((seed, result, detail))
            print(f"{name} seed={seed} failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    ok = True
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds,
               "provenance": runs[names[0]][0][2]["provenance"], "workloads": {}}
    for name in names:
        rows = runs[name]
        entry = {
            "attempted": sum(r["attempted"] for _, r, _ in rows),
            "failed": sum(r["failed"] for _, r, _ in rows),
            "csv_sha256": {seed: d["csv_sha256"] for seed, _, d in rows},
            "entry_s": {seed: d["entry_s"] for seed, _, d in rows},
            "process_s": summarise([d["process_s"] for _, _, d in rows]),
            "config": rows[0][2]["config"],
            "end_to_end": {},
        }
        print(f"\n{name}: {len(rows)} runs, episodes failed {entry['failed']}/{entry['attempted']}")
        for metric, bound in bounds.items():
            stats = summarise([r["metrics"][metric]["value"] for _, r, _ in rows])
            stats["bound"] = bound
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  SPREAD >= bound/3"
            if metric != "setup_s" and stats["spread"] > bound:
                ok, flag = False, "  SPREAD > bound"
            print(f"  {metric:14s} median {stats['median']:12.6g} {units[metric]:3s} "
                  f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f} "
                  f"(bound {bound}){flag}")
        ok = ok and entry["failed"] == 0
        if args.trace:
            result, detail = run_once(name, seeds[0], spec["run_seconds"], trace=True)
            same = detail["csv_sha256"] == entry["csv_sha256"][seeds[0]]
            ok = ok and same and result["failed"] == 0
            entry["traced"] = {"seed": seeds[0], "failed": result["failed"],
                               "attempted": result["attempted"], "absent": detail["absent"],
                               "csv_matches_untraced": same,
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            print(f"  traced seed={seeds[0]}: failed {result['failed']}/{result['attempted']}, "
                  f"CSV matches untraced: {same}, absent: {detail['absent']}")
            for metric, value in entry["traced"]["metrics"].items():
                print(f"    {metric:40s} {value:12.6g} {units[metric]}")
        summary["workloads"][name] = entry

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
