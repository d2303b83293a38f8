"""Benchmark of the gossip_bandits simulator through its public entry points.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py``) in this process with ``n_jobs=1``
for about ``--seconds`` seconds: the entry point (``sweep_alpha`` or
``regret_vs_turns``) is called repeatedly on the config generated from
``--seed``, and every call's records are checked and written as CSV with
``emit_results``.

``--trace 0`` reports the end-to-end metrics, as medians over the calls:

* ``us_per_turn``  entry-point wall time / (episodes x turns)
* ``wall_s``       entry-point call plus writing the CSV
* ``setup_s``      median over fresh interpreters of: start, import the
                   package, validate the ``ExperimentConfig``
* ``peak_rss_mb``  peak resident set of this process

The three times are reported at reference machine speed: the frozen loop
of ``refloop.py`` runs before, after and every 0.25 s during every sample
(its time taken off a call), and the sample is scaled by the loop's
nominal time over its mean measured time.  On the shared
sandbox raw times drift by up to 2x within minutes; the scaled ones
drift far less.  Raw samples and scale factors are in the ``detail`` line.

``--trace 1`` alternates untraced and traced calls on the same config and
reports the per-layer metrics of ``tracing.py`` plus ``trace.overhead_frac``
and ``metrics.history_bytes_per_turn``.  It also checks that the traced
CSV is byte-identical to the untraced one, and that a reduced
``sweep_thompson`` gives the same CSV with ``n_jobs=2`` as with 1.

An episode fails when its call raises or any output check fails; failed
and attempted episodes are reported.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.  The line
before it, starting with ``detail``, holds provenance, the CSV SHA-256
and every sample.  Exit code 2 means the package could not be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import bootstrap
import refloop
import tracing
from workloads import WORKLOADS, check_records, load_reference

SETUP_REPEATS = 7

END_TO_END_UNITS = {"us_per_turn": "us", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{metric: "us" for metric in tracing.TURN_LAYERS.values()},
    "runner.glue_us_per_turn": "us",
    **{metric: "ms" for metric in tracing.EPISODE_LAYERS.values()},
    "runner.aggregate_ms": "ms",
    "runner.emit_ms": "ms",
    "metrics.history_bytes_per_turn": "B",
    "policies.observe.reports_per_turn": "count",
    "env.collisions_per_turn": "count",
    "env.useful_pull_ratio": "ratio",
    "network.edges_per_turn": "count",
    "network.msgs_per_player_turn": "count",
    "trace.overhead_frac": "ratio",
}

# Started in a fresh interpreter per sample: argv = [src dir, config JSON].
SETUP_PROBE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gossip_bandits\n"
    "gossip_bandits.ExperimentConfig(**json.loads(sys.argv[2]))\n"
)
# Reduced connectivity sweep for the n_jobs=1 vs n_jobs=2 comparison.
JOBS_CHECK_TURNS, JOBS_CHECK_REPS = 300, 2
# Horizon of the tracemalloc probe behind metrics.history_bytes_per_turn.
MEMORY_PROBE_TURNS = 2000


def measure_setup(cfg: dict) -> tuple[list[float], list[float]]:
    """Raw set-up times and their reference-speed scale factors.

    The child runs on its own, so the reference passes taken meanwhile in
    this process are not taken off its time.
    """
    samples, scales = [], []
    for _ in range(SETUP_REPEATS):
        with refloop.Speed() as speed:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_PROBE, str(bootstrap.SRC), json.dumps(cfg)],
                           check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
            samples.append(time.perf_counter() - t0)
        scales.append(speed.scale())
    return samples, scales


class Session:
    """One workload's package handles, config and output checks."""

    def __init__(self, pkg, workload, cfg: dict):
        self.pkg = pkg
        self.workload = workload
        self.cfg = cfg
        self.config = pkg.ExperimentConfig(**cfg)
        self.entry = getattr(pkg, workload.entry)
        self.reference = load_reference()
        self.episodes = len(cfg["alphas"]) * cfg["repetitions"]
        self.turns = self.episodes * cfg["turns"]
        self.csv_path = bootstrap.OUT_DIR / f"{workload.name}-{os.getpid()}.csv"

    def call(self, tracer=None, n_jobs=1, speed=None) -> dict:
        """One entry-point call and CSV write; times, digest and problems.

        With a ``refloop.Speed`` active, the time its samples took is not counted.
        """
        entry, emit = self.entry, self.pkg.emit_results
        if tracer is not None:
            entry = tracer.wrap("entry", entry)
            emit = tracer.wrap("emit_results", emit)
        bootstrap.OUT_DIR.mkdir(exist_ok=True)
        gc.collect()  # start every call from the same heap state
        spent = (lambda: speed.spent) if speed else (lambda: 0.0)
        t0, s0 = time.perf_counter(), spent()
        try:
            records = entry(self.config, n_jobs=n_jobs)
            t1, s1 = time.perf_counter(), spent()
            emit(records, "csv", self.csv_path)
            t2, s2 = time.perf_counter(), spent()
            digest = hashlib.sha256(self.csv_path.read_bytes()).hexdigest()
        except Exception:  # a failing call is a measured outcome, not a crash
            traceback.print_exc(file=sys.stderr)
            t = time.perf_counter() - t0
            return {"entry_s": t, "wall_s": t, "digest": None,
                    "problems": ["raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]]}
        finally:
            self.csv_path.unlink(missing_ok=True)
        return {"entry_s": t1 - t0 - (s1 - s0), "wall_s": t2 - t0 - (s2 - s0), "digest": digest,
                "problems": check_records(self.workload, self.cfg, records, self.reference)}


def _jobs_check(pkg, seed: int) -> tuple[int, list[str]]:
    """Episodes run and problems of the n_jobs=2 vs n_jobs=1 comparison."""
    workload = WORKLOADS["sweep_thompson"]
    cfg = dict(workload.config_dict(seed, turns=JOBS_CHECK_TURNS), repetitions=JOBS_CHECK_REPS)
    session = Session(pkg, workload, cfg)
    serial, pooled = session.call(), session.call(n_jobs=2)
    problems = serial["problems"] + pooled["problems"]
    if serial["digest"] is None or serial["digest"] != pooled["digest"]:
        problems.append("n_jobs=2 CSV differs from n_jobs=1")
    return 2 * session.episodes, problems


def run(name: str, seed: int, seconds: float, trace: bool, turns: int | None = None) -> dict:
    """Measure one workload; returns the result line plus a ``detail`` dict."""
    pkg = bootstrap.import_package()
    runner = pkg.runner
    workload = WORKLOADS[name]
    cfg = workload.config_dict(seed, turns)
    setup, setup_scales = measure_setup(cfg)
    session = Session(pkg, workload, cfg)
    tracer = tracing.Tracer()

    calls, traced_calls = [], []
    started = time.perf_counter()
    while True:
        with refloop.Speed() as speed:
            calls.append(session.call(speed=speed))
        calls[-1]["scale"] = speed.scale()
        if trace:
            with tracing.installed(tracer, runner):
                traced_calls.append(session.call(tracer))
        elapsed = time.perf_counter() - started
        if elapsed * (len(calls) + 1) / len(calls) > seconds:
            break

    attempted = session.episodes * (len(calls) + len(traced_calls))
    failed = session.episodes * sum(1 for c in calls + traced_calls if c["problems"])
    problems = [p for c in calls + traced_calls for p in c["problems"]]
    digests = {c["digest"] for c in calls + traced_calls}
    if len(digests) != 1:
        # Every call ran the same config, traced or not, so every CSV must match.
        failed = attempted
        problems.append(f"CSV digests differ between calls of one seed: {sorted(map(str, digests))}")

    detail = {"workload": name, "seed": seed, "trace": int(trace), "calls": len(calls),
              "measured_s": round(time.perf_counter() - started, 3),
              "csv_sha256": calls[0]["digest"], "config": session.config.echo(),
              "provenance": bootstrap.provenance(),
              "setup_s": setup, "setup_scale": setup_scales, "scale": [c["scale"] for c in calls],
              "entry_s": [c["entry_s"] for c in calls], "wall_s": [c["wall_s"] for c in calls]}

    if trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = statistics.median(
            t["entry_s"] / u["entry_s"] for u, t in zip(calls, traced_calls)) - 1.0
        probe_cfg = dict(cfg, turns=min(cfg["turns"], MEMORY_PROBE_TURNS),
                         alphas=cfg["alphas"][:1], repetitions=1)
        try:
            history = tracing.history_bytes_per_turn(
                runner, session.entry, pkg.ExperimentConfig(**probe_cfg))
        except Exception:  # same boundary as Session.call: report, keep going
            traceback.print_exc(file=sys.stderr)
            history, failed = None, attempted
            problems.append("memory probe raised")
        if history is None:
            tracer.absent.add("history memory probe")
        metrics["metrics.history_bytes_per_turn"] = history or 0.0
        trace_problems = tracing.check_trace(tracer)
        if trace_problems:
            failed = attempted
            problems += trace_problems
        jobs_episodes, jobs_problems = _jobs_check(pkg, seed)
        attempted += jobs_episodes
        if jobs_problems:
            failed += jobs_episodes
            problems += jobs_problems
        spans_path = bootstrap.OUT_DIR / f"spans-{name}-seed{seed}.npz"
        tracing.save(tracer, spans_path)
        detail.update(absent=sorted(tracer.absent), spans=str(spans_path.relative_to(bootstrap.ROOT)),
                      traced_entry_s=[c["entry_s"] for c in traced_calls])
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "us_per_turn": statistics.median(
                c["entry_s"] * c["scale"] for c in calls) / session.turns * 1e6,
            "wall_s": statistics.median(c["wall_s"] * c["scale"] for c in calls),
            "setup_s": statistics.median(s * k for s, k in zip(setup, setup_scales)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    failed = min(failed, attempted)
    detail.update(problems=problems, episodes_failed_frac=failed / attempted)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gossip_bandits benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except bootstrap.MissingPackage as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    detail = result.pop("detail")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {detail['calls']} calls "
          f"in {detail['measured_s']:.1f} s")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'episodes_failed_frac':40s} {detail['episodes_failed_frac']:14.6g} "
          f"({result['failed']}/{result['attempted']})")
    for problem in detail["problems"]:
        print(f"  problem: {problem}")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
