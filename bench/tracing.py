"""Outside-in tracing of the layers that ``gossip_bandits.runner`` calls.

The package is not modified.  While a ``Tracer`` is installed, the names
``runner`` looks up at call time (``run_episode``, ``make_policy``,
``env_step``, ``sample_graph``, ``disseminate``, ``build_run_record``)
are replaced by wrappers that record a span per call and count the work
passing through the boundary; every policy that ``make_policy`` returns
gets its ``select`` and ``observe`` wrapped the same way.  A name missing
from ``runner`` is reported as absent, never as an error.

Spans live in flat arrays (kind, parent, start, end) while the run goes
and are written out with ``save`` at the end.  A span's parent is the
span open when it started: layer calls sit under their episode, episodes
under the entry-point call.
"""

from __future__ import annotations

import inspect
import math
import time
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Layer spans per turn or per episode; each becomes a per-layer metric.
TURN_LAYERS = {
    "select": "policies.select.us_per_turn",
    "observe": "policies.observe.us_per_turn",
    "env_step": "env.env_step.us_per_turn",
    "sample_graph": "network.sample_graph.us_per_turn",
    "disseminate": "network.disseminate.us_per_turn",
}
EPISODE_LAYERS = {
    "make_policy": "policies.make_policy.ms_per_episode",
    "build_run_record": "metrics.build_run_record.ms_per_episode",
}
RUNNER_NAMES = ("run_episode", "make_policy", "env_step", "sample_graph", "disseminate",
                "build_run_record")

# Half-width, in standard deviations, of the closed-form count checks.
COUNT_Z = 6.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.episodes: list[dict] = []
        self.absent: set[str] = set()

    def _kind(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(result, args)`` tallies its work."""
        kind = self._kind(name)
        kinds, parents, starts, ends, stack = self.kind, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nonlocal count
            idx = len(starts)
            kinds.append(kind)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                try:
                    count(result, args)
                except (AttributeError, TypeError):
                    # The layer's data shape changed; its counters go absent.
                    self.absent.add(f"{name} counts")
                    count = None
            return result

        return traced

    # -- counters at the layer boundaries -------------------------------

    def _count_env(self, outcome, _args) -> None:
        pulls = len(outcome.choices)
        self.counts["pulls"] += pulls
        self.counts["collisions"] += pulls - len(outcome.winners)
        self.counts["paid"] += int(np.count_nonzero(outcome.realized_rewards))

    def _count_graph(self, graph, _args) -> None:
        self.counts["edges"] += len(graph.edges)

    def _count_msgs(self, inboxes, _args) -> None:
        self.counts["msgs"] += sum(map(len, inboxes))

    def _count_reports(self, _result, args) -> None:
        self.counts["reports"] += len(args[0])

    # -- wrappers that need more than a span ----------------------------

    def _wrap_episode(self, fn):
        signature = inspect.signature(fn)
        traced = self.wrap("run_episode", fn)

        def episode(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            before = Counter(self.counts)
            span = len(self.start)
            result = traced(*args, **kwargs)
            config = bound.get("config")
            self.episodes.append(dict(
                self.counts - before,
                span=span,
                alpha=float(bound.get("alpha", math.nan)),
                n_players=getattr(config, "n_players", 0),
                turns=getattr(config, "turns", 0),
            ))
            return result

        return episode

    def _wrap_policy_factory(self, fn):
        traced = self.wrap("make_policy", fn)

        def make_policy(*args, **kwargs):
            policy = traced(*args, **kwargs)
            for attr, count in (("select", None), ("observe", self._count_reports)):
                method = getattr(policy, attr, None)
                if method is None:
                    self.absent.add(attr)
                    continue
                setattr(policy, attr, self.wrap(attr, method, count))
            return policy

        return make_policy


@contextmanager
def installed(tracer: Tracer, runner):
    """Patch ``runner``'s layer lookups with ``tracer``'s wrappers; restore on exit."""
    makers = {
        "run_episode": tracer._wrap_episode,
        "make_policy": tracer._wrap_policy_factory,
        "env_step": lambda f: tracer.wrap("env_step", f, tracer._count_env),
        "sample_graph": lambda f: tracer.wrap("sample_graph", f, tracer._count_graph),
        "disseminate": lambda f: tracer.wrap("disseminate", f, tracer._count_msgs),
        "build_run_record": lambda f: tracer.wrap("build_run_record", f),
    }
    originals = {}
    for name in RUNNER_NAMES:
        fn = getattr(runner, name, None)
        if fn is None:
            tracer.absent.add(name)
            continue
        originals[name] = fn
        setattr(runner, name, makers[name](fn))
    try:
        yield tracer
    finally:
        for name, fn in originals.items():
            setattr(runner, name, fn)


def _arrays(tracer: Tracer):
    return (np.asarray(tracer.kind, dtype=np.int32), np.asarray(tracer.parent, dtype=np.int32),
            np.asarray(tracer.start, dtype=float), np.asarray(tracer.end, dtype=float))


def self_times(tracer: Tracer) -> tuple[np.ndarray, np.ndarray]:
    """(duration, self time) per span; self time excludes the direct children."""
    _kind, parent, start, end = _arrays(tracer)
    duration = end - start
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration, duration - children


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times and counts over every traced episode.

    A layer that was absent reads 0; ``tracer.absent`` names it.
    """
    kind, _parent, _start, _end = _arrays(tracer)
    duration, own = self_times(tracer)
    n_kinds = len(tracer.names)
    total = np.bincount(kind, weights=duration, minlength=n_kinds)
    total_self = np.bincount(kind, weights=own, minlength=n_kinds)
    calls = np.bincount(kind, minlength=n_kinds)

    def get(table, name):
        return float(table[tracer.names.index(name)]) if name in tracer.names else 0.0

    episodes = len(tracer.episodes)
    turns = sum(ep["turns"] for ep in tracer.episodes)
    player_turns = sum(ep["turns"] * ep["n_players"] for ep in tracer.episodes)
    counts = tracer.counts

    def per(x, n):
        return x / n if n else 0.0

    out = {metric: per(get(total, name), turns) * 1e6 for name, metric in TURN_LAYERS.items()}
    out["runner.glue_us_per_turn"] = per(get(total_self, "run_episode"), turns) * 1e6
    out.update({metric: per(get(total, name), episodes) * 1e3 for name, metric in EPISODE_LAYERS.items()})
    out["runner.aggregate_ms"] = per(get(total_self, "entry"), get(calls, "entry")) * 1e3
    out["runner.emit_ms"] = per(get(total, "emit_results"), get(calls, "emit_results")) * 1e3
    out["policies.observe.reports_per_turn"] = per(counts["reports"], turns)
    out["env.collisions_per_turn"] = per(counts["collisions"], turns)
    out["env.useful_pull_ratio"] = per(counts["paid"], counts["pulls"])
    out["network.edges_per_turn"] = per(counts["edges"], turns)
    out["network.msgs_per_player_turn"] = per(counts["msgs"], player_turns)
    return out


def check_trace(tracer: Tracer) -> list[str]:
    """Problems in the traced run: span nesting and closed-form counts.

    * every span's direct children fit inside it, so layer self-times in
      an episode sum to no more than the episode span;
    * per episode, graph edges and delivered messages match their
      binomial expectations a*N(N-1)/2 and N*(1+a(N-1)) per turn, exactly
      at a in {0, 1} and within COUNT_Z sd otherwise;
    * paid pulls never exceed pulls.
    """
    problems = []
    _duration, own = self_times(tracer)
    if len(own) and own.min() < -1e-9:
        problems.append(f"{int((own < -1e-9).sum())} spans shorter than their children")
    if not tracer.episodes:
        problems.append("no episode spans recorded")
    absent = tracer.absent
    for i, ep in enumerate(tracer.episodes):
        a, n, t = ep["alpha"], ep["n_players"], ep["turns"]
        if not math.isfinite(a):
            continue
        pairs = t * n * (n - 1) / 2
        sd = math.sqrt(pairs * a * (1 - a))
        expected = {"edges": (pairs * a, sd), "msgs": (t * n * (1 + a * (n - 1)), 2 * sd)}
        for key, layer in (("edges", "sample_graph"), ("msgs", "disseminate")):
            if layer in absent or f"{layer} counts" in absent:
                continue
            mean, spread = expected[key]
            if not abs(ep.get(key, 0) - mean) <= COUNT_Z * spread + 1e-9:
                problems.append(f"episode {i} (alpha={a}): {key}={ep.get(key, 0)}, "
                                f"expected {mean:.1f} +- {COUNT_Z * spread:.1f}")
        if ep.get("paid", 0) > ep.get("pulls", 0):
            problems.append(f"episode {i}: {ep['paid']} paid pulls out of {ep['pulls']}")
    return problems


def save(tracer: Tracer, path: Path) -> None:
    kind, parent, start, end = _arrays(tracer)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, names=np.array(tracer.names), kind=kind, parent=parent, start=start, end=end)


def history_bytes_per_turn(runner, entry, config) -> float | None:
    """Live bytes an episode adds per turn, under tracemalloc (a traced figure).

    Measured from the first ``env_step`` of the episode, after the players
    exist, to the ``build_run_record`` call, when the history is complete.
    None when either name is absent from ``runner``.
    """
    env_step = getattr(runner, "env_step", None)
    build = getattr(runner, "build_run_record", None)
    if env_step is None or build is None:
        return None
    marks = {}

    def first_step(*args, **kwargs):
        marks.setdefault("start", tracemalloc.get_traced_memory()[0])
        return env_step(*args, **kwargs)

    def at_build(*args, **kwargs):
        marks["end"] = tracemalloc.get_traced_memory()[0]
        return build(*args, **kwargs)

    runner.env_step, runner.build_run_record = first_step, at_build
    tracemalloc.start()
    try:
        entry(config, n_jobs=1)
    finally:
        tracemalloc.stop()
        runner.env_step, runner.build_run_record = env_step, build
    return (marks["end"] - marks["start"]) / config.turns
