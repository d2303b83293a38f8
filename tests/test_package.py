"""The package's public surface and the runner names looked up at run time.

``bench/tracing.py`` replaces ``runner``'s layer functions by name and
``bench/selftest.py`` patches ``env_step`` and ``disseminate``; a rename
would silently turn a traced layer absent, so the names are pinned here.
"""

import inspect
import os
import subprocess
import sys
from collections import Counter, defaultdict

import numpy as np
import pytest

import gossip_bandits
from support import stretch_cap

PUBLIC = {
    "AggregateRecord",
    "ConfigError",
    "ExperimentConfig",
    "SPREAD_MEANS",
    "apply_overrides",
    "config_from_dict",
    "config_from_file",
    "emit_results",
    "episode_seed",
    "regret_vs_turns",
    "run_episode",
    "sweep_alpha",
}
RUNNER_LAYERS = ("run_episode", "make_policy", "env_step", "disseminate", "build_run_record")


def test_all_is_exactly_the_public_surface():
    assert sorted(gossip_bandits.__all__) == sorted(PUBLIC)
    assert len(gossip_bandits.__all__) == len(PUBLIC)
    for name in gossip_bandits.__all__:
        getattr(gossip_bandits, name)  # raises if the name does not resolve


def test_runner_exposes_the_layers_looked_up_by_name():
    for name in RUNNER_LAYERS:
        assert callable(getattr(gossip_bandits.runner, name)), name
    # in a fresh interpreter the package import alone must bind ``gossip_bandits.runner``
    probe = f"import gossip_bandits as g; assert all(callable(getattr(g.runner, n)) for n in {RUNNER_LAYERS})"
    src = os.path.dirname(gossip_bandits.__path__[0])
    subprocess.run([sys.executable, "-c", probe], check=True, env=dict(os.environ, PYTHONPATH=src))
    # the tracer binds run_episode's arguments, reads ``config`` and reads ``alpha``
    # with float(); a block's run_episode takes sequences, so it names no ``alpha``
    parameters = list(inspect.signature(gossip_bandits.runner.run_episode).parameters)
    assert parameters == ["config", "alphas", "seeds", "checkpoints"]


def test_runner_calls_the_patched_names_at_run_time(monkeypatch):
    # the traced bench run wraps the policy, counts env_step and disseminate
    # per call, and its memory probe reads the heap at build_run_record: a
    # call that bypassed the module globals would drop its layer from the trace
    runner = gossip_bandits.runner
    calls, rows, longest, ranks = Counter(), Counter(), Counter(), defaultdict(set)

    def counted(name):
        fn = getattr(runner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in ("env_step", "disseminate"):
                chosen = args[0] if name == "env_step" else args[2]  # the turn's, stretch's or block's arms
                turns = chosen.size // chosen.shape[-1]  # episode-turns: a row's 1, a stretch's k, a block's B
                rows[name] += turns
                longest[name] = max(longest[name], turns)
                ranks[name].add(tuple(arg.ndim for arg in args if isinstance(arg, np.ndarray)))
            return fn(*args, **kwargs)

        return wrapper

    for name in ("make_policy", "env_step", "disseminate", "build_run_record"):
        monkeypatch.setattr(runner, name, counted(name))
    config = gossip_bandits.ExperimentConfig(turns=50, repetitions=1)
    runner.run_episode(config, [0.5], [1], (50,))
    assert calls["make_policy"] == 1
    # every turn is played once: the calls' episode-turns add up to the horizon
    assert calls["env_step"] == calls["disseminate"]
    assert rows["env_step"] == rows["disseminate"] == config.turns
    assert calls["build_run_record"] >= 1
    # the runner alone sizes a stretch, and caps it by the block's reach, which bounds
    # the stretch's working set: at alpha 1 the random policy's turns take the
    # constant graph's cap, and at alpha 0.5 the drawn cap; a lone learning rule plays
    # one turn per call, its 30-turn sweep included, and hands the kernels rows:
    # its (N,) arms, (S,) realizations, (N, N) reach and (N,) rewards; a block of
    # three plays each turn of all three in one call, as (3, N) arms, (3, S)
    # realizations, (3, N, N) reach and (3, N, 2S) tallies, while the random
    # policy plays each episode's stretches, as when it is alone
    dense = gossip_bandits.ExperimentConfig(algorithm="random", n_players=20, means=(0.5,) * 25,
                                             turns=1000, repetitions=1)
    wide = gossip_bandits.ExperimentConfig(algorithm="egreedy", n_players=20, means=(0.5,) * 30,
                                           turns=100, repetitions=1)
    assert (stretch_cap(20, 25, 1.0), stretch_cap(20, 25, 0.5)) == (262, 32)
    stretch_ranks = {"env_step": {(2, 2)}, "disseminate": {(2, 3, 2, 2)}}
    row_ranks = {"env_step": {(1, 1)}, "disseminate": {(2, 2, 1, 1)}}
    block_ranks = {"env_step": {(2, 2)}, "disseminate": {(3, 3, 2, 2)}}
    for config, alphas, most_calls, most_turns, kernel_ranks in (
            (dense, [1.0], 5, 262, stretch_ranks), (dense, [0.5], dense.turns // 10, 32, stretch_ranks),
            (dense, [1.0, 0.5, 1.0], 3 * dense.turns // 10, 32, stretch_ranks),
            (wide, [0.5], wide.turns, 1, row_ranks), (wide, [1.0], wide.turns, 1, row_ranks),
            (wide, [0.5, 1.0, 0.0], wide.turns, 3, block_ranks)):
        calls.clear()
        rows.clear()
        longest.clear()
        ranks.clear()
        runner.run_episode(config, alphas, list(range(1, len(alphas) + 1)), (config.turns,))
        assert calls["make_policy"] == 1, (config.algorithm, alphas)  # once per block
        blocks = range(0, config.turns, runner.block_turns(config, len(alphas)))
        assert calls["build_run_record"] == len(alphas) * len(blocks)  # once per episode per block of turns
        assert calls["env_step"] == calls["disseminate"] <= most_calls
        assert rows["env_step"] == rows["disseminate"] == len(alphas) * config.turns
        assert longest["env_step"] == longest["disseminate"] == most_turns
        assert ranks == kernel_ranks, (config.algorithm, alphas)


@pytest.mark.parametrize("algorithm", ["thompson", "random"])
@pytest.mark.parametrize("entry", ["sweep_alpha", "regret_vs_turns"])
def test_entry_points_play_each_episode_through_the_patched_names(monkeypatch, entry, algorithm):
    # the traced bench run takes one episode span per run_episode call, and reads
    # its bound arguments; its memory probe marks the heap at the first env_step
    # and reads it again at build_run_record, so in every block env_step must
    # come first; a learning rule's sweep is one block, built by one
    # make_policy call, and the random policy's blocks hold one episode each
    runner = gossip_bandits.runner
    signature = inspect.signature(runner.run_episode)
    blocks, events = [], []

    def recorded(name):
        fn = getattr(runner, name)

        def wrapper(*args, **kwargs):
            if name == "run_episode":
                blocks.append(signature.bind(*args, **kwargs).arguments)
            events.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("run_episode", "make_policy", "env_step", "build_run_record"):
        monkeypatch.setattr(runner, name, recorded(name))
    config = gossip_bandits.ExperimentConfig(algorithm=algorithm, alphas=(0, 0.5, 1), turns=40, repetitions=2)
    getattr(gossip_bandits, entry)(config)
    tasks = [(alpha, gossip_bandits.episode_seed(config.base_seed, a, r))
             for a, alpha in enumerate(config.alphas) for r in range(config.repetitions)]
    played = [task for block in blocks for task in zip(block["alphas"], block["seeds"])]
    assert played == tasks  # in task order
    assert all(isinstance(alpha, float) for alpha, _ in played)
    assert [len(block["seeds"]) for block in blocks] == ([6] if algorithm == "thompson" else [1] * 6)
    assert all("alpha" not in block for block in blocks)
    starts = [i for i, name in enumerate(events) if name == "run_episode"]
    for start, end in zip(starts, starts[1:] + [len(events)]):
        block = events[start + 1:end]
        assert block.count("make_policy") == 1
        assert block.index("make_policy") < block.index("env_step") < block.index("build_run_record")
