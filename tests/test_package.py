"""The package's public surface and the runner names looked up at run time.

``bench/tracing.py`` replaces ``runner``'s layer functions by name and
``bench/selftest.py`` patches ``env_step`` and ``disseminate``; a rename
would silently turn a traced layer absent, so the names are pinned here.
"""

import os
import subprocess
import sys

import gossip_bandits

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
