"""Command-line interface: connectivity sweeps and regret-vs-turns curves.

Each knob's flag stores its value under the ``ExperimentConfig`` field name.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from .config import (
    FIELD_NAMES,
    OUTPUT_FORMATS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_from_file,
)
from .policies import INIT_ORDERS, POLICY_NAMES
from .runner import emit_results, regret_vs_turns, sweep_alpha


def _comma_list(kind: type):
    """argparse type: a comma-separated list of ``kind`` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from exc

    return parse


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags override its fields")
    parser.add_argument("--algorithm", choices=POLICY_NAMES)
    parser.add_argument("--alpha", dest="alphas", type=_comma_list(float), metavar="LIST",
                        help="comma-separated connectivity values in [0, 1]")
    parser.add_argument("--turns", type=int)
    parser.add_argument("--reps", dest="repetitions", type=int, metavar="REPS",
                        help="repetitions per connectivity value")
    parser.add_argument("--seed", dest="base_seed", type=int, metavar="SEED",
                        help="base seed for the whole experiment")
    parser.add_argument("--means", type=_comma_list(float), metavar="LIST",
                        help="comma-separated true arm means in [0, 1]")
    parser.add_argument("--players", dest="n_players", type=int, metavar="PLAYERS",
                        help="number of players (must stay below the arm count)")
    parser.add_argument("--epsilon0", type=float, help="initial exploration probability")
    parser.add_argument("--decay", type=float, help="per-selection epsilon decay factor in (0, 1)")
    parser.add_argument("--mean-floor", type=float,
                        help="lower clamp in (0, 1) on observed means for the mixing policy")
    parser.add_argument("--init-order", choices=INIT_ORDERS,
                        help="arm order for the pull-each-arm-once phase")
    parser.add_argument("--out", dest="out_path", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", dest="out_format", choices=OUTPUT_FORMATS)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at least 1 and capped at the CPU count "
                        "(default 1; results identical)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gossip-bandits",
        description="Simulate decentralized multi-player bandits with collisions "
        "and per-turn random communication graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep-alpha", help="final-turn metrics across connectivity values")
    _add_common_arguments(sweep)
    sweep.set_defaults(entry=sweep_alpha)

    curve = sub.add_parser("regret-curve", help="metrics at turn checkpoints for fixed connectivity")
    _add_common_arguments(curve)
    curve.add_argument("--checkpoints", type=_comma_list(int), metavar="LIST",
                       help="comma-separated measurement turns (default: 10 even points)")
    curve.set_defaults(entry=regret_vs_turns)
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    config = config_from_file(args.config) if args.config else ExperimentConfig()
    # getattr: --checkpoints exists on regret-curve only
    return apply_overrides(config, **{name: getattr(args, name, None) for name in FIELD_NAMES})


def _check_writable(path: str | None) -> None:
    # runs before any episode, so a bad --out costs no work; it creates no file
    if path is None:
        return
    # the trailing separator makes access() fail unless the folder is a directory
    target = path if os.path.exists(path) else os.path.join(os.path.dirname(path) or ".", "")
    if os.path.isdir(path) or not os.access(target, os.W_OK):
        raise OSError(f"cannot write results to {path}: not a writable file in an existing directory")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _assemble_config(args)
        _check_writable(config.out_path)
        records = args.entry(config, n_jobs=args.jobs)
        emit_results(records, config.out_format, config.out_path, config=config)
    except ConfigError as exc:
        print(f"gossip-bandits: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gossip-bandits: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
