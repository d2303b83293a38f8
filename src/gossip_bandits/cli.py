"""Command-line interface: connectivity sweeps and regret-vs-turns curves."""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .config import (
    OUTPUT_FORMATS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_from_file,
)
from .policies import INIT_ORDERS, POLICY_NAMES
from .runner import emit_results, regret_vs_turns, sweep_alpha


def _comma_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file; flags override its fields")
    parser.add_argument("--algorithm", choices=POLICY_NAMES)
    parser.add_argument("--alpha", type=_comma_floats, metavar="LIST",
                        help="comma-separated connectivity values in [0, 1]")
    parser.add_argument("--turns", type=int)
    parser.add_argument("--reps", type=int, help="repetitions per connectivity value")
    parser.add_argument("--seed", type=int, help="base seed for the whole experiment")
    parser.add_argument("--means", type=_comma_floats, metavar="LIST",
                        help="comma-separated true arm means in [0, 1]")
    parser.add_argument("--players", type=int, help="number of players (must stay below the arm count)")
    parser.add_argument("--epsilon0", type=float, help="initial exploration probability")
    parser.add_argument("--decay", type=float, help="per-selection epsilon decay factor in (0, 1)")
    parser.add_argument("--mean-floor", type=float, help="lower clamp on observed means for the mixing policy")
    parser.add_argument("--init-order", choices=INIT_ORDERS,
                        help="arm order for the pull-each-arm-once phase")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS)
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

    curve = sub.add_parser("regret-curve", help="metrics at turn checkpoints for fixed connectivity")
    _add_common_arguments(curve)
    curve.add_argument("--checkpoints", type=_comma_ints, metavar="LIST",
                       help="comma-separated measurement turns (default: 10 even points)")
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    config = config_from_file(args.config) if args.config else ExperimentConfig()
    return apply_overrides(
        config,
        algorithm=args.algorithm,
        alphas=args.alpha,
        turns=args.turns,
        repetitions=args.reps,
        base_seed=args.seed,
        means=args.means,
        n_players=args.players,
        epsilon0=args.epsilon0,
        decay=args.decay,
        mean_floor=getattr(args, "mean_floor", None),
        init_order=getattr(args, "init_order", None),
        checkpoints=getattr(args, "checkpoints", None),
        out_path=args.out,
        out_format=args.format,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _assemble_config(args)
        if args.command == "sweep-alpha":
            records = sweep_alpha(config, n_jobs=args.jobs)
        else:
            records = regret_vs_turns(config, n_jobs=args.jobs)
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
