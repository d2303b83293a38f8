"""Experiment configuration: defaults, file loading, CLI overrides.

Each knob is one ``ExperimentConfig`` field, named in ``FIELD_NAMES``;
one table, ``_FIELD_TYPES``, gives every field its type check and conversion.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

from .policies import INIT_ORDERS, POLICY_NAMES

OUTPUT_FORMATS = ("csv", "json")

# The default arm means: desk-scale and widely spread.
SPREAD_MEANS = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.01)


class ConfigError(ValueError):
    """Invalid experiment configuration; reported before any turn runs."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to re-run an experiment bit-identically."""

    means: tuple[float, ...] = SPREAD_MEANS
    n_players: int = 5
    algorithm: str = "thompson"
    alphas: tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(11))
    turns: int = 5000
    repetitions: int = 50
    base_seed: int = 0
    epsilon0: float = 1.0
    decay: float = 0.995
    mean_floor: float = 1e-3
    init_order: str = "sequential"
    checkpoints: tuple[int, ...] = ()
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self) -> None:
        # wrong types and non-finite numbers are rejected before their field is converted
        for names, test, kind, convert in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if hasattr(value, "__iter__") and not isinstance(value, (str, bytes, dict)):
                    value = tuple(value)  # read once: checking an iterator would use it up
                if not test(value):
                    raise ConfigError(f"{name} must be {kind}, got {value!r}")
                if convert is not None:
                    object.__setattr__(self, name, convert(value))
        self._validate()

    def _validate(self) -> None:
        n_arms = len(self.means)
        if n_arms < 2:
            raise ConfigError(f"need at least 2 arms, got {n_arms}")
        if any(not 0.0 <= m <= 1.0 for m in self.means):
            raise ConfigError(f"arm means must lie in [0, 1], got {list(self.means)}")
        if self.algorithm not in POLICY_NAMES:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, expected one of {POLICY_NAMES}")
        min_players = 2 if self.algorithm == "asympopt" else 1
        if not min_players <= self.n_players < n_arms:
            raise ConfigError(
                f"n_players must satisfy {min_players} <= N < {n_arms} arms, got {self.n_players}"
            )
        if not self.alphas:
            raise ConfigError("need at least one connectivity value")
        if any(not 0.0 <= a <= 1.0 for a in self.alphas):
            raise ConfigError(f"connectivity values must lie in [0, 1], got {list(self.alphas)}")
        if self.turns < n_arms:
            raise ConfigError(
                f"turns must be >= {n_arms} so the pull-each-arm-once phase fits, got {self.turns}"
            )
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ConfigError(f"epsilon0 {self.epsilon0} outside [0, 1]")
        if not 0.0 < self.decay < 1.0:
            raise ConfigError(f"decay {self.decay} outside (0, 1)")
        if not 0.0 < self.mean_floor < 1.0:
            # a floor of 1 or more clamps every observed mean to it: uniform play
            raise ConfigError(f"mean_floor must lie in (0, 1), got {self.mean_floor}")
        if self.init_order not in INIT_ORDERS:
            raise ConfigError(f"unknown init_order {self.init_order!r}, expected one of {INIT_ORDERS}")
        if any(not 1 <= t <= self.turns for t in self.checkpoints):
            raise ConfigError(f"checkpoints must lie in [1, {self.turns}], got {list(self.checkpoints)}")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ConfigError(f"checkpoints must be strictly increasing, got {list(self.checkpoints)}")
        if self.out_format not in OUTPUT_FORMATS:
            raise ConfigError(f"unknown format {self.out_format!r}, expected one of {OUTPUT_FORMATS}")

    @property
    def n_arms(self) -> int:
        return len(self.means)

    def echo(self) -> dict:
        """JSON-safe dict of every knob, embedded in outputs for re-runs."""
        out = dataclasses.asdict(self)
        for key, value in out.items():
            if isinstance(value, tuple):
                out[key] = list(value)
        return out


def _is_int(value) -> bool:
    # bool is an Integral in Python, but never a meaningful count or seed
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _list_of(test):
    # __post_init__ has already read every list, array or iterator into a tuple
    return lambda value: isinstance(value, tuple) and all(map(test, value))


def _tuple_of(kind):
    return lambda values: tuple(map(kind, values))


# (fields, type test, what it asks for, conversion or None to keep the value as given)
_FIELD_TYPES = (
    # int(): NumPy integers would make echo() unserializable
    (("n_players", "turns", "repetitions", "base_seed"), _is_int, "an integer", int),
    # integers stay int, so epsilon0=1 still echoes as 1; NumPy scalars become Python numbers
    (("epsilon0", "decay", "mean_floor"), _is_finite, "a finite number",
     lambda v: int(v) if _is_int(v) else float(v)),
    (("means", "alphas"), _list_of(_is_finite), "a list of finite numbers", _tuple_of(float)),
    (("checkpoints",), _list_of(_is_int), "a list of integers", _tuple_of(int)),
    (("algorithm", "init_order", "out_format"), lambda v: isinstance(v, str), "a string", None),
    (("out_path",), lambda v: v is None or isinstance(v, str), "a string or null", None),
)
FIELD_NAMES = tuple(f.name for f in dataclasses.fields(ExperimentConfig))


def config_from_file(path: str | Path) -> ExperimentConfig:
    """Load a JSON config file; unknown keys are rejected."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config_from_dict(raw, source=str(path))


def config_from_dict(raw: dict, source: str = "config") -> ExperimentConfig:
    unknown = set(raw).difference(FIELD_NAMES)
    if unknown:
        raise ConfigError(f"{source} has unknown fields: {sorted(unknown)}")
    return ExperimentConfig(**raw)


def apply_overrides(config: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Replace any non-None fields, re-running validation."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return dataclasses.replace(config, **changes)
