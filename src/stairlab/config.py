"""Experiment configuration: strict INI-style key-value files.

Every tunable of the pipeline has one owner in the tree of frozen
dataclasses under ``ExperimentConfig``. Each INI section names the
dataclass it edits (``_SECTIONS``), and a key named like one of its fields
sets that field with the converter the field's type implies; the keys that
rename a field or set part of one are listed in ``_ALIASES``. Files
override defaults; unknown sections or keys are rejected. Paths in the
file resolve relative to the file itself. The canonical text dump of the
effective config, one line per setting, is hashed into output manifests
so re-runs are verifiable.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path

from .env import EnvConfig, ObsMode, Schedule
from .errors import KEY_NAMES, ConfigError, Count, Finite, NonNegative, NonNegativeInt, Ordered, Unit
from .errors import check_domains, domain_check
from .ppo import PpoConfig, TrainConfig
from .sensor import SensorModel
from .world import DepthBound, HeightBound, ParameterRanges, StepDepth, StepHeight


@dataclass(frozen=True)
class RunConfig:
    seeds: tuple[NonNegativeInt, ...] = (1, 2, 3)
    out_dir: str = "runs"

    __post_init__ = domain_check("[run] ")


@dataclass(frozen=True)
class BenchmarkConfig:
    """Randomized estimator benchmark protocol."""

    n_configs: Count = 1000
    h_range: Ordered[HeightBound] = (0.10, 0.25)
    d_range: Ordered[DepthBound] = (0.25, 0.35)
    yaw_range_deg: Ordered[Finite] = (-20.0, 20.0)
    class_weights: tuple[NonNegative, NonNegative, NonNegative] = (0.0, 0.5, 0.5)
    dropout: Unit = 0.0

    __post_init__ = domain_check("[benchmark] ")


@dataclass(frozen=True)
class AblationConfig:
    updates: NonNegativeInt = 150
    eval_episodes: Count = 100
    terrain_heights: tuple[StepHeight, ...] = (0.12, 0.16, 0.20, 0.24)
    terrain_episodes: Count = 30
    success_threshold: Unit = 0.8
    success_window: Count = 10

    __post_init__ = domain_check("[ablation] ")


@dataclass(frozen=True)
class GeneralizeConfig:
    updates: NonNegativeInt = 150
    train_heights: tuple[StepHeight, ...] = (0.12, 0.14, 0.16)
    eval_heights: tuple[StepHeight, ...] = (0.12, 0.14, 0.16, 0.18, 0.20, 0.22)
    episodes: Count = 100
    modes: tuple[ObsMode, ...] = (ObsMode.TOKEN, ObsMode.BLIND)

    __post_init__ = domain_check("[generalize] ")


@dataclass(frozen=True)
class TrackConfig:
    updates: NonNegativeInt = 150
    schedule: Schedule = ((0, 0.20), (60, 0.40), (120, 0.30))
    h_step: StepHeight = 0.14
    d_step: StepDepth = 0.30
    n_steps: Count = 400
    policy_dir: str = ""

    def __post_init__(self) -> None:
        check_domains(self, "[track] ")
        times = [t for t, _ in self.schedule]
        if times[0] < 0 or times != sorted(set(times)):
            raise ConfigError(f"[track] schedule times must be >= 0 and strictly increasing: {times}")


@dataclass(frozen=True)
class ExperimentConfig:
    world: ParameterRanges = ParameterRanges()
    # Observation noise mirrors the perception stack: height scans carry
    # the depth sensor's sigma, tokens the estimator's error scale. The
    # EnvConfig type itself defaults both to zero.
    env: EnvConfig = EnvConfig(heightscan_noise=0.01, token_noise_h=0.005, token_noise_d=0.005)
    ppo: PpoConfig = PpoConfig(horizon=128, n_envs=16)
    train: TrainConfig = TrainConfig()
    run: RunConfig = RunConfig()
    benchmark: BenchmarkConfig = BenchmarkConfig()
    ablation: AblationConfig = AblationConfig()
    generalize: GeneralizeConfig = GeneralizeConfig()
    track: TrackConfig = TrackConfig()
    base_dir: Path = field(default_factory=Path.cwd)

    @property
    def sensor(self) -> SensorModel:
        # Read-only view kept for the benchmark harness (perfbench/workloads.py),
        # which reads ``cfg.sensor``. The owner is ``env.sensor``.
        return self.env.sensor


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected boolean, got {raw!r}")


def _parse_schedule(raw: str) -> tuple[tuple[int, float], ...]:
    """Piecewise-constant schedule: "0:0.2,60:0.4" -> ((0, 0.2), (60, 0.4))."""
    out = []
    for tok in raw.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise ConfigError(f"schedule entry {tok!r} must be time:value")
        t, v = tok.split(":", 1)
        out.append((int(t), float(v)))
    if not out:
        raise ConfigError("empty command schedule")
    return tuple(out)


def _converter(tp):
    """Parser of one INI value into a field of type ``tp``."""
    if tp is bool:
        return _parse_bool
    if tp is str:
        return str.strip
    if tp in (int, float) or (isinstance(tp, type) and issubclass(tp, Enum)):
        return tp
    args = typing.get_args(tp)
    if type(None) in args:
        return _converter(next(a for a in args if a is not type(None)))
    if typing.get_origin(tp) is tuple and args[-1] is Ellipsis:
        if typing.get_origin(args[0]) is tuple:
            return _parse_schedule
        item = _converter(args[0])
        return lambda raw: tuple(item(tok.strip()) for tok in raw.split(",") if tok.strip())
    raise TypeError(f"no INI converter for {tp}")


# INI section -> the dataclass it edits, as a field path from ExperimentConfig.
_SECTIONS = {
    "world": "world",
    "sensor": "env.sensor",
    "estimator": "env.estimator",
    "env": "env",
    "ppo": "ppo",
    "train": "train",
    "loss": "train.loss",
    "run": "run",
    "benchmark": "benchmark",
    "ablation": "ablation",
    "generalize": "generalize",
    "track": "track",
}

# Keys that rename or split a field: key -> field path within the section's
# dataclass, with ``[i]`` to set one element of a tuple and ``[:]`` to set
# every element. A field an alias targets has no key of its own name.
_ALIASES = {
    "world": {
        "h_min": "h_step[0]",
        "h_max": "h_step[1]",
        "d_min": "d_step[0]",
        "d_max": "d_step[1]",
        "yaw_min_deg": "stair_yaw[0]",
        "yaw_max_deg": "stair_yaw[1]",
        "n_steps_min": "n_steps[0]",
        "n_steps_max": "n_steps[1]",
        "lead_flat_min": "lead_flat[0]",
        "lead_flat_max": "lead_flat[1]",
        "tail_flat_min": "tail_flat[0]",
        "tail_flat_max": "tail_flat[1]",
        "origin_x": "origin_x[:]",
        "origin_y": "origin_y[:]",
        "weight_flat": "class_weights[0]",
        "weight_up": "class_weights[1]",
        "weight_down": "class_weights[2]",
    },
    "sensor": {
        "pitch": "sample_pitch",
        "dropout": "dropout_rate",
    },
    "estimator": {
        "yaw_min_deg": "yaw_range_deg[0]",
        "yaw_max_deg": "yaw_range_deg[1]",
        "min_risers": "min_risers_for_stairs",
    },
    "env": {
        "v_cmd_min": "v_cmd_range[0]",
        "v_cmd_max": "v_cmd_range[1]",
        "w_velocity": "reward.velocity",
        "w_forward": "reward.forward",
        "w_clearance": "reward.clearance",
        "w_heading": "reward.heading",
        "tracking_scale": "reward.tracking_scale",
        "terminal_bonus": "reward.terminal_bonus",
    },
    "benchmark": {
        "h_min": "h_range[0]",
        "h_max": "h_range[1]",
        "d_min": "d_range[0]",
        "d_max": "d_range[1]",
        "yaw_min_deg": "yaw_range_deg[0]",
        "yaw_max_deg": "yaw_range_deg[1]",
        "weight_flat": "class_weights[0]",
        "weight_up": "class_weights[1]",
        "weight_down": "class_weights[2]",
    },
}

# The world's yaw keys are in degrees; the field holds radians.
_DEGREE_KEYS = {("world", "yaw_min_deg"), ("world", "yaw_max_deg")}

# Settings that no key sets.
_NO_KEY = {"env.command_schedule", "env.estimator.merge_floor"}


def _in_radians(convert):
    return lambda raw: math.radians(convert(raw))


_hints = functools.cache(typing.get_type_hints)


def _field_type(cls, path: str):
    for name in path.split("."):
        cls = _hints(cls)[name]
    return cls


def _build_keys() -> dict[str, dict[str, tuple]]:
    """section -> key -> (field path, tuple indices it sets or None, converter).

    Each alias also goes into ``KEY_NAMES``, so that config errors name it.
    """
    keys: dict[str, dict[str, tuple]] = {}
    for section, owner in _SECTIONS.items():
        cls = _field_type(ExperimentConfig, owner)
        aliases = _ALIASES.get(section, {})
        taken = {target.split("[")[0].split(".")[0] for target in aliases.values()}
        hints = _hints(cls)
        keys[section] = {
            f.name: (f"{owner}.{f.name}", None, _converter(hints[f.name]))
            for f in fields(cls)
            if not is_dataclass(hints[f.name])
            and f.name not in taken
            and f"{owner}.{f.name}" not in _NO_KEY
        }
        for key, target in aliases.items():
            name, _, index = target.rstrip("]").partition("[")
            tp = _field_type(cls, name)
            items = typing.get_args(tp)
            # "[i]" sets element i, "[:]" every element, no index the whole field.
            indices = tuple(range(len(items))) if index == ":" else (int(index),) if index else None
            convert = _converter(items[indices[0]] if indices else tp)
            if (section, key) in _DEGREE_KEYS:
                convert = _in_radians(convert)
            path = f"{owner}.{name}"
            keys[section][key] = (path, indices, convert)
            parent, _, leaf = path.rpartition(".")
            KEY_NAMES.update(((_field_type(ExperimentConfig, parent), leaf, i), key) for i in indices or (None,))
    return keys


_KEYS = _build_keys()


def _with_values(obj, prefix: str, values: dict):
    """``obj`` with the fields named in ``values`` set; each dataclass is rebuilt once."""
    changes = {}
    for f in fields(obj):
        path = prefix + f.name
        if path in values:
            changes[f.name] = values[path]
        elif any(p.startswith(path + ".") for p in values):
            changes[f.name] = _with_values(getattr(obj, f.name), path + ".", values)
    return replace(obj, **changes)


def parse_config_text(text: str, base_dir: Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    cfg = ExperimentConfig(base_dir=base_dir)
    values: dict = {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            path, indices, convert = _KEYS[section][key]
            try:
                value = convert(raw)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc
            if indices is not None:
                items = list(values.get(path, functools.reduce(getattr, path.split("."), cfg)))
                for i in indices:
                    items[i] = value
                value = tuple(items)
            values[path] = value
    return _with_values(cfg, "", values)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_config_text(path.read_text(), base_dir=path.parent.resolve())


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple) and value and isinstance(value[0], tuple):
        return ",".join(f"{int(t)}:{v!r}" for t, v in value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _setting_lines(obj, prefix: str) -> list[str]:
    lines = []
    for f in sorted(fields(obj), key=lambda f: f.name):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            lines += _setting_lines(value, f"{prefix}{f.name}.")
        elif f.name != "base_dir":
            lines.append(f"{prefix}{f.name} = {_format_value(value)}")
    return lines


def canonical_text(cfg: ExperimentConfig) -> str:
    """Deterministic dump of every effective setting, one line each, for hashing/manifests."""
    return "\n".join(_setting_lines(cfg, "")) + "\n"


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode()).hexdigest()[:16]
