"""Exception types shared across the package, and the one check of config values.

Each numeric field of a config dataclass declares its domain in its type:
``Positive``, ``Ordered[Finite]`` and so on. ``check_domains`` checks them
all. Plain ``typing.get_type_hints`` strips these ``Annotated`` marks, so
the config schema and its hashes do not see them.
"""

import functools
import math
import typing
from typing import Annotated, NamedTuple, TypeVar


class StairlabError(Exception):
    """Base class for package-specific errors."""


class ConfigError(StairlabError, ValueError):
    """Invalid configuration value or malformed config file."""


class TrainingError(StairlabError, RuntimeError):
    """Non-recoverable numerical problem during optimization."""


class Interval(NamedTuple):
    """The finite values from ``lo`` to ``hi``, both included unless ``open_lo`` leaves ``lo`` out."""

    lo: float
    hi: float = math.inf
    open_lo: bool = False

    def holds(self, value) -> bool:  # NaN fails every comparison
        above = self.lo < value if self.open_lo else self.lo <= value
        return above and value <= self.hi and math.isfinite(value)

    def describe(self, value) -> str:
        """What ``value``, which the interval does not hold, must do instead."""
        if not math.isfinite(value):
            return "be finite"
        if self.hi == math.inf:
            return "be positive" if self.lo > 0 or self.open_lo else "be non-negative"
        return f"lie in {'(' if self.open_lo else '['}{self.lo:g}, {self.hi:g}]"


Finite = Annotated[float, Interval(-math.inf)]
Positive = Annotated[float, Interval(0.0, open_lo=True)]
NonNegative = Annotated[float, Interval(0.0)]
Unit = Annotated[float, Interval(0.0, 1.0)]
Count = Annotated[int, Interval(1)]
NonNegativeInt = Annotated[int, Interval(0)]
# A (min, max) pair with min <= max, both finite and each in the domain of _T.
_T = TypeVar("_T")
Ordered = Annotated[tuple[_T, _T], "ordered"]

# (dataclass, field, tuple index or None) -> the config key that sets it,
# where the two names differ. config.py fills it from its key table.
KEY_NAMES: dict[tuple[type, str, int | None], str] = {}

_annotated_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


def check_domains(obj, prefix: str) -> None:
    """Raise one ConfigError, naming the key and its value, if a field of ``obj`` leaves its domain.

    ``prefix`` is the config section, like ``"[env] "``. A pair's order is
    checked before its ends, and a variable-length tuple must list a value.
    """
    for name, hint in _annotated_hints(type(obj)).items():
        _check(getattr(obj, name), hint, prefix, type(obj), name, None)


def domain_check(prefix: str):
    """A ``__post_init__`` for a config dataclass whose every rule is a field's domain."""
    return lambda self: check_domains(self, prefix)


def _check(value, hint, prefix: str, cls: type, name: str, index: int | None) -> None:
    """Check ``value`` against ``hint``; ``index`` is its place in the field's outer tuple."""
    if value is None:  # an optional setting left unset
        return
    key = prefix + KEY_NAMES.get((cls, name, index), name)
    hint, *marks = typing.get_args(hint) if typing.get_origin(hint) is Annotated else (hint,)
    for mark in marks:
        if mark == "ordered" and not -math.inf < value[0] <= value[1] < math.inf:
            lo, hi = (KEY_NAMES.get((cls, name, i), name) for i in (0, 1))
            raise ConfigError(f"{prefix}need finite {lo} <= {hi}, got {value}")
        if isinstance(mark, Interval) and not mark.holds(value):
            raise ConfigError(f"{key} must {mark.describe(value)}, got {value}")
    if type(None) in typing.get_args(hint):  # X | None, set
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if items[-1] is Ellipsis:
            if not value:
                raise ConfigError(f"{key} must list at least one value")
            items = items[:1] * len(value)
        for i, (item, item_hint) in enumerate(zip(value, items)):
            _check(item, item_hint, prefix, cls, name, i if index is None else index)
