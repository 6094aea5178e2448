"""Exception types shared across the package, and the config checks that raise one."""


class StairlabError(Exception):
    """Base class for package-specific errors."""


class ConfigError(StairlabError, ValueError):
    """Invalid configuration value or malformed config file."""


class TrainingError(StairlabError, RuntimeError):
    """Non-recoverable numerical problem during optimization."""


def check_counts(obj, prefix: str = "", **lows: int) -> None:
    """Reject each count or weight named in ``lows`` that is below its bound, 0 or 1, or not finite.

    The message names the key, after ``prefix`` (the config section, where
    the key alone is ambiguous), and the value.
    """
    for name, low in lows.items():
        value = getattr(obj, name)
        if not low <= value < float("inf"):  # NaN fails every comparison
            bound = "finite" if not value < low else "positive" if low else "non-negative"
            raise ConfigError(f"{prefix}{name} must be {bound}, got {value}")


def check_positive(obj, prefix: str, *names: str) -> None:
    """Reject each setting of ``obj`` named in ``names`` that is not above 0, naming the key."""
    for name in names:
        value = getattr(obj, name)
        if not value > 0:
            raise ConfigError(f"{prefix}{name} must be positive, got {value}")


def check_listed(obj, prefix: str, *names: str) -> None:
    """Reject each list of ``obj`` named in ``names`` that is empty, naming the key."""
    for name in names:
        if not getattr(obj, name):
            raise ConfigError(f"{prefix}{name} must list at least one value")
