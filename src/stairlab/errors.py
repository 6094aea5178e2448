"""Exception types shared across the package, and the config count check that raises one."""


class StairlabError(Exception):
    """Base class for package-specific errors."""


class ConfigError(StairlabError, ValueError):
    """Invalid configuration value or malformed config file."""


class TrainingError(StairlabError, RuntimeError):
    """Non-recoverable numerical problem during optimization."""


def check_counts(obj, prefix: str = "", **lows: int) -> None:
    """Reject each count of ``obj`` named in ``lows`` that lies below its bound, 0 or 1.

    The message names the key, after ``prefix`` (the config section, where
    the key alone is ambiguous), and the value.
    """
    for name, low in lows.items():
        value = getattr(obj, name)
        if value < low:
            bound = "positive" if low else "non-negative"
            raise ConfigError(f"{prefix}{name} must be {bound}, got {value}")
