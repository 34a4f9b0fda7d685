"""Exception types shared across the package, and config-value coercion."""

import math
import typing


class InvalidInputError(ValueError):
    """Malformed argument: non-finite logits, bad context shape, etc."""


class InvalidParameterError(ValueError):
    """Parameter outside its legal range (e.g. beta not in (0,1))."""


class DivergenceInfiniteError(ArithmeticError):
    """A divergence is +inf because of a support violation."""


class LogOfZeroError(ArithmeticError):
    """Log-probability requested for a zero-probability token."""


class NumericOverflowError(ArithmeticError):
    """A parameter update would produce non-finite values."""


class ParseError(ValueError):
    """Malformed serialized file; message carries line/field context."""


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, regime mismatch)."""


class PipelineError(RuntimeError):
    """Multi-stage run could not be threaded together."""


def boolean(value) -> bool:
    """value if it is a JSON boolean (true or false); any other value is a ValueError."""
    if not isinstance(value, bool):
        raise ValueError(value)
    return value


def string(value) -> str:
    """value if it is a JSON string; any other value is a ValueError."""
    if not isinstance(value, str):
        raise ValueError(value)
    return value


def config_field(node: dict, path: str, cast, default):
    """The value under path's last key in node (default when absent), as cast.

    A value cast rejects is a ConfigError naming the dotted path, and so is a
    boolean for a number, a fraction for an int (5.0 reads as 5), a NaN or
    infinity for a float, or for a Literal cast any value but its own.
    """
    value = node.get(path.rpartition(".")[2], default)
    if typing.get_origin(cast) is typing.Literal:
        if value not in typing.get_args(cast):
            raise ConfigError(f"unknown {path} {value!r}")
        return value
    try:
        if cast in (int, float) and isinstance(value, bool):
            raise TypeError(value)
        if cast is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        result = cast(value)
        if cast is float and not math.isfinite(result):
            raise ValueError(value)
        return result
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected {cast.__name__}, got {value!r}") from None
