"""Exception types shared across the package, and config-value coercion."""

import math
import typing
from functools import cache


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


@cache
def field_types(cls) -> dict:
    """typing.get_type_hints(cls), evaluated once per class."""
    return typing.get_type_hints(cls)


def check_field_types(obj) -> None:
    """A ConfigError naming the first field of the dataclass obj whose value does not
    fit its annotation: a bool is no int, an int is a float, and a Literal field
    holds one of its values."""
    for name, hint in field_types(type(obj)).items():
        value = getattr(obj, name)
        if typing.get_origin(hint) is typing.Literal:
            if value not in typing.get_args(hint):
                raise ConfigError(f"unknown {name} {value!r}")
        # an int is a float, a bool neither (though it is an int to Python)
        elif not (isinstance(value, (int, float) if hint is float else hint)
                  and (hint is bool or not isinstance(value, bool))):
            raise ConfigError(f"{name} must be {hint.__name__}, got {value!r}")
