"""Config values read as their annotations declare, or a ConfigError naming the field."""

from __future__ import annotations

from enum import Enum
from typing import Any, Literal, get_args, get_origin

from .errors import ConfigError


def check_count(name: str, value: object, minimum: int = 1) -> None:
    """Raise ConfigError naming the field unless value is an integer of at least minimum."""
    if _field_from_json(name, int, value) < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def _to_json(value: Any) -> Any:
    """A config value as JSON: an Enum as its value, a tuple or list as a list."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (tuple, list)):
        return [_to_json(item) for item in value]
    return value


def _field_from_json(name: str, kind: Any, value: Any) -> Any:
    """A config field read as its annotated type kind, or ConfigError naming it.

    An Enum member or its value gives the member; a tuple or a list gives a tuple.
    """

    def wrong(expected: str) -> ConfigError:
        return ConfigError(f"config field {name!r} must be {expected}, got {value!r}")

    if get_origin(kind) is tuple:
        # Names, or the members or values of an Enum.
        item = get_args(kind)[0]
        if not isinstance(value, (list, tuple)) or not all(isinstance(v, (str, item)) for v in value):
            raise wrong("a list of strings")
        if issubclass(item, Enum):
            choices = [member.value for member in item]
            if not {_to_json(v) for v in value} <= set(choices):
                raise wrong(f"a list drawn from {choices}")
        return tuple(item(v) for v in value)
    if get_origin(kind) is Literal:
        if value not in get_args(kind):
            raise wrong(f"one of {list(get_args(kind))}")
        return value
    if isinstance(kind, type) and issubclass(kind, Enum):
        choices = [member.value for member in kind]
        if not isinstance(value, kind) and value not in choices:
            raise wrong(f"one of {choices}")
        return kind(value)
    nullable = type(None) in get_args(kind)
    if nullable:
        if value is None:
            return value
        (kind,) = (option for option in get_args(kind) if option is not type(None))
    # bool is an int to isinstance, but a count written as true is a slip.
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    expected = {str: "a string", bool: "true or false", int: "an integer"}.get(kind, f"a {kind.__name__}")
    raise wrong(expected + (" or null" if nullable else ""))
