"""Exception types shared across the package, and the kind check of
configuration dataclasses."""

import dataclasses
import numbers


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """A caller violated an operation's precondition."""


class NumericError(ValueError):
    """Non-finite values where the operation requires finite input."""


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


class DataError(RuntimeError):
    """Broken or missing dataset artifacts (CLI exit code 3)."""


class GenerationError(RuntimeError):
    """Scene sampling could not satisfy its constraints."""


_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def check_field_kinds(cfg):
    """ConfigError unless each field of the dataclass cfg has its default's
    kind: bool, integer, real (neither a bool) or str; for a tuple default, a
    tuple or list item by item, and for one of tuples, one or more items."""
    for f in dataclasses.fields(cfg):
        if not of_kind(getattr(cfg, f.name), f.default):
            raise ConfigError(f"{f.name} must be like {f.default!r}, got {getattr(cfg, f.name)!r}")


def of_kind(value, like) -> bool:
    """Whether value is of like's kind, as check_field_kinds reads it."""
    if not isinstance(like, tuple):
        return (isinstance(value, bool) == isinstance(like, bool)
                and isinstance(value, _KINDS[type(like)]))
    if like and isinstance(like[0], tuple) and isinstance(value, (tuple, list)):
        like = like[:1] * max(len(value), 1)  # one or more items like the first
    return (isinstance(value, (tuple, list)) and len(value) == len(like)
            and all(map(of_kind, value, like)))
