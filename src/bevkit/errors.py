"""Exception types shared across the package, the kind, finiteness and
size checks of configuration dataclasses, and the check of loaded arrays."""

import dataclasses
import math
import numbers
import sys

import numpy as np


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
    """Scene sampling could not satisfy its constraints. Nothing raises it
    now, but the benchmark still catches it by name."""


_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def check_field_kinds(cfg):
    """ConfigError unless each field of the frozen dataclass cfg has its
    default's kind: bool, integer, real (neither a bool) or str; for a tuple
    default, a tuple or list item by item, and for one of tuples, one or more
    items. Lists are then stored as tuples, so a checked cfg cannot change."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not of_kind(value, f.default):
            raise ConfigError(f"{f.name} must be like {f.default!r}, got {value!r}")
        object.__setattr__(cfg, f.name, _tuples(value))


def _tuples(value):
    """value with every list or tuple in it a tuple, at every depth."""
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


def finite(*values) -> bool:
    """Whether every real of values is finite (an int too large for a float is not)."""
    try:
        return all(map(math.isfinite, values))
    except OverflowError:
        return False


def fits(sizes, per_cell: int) -> bool:
    """Whether sizes are integers >= 1 (not bools) of a float64 array, per_cell
    values a cell, that np.empty can make: sys.maxsize bytes (memory aside)."""
    return (all(of_kind(n, 0) and n >= 1 for n in sizes)
            and math.prod(map(int, sizes)) * per_cell * 8 <= sys.maxsize)


def real_floats(value, shape) -> bool:
    """Whether value is a numpy array of finite real floats (any width) of
    this shape, which a loader may copy into float64 state; a list is not."""
    return (isinstance(value, np.ndarray) and value.dtype.kind == "f"
            and value.shape == tuple(shape) and bool(np.isfinite(value).all()))


def of_kind(value, like) -> bool:
    """Whether value is of like's kind, as check_field_kinds reads it."""
    if not isinstance(like, tuple):
        return (isinstance(value, bool) == isinstance(like, bool)
                and isinstance(value, _KINDS[type(like)]))
    if like and isinstance(like[0], tuple) and isinstance(value, (tuple, list)):
        like = like[:1] * max(len(value), 1)  # one or more items like the first
    return (isinstance(value, (tuple, list)) and len(value) == len(like)
            and all(map(of_kind, value, like)))
