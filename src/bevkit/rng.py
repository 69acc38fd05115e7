"""Deterministic, named random streams.

Every stochastic stage derives its own generator from (seed, *tags) so that
per-scene work can run in any order, or in parallel, without changing a
single output byte.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ContractError

# seeds and integer tags are 32-bit words of the entropy: one outside [0,
# SEED_LIMIT) would fold onto one inside, and two datasets meant to differ
# would share their bytes
SEED_LIMIT = 2**32


def _word(value, what: str) -> int:
    """value as a 32-bit word of the entropy; ContractError unless it is an
    integer (a bool or a float is not, though int() would take it) in [0,
    2**32)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"seeded_rng: {what} {value!r} is not an integer")
    word = int(value)
    if not 0 <= word < SEED_LIMIT:
        raise ContractError(f"seeded_rng: {what} {value!r} is outside [0, 2**32)")
    return word


def seeded_rng(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by an integer seed plus string or integer tags. The
    seed and every integer tag must be integers in [0, 2**32), and every
    other tag a string (ContractError otherwise): seeded_rng(1.5) or a tag
    True would otherwise key the stream of 1, a tag 2.0 that of "2.0"."""
    entropy = [_word(seed, "seed")]
    for tag in tags:
        if isinstance(tag, str):
            entropy.append(zlib.crc32(tag.encode("utf-8")))
        else:
            entropy.append(_word(tag, "tag"))
    return np.random.default_rng(np.random.SeedSequence(entropy))
