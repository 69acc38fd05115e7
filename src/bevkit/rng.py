"""Deterministic, named random streams.

Every stochastic stage derives its own generator from (seed, *tags) so that
per-scene work can run in any order, or in parallel, without changing a
single output byte.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ContractError, of_kind

# seeds and integer tags are 32-bit words of the entropy: one outside [0,
# SEED_LIMIT) would fold onto one inside, and two datasets meant to differ
# would share their bytes
SEED_LIMIT = 2**32


def is_word(value) -> bool:
    """Whether value is a 32-bit word of the entropy: an integer (a bool or a
    float is not, though int() would take it) in [0, 2**32)."""
    return of_kind(value, 0) and 0 <= value < SEED_LIMIT


def seeded_rng(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by an integer seed plus string or integer tags. The
    seed and every integer tag must be integers in [0, 2**32), and every
    other tag a string (ContractError otherwise): seeded_rng(1.5) or a tag
    True would otherwise key the stream of 1, a tag 2.0 that of "2.0"."""
    words = [seed, *(zlib.crc32(t.encode("utf-8")) if isinstance(t, str) else t for t in tags)]
    for word in words:
        if not is_word(word):
            raise ContractError(f"seeded_rng: seed or tag {word!r} is not an integer or is "
                                f"outside [0, 2**32)")
    return np.random.default_rng(np.random.SeedSequence(list(map(int, words))))
