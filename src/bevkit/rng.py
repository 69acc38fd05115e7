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
    word = int(value)
    if not 0 <= word < SEED_LIMIT:
        raise ContractError(f"seeded_rng: {what} {value!r} is outside [0, 2**32)")
    return word


def seeded_rng(seed: int, *tags) -> np.random.Generator:
    """Generator keyed by an integer seed plus arbitrary string/int tags. The
    seed and every integer tag must lie in [0, 2**32) (ContractError
    otherwise)."""
    entropy = [_word(seed, "seed")]
    for tag in tags:
        if isinstance(tag, (int, np.integer)):
            entropy.append(_word(tag, "tag"))
        else:
            entropy.append(zlib.crc32(str(tag).encode("utf-8")))
    return np.random.default_rng(np.random.SeedSequence(entropy))
