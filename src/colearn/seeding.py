"""Counter-based RNG derivation: every random draw is a pure function of
(master seed, context tags). No global RNG state anywhere in the package."""

from __future__ import annotations

import zlib

import numpy as np


def seed_sequence(seed: int, *tags: int | str) -> np.random.SeedSequence:
    """Derive a SeedSequence from a master seed and a chain of context tags.

    String tags are hashed with crc32 so the derivation is stable across
    processes and platforms; integer tags (run indices, round counters,
    agent ids) are used as-is. The seed and integer tags must be
    non-negative: SeedSequence raises a ValueError for a negative word, and
    a config's master_seed is checked to be >= 0 where it is read.
    """
    words = [int(seed)]
    for tag in tags:
        if isinstance(tag, str):
            words.append(zlib.crc32(tag.encode("utf-8")))
        else:
            words.append(int(tag))
    return np.random.SeedSequence(words)


def rng_for(seed: int, *tags: int | str) -> np.random.Generator:
    """Fresh generator for one purpose; random-access, no replay needed."""
    return np.random.default_rng(seed_sequence(seed, *tags))


def subseed(seed: int, *tags: int | str) -> int:
    """Collapse (seed, tags) into a single 64-bit integer seed.

    Used to hand a derived seed across an API boundary that takes a plain
    integer (e.g. per-run engine seeds).
    """
    return int(seed_sequence(seed, *tags).generate_state(1, np.uint64)[0])
