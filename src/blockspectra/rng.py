"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator keyed by a tuple of
nonnegative integers: a user-facing root seed followed by a stream tag and
counters (probe index, block index, run index, ...).  Identical keys give
bit-identical streams on every platform, and streams with different keys are
independent, so the order in which streams are drawn cannot change results.
"""

from __future__ import annotations

import numpy as np

# Stream tags keep unrelated consumers of the same root seed independent.
TAG_PROBE = 11
TAG_BLOCK_PROBE = 13
TAG_INIT = 17
TAG_CASE = 19
TAG_DATA = 23
TAG_TRAIN = 29


def derive_rng(*keys: int) -> np.random.Generator:
    """Generator for the stream keyed by the given integers."""
    flat = [int(k) for k in keys]
    if any(k < 0 for k in flat):
        raise ValueError(f"stream keys must be nonnegative, got {flat}")
    return np.random.default_rng(flat)
