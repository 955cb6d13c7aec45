"""Counter-derived random streams.

All randomness in the package flows from a single unsigned master seed.
Child streams are derived from ``(master, *path)`` counter tuples via
``numpy.random.SeedSequence``, so any replicate can be recomputed in
isolation and parallel schedules cannot change results.  ``SeedSequence``
also decides what a seed is: a non-negative integer of any integer type.
Anything it rejects, such as ``-1`` or ``1.5``, raises InputError.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def _seed_sequence(master: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    # no int() here: it would turn a fractional seed into another seed
    try:
        return np.random.SeedSequence(entropy=[master, *path])
    except (TypeError, ValueError):
        raise InputError(f"seeds must be non-negative integers, got {(master, *path)}") from None


def derive_seed(master: int, *path: int) -> int:
    """Return the u64 seed for the child stream at ``(master, *path)``."""
    return _seed_sequence(master, path).generate_state(1, np.uint64)[0].item()


def rng_from(master: int, *path: int) -> np.random.Generator:
    """Return a fresh Generator for the child stream at ``(master, *path)``."""
    return np.random.default_rng(_seed_sequence(master, path))
