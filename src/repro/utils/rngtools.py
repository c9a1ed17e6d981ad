"""Random-number-generator plumbing.

Every stochastic entry point in the library accepts either a seed, an
existing :class:`numpy.random.Generator`, or ``None`` (fresh entropy);
:func:`ensure_rng` normalises all three into a ``Generator``.
"""

from __future__ import annotations

import numpy as np

RngLike = "int | np.random.Generator | None"

#: Exclusive upper bound of every child seed the library draws (``[0,
#: SEED_RANGE)``), and so of the explicit seeds it accepts in their place.
SEED_RANGE = 2**63 - 1


def ensure_rng(rng: "int | np.random.Generator | None" = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted input.

    Passing an existing generator returns it unchanged, so callers can
    thread a single generator through a whole experiment for reproducibility.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"expected seed, Generator or None, got {type(rng).__name__}")


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``n`` independent child generators."""
    seeds = rng.integers(0, SEED_RANGE, size=n)
    return [np.random.default_rng(int(s)) for s in seeds]
