"""Solution containers shared by every QUBO solver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterator

import numpy as np


@dataclass(frozen=True)
class Sample:
    """One solution: an assignment, its energy and a multiplicity."""

    bits: tuple[int, ...]
    energy: float
    num_occurrences: int = 1


class SampleSet:
    """Energy-sorted samples held as a ``(rows, n)`` bit matrix, energies and counts.

    Equal rows merge into the first one's energy with their counts summed
    (``counts`` defaults to 1 per row); rows sort by ``(energy, bits)``.
    Mirrors the result object shape of real annealer SDKs: iteration,
    indexing and :attr:`best` yield :class:`Sample` rows, built on demand.
    """

    def __init__(self, bits, energies, counts=None, info: "dict | None" = None):
        energies = np.asarray(energies, dtype=float).reshape(-1)
        bits = np.asarray(bits, dtype=np.uint8)
        bits = bits.reshape(0, 0) if bits.size == 0 and bits.ndim < 2 else bits  # [] is no rows
        if bits.ndim != 2 or len(bits) != energies.size:
            raise ValueError(f"bits of shape {bits.shape} do not match {energies.size} energies")
        counts = [1] * energies.size if counts is None else np.asarray(counts, dtype=np.int64).tolist()
        # Packed rows compare as bytes the way the bit tuples compare, so
        # they serve as both the merge key and the sort tie-break.
        keys = list(map(bytes, np.packbits(bits, axis=1)))
        first: dict[bytes, int] = {}
        for r, key in enumerate(keys):
            kept = first.setdefault(key, r)
            if kept != r:
                counts[kept] += counts[r]
        e = energies.tolist()
        order = sorted(first.values(), key=lambda r: (e[r], keys[r]))
        self._bits = bits[order]
        self._energies = energies[order]
        self._counts = np.array([counts[r] for r in order], dtype=np.int64)
        for array in (self._bits, self._energies, self._counts):
            array.flags.writeable = False
        self.info = dict(info or {})

    # -- access ----------------------------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """The ``(rows, n)`` bit matrix, lowest energy first (read-only)."""
        return self._bits

    @property
    def counts(self) -> np.ndarray:
        """Each row's number of occurrences (read-only)."""
        return self._counts

    def energies(self) -> np.ndarray:
        """Each row's energy, ascending (read-only)."""
        return self._energies

    @property
    def best(self) -> Sample:
        """The lowest-energy sample."""
        if not len(self):
            raise IndexError("empty sample set")
        return self[0]

    def best_energy(self) -> float:
        return self.best.energy

    def decode_best(self, model) -> dict[Hashable, int]:
        """Best assignment as ``{label: bit}`` for the given model."""
        return model.decode(self.best.bits)

    def __iter__(self) -> Iterator[Sample]:
        return map(self.__getitem__, range(len(self)))

    def __len__(self) -> int:
        return len(self._energies)

    def __getitem__(self, i: int) -> Sample:
        return Sample(tuple(self._bits[i].tolist()), float(self._energies[i]), int(self._counts[i]))

    def truncate(self, k: int) -> "SampleSet":
        """Keep only the ``k`` lowest-energy samples."""
        return SampleSet(self._bits[:k], self._energies[:k], self._counts[:k], info=self.info)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not len(self):
            return "SampleSet(empty)"
        return f"SampleSet({len(self)} samples, best={self.best.energy:.6g})"
