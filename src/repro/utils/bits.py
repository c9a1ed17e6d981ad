"""Bit-manipulation helpers shared across the library.

Convention (see DESIGN.md): qubit 0 is the *leftmost* (most significant) bit
of a basis label.  The basis state ``|q0 q1 ... q(n-1)>`` therefore has the
integer index ``sum(q_j * 2**(n-1-j))``.
"""

from __future__ import annotations

import numpy as np


def index_to_bits(index: int, n: int) -> tuple[int, ...]:
    """Return the ``n``-bit tuple ``(q0, ..., q(n-1))`` for a basis index.

    >>> index_to_bits(6, 3)
    (1, 1, 0)
    """
    if index < 0 or index >= (1 << n):
        raise ValueError(f"index {index} out of range for {n} bits")
    return tuple((index >> (n - 1 - j)) & 1 for j in range(n))


def indices_to_bit_rows(indices: np.ndarray, n: int) -> np.ndarray:
    """Vectorised :func:`index_to_bits`: one ``n``-bit ``uint8`` row per index."""
    shifts = np.arange(n - 1, -1, -1)
    return ((np.asarray(indices)[:, None] >> shifts) & 1).astype(np.uint8)


def bits_to_index(bits: tuple[int, ...] | list[int]) -> int:
    """Return the basis index for a bit tuple ``(q0, ..., q(n-1))``.

    >>> bits_to_index((1, 1, 0))
    6
    """
    index = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {bit!r}")
        index = (index << 1) | bit
    return index


def index_to_bitstring(index: int, n: int) -> str:
    """Return the ``n``-character bitstring label for a basis index.

    >>> index_to_bitstring(6, 3)
    '110'
    """
    return "".join(str(b) for b in index_to_bits(index, n))


def bitstring_to_index(bitstring: str) -> int:
    """Return the basis index for a bitstring label such as ``'110'``."""
    if not bitstring or any(c not in "01" for c in bitstring):
        raise ValueError(f"invalid bitstring {bitstring!r}")
    return int(bitstring, 2)


def parity(value: int) -> int:
    """Return the parity (0 or 1) of the set bits of ``value``.

    >>> parity(0b1011)
    1
    """
    return bin(value).count("1") & 1
