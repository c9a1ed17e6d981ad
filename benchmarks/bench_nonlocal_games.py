"""E5 / E6: the nonlocal games of Sec. IV-A.

Paper numbers: CHSH 0.75 classical vs ~0.85 quantum; GHZ 0.75 vs 1.0.
"""

import math

import pytest

from repro.games.chsh import chsh_game, chsh_quantum_strategy
from repro.games.classical import optimal_classical_value
from repro.games.framework import quantum_win_probability
from repro.games.ghz import ghz_classical_value, ghz_game_quantum_value
from repro.games.magic_square import magic_square_classical_value, magic_square_quantum_value
from repro.games.xor_games import random_xor_game, xor_classical_value, xor_quantum_value


def test_e5_chsh_classical_bound():
    value, _, _ = optimal_classical_value(chsh_game())
    assert value == pytest.approx(0.75)


def test_e5_chsh_quantum_value():
    value = quantum_win_probability(chsh_game(), chsh_quantum_strategy())
    assert value == pytest.approx(math.cos(math.pi / 8) ** 2)  # ~0.8536
    assert value > 0.75


def test_e6_ghz_values():
    def kernel():
        classical, _ = ghz_classical_value()
        return classical, ghz_game_quantum_value()

    classical, quantum = kernel()
    assert classical == pytest.approx(0.75)
    assert quantum == pytest.approx(1.0)


def test_e6_magic_square_extension():
    classical, quantum = magic_square_classical_value(), magic_square_quantum_value(rounds_per_pair=2, rng=0)
    assert classical == pytest.approx(8 / 9)
    assert quantum == pytest.approx(1.0)


def test_e5_xor_game_sweep():
    """Random XOR games: quantum >= classical everywhere (Tsirelson)."""

    def kernel():
        gaps = []
        for seed in range(6):
            game = random_xor_game(2, 2, rng=seed)
            gaps.append(xor_quantum_value(game, restarts=6, rng=seed) - xor_classical_value(game))
        return gaps

    gaps = kernel()
    assert all(g >= -1e-6 for g in gaps)
    assert max(gaps) > 0.01  # some games show a strict quantum advantage
