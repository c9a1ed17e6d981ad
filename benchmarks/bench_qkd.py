"""E13: QKD — the secure-data-management enabler of Sec. IV ([62]).

Shapes: BB84 QBER ~0 honest vs ~25% under intercept-resend (session
aborts); E91 CHSH statistic above 2 honest, at or below 2 under attack.
"""

import numpy as np
import pytest

from repro.qnet.qkd import run_bb84, run_e91


def test_e13_bb84_honest():
    result = run_bb84(384, eve=False, rng=0)
    assert result.qber < 0.05
    assert not result.aborted
    assert len(result.key) > 50


def test_e13_bb84_eavesdropper_detected():
    def kernel():
        qbers = [run_bb84(384, eve=True, rng=seed).qber for seed in range(4)]
        return qbers

    qbers = kernel()
    assert np.mean(qbers) == pytest.approx(0.25, abs=0.07)
    # Intercept-resend pushes QBER to ~25%; finite sampling can graze the
    # abort threshold, so require a clear elevation on every session.
    assert all(q >= 0.10 for q in qbers)
    assert sum(1 for q in qbers if q > 0.12) >= 3  # nearly every session aborts


def test_e13_bb84_noise_tolerance():
    """Moderate channel noise passes; Eve's disturbance does not."""

    def kernel():
        noisy = run_bb84(512, eve=False, channel_flip_prob=0.04, rng=5)
        attacked = run_bb84(512, eve=True, channel_flip_prob=0.04, rng=6)
        return noisy, attacked

    noisy, attacked = kernel()
    assert not noisy.aborted
    assert attacked.aborted


def test_e13_e91_chsh_witness():
    def kernel():
        honest = run_e91(600, eve=False, rng=7)
        attacked = run_e91(600, eve=True, rng=8)
        return honest, attacked

    honest, attacked = kernel()
    assert honest.chsh_value > 2.0
    assert honest.secure
    assert attacked.chsh_value <= 2.1
    assert not attacked.secure
    assert attacked.key == []
