"""Golden sampler output: pinned digests of what each sampler returns.

The QUBO goldens pin formulations and the determinism matrix compares
executors with each other, so a sampler rewrite that changed every sample
would pass both.  These digests pin the samples themselves: for fixed random
QUBOs and seeds, the SHA-256 of ``[(bits, repr(energy), num_occurrences)]``
plus the sample set's ``info``.  Any change to a sampler's RNG draw order or
to its floating-point arithmetic moves a digest.

If a failure here is *intentional* (a sampler's algorithm changed on
purpose), regenerate the constants from the failure messages and say so in
the commit message: every cached result of that sampler changes with it.
"""

import hashlib

import numpy as np
import pytest

from repro.annealing.device import AnnealerDevice
from repro.annealing.simulated_annealing import SimulatedAnnealingSolver
from repro.annealing.sqa import SimulatedQuantumAnnealingSolver
from repro.qubo.model import QuboModel
from repro.qubo.tabu import TabuSolver


def _random_model(seed: int, n: int, density: float = 0.5) -> QuboModel:
    rng = np.random.default_rng(seed)
    model = QuboModel(n)
    for i in range(n):
        model.add_linear(i, float(rng.normal()))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                model.add_quadratic(i, j, float(rng.normal()))
    return model


def _digest(samples) -> str:
    rows = [(s.bits, repr(s.energy), s.num_occurrences) for s in samples]
    payload = repr((rows, sorted(samples.info.items())))
    return hashlib.sha256(payload.encode()).hexdigest()


def _sa(seed, n, **opts):
    return SimulatedAnnealingSolver(**opts).solve(_random_model(seed, n), rng=seed)


def _tabu(seed, n, **opts):
    return TabuSolver(**opts).solve(_random_model(seed, n), rng=seed)


def _sqa(seed, n):
    solver = SimulatedQuantumAnnealingSolver(num_reads=4, num_sweeps=16, num_slices=4)
    return solver.solve(_random_model(seed, n), rng=seed)


def _annealer(seed, n, reuse: bool):
    """The annealer backend's two paths: embedding search, then a cache hit.

    The second model shares the first one's structure, so the first one's
    embedding serves it, as the backend's signature-keyed cache does.
    """
    device = AnnealerDevice(sampler="sa", num_reads=8, num_sweeps=24)
    first = _random_model(seed, n, density=1.0)
    rng = np.random.default_rng(seed)
    embedding = device.find_embedding(first, rng=rng)
    samples = device.sample(first, rng=rng, embedding=embedding)
    if not reuse:
        return samples
    second = _random_model(seed + 1, n, density=1.0)
    return device.sample(second, rng=np.random.default_rng(seed + 1), embedding=embedding)


CASES = {
    "sa-portfolio": lambda: _sa(11, 12, num_reads=16, num_sweeps=48),
    "sa-portfolio-n30": lambda: _sa(3, 30, num_reads=8, num_sweeps=24),
    "sa-odd-reads": lambda: _sa(5, 10, num_reads=5, num_sweeps=40),
    "sa-one-read": lambda: _sa(7, 10, num_reads=1, num_sweeps=40),
    "sa-resampled-schedule": lambda: _sa(
        13, 10, num_reads=6, num_sweeps=33, beta_schedule=np.array([0.1, 0.7, 2.5])
    ),
    "sa-no-quench": lambda: _sa(17, 12, num_reads=8, num_sweeps=20, quench=False),
    "tabu-default": lambda: _tabu(19, 16),
    # tenure >= n: once every variable is tabu a restart stops, each at its own
    # iteration.
    "tabu-long-tenure": lambda: _tabu(28, 9, tenure=12, max_iterations=40),
    "sqa": lambda: _sqa(29, 8),
    "annealer-chains": lambda: _annealer(31, 6, reuse=False),
    "annealer-embedding-hit": lambda: _annealer(31, 6, reuse=True),
}

GOLDEN = {
    "sa-portfolio": "8ac73ae66c461255e2867d2567e691d2f59d99d486d17ba35aea96a4e3796adf",
    "sa-portfolio-n30": "3c4e5a98fc4afbac1f7f23d464c301e6b0174a61631994d0b78160cbaac34c6d",
    "sa-odd-reads": "8d1cf0abde9b6d85848b4ccc3bdbc222b372eb6f6f0aee25afa97e05c89732e4",
    "sa-one-read": "3976fc6e4188fac6d5218beb086b49f26ce08c73831bd47ad2ca416dcccabdd6",
    "sa-resampled-schedule": "a59223ad3cebf3cd0b322bb19ec1d7cf0b66b84f8222ca99f2ab877067c9bec1",
    "sa-no-quench": "e6145b295a1f63aca0384d60309b3a9cf0bacd1095782c7f82ce984532a5d173",
    "tabu-default": "ca1f327d7f1fe96dff3024b54ead27cc055bbaefe8689c521473986bc5374fa2",
    "tabu-long-tenure": "30b19f9767e53d038fab4d725d08ca493c8e6ff5e05590a9ed9b8596c6cac3ce",
    "sqa": "ead134b441d494c6d2781ee6f27b4e3dc064d651c7bef70deb63047b6ae2b17d",
    "annealer-chains": "6bb92b0c6703b23c524588e0d8065ed8a1eb4f6180d2d8d8cd617a9adebbd003",
    "annealer-embedding-hit": "90e9b895c4c2dd0ca7512d82d06dfce9f05a392513f15def3b43d10d2092eb83",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_sampler_output_is_pinned(case):
    digest = _digest(CASES[case]())
    assert digest == GOLDEN[case], f"{case}: sampler output moved; digest is now {digest}"


def test_cases_exercise_the_paths_they_name():
    """The pinned cases really reach the branches they are named after."""
    assert _annealer(31, 6, reuse=False).info["max_chain_length"] > 1
    portfolio = CASES["sa-portfolio"]()
    assert portfolio.info["schedule_portfolio"] == {"coeff_reads": 8, "field_reads": 8}
