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


def _payload(samples):
    rows = [(s.bits, repr(s.energy), s.num_occurrences) for s in samples]
    return rows, sorted(samples.info.items())


def _digest(samples) -> str:
    """Digest of one sample set, or of a multi-job call's list of them."""
    if isinstance(samples, list):
        payload = repr([_payload(s) for s in samples])
    else:
        payload = repr(_payload(samples))
    return hashlib.sha256(payload.encode()).hexdigest()


def _sa(seed, n, **opts):
    return SimulatedAnnealingSolver(**opts).solve(_random_model(seed, n), rng=seed)


def _tabu(seed, n, **opts):
    return TabuSolver(**opts).solve(_random_model(seed, n), rng=seed)


def _sa_shared_generator():
    """A mixed-size three-job call whose jobs 0 and 2 share one generator:
    job 0 draws its last half up front, job 2 draws its own lazily."""
    shared, own = np.random.default_rng(37), np.random.default_rng(38)
    models = [_random_model(37, 12), _random_model(38, 20), _random_model(39, 7)]
    solver = SimulatedAnnealingSolver(num_reads=6, num_sweeps=30)
    return solver.run(list(zip(models, [shared, own, shared])))


def _aspirating_moves(seed, n, num_restarts, max_iterations, tenure) -> int:
    """Tabu moves ``_tabu(seed, n, ...)`` takes because they beat the incumbent,
    counted by replaying each restart on its own."""
    model = _random_model(seed, n)
    a, S = model.symmetric_couplings()
    rng = np.random.default_rng(seed)
    taken = 0
    for _ in range(num_restarts):
        x = rng.integers(0, 2, size=n)
        fields, energy = S @ x, model.energy(x)
        best_e, tabu_until = energy, np.zeros(n, dtype=int)
        for it in range(max_iterations):
            deltas = (1 - 2 * x) * (a + fields)
            free = (tabu_until <= it) | (energy + deltas < best_e - 1e-12)
            if not free.any():
                break
            i = np.flatnonzero(free)[np.argmin(deltas[free])]
            taken += int(tabu_until[i] > it)
            energy += deltas[i]
            fields += S[:, i] * (1 - 2 * x[i])
            x[i] ^= 1
            tabu_until[i] = it + tenure
            if energy < best_e - 1e-12:
                best_e = energy
    return taken


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


ASPIRATION = dict(num_restarts=4, max_iterations=60, tenure=6)

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
    "sa-shared-generator": _sa_shared_generator,
    # beta near 0 accepts almost every flip; a large beta almost none uphill.
    "sa-hot-schedule": lambda: _sa(43, 14, num_reads=8, num_sweeps=20,
                                   beta_schedule=np.array([0.01, 0.02])),
    "sa-cold-schedule": lambda: _sa(47, 14, num_reads=8, num_sweeps=20,
                                    beta_schedule=np.array([30.0, 60.0])),
    "tabu-aspiration": lambda: _tabu(65, 12, **ASPIRATION),
    "tabu-n72": lambda: _tabu(59, 72, num_restarts=4, max_iterations=200),
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
    "sa-shared-generator": "8d5ded2f83763114d24b4fcedf828a4317063f77417377fe232a70750deff7da",
    "sa-hot-schedule": "2431e834f6f51cb08d2422b3de599d7edf2e57afcc1c86f2bc69e18d494e3bf1",
    "sa-cold-schedule": "6836a8494d9133cb7ce4da855e72969fbfcaeb392ec786947181aa5b31b800ce",
    "tabu-aspiration": "054bdd574f10ed3456bf1c7c7689d9ec73ce46fff97c12a7fc89cbe1b7f41917",
    "tabu-n72": "44301a9a05b895c75ea864c9eb2a8d51c672c256ac06c2049a9d4d25b6c2b23b",
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
    assert _aspirating_moves(65, 12, **ASPIRATION) > 0
