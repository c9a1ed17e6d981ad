"""Tests for the annealing samplers and schedules."""

import numpy as np
import pytest

from repro.annealing.schedule import beta_range, geometric_beta_schedule, linear_schedule
from repro.annealing.simulated_annealing import SimulatedAnnealingSolver
from repro.annealing.sqa import SimulatedQuantumAnnealingSolver
from repro.exceptions import ReproError
from repro.qubo.bruteforce import BruteForceSolver
from repro.qubo.model import QuboModel
from repro.qubo.penalty import add_exactly_one


def _random_model(seed, n=8, density=0.5):
    rng = np.random.default_rng(seed)
    m = QuboModel(n)
    for i in range(n):
        m.add_linear(i, float(rng.normal()))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                m.add_quadratic(i, j, float(rng.normal()))
    return m


class TestSchedules:
    def test_linear_endpoints(self):
        s = linear_schedule(0.0, 1.0, 5)
        assert s[0] == 0.0
        assert s[-1] == 1.0
        assert len(s) == 5

    def test_geometric_monotone(self):
        s = geometric_beta_schedule(0.1, 10.0, 20)
        assert np.all(np.diff(s) > 0)

    def test_geometric_rejects_nonpositive(self):
        with pytest.raises(ReproError):
            geometric_beta_schedule(0.0, 1.0, 5)

    def test_schedule_needs_steps(self):
        with pytest.raises(ReproError):
            linear_schedule(0, 1, 0)

    def test_beta_range_scales(self):
        lo1, hi1 = beta_range(1.0)
        lo2, hi2 = beta_range(10.0)
        assert lo2 == pytest.approx(lo1 / 10)
        assert hi2 == pytest.approx(hi1 / 10)


class TestSimulatedAnnealing:
    @pytest.mark.parametrize("seed", range(4))
    def test_reaches_exact_optimum(self, seed):
        m = _random_model(seed)
        exact = BruteForceSolver().solve(m).best_energy()
        found = SimulatedAnnealingSolver(num_reads=16, num_sweeps=200).solve(m, rng=seed)
        assert found.best_energy() == pytest.approx(exact, abs=1e-9)

    def test_respects_constraints(self):
        m = QuboModel(4)
        rng = np.random.default_rng(5)
        for i in range(4):
            m.add_linear(i, float(rng.normal()) * 0.1)
        add_exactly_one(m, [0, 1, 2, 3], 10.0)
        best = SimulatedAnnealingSolver(num_reads=8, num_sweeps=100).solve(m, rng=1).best
        assert sum(best.bits) == 1

    def test_deterministic_given_seed(self):
        m = _random_model(9)
        a = SimulatedAnnealingSolver(num_reads=4, num_sweeps=50).solve(m, rng=3)
        b = SimulatedAnnealingSolver(num_reads=4, num_sweeps=50).solve(m, rng=3)
        assert a.best.bits == b.best.bits

    def test_custom_beta_schedule_resampled(self):
        m = _random_model(2, n=4)
        solver = SimulatedAnnealingSolver(num_reads=4, num_sweeps=37, beta_schedule=np.array([0.1, 1.0, 10.0]))
        ss = solver.solve(m, rng=0)
        assert len(ss) >= 1

    @pytest.mark.parametrize("betas", [[0.0, 1.0], [-1.0, 2.0], [1.0, np.inf], [np.nan]])
    def test_beta_schedule_must_be_positive_and_finite(self, betas):
        with pytest.raises(ReproError, match="positive and finite"):
            SimulatedAnnealingSolver(beta_schedule=np.array(betas))

    def test_info_fields(self):
        ss = SimulatedAnnealingSolver(num_reads=4, num_sweeps=10).solve(_random_model(0, n=4), rng=0)
        assert ss.info["solver"] == "simulated_annealing"
        assert ss.info["reads"] == 4

    def test_portfolio_merge_keeps_both_schedules_info(self):
        # The default (no explicit schedule, >= 2 reads) portfolio path must
        # surface both halves in the merged info, not drop the second's.
        ss = SimulatedAnnealingSolver(num_reads=5, num_sweeps=10).solve(_random_model(1, n=4), rng=0)
        assert ss.info["solver"] == "simulated_annealing"
        split = ss.info["schedule_portfolio"]
        assert split == {"coeff_reads": 3, "field_reads": 2}
        assert split["coeff_reads"] + split["field_reads"] == 5


class TestSQA:
    @pytest.mark.parametrize("seed", range(3))
    def test_reaches_exact_optimum(self, seed):
        m = _random_model(seed, n=7)
        exact = BruteForceSolver().solve(m).best_energy()
        found = SimulatedQuantumAnnealingSolver(num_reads=8, num_sweeps=120, num_slices=6).solve(m, rng=seed)
        assert found.best_energy() == pytest.approx(exact, abs=1e-9)

    def test_needs_two_slices(self):
        with pytest.raises(ReproError):
            SimulatedQuantumAnnealingSolver(num_slices=1)

    def test_frustrated_antiferromagnet(self):
        # Ring of antiferromagnetic couplings: ground state alternates.
        m = QuboModel(6)
        for i in range(6):
            m.add_quadratic(i, (i + 1) % 6, 2.0)
            m.add_linear(i, -1.0)
        exact = BruteForceSolver().solve(m).best_energy()
        found = SimulatedQuantumAnnealingSolver(num_reads=8, num_sweeps=100).solve(m, rng=0)
        assert found.best_energy() == pytest.approx(exact, abs=1e-9)

    def test_deterministic_given_seed(self):
        m = _random_model(4, n=5)
        a = SimulatedQuantumAnnealingSolver(num_reads=4, num_sweeps=40).solve(m, rng=8)
        b = SimulatedQuantumAnnealingSolver(num_reads=4, num_sweeps=40).solve(m, rng=8)
        assert a.best.bits == b.best.bits
