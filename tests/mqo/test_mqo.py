"""Tests for the multiple-query-optimization package."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing import AnnealerDevice, SimulatedAnnealingSolver
from repro.api import AnnealerBackend, QAOABackend, SamplerBackend, solve
from repro.exceptions import InfeasibleError, ReproError
from repro.mqo.classical import exhaustive_mqo, greedy_mqo, hill_climbing_mqo
from repro.mqo.generator import generate_mqo_problem
from repro.mqo.problem import MQOProblem
from repro.mqo.qubo import decode_sample, mqo_to_qubo, penalty_weight, selection_to_bits
from repro.qubo.bruteforce import BruteForceSolver


def _tiny_problem():
    """Two queries, two plans each, one strong saving pair."""
    p = MQOProblem()
    p.add_plan("q0", "p0", 10.0)
    p.add_plan("q0", "p1", 12.0)
    p.add_plan("q1", "p0", 20.0)
    p.add_plan("q1", "p1", 21.0)
    # Choosing the two nominally-expensive plans together is globally best.
    p.add_saving(("q0", "p1"), ("q1", "p1"), 8.0)
    return p


class TestProblem:
    def test_total_cost_no_savings(self):
        p = _tiny_problem()
        assert p.total_cost({"q0": "p0", "q1": "p0"}) == 30.0

    def test_total_cost_with_savings(self):
        p = _tiny_problem()
        assert p.total_cost({"q0": "p1", "q1": "p1"}) == 12.0 + 21.0 - 8.0

    def test_missing_selection_rejected(self):
        with pytest.raises(InfeasibleError):
            _tiny_problem().total_cost({"q0": "p0"})

    def test_unknown_plan_rejected(self):
        with pytest.raises(ReproError):
            _tiny_problem().total_cost({"q0": "p9", "q1": "p0"})

    def test_duplicate_plan_rejected(self):
        p = MQOProblem()
        p.add_plan("q", "p", 1.0)
        with pytest.raises(ReproError):
            p.add_plan("q", "p", 2.0)

    def test_same_query_saving_rejected(self):
        p = MQOProblem()
        p.add_plan("q", "a", 1.0)
        p.add_plan("q", "b", 1.0)
        with pytest.raises(ReproError):
            p.add_saving(("q", "a"), ("q", "b"), 0.5)

    def test_saving_named_by_lists_records_the_plan_keys(self):
        p = _tiny_problem()
        p.add_saving(["q0", "p0"], ["q1", "p0"], 1.0)
        assert p.savings[(("q0", "p0"), ("q1", "p0"))] == 1.0
        assert p.total_cost({"q0": "p0", "q1": "p0"}) == 29.0
        p.add_saving(("q0", "p0", "extra"), ("q1", "p1"), 2.0)
        assert (("q0", "p0"), ("q1", "p1")) in p.savings
        assert p.total_cost({"q0": "p0", "q1": "p1"}) == 29.0

    def test_unknown_or_malformed_plan_in_saving_rejected(self):
        for a in (("q0", "p9"), ["q0"], "q", 3, ("q0", ["p0"])):
            p = _tiny_problem()
            with pytest.raises(ReproError):
                p.add_saving(a, ("q1", "p0"), 1.0)
            assert p.savings == _tiny_problem().savings

    def test_nan_cost_and_nan_saving_rejected(self):
        p = MQOProblem()
        with pytest.raises(ReproError):
            p.add_plan("q", "p", float("nan"))
        assert p.num_plans == 0
        p = _tiny_problem()
        with pytest.raises(ReproError):
            p.add_saving(("q0", "p0"), ("q1", "p0"), float("nan"))
        with pytest.raises(ReproError):
            p.add_saving(("q0", "p0"), ("q1", "p0"), -1.0)
        assert p.savings == _tiny_problem().savings

    def test_bulk_savings_add_up_in_order_like_single_ones(self):
        items = [(("q1", "p1"), ("q0", "p1"), 0.1), (("q0", "p0"), ("q1", "p0"), 2.0),
                 (("q0", "p1"), ("q1", "p1"), 0.2)]
        one_by_one, bulk = _tiny_problem(), _tiny_problem()
        for a, b, amount in items:
            one_by_one.add_saving(a, b, amount)
        bulk.add_savings(items)
        assert list(bulk.savings.items()) == list(one_by_one.savings.items())
        assert bulk.savings[(("q0", "p1"), ("q1", "p1"))] == 8.0 + 0.1 + 0.2

    def test_bulk_savings_stop_at_the_first_bad_item(self):
        p = _tiny_problem()
        with pytest.raises(ReproError):
            p.add_savings([(("q0", "p0"), ("q1", "p0"), 1.0),
                           (("q0", "p0"), ("q0", "p1"), 1.0),
                           (("q0", "p1"), ("q1", "p0"), 1.0)])
        assert list(p.savings) == [(("q0", "p1"), ("q1", "p1")), (("q0", "p0"), ("q1", "p0"))]

    def test_cost_bounds_bracket_optimum(self):
        p = generate_mqo_problem(3, 3, rng=0)
        lo, hi = p.cost_bounds()
        _, opt = exhaustive_mqo(p)
        assert lo <= opt <= hi


class TestGenerator:
    def test_shape(self):
        p = generate_mqo_problem(4, 3, rng=1)
        assert len(p.queries) == 4
        assert p.num_plans == 12

    def test_density_zero_means_no_savings(self):
        p = generate_mqo_problem(3, 2, sharing_density=0.0, rng=2)
        assert not p.savings

    def test_density_one_all_pairs(self):
        p = generate_mqo_problem(2, 2, sharing_density=1.0, rng=3)
        assert len(p.savings) == 4  # 2x2 cross-query pairs

    def test_deterministic(self):
        a = generate_mqo_problem(3, 3, rng=7)
        b = generate_mqo_problem(3, 3, rng=7)
        assert a.savings == b.savings

    def test_validation(self):
        with pytest.raises(ReproError):
            generate_mqo_problem(0, 3)
        with pytest.raises(ReproError):
            generate_mqo_problem(2, 2, sharing_density=1.5)
        with pytest.raises(ReproError):
            generate_mqo_problem(3, 2, cost_range=(-5.0, 1.0), rng=0)
        for fraction in (0.05, -1.0, float("inf"), float("nan")):
            with pytest.raises(ReproError):
                generate_mqo_problem(3, 2, max_saving_fraction=fraction, rng=0)


class TestQuboMapping:
    def test_energy_matches_cost_on_feasible(self):
        p = _tiny_problem()
        model = mqo_to_qubo(p)
        for sel in (
            {"q0": "p0", "q1": "p0"},
            {"q0": "p1", "q1": "p1"},
            {"q0": "p0", "q1": "p1"},
        ):
            bits = selection_to_bits(p, model, sel)
            assert model.energy(bits) == pytest.approx(p.total_cost(sel))

    def test_qubo_optimum_is_problem_optimum(self):
        for seed in range(4):
            p = generate_mqo_problem(3, 2, sharing_density=0.5, rng=seed)
            model = mqo_to_qubo(p)
            best = BruteForceSolver().solve(model).best
            selection = decode_sample(p, model, best.bits, repair=False)
            _, opt = exhaustive_mqo(p)
            assert p.total_cost(selection) == pytest.approx(opt)
            assert best.energy == pytest.approx(opt)

    def test_infeasible_assignments_cost_more(self):
        p = _tiny_problem()
        model = mqo_to_qubo(p)
        _, opt = exhaustive_mqo(p)
        zero = model.energy([0, 0, 0, 0])
        double = model.energy([1, 1, 1, 0])
        assert zero > opt
        assert double > opt

    def test_decode_repairs_empty_query(self):
        p = _tiny_problem()
        model = mqo_to_qubo(p)
        sel = decode_sample(p, model, [0, 0, 1, 0])
        assert sel["q0"] == "p0"  # repaired to cheapest
        assert sel["q1"] == "p0"

    def test_decode_repairs_double_selection(self):
        p = _tiny_problem()
        model = mqo_to_qubo(p)
        sel = decode_sample(p, model, [1, 1, 1, 0])
        assert sel["q0"] == "p0"  # cheapest among selected

    def test_decode_strict_raises(self):
        p = _tiny_problem()
        model = mqo_to_qubo(p)
        with pytest.raises(InfeasibleError):
            decode_sample(p, model, [0, 0, 1, 0], repair=False)

    def test_penalty_weight_dominates(self):
        p = generate_mqo_problem(3, 3, sharing_density=0.5, rng=5)
        for q in p.queries:
            w = penalty_weight(p, q)
            max_cost = max(pl.cost for pl in p.plans_of(q))
            assert w > max_cost


class TestClassicalSolvers:
    def test_exhaustive_is_optimal_reference(self):
        p = _tiny_problem()
        sel, cost = exhaustive_mqo(p)
        assert cost == pytest.approx(25.0)
        assert sel == {"q0": "p1", "q1": "p1"}

    def test_greedy_ignores_sharing(self):
        p = _tiny_problem()
        sel, cost = greedy_mqo(p)
        assert sel == {"q0": "p0", "q1": "p0"}
        assert cost == 30.0

    def test_hill_climbing_finds_optimum_on_small(self):
        for seed in range(3):
            p = generate_mqo_problem(3, 3, sharing_density=0.4, rng=seed)
            _, opt = exhaustive_mqo(p)
            _, cost = hill_climbing_mqo(p, restarts=8, rng=seed)
            assert cost == pytest.approx(opt)

    def test_exhaustive_space_limit(self):
        p = generate_mqo_problem(4, 4, rng=0)
        with pytest.raises(ReproError):
            exhaustive_mqo(p, max_combinations=10)


def _annealer(use_embedding: bool = True) -> AnnealerBackend:
    device = AnnealerDevice(sampler="sa", num_reads=24, num_sweeps=256)
    return AnnealerBackend(device=device, use_embedding=use_embedding)


class TestQuantumSolvers:
    def test_plain_sampler(self):
        p = generate_mqo_problem(4, 3, sharing_density=0.4, rng=0)
        _, opt = exhaustive_mqo(p)
        sampler = SimulatedAnnealingSolver(num_reads=16, num_sweeps=200)
        r = solve(p, SamplerBackend(sampler), seed=1)
        assert r.objective == pytest.approx(opt)

    def test_annealer_with_embedding(self):
        p = generate_mqo_problem(4, 3, sharing_density=0.4, rng=1)
        _, opt = exhaustive_mqo(p)
        r = solve(p, _annealer(), seed=2)
        assert r.objective == pytest.approx(opt)
        assert "chain_break_fraction" in r.info
        assert r.info["max_chain_length"] >= 1

    def test_annealer_unembedded_ablation(self):
        p = generate_mqo_problem(4, 3, sharing_density=0.4, rng=2)
        _, opt = exhaustive_mqo(p)
        r = solve(p, _annealer(use_embedding=False), seed=3)
        assert r.objective == pytest.approx(opt)

    def test_qaoa_small_instance(self):
        p = generate_mqo_problem(3, 2, sharing_density=0.5, rng=5)
        _, opt = exhaustive_mqo(p)
        backend = QAOABackend(num_layers=3, maxiter=120, restarts=2, shots=512)
        r = solve(p, backend, seed=4)
        assert r.objective == pytest.approx(opt)
        assert r.info["qubits"] == 6

    def test_result_selection_is_feasible(self):
        p = generate_mqo_problem(3, 3, sharing_density=0.3, rng=6)
        sampler = SimulatedAnnealingSolver(num_reads=8, num_sweeps=100)
        r = solve(p, SamplerBackend(sampler), seed=0)
        p.validate_selection(r.solution)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_property_qubo_ground_equals_mqo_optimum(seed):
    p = generate_mqo_problem(3, 2, sharing_density=0.4, rng=seed)
    model = mqo_to_qubo(p)
    ground = BruteForceSolver().solve(model).best_energy()
    _, opt = exhaustive_mqo(p)
    assert ground == pytest.approx(opt)
