"""Tests for the left-deep and bushy join-ordering QUBOs."""

import itertools

import numpy as np
import pytest

from repro import solve
from repro.api import BushyJoinAdapter, LeftDeepJoinAdapter
from repro.db.dp import dp_optimal_bushy, dp_optimal_leftdeep
from repro.db.generator import chain_query, cycle_query, star_query
from repro.db.plans import leftdeep_tree_from_order
from repro.exceptions import InfeasibleError
from repro.joinorder.bushy_qubo import BushyJoinQubo
from repro.joinorder.leftdeep_qubo import LeftDeepJoinQubo
from repro.joinorder.baselines import solve_dp_bushy, solve_dp_leftdeep, solve_greedy
from repro.qubo.bruteforce import BruteForceSolver

#: Plain formulate -> sample -> decode: the best SA sample, no classical polish.
SA_OPTS = dict(backend="sa", num_reads=24, num_sweeps=384, refine=False, top_k=1)


class TestLeftDeepQubo:
    def test_energy_equals_surrogate_for_permutations(self):
        jg = chain_query(4, rng=0)
        builder = LeftDeepJoinQubo(jg)
        model = builder.build()
        for order in itertools.permutations(jg.relations):
            e = builder.energy_of_order(model, list(order))
            assert e == pytest.approx(builder.surrogate_cost(list(order)), abs=1e-6)

    def test_variable_count(self):
        jg = chain_query(5, rng=1)
        model = LeftDeepJoinQubo(jg).build()
        assert model.num_variables == 25

    def test_ground_state_is_surrogate_optimal_permutation(self):
        jg = chain_query(4, rng=2)
        builder = LeftDeepJoinQubo(jg)
        model = builder.build()
        best = BruteForceSolver(max_variables=16).solve(model).best
        order = builder.decode(model, best.bits, repair=False)
        best_surrogate = min(
            builder.surrogate_cost(list(p)) for p in itertools.permutations(jg.relations)
        )
        assert builder.surrogate_cost(order) == pytest.approx(best_surrogate, abs=1e-9)

    def test_decode_repairs_broken_permutation(self):
        jg = chain_query(3, rng=3)
        builder = LeftDeepJoinQubo(jg)
        model = builder.build()
        order = builder.decode(model, np.zeros(model.num_variables, dtype=int))
        assert sorted(order) == jg.relations

    def test_decode_strict_raises(self):
        jg = chain_query(3, rng=3)
        builder = LeftDeepJoinQubo(jg)
        model = builder.build()
        with pytest.raises(InfeasibleError):
            builder.decode(model, np.zeros(model.num_variables, dtype=int), repair=False)

    @pytest.mark.parametrize("gen", [chain_query, star_query, cycle_query])
    def test_sa_close_to_leftdeep_optimum(self, gen):
        jg = gen(5, rng=7)
        # Reference: exact left-deep DP including cross products, since the
        # QUBO search space includes cross-product orders.
        _, ref = dp_optimal_leftdeep(jg, avoid_cross=False)
        result = solve(LeftDeepJoinAdapter(jg), seed=0, **SA_OPTS)
        assert result.objective >= ref - 1e-6
        assert result.objective / ref < 3.0  # log-surrogate may misrank mildly

    def test_qaoa_tiny_instance(self):
        jg = chain_query(3, rng=5)
        _, ref = dp_optimal_leftdeep(jg, avoid_cross=False)
        result = solve(
            LeftDeepJoinAdapter(jg), backend="qaoa", seed=1, num_layers=2, maxiter=80,
            restarts=2, shots=512, refine=False, top_k=1,
        )
        assert leftdeep_tree_from_order(result.solution).num_relations() == 3
        assert result.objective >= ref - 1e-6


class TestBushyQubo:
    def test_variable_count_acyclic(self):
        jg = chain_query(5, rng=0)
        model = BushyJoinQubo(jg).build()
        # 4 edges x 4 steps.
        assert model.num_variables == 16

    def test_ground_state_decodes_to_valid_tree(self):
        jg = chain_query(4, rng=1)
        builder = BushyJoinQubo(jg)
        model = builder.build()
        best = BruteForceSolver(max_variables=10).solve(model).best
        tree = builder.decode(model, best.bits, repair=False)
        assert tree.relations() == frozenset(jg.relations)

    def test_energy_of_sequence_orders_plausibly(self):
        # Contracting the most selective edge first should not cost more
        # energy than contracting it last on a simple chain.
        jg = chain_query(4, rng=4)
        builder = BushyJoinQubo(jg)
        model = builder.build()
        edges = jg.edges
        seq_a = list(edges)
        seq_b = list(reversed(edges))
        ea = builder.energy_of_sequence(model, seq_a)
        eb = builder.energy_of_sequence(model, seq_b)
        assert ea != pytest.approx(eb)  # the encoding distinguishes orders

    def test_sa_bushy_reasonable_quality(self):
        # The pairwise-truncated surrogate can misrank individual instances
        # (the published mappings share this); require validity always and
        # bounded quality on average.
        ratios = []
        for seed in range(3):
            jg = chain_query(5, rng=seed + 20)
            opt = solve_dp_bushy(jg)
            result = solve(BushyJoinAdapter(jg), seed=seed, **SA_OPTS)
            assert result.solution.relations() == frozenset(jg.relations)
            assert result.objective / opt.cost < 25.0
            ratios.append(result.objective / opt.cost)
        assert sum(ratios) / len(ratios) < 8.0

    def test_cycle_graph_uses_at_most_one(self):
        jg = cycle_query(4, rng=2)
        builder = BushyJoinQubo(jg)
        model = builder.build()
        # 4 edges x 3 steps.
        assert model.num_variables == 12
        result = solve(BushyJoinAdapter(jg), seed=0, **SA_OPTS)
        assert result.solution.relations() == frozenset(jg.relations)

    def test_bushy_beats_leftdeep_somewhere(self):
        """On chains, bushy DP is at least as good as left-deep DP; the QUBO
        spaces inherit that relationship."""
        found_strict = False
        for seed in range(8):
            jg = chain_query(6, rng=seed)
            bushy = solve_dp_bushy(jg)
            leftdeep = solve_dp_leftdeep(jg)
            assert bushy.cost <= leftdeep.cost + 1e-9
            if bushy.cost < leftdeep.cost * 0.999:
                found_strict = True
        assert found_strict


class TestOutcomeApi:
    def test_ratio(self):
        jg = chain_query(4, rng=0)
        opt = solve_dp_bushy(jg)
        greedy = solve_greedy(jg)
        assert greedy.ratio_to(opt.cost) >= 1.0 - 1e-12
