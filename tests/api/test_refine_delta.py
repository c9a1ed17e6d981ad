"""The incremental refine descents equal full re-evaluation.

Each adapter's ``refine`` scores candidate moves incrementally (MQO swap
deltas over a savings index, left-deep prefix walks, a transaction
conflict matrix).  The references below are the full re-evaluation
descents they replace, kept verbatim as the oracle: on generated
instances and random starts the fast descents must return the same
solution, never raise the objective, and score each move as full
re-evaluation does.
"""

import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import LeftDeepJoinAdapter, MQOAdapter, TxnScheduleAdapter
from repro.db.catalog import Catalog
from repro.db.cost import CostModel
from repro.db.generator import chain_query, star_query
from repro.db.plans import leftdeep_tree_from_order
from repro.mqo.classical import hill_climbing_mqo, local_search_from
from repro.mqo.generator import generate_mqo_problem
from repro.mqo.problem import MQOProblem
from repro.txn.generator import generate_transactions
from repro.txn.qubo import assignment_conflicts, assignment_makespan
from repro.utils.rngtools import ensure_rng
from repro.workload import compile_workload

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


# -- references: full re-evaluation of every candidate ------------------------


def reference_local_search_from(problem, selection):
    selection = dict(selection)
    cost = problem.total_cost(selection)
    improved = True
    while improved:
        improved = False
        for q in problem.queries:
            current = selection[q]
            for p in problem.plans_of(q):
                if p.plan == current:
                    continue
                candidate = dict(selection)
                candidate[q] = p.plan
                c = problem.total_cost(candidate)
                if c < cost - 1e-12:
                    selection, cost = candidate, c
                    improved = True
                    break
            if improved:
                break
    return selection, cost


def reference_hill_climbing_mqo(problem, restarts=8, max_iterations=200, rng=None):
    rng = ensure_rng(rng)
    best_sel = None
    best_cost = float("inf")
    for _ in range(restarts):
        selection = {
            q: problem.plans_of(q)[int(rng.integers(0, len(problem.plans_of(q))))].plan
            for q in problem.queries
        }
        cost = problem.total_cost(selection)
        for _ in range(max_iterations):
            improved = False
            for q in problem.queries:
                current = selection[q]
                for p in problem.plans_of(q):
                    if p.plan == current:
                        continue
                    candidate = dict(selection)
                    candidate[q] = p.plan
                    c = problem.total_cost(candidate)
                    if c < cost - 1e-12:
                        selection, cost = candidate, c
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                break
        if cost < best_cost:
            best_cost = cost
            best_sel = selection
    return best_sel, best_cost


def reference_set_cardinality(graph, relations):
    card = 1.0
    rels = sorted(frozenset(relations))
    for r in rels:
        card *= graph.cardinality(r)
    for i, u in enumerate(rels):
        for v in rels[i + 1 :]:
            if graph.has_join(u, v):
                card *= graph.selectivity(u, v)
    return card


def reference_join_cost(graph, order):
    return CostModel(graph).cost(leftdeep_tree_from_order(order))


def reference_join_refine(graph, solution):
    order = list(solution)
    cost = reference_join_cost(graph, order)
    improved = True
    while improved:
        improved = False
        for i in range(len(order) - 1):
            for j in range(i + 1, len(order)):
                candidate = list(order)
                candidate[i], candidate[j] = candidate[j], candidate[i]
                c = reference_join_cost(graph, candidate)
                if c < cost - 1e-12:
                    order, cost = candidate, c
                    improved = True
                    break
            if improved:
                break
    return order


def reference_txn_cost(adapter, assignment):
    conflicts = assignment_conflicts(adapter.transactions, assignment)
    return conflicts * adapter._conflict_penalty + assignment_makespan(
        adapter.transactions, assignment
    )


def reference_txn_refine(adapter, solution):
    assignment = dict(solution)
    cost = reference_txn_cost(adapter, assignment)
    improved = True
    while improved:
        improved = False
        for t in adapter.transactions:
            for s in range(adapter.num_slots):
                if s == assignment[t.txn_id]:
                    continue
                candidate = dict(assignment)
                candidate[t.txn_id] = s
                c = reference_txn_cost(adapter, candidate)
                if c < cost - 1e-12:
                    assignment, cost = candidate, c
                    improved = True
                    break
            if improved:
                break
    return assignment


# -- instance builders ---------------------------------------------------------


def random_selection(problem, seed):
    rng = np.random.default_rng(seed)
    return {q: problem.plans_of(q)[int(rng.integers(len(problem.plans_of(q))))].plan
            for q in problem.queries}


def tie_prone_mqo(num_queries, plans, seed, scale=10.0):
    """Costs and savings from a few decimals: many exact and rounding ties.

    At ``scale=1e5`` the rounding error of a ``total_cost`` sum exceeds the
    ``1e-12`` tolerance, so tied swaps are decided by rounding alone.
    """
    rng = np.random.default_rng(seed)
    values = [0.1, 0.2, 0.3, 0.7, 1.1, 2.2, 3.3]
    problem = MQOProblem()
    for q in range(num_queries):
        for p in range(plans):
            problem.add_plan(f"q{q}", f"p{p}", float(rng.choice(values)) * scale)
    keys = [p.key for p in problem.all_plans]
    for a, b in itertools.combinations(keys, 2):
        if a[0] != b[0] and rng.random() < 0.5:
            problem.add_saving(a, b, float(rng.choice(values)) * scale / 10)
    return problem


def swap_delta(problem, selection, query, plan):
    """A swap's delta read off the swap index, the way the descent scores it."""
    index = problem.swap_index()
    chosen = np.zeros(len(index.names), dtype=bool)
    chosen[[index.ids[(q, p)] for q, p in selection.items()]] = True
    active = np.bincount(index.tails, weights=index.amounts * chosen[index.heads],
                         minlength=len(index.names))
    old, new = index.ids[(query, selection[query])], index.ids[(query, plan)]
    return index.costs[new] - index.costs[old] + active[old] - active[new]


def workload_mqo():
    """The MQO instance a SQL batch compiles to (structured, tying costs)."""
    catalog = Catalog()
    catalog.add_table("users", 1000, {"uid": 1000, "city": 40})
    catalog.add_table("orders", 5000, {"oid": 5000, "uid": 900})
    catalog.add_table("items", 20000, {"oid": 4800, "sku": 300})
    script = (
        "SELECT users.name, orders.total FROM users, orders "
        "WHERE users.uid = orders.uid AND users.city = 'delft';"
        "SELECT u.city, i.sku FROM users u, orders o, items i "
        "WHERE u.uid = o.uid AND o.oid = i.oid;"
        "SELECT o.total, i.sku FROM orders o, items i, users u "
        "WHERE o.oid = i.oid AND o.uid = u.uid AND u.city = 'sf';"
        "SELECT * FROM users WHERE city = 'delft'"
    )
    plan = compile_workload(script, catalog)
    return next(inst for inst in plan.instances if inst.kind == "mqo").problem.problem


def txn_adapter(n, items, slots, seed):
    txns = generate_transactions(n, num_items=items, rng=seed)
    return TxnScheduleAdapter(txns, num_slots=slots)


# -- MQO -------------------------------------------------------------------------


class TestMQODescent:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.floats(0.0, 1.0), SEEDS, SEEDS)
    def test_equals_reference_on_generated_instances(self, queries, plans, density, seed, start):
        problem = generate_mqo_problem(queries, plans, sharing_density=density, rng=seed)
        selection = random_selection(problem, start)
        refined, cost = local_search_from(problem, selection)
        assert (refined, cost) == reference_local_search_from(problem, selection)
        assert list(refined) == list(selection)  # key order kept too
        assert cost == problem.total_cost(refined)
        assert cost <= problem.total_cost(selection)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), SEEDS, st.sampled_from([10.0, 1e5]), SEEDS)
    def test_equals_reference_on_tie_prone_instances(self, queries, plans, seed, scale, start):
        problem = tie_prone_mqo(queries, plans, seed, scale)
        selection = random_selection(problem, start)
        assert local_search_from(problem, selection) == reference_local_search_from(
            problem, selection
        )

    @pytest.mark.parametrize("seed, start", [(21, 0), (22, 0), (22, 2), (32, 2)])
    def test_rounding_ties_are_decided_on_full_sums(self, seed, start):
        # Instances where scoring tied swaps on the delta alone takes swaps
        # full re-evaluation rejects (or cycles between tied plans).
        problem = tie_prone_mqo(5, 4, seed, scale=1e5)
        selection = random_selection(problem, start)
        assert local_search_from(problem, selection) == reference_local_search_from(
            problem, selection
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 5), st.floats(0.0, 1.0), SEEDS, SEEDS, st.data())
    def test_swap_delta_matches_full_evaluation(self, queries, plans, density, seed, start, data):
        problem = generate_mqo_problem(queries, plans, sharing_density=density, rng=seed)
        selection = random_selection(problem, start)
        query = data.draw(st.sampled_from(problem.queries))
        plan = data.draw(st.sampled_from([p.plan for p in problem.plans_of(query)]))
        candidate = {**selection, query: plan}
        full = problem.total_cost(candidate) - problem.total_cost(selection)
        delta = swap_delta(problem, selection, query, plan)
        scale = max(abs(problem.total_cost(selection)), abs(problem.total_cost(candidate)), 1.0)
        assert delta == pytest.approx(full, rel=0, abs=1e-9 * scale)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), SEEDS, SEEDS, st.integers(0, 6))
    def test_hill_climbing_keeps_its_rng_draws(self, queries, plans, seed, rng_seed, cap):
        problem = generate_mqo_problem(queries, plans, sharing_density=0.4, rng=seed)
        for restarts, iterations in ((8, 200), (3, cap)):
            got = hill_climbing_mqo(problem, restarts=restarts, max_iterations=iterations,
                                    rng=rng_seed)
            want = reference_hill_climbing_mqo(problem, restarts=restarts,
                                               max_iterations=iterations, rng=rng_seed)
            assert got == want

    @settings(max_examples=8, deadline=None)
    @given(SEEDS, SEEDS)
    def test_equals_reference_at_benchmark_size(self, seed, start):
        # The batch benchmark's MQO size: 12 queries x 6 plans, ~950 savings.
        problem = generate_mqo_problem(12, 6, sharing_density=0.4, rng=seed)
        selection = random_selection(problem, start)
        refined, cost = local_search_from(problem, selection)
        assert (refined, cost) == reference_local_search_from(problem, selection)
        assert cost == problem.total_cost(refined)

    @settings(max_examples=6, deadline=None)
    @given(SEEDS, st.sampled_from([10.0, 1e5]), SEEDS)
    def test_equals_reference_on_tie_prone_instances_at_benchmark_size(self, seed, scale, start):
        problem = tie_prone_mqo(12, 6, seed, scale)
        selection = random_selection(problem, start)
        assert local_search_from(problem, selection) == reference_local_search_from(
            problem, selection
        )

    @settings(max_examples=20, deadline=None)
    @given(SEEDS, SEEDS, st.data())
    def test_swap_delta_matches_full_evaluation_at_benchmark_size(self, seed, start, data):
        problem = generate_mqo_problem(12, 6, sharing_density=0.4, rng=seed)
        selection = random_selection(problem, start)
        query = data.draw(st.sampled_from(problem.queries))
        plan = data.draw(st.sampled_from([p.plan for p in problem.plans_of(query)]))
        full = problem.total_cost({**selection, query: plan}) - problem.total_cost(selection)
        delta = swap_delta(problem, selection, query, plan)
        assert abs(delta - full) <= problem.swap_index().slack

    def test_hill_climbing_keeps_its_rng_draws_at_benchmark_size(self):
        problem = generate_mqo_problem(12, 6, sharing_density=0.4, rng=5)
        got = hill_climbing_mqo(problem, restarts=2, max_iterations=200, rng=9)
        assert got == reference_hill_climbing_mqo(problem, restarts=2, max_iterations=200,
                                                  rng=9)

    def test_workload_instance_from_every_start(self):
        problem = workload_mqo()
        plan_lists = [problem.plans_of(q) for q in problem.queries]
        assert any(len(plans) > 1 for plans in plan_lists)
        for combo in itertools.product(*plan_lists):
            selection = {p.query: p.plan for p in combo}
            refined, cost = local_search_from(problem, selection)
            assert (refined, cost) == reference_local_search_from(problem, selection)
            for q, p in itertools.product(problem.queries, problem.all_plans):
                if p.query == q:
                    full = (problem.total_cost({**selection, q: p.plan})
                            - problem.total_cost(selection))
                    assert swap_delta(problem, selection, q, p.plan) == pytest.approx(
                        full, rel=1e-9, abs=1e-9
                    )

    def test_invalid_selection_raises_like_total_cost(self):
        problem = generate_mqo_problem(3, 2, rng=1)
        selection = random_selection(problem, 0)
        missing = dict(selection)
        missing.pop(problem.queries[0])
        for bad in (missing, {**selection, problem.queries[0]: "nope"}):
            with pytest.raises(Exception) as want:
                problem.total_cost(bad)
            with pytest.raises(want.type, match=re.escape(str(want.value))):
                local_search_from(problem, bad)


# -- left-deep join ordering --------------------------------------------------


class TestLeftDeepDescent:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 9), st.sampled_from([chain_query, star_query]), SEEDS, st.data())
    def test_equals_reference(self, n, topology, seed, data):
        graph = topology(n, rng=seed)
        adapter = LeftDeepJoinAdapter(graph)
        start = data.draw(st.permutations(graph.relations))
        refined = adapter.refine(start)
        assert refined == reference_join_refine(graph, start)
        assert adapter.evaluate(refined) <= adapter.evaluate(start)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 9), st.sampled_from([chain_query, star_query]), SEEDS, st.data())
    def test_prefix_walk_is_bit_identical_to_the_tree_cost(self, n, topology, seed, data):
        graph = topology(n, rng=seed)
        order = data.draw(st.permutations(graph.relations))
        assert LeftDeepJoinAdapter(graph).evaluate(order) == reference_join_cost(graph, order)
        assert CostModel(graph).prefix_cost(order) == reference_join_cost(graph, order)

    @pytest.mark.parametrize("topology", [chain_query, star_query])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_reference_at_benchmark_size(self, topology, seed):
        # The batch benchmark's join size (8 relations) and one more.
        for n in (8, 9):
            graph = topology(n, rng=seed)
            adapter = LeftDeepJoinAdapter(graph)
            for k in range(3):
                start = list(np.random.default_rng(100 * seed + k).permutation(graph.relations))
                refined = adapter.refine(start)
                assert refined == reference_join_refine(graph, start)
                assert adapter.evaluate(refined) == reference_join_cost(graph, refined)

    def test_cardinality_cache_is_keyed_on_the_set(self):
        graph = star_query(7, rng=3)
        model, fresh = CostModel(graph), CostModel(graph)
        rels = graph.relations
        for size in range(1, len(rels) + 1):
            for subset in itertools.combinations(reversed(rels), size):
                assert model.set_cardinality(subset) == fresh.set_cardinality(list(subset))
                assert model.set_cardinality(subset) == reference_set_cardinality(graph, subset)

    @pytest.mark.parametrize("order", [[], ["R0", "R1", "R0"]])
    def test_evaluate_rejects_empty_and_duplicate_orders(self, order):
        from repro.exceptions import ReproError

        adapter = LeftDeepJoinAdapter(chain_query(3, rng=0))
        with pytest.raises(ReproError):
            adapter.evaluate(order)
        with pytest.raises(ReproError):
            adapter.refine(order)


# -- transaction scheduling ---------------------------------------------------


class TestTxnDescent:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 8), st.integers(1, 5), SEEDS, st.data())
    def test_equals_reference(self, n, items, slots, seed, data):
        adapter = txn_adapter(n, items, slots, seed)
        start = {t.txn_id: data.draw(st.integers(0, slots - 1)) for t in adapter.transactions}
        refined = adapter.refine(start)
        assert refined == reference_txn_refine(adapter, start)
        assert list(refined) == list(start)
        assert adapter.evaluate(refined) <= adapter.evaluate(start)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 9), st.integers(1, 8), st.integers(2, 5), SEEDS, st.data())
    def test_reslot_delta_matches_full_evaluation(self, n, items, slots, seed, data):
        adapter = txn_adapter(n, items, slots, seed)
        start = {t.txn_id: data.draw(st.integers(0, slots - 1)) for t in adapter.transactions}
        i = data.draw(st.integers(0, n - 1))
        target = data.draw(st.integers(0, slots - 1))
        conflicts, durations = adapter._conflict_table()
        txn = adapter.transactions[i].txn_id
        old = start[txn]

        def clashes_and_longest(slot, with_i):
            members = [k for k, t in enumerate(adapter.transactions)
                       if (k == i and with_i) or (k != i and start[t.txn_id] == slot)]
            clashes = sum(conflicts[i][k] for k in members if k != i)
            return clashes * adapter._conflict_penalty, max(
                (durations[k] for k in members), default=0)

        delta = 0.0
        if old != target:
            # The two slots' conflict terms and longest durations, before and after.
            c_old, m_old = clashes_and_longest(old, True)
            _, m_old_after = clashes_and_longest(old, False)
            _, m_new = clashes_and_longest(target, False)
            c_new, m_new_after = clashes_and_longest(target, True)
            delta = (c_new - c_old) + (m_old_after - m_old) + (m_new_after - m_new)
        full = adapter.evaluate({**start, txn: target}) - adapter.evaluate(start)
        assert delta == full


# -- the lazy state ---------------------------------------------------------------


class TestLazyState:
    def test_add_saving_after_refine_is_seen(self):
        problem = generate_mqo_problem(4, 3, sharing_density=0.3, rng=2)
        adapter = MQOAdapter(problem)
        first = adapter.refine(random_selection(problem, 0))  # a local optimum
        q0, q1 = problem.queries[:2]
        # A saving that makes one swap away from the optimum pay off.
        other = next(p.plan for p in problem.plans_of(q0) if p.plan != first[q0])
        before = problem.total_cost({**first, q0: other})
        problem.add_saving((q0, other), (q1, first[q1]), 200.0)
        assert problem.total_cost({**first, q0: other}) == before - 200.0
        second = adapter.refine(first)
        assert second[q0] == other
        assert (second, adapter.evaluate(second)) == reference_local_search_from(problem, first)

    def test_add_plan_after_refine_is_seen(self):
        problem = generate_mqo_problem(4, 3, sharing_density=0.3, rng=3)
        adapter = MQOAdapter(problem)
        start = random_selection(problem, 1)
        adapter.refine(start)
        query = problem.queries[2]
        problem.add_plan(query, "free", 0.0)
        refined = adapter.refine(start)
        assert refined == reference_local_search_from(problem, start)[0]
        assert refined[query] == "free"
        assert problem.total_cost(refined) == reference_local_search_from(problem, start)[1]

    def test_pickled_after_indexing_equals_fresh(self):
        cases = [
            (lambda: MQOAdapter(generate_mqo_problem(5, 4, sharing_density=0.5, rng=7)),
             lambda p, k: random_selection(p.problem, k)),
            (lambda: LeftDeepJoinAdapter(star_query(6, rng=7)),
             lambda p, k: list(np.random.default_rng(k).permutation(p.graph.relations))),
            (lambda: txn_adapter(8, 5, 4, 7),
             lambda p, k: {t.txn_id: int(s) for t, s in zip(
                 p.transactions, np.random.default_rng(k).integers(0, 4, len(p.transactions)))}),
        ]
        for make, start_of in cases:
            warm = make()
            warm.refine(start_of(warm, 0))  # builds the lazy state
            clone = pickle.loads(pickle.dumps(warm))
            fresh = make()
            for k in range(1, 6):
                start = start_of(fresh, k)
                got, want = clone.refine(start), fresh.refine(start)
                assert got == want
                assert clone.evaluate(got) == fresh.evaluate(want)
