"""Join ordering four ways (Table I rows [23]-[27]).

For chain and star queries, compares: classical DP optima (left-deep and
bushy), the left-deep permutation QUBO, the bushy edge-sequence QUBO, the
BILP -> QUBO pipeline, and the VQC reinforcement-learning agent.

Run:  python examples/join_ordering_tour.py
"""

import numpy as np

from repro import solve
from repro.api import BushyJoinAdapter, LeftDeepJoinAdapter
from repro.db.cost import CostModel
from repro.db.generator import chain_query, star_query
from repro.db.plans import leftdeep_tree_from_order
from repro.joinorder.baselines import solve_dp_bushy, solve_dp_leftdeep, solve_greedy, solve_random
from repro.joinorder.milp import decode_leftdeep_bilp, formulate_leftdeep_bilp, solve_branch_and_bound
from repro.joinorder.vqc_agent import VQCJoinOrderAgent
from repro.utils.tables import format_table

#: Plain formulate -> sample -> decode: the best SA sample, no classical polish.
SA_OPTS = dict(backend="sa", num_reads=24, num_sweeps=384, refine=False, top_k=1)


def tour(graph, name: str) -> None:
    cm = CostModel(graph)
    reference = solve_dp_bushy(graph)
    rows = []
    for outcome in (
        reference,
        solve_dp_leftdeep(graph),
        solve_greedy(graph),
        solve_random(graph, rng=0),
    ):
        rows.append([outcome.method, f"{outcome.cost:.1f}", f"{outcome.ratio_to(reference.cost):.3f}"])
    for method, adapter, seed in (
        ("qubo_leftdeep_sa", LeftDeepJoinAdapter(graph), 1),
        ("qubo_bushy_sa", BushyJoinAdapter(graph), 2),
    ):
        cost = solve(adapter, seed=seed, **SA_OPTS).objective
        rows.append([method, f"{cost:.1f}", f"{cost / reference.cost:.3f}"])

    # The BILP -> branch & bound pipeline of [24].
    bilp = formulate_leftdeep_bilp(graph)
    bits, _ = solve_branch_and_bound(bilp)
    order = decode_leftdeep_bilp(bilp, bits, graph)
    bilp_cost = cm.cost(leftdeep_tree_from_order(order))
    rows.append(["bilp_branch_and_bound", f"{bilp_cost:.1f}", f"{bilp_cost / reference.cost:.3f}"])

    print(format_table(["method", "C_out", "ratio vs bushy DP"], rows, title=f"\n=== {name} ==="))


def vqc_learning_curve() -> None:
    graph = chain_query(4, rng=2)
    agent = VQCJoinOrderAgent(graph, num_layers=1)
    history = agent.train(episodes=60, rng=0)
    segs = [history.ratios[i : i + 15] for i in range(0, 60, 15)]
    print("\nVQC join-ordering agent (Winker et al. [27]) on a 4-relation chain")
    print("mean cost ratio per 15-episode block:",
          " -> ".join(f"{np.mean(s):.2f}" for s in segs))
    order = agent.greedy_order()
    cost = CostModel(graph).cost(leftdeep_tree_from_order(order))
    print(f"greedy policy after training: {order} (ratio {cost / agent.optimal_cost:.3f})")


def main() -> None:
    tour(chain_query(6, rng=0), "chain query, 6 relations")
    tour(star_query(6, rng=1), "star query, 6 relations")
    vqc_learning_curve()


if __name__ == "__main__":
    main()
