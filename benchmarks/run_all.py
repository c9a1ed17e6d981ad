"""Print the paper-vs-measured tables: each experiment's value as the paper
states it beside the value this reproduction measures.

Run:  python benchmarks/run_all.py
"""

import argparse
import math

import numpy as np

from repro.algorithms.grover import CountingOracle, GroverSearch, classical_search, optimal_iterations
from repro.dqdm import GhzAssistedCommit, TwoPhaseCommit
from repro.games.chsh import chsh_game, chsh_quantum_strategy
from repro.games.classical import optimal_classical_value
from repro.games.framework import quantum_win_probability
from repro.games.ghz import ghz_classical_value, ghz_game_quantum_value
from repro.games.magic_square import magic_square_classical_value, magic_square_quantum_value
from repro import solve
from repro.mqo import exhaustive_mqo, generate_mqo_problem, greedy_mqo
from repro.qnet import UniversalCloner, run_bb84, run_e91, teleport
from repro.qnet.repeater import chain_fidelity
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.simulator import StatevectorSimulator
from repro.quantum.state import Statevector
from repro.utils.tables import format_table


def header(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def e3_superposition() -> None:
    header("E3 | Example II.1 - equal superposition measures 50/50")
    counts = StatevectorSimulator().sample(QuantumCircuit(1).h(0), 8192, rng=7)
    print(f"paper: P(0) = P(1) = 0.5    measured: P(0) = {counts['0'] / 8192:.4f}")


def e4_teleport() -> None:
    header("E4 | Example IV.1 + Fig 1(c) - Bell pairs, teleportation, repeaters")
    gen = np.random.default_rng(0)
    msg = Statevector(gen.normal(size=2) + 1j * gen.normal(size=2))
    result = teleport(msg, rng=1)
    print(f"teleportation over a perfect pair: fidelity = {result.fidelity:.6f} (paper: exact)")
    rows = [[h, f"{chain_fidelity([0.96] * h):.4f}"] for h in range(1, 8)]
    print(format_table(["links in chain", "end-to-end fidelity"], rows,
                       title="repeater-chain fidelity (F_link = 0.96, swap algebra):"))


def e5_e6_games() -> None:
    header("E5/E6 | nonlocal games - classical vs entangled values")
    chsh_c, _, _ = optimal_classical_value(chsh_game())
    chsh_q = quantum_win_probability(chsh_game(), chsh_quantum_strategy())
    ghz_c, _ = ghz_classical_value()
    rows = [
        ["CHSH", "0.75", f"{chsh_c:.4f}", "~0.85", f"{chsh_q:.4f}"],
        ["GHZ", "0.75", f"{ghz_c:.4f}", "1.0", f"{ghz_game_quantum_value():.4f}"],
        ["magic square (ext.)", "8/9", f"{magic_square_classical_value():.4f}", "1.0",
         f"{magic_square_quantum_value(rounds_per_pair=2, rng=0):.4f}"],
    ]
    print(format_table(["game", "paper classical", "measured", "paper quantum", "measured "], rows))


def e7_grover() -> None:
    header("E7 | Grover search - O(N) vs O(sqrt N) oracle calls")
    rows = []
    for n in range(4, 11):
        N = 2**n
        oracle = CountingOracle([N // 3], n)
        result = GroverSearch(oracle).run(rng=n)
        classical = []
        for seed in range(10):
            c_oracle = CountingOracle([N // 3], n)
            classical_search(c_oracle, rng=seed)
            classical.append(c_oracle.calls)
        rows.append([N, f"{np.mean(classical):.1f}", result.oracle_calls,
                     math.ceil(math.pi / 4 * math.sqrt(N)), f"{result.success_probability:.3f}"])
    print(format_table(
        ["N", "classical calls (mean)", "Grover calls", "(pi/4)sqrt(N)", "success prob"], rows))


def e8_mqo() -> None:
    header("E8 | MQO on the (simulated) annealer - Trummer & Koch shape")
    rows = []
    for seed in range(3):
        problem = generate_mqo_problem(4, 3, sharing_density=0.4, rng=seed)
        _, optimum = exhaustive_mqo(problem)
        _, greedy_cost = greedy_mqo(problem)
        result = solve(problem, backend="annealer", seed=seed)
        rows.append([seed, f"{optimum:.2f}", f"{result.objective:.2f}",
                     f"{greedy_cost:.2f}", f"{result.objective / optimum:.3f}",
                     result.info.get("max_chain_length", "-")])
    print(format_table(
        ["seed", "exhaustive opt", "annealer (embedded)", "greedy", "ratio", "max chain"], rows))


def e13_qkd() -> None:
    header("E13 | QKD - eavesdropping detection")
    honest = run_bb84(384, eve=False, rng=0)
    attacked = run_bb84(384, eve=True, rng=1)
    e_honest = run_e91(600, eve=False, rng=2)
    e_attacked = run_e91(600, eve=True, rng=3)
    rows = [
        ["BB84 QBER", "~0", f"{honest.qber:.3f}", "~0.25", f"{attacked.qber:.3f}"],
        ["E91 CHSH S", "> 2", f"{e_honest.chsh_value:.3f}", "<= 2", f"{e_attacked.chsh_value:.3f}"],
    ]
    print(format_table(["metric", "honest (theory)", "measured", "attacked (theory)", "measured "], rows))


def e14_nocloning() -> None:
    header("E14 | no-cloning - universal cloner tops out at 5/6")
    gen = np.random.default_rng(3)
    fids = [UniversalCloner().copy_fidelity(Statevector(gen.normal(size=2) + 1j * gen.normal(size=2)))
            for _ in range(8)]
    print(f"paper/theory: 5/6 = {5/6:.6f}    measured (8 random states): "
          f"{np.mean(fids):.6f} +- {np.std(fids):.2e}")


def e15_commit() -> None:
    header("E15 | distributed commit - blocking vs divergence trade")
    rows = []
    for crash in (0.0, 0.1, 0.25):
        tpc = TwoPhaseCommit(5, crash_prob=crash).run(1500, rng=1)
        ghz = GhzAssistedCommit(5, crash_prob=crash).run(1500, rng=2)
        rows.append([f"{crash:.2f}", f"{tpc.blocking_rate:.3f}", "0.000",
                     f"{ghz.blocking_rate:.3f}", f"{ghz.divergence_rate:.3f}"])
    print(format_table(
        ["crash prob", "2PC blocking", "2PC divergence", "GHZ blocking", "GHZ divergence"], rows))


#: experiments, in print order.
EXPERIMENTS = [
    e3_superposition,
    e4_teleport,
    e5_e6_games,
    e7_grover,
    e8_mqo,
    e13_qkd,
    e14_nocloning,
    e15_commit,
]


def main() -> None:
    for experiment in EXPERIMENTS:
        experiment()
    print("\n(remaining experiments run inside pytest benchmarks/: E1 table1 matrix,")
    print(" E2 fig2 roadmap, E9/E12 join ordering, E10 schema matching, E11 txn scheduling, E16 qdb ops)")


if __name__ == "__main__":
    argparse.ArgumentParser(
        description="Print the paper-vs-measured tables of the experiments."
    ).parse_args()
    main()
