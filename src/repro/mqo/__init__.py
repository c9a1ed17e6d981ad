"""Multiple query optimization on quantum hardware.

Reproduces the Table I MQO row: the Trummer & Koch [20] QUBO mapping
(annealing-based) and the Fankhauser et al. [21], [22] gate-based variant
via QAOA, against classical exhaustive / greedy / hill-climbing baselines.
"""

from repro.mqo.classical import (
    exhaustive_mqo,
    greedy_mqo,
    hill_climbing_mqo,
)
from repro.mqo.generator import generate_mqo_problem
from repro.mqo.problem import MQOProblem, PlanChoice
from repro.mqo.qubo import decode_sample, mqo_to_qubo

__all__ = [
    "exhaustive_mqo",
    "greedy_mqo",
    "hill_climbing_mqo",
    "generate_mqo_problem",
    "MQOProblem",
    "PlanChoice",
    "decode_sample",
    "mqo_to_qubo",
]
