"""E10: schema matching via QUBO ([28]).

Shapes: the QUBO optimum equals the Hungarian score; F1 against ground
truth degrades gracefully as rename noise grows; both QUBO and Hungarian
degrade together (the matcher, not the solver, is the bottleneck).
"""

import numpy as np
import pytest

from repro import solve
from repro.integration import generate_schema_pair, greedy_matching, hungarian_matching
from repro.integration.qubo import matching_quality, matching_similarity_total, similarity_matrix


def test_e10_qubo_matches_hungarian_score():
    def kernel():
        gaps = []
        for seed in range(4):
            source, target, _ = generate_schema_pair(6, rng=seed)
            # refine=False/top_k=1: decode-best parity (measure the sampler,
            # not the facade's classical augmentation).
            qubo_match = solve((source, target), backend="sa", seed=seed, refine=False, top_k=1, num_reads=24, num_sweeps=300).solution
            sims = similarity_matrix(source, target)
            hungarian_score = matching_similarity_total(hungarian_matching(source, target), sims)
            qubo_score = matching_similarity_total(qubo_match, sims)
            gaps.append(qubo_score / max(hungarian_score, 1e-9))
        return gaps

    gaps = kernel()
    assert min(gaps) > 0.97


def test_e10_noise_sweep():
    def kernel():
        f1_by_noise = []
        for rename_prob in (0.0, 0.4, 0.8):
            scores = []
            for seed in range(3):
                source, target, truth = generate_schema_pair(
                    7, rename_probability=rename_prob, drop_probability=0.0, rng=seed + 5
                )
                result = solve((source, target), backend="sa", seed=seed, refine=False, top_k=1, num_reads=16, num_sweeps=250)
                _, _, f1 = matching_quality(result.solution, truth)
                scores.append(f1)
            f1_by_noise.append(float(np.mean(scores)))
        return f1_by_noise

    f1_by_noise = kernel()
    assert f1_by_noise[0] == pytest.approx(1.0)  # clean schemas: perfect
    assert f1_by_noise[-1] <= f1_by_noise[0]  # noise can only hurt
    assert f1_by_noise[-1] > 0.4  # but lexical signals keep it useful


def test_e10_hungarian_vs_greedy():
    def kernel():
        wins = 0
        for seed in range(6):
            source, target, _ = generate_schema_pair(7, rng=seed + 20)
            sims = similarity_matrix(source, target)
            h = matching_similarity_total(hungarian_matching(source, target), sims)
            g = matching_similarity_total(greedy_matching(source, target), sims)
            if h >= g - 1e-9:
                wins += 1
        return wins

    wins = kernel()
    assert wins == 6
