"""The schema-matching QUBO (Fritsch & Scherzinger [28]).

One binary variable per candidate attribute pair; maximising total
similarity subject to one-to-one constraints becomes

    E(x) = - sum_{(a,b)} sim(a,b) x_{ab}
           + w * sum_a  AtMostOne(x_{a,*})
           + w * sum_b  AtMostOne(x_{*,b})

Low-similarity pairs are pruned from the variable set (their selection is
never profitable), matching the paper's candidate filtering.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.integration.schema import Schema
from repro.integration.similarity import name_profile, profile_similarity
from repro.qubo.model import QuboModel
from repro.qubo.penalty import add_at_most_one

MatchKey = tuple[str, str]


def similarity_matrix(source: Schema, target: Schema) -> dict[MatchKey, float]:
    """:func:`~repro.integration.similarity.combined_similarity` of every
    cross-schema attribute pair; each name is profiled once, not per pair."""
    targets = [(b, name_profile(b.name)) for b in target]
    sims = {}
    for a in source:
        profile = name_profile(a.name)
        for b, b_profile in targets:
            sims[(a.name, b.name)] = profile_similarity(a, profile, b, b_profile)
    return sims


def matching_to_qubo(
    source: Schema,
    target: Schema,
    threshold: float = 0.25,
    weight: "float | None" = None,
) -> tuple[QuboModel, dict[MatchKey, float]]:
    """Build the QUBO; returns it with the (pruned) similarity map."""
    sims = {
        key: s for key, s in similarity_matrix(source, target).items() if s >= threshold
    }
    if weight is None:
        weight = max(sims.values(), default=1.0) + 1.0
    model = QuboModel()
    idx = model.variables_from(sims)
    model.add_linear_from(idx, -np.array(list(sims.values()), dtype=np.float64))
    # One pass groups every variable index by source and target attribute
    # (insertion order within each group matches the sims iteration order
    # the historical per-attribute scans produced).
    by_source: dict[str, list[int]] = defaultdict(list)
    by_target: dict[str, list[int]] = defaultdict(list)
    for (a, b), i in zip(sims, idx.tolist()):
        by_source[a].append(i)
        by_target[b].append(i)
    for a in source.attribute_names:
        group = by_source.get(a, ())
        if len(group) > 1:
            add_at_most_one(model, np.array(group, dtype=np.int64), weight)
    for b in target.attribute_names:
        group = by_target.get(b, ())
        if len(group) > 1:
            add_at_most_one(model, np.array(group, dtype=np.int64), weight)
    return model, sims


def decode_matching(model: QuboModel, bits, repair: bool = True) -> dict[str, str]:
    """Assignment -> ``{source_attr: target_attr}`` mapping.

    Repair drops the lower-similarity pair of any one-to-one violation
    (greedy by the model's own linear coefficients).
    """
    assignment = model.decode(bits)
    chosen = [key for key, bit in assignment.items() if bit == 1]
    if repair:
        # Greedy keep-best: iterate by ascending energy coefficient
        # (most-negative = highest similarity first).
        chosen.sort(key=lambda k: model.linear.get(model.index_of(k), 0.0))
        used_a: set[str] = set()
        used_b: set[str] = set()
        result: dict[str, str] = {}
        for a, b in chosen:
            if a in used_a or b in used_b:
                continue
            used_a.add(a)
            used_b.add(b)
            result[a] = b
        return result
    return {a: b for a, b in chosen}


def matching_quality(
    predicted: dict[str, str], truth: dict[str, str]
) -> tuple[float, float, float]:
    """(precision, recall, F1) of a predicted mapping vs ground truth."""
    predicted_pairs = set(predicted.items())
    truth_pairs = set(truth.items())
    if not predicted_pairs:
        return (0.0, 0.0, 0.0) if truth_pairs else (1.0, 1.0, 1.0)
    tp = len(predicted_pairs & truth_pairs)
    precision = tp / len(predicted_pairs)
    recall = tp / len(truth_pairs) if truth_pairs else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return precision, recall, f1


def matching_similarity_total(matching: dict[str, str], sims: dict[MatchKey, float]) -> float:
    """Total similarity score of a mapping (the objective being maximised)."""
    return sum(sims.get((a, b), 0.0) for a, b in matching.items())
