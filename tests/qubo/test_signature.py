"""``QuboModel.signature`` against its tuple-and-``repr`` reference formula.

Plan shards, scoreboard rows, durable store rows and the stateful backends'
caches are keyed on this hex, so it must never move.  The reference builds
a tuple of the variable count and the sorted coupling pairs, then takes
SHA-256 of its ``repr``: the formula the stored keys were written with.
"""

import hashlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.qubo.model import QuboModel


def qubo_signature(model):
    _, _, quad_i, quad_j, _ = model.coo_terms()
    return (model.num_variables, tuple(zip(quad_i.tolist(), quad_j.tolist())))


def signature_key(signature) -> str:
    return hashlib.sha256(repr(signature).encode("utf-8")).hexdigest()[:16]


def reference_signature(model) -> str:
    return signature_key(qubo_signature(model))


def _labels(n: int, labelling: str) -> list:
    if labelling == "tuple":
        return [("v", k) for k in range(n)]
    if labelling == "alias":
        # Integer labels in reverse: label k sits at index n - 1 - k.
        return list(reversed(range(n)))
    return list(range(n))


def _empty(n: int, labelling: str) -> QuboModel:
    if labelling == "plain":
        return QuboModel(n)
    model = QuboModel()
    for label in _labels(n, labelling):
        model.variable(label)
    return model


def _indices(model, labels) -> np.ndarray:
    if labels and isinstance(labels[0], tuple):
        return model.indices_of(labels)
    # An integer array takes the label lookup once any label aliases.
    return model.resolve_indices(np.array(labels, dtype=np.int64))


def build_twins(n, terms, labelling):
    """The same model built per term (by label) and in bulk (by index)."""
    labels = _labels(n, labelling)
    scalar = _empty(n, labelling)
    for u, v, coeff in terms:
        scalar.add_quadratic(labels[u], labels[v], coeff)
    bulk = _empty(n, labelling)
    if terms:
        rows, cols, coeffs = zip(*terms)
        bulk.add_quadratic_from(
            _indices(bulk, [labels[u] for u in rows]),
            _indices(bulk, [labels[v] for v in cols]),
            np.array(coeffs),
        )
    return scalar, bulk


@st.composite
def specs(draw):
    # Up to 14 variables, so indices of two digits sort after single ones.
    n = draw(st.integers(0, 14))
    index = st.integers(0, max(n - 1, 0))
    # Opposite coefficients on one pair store a zero coupling.
    coeff = st.sampled_from([0.0, 1.0, -1.0, 0.5, -2.5])
    terms = draw(st.lists(st.tuples(index, index, coeff), max_size=40)) if n else []
    return n, terms, draw(st.sampled_from(["plain", "tuple", "alias"]))


@settings(max_examples=300, deadline=None)
@given(specs())
@example((0, [], "plain"))  # no variables
@example((5, [], "tuple"))  # no couplings
@example((3, [(2, 0, 1.5)], "plain"))  # one coupling: the trailing comma
@example((3, [(1, 2, 1.0), (2, 1, -1.0)], "alias"))  # a stored zero coupling
@example((12, [(11, 10, 1.0), (0, 11, 2.0), (2, 9, 0.5)], "alias"))
def test_signature_matches_reference(spec):
    scalar, bulk = build_twins(*spec)
    assert scalar.signature() == reference_signature(scalar)
    assert bulk.signature() == reference_signature(bulk)
    assert scalar.signature() == bulk.signature()

