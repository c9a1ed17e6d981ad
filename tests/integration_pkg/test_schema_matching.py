"""Tests for the schema-matching (data integration) package."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annealing.simulated_annealing import SimulatedAnnealingSolver
from repro.exceptions import ReproError
from repro.integration.classical import greedy_matching, hungarian_matching
from repro.integration.generator import generate_schema_pair
from repro.integration.qubo import (
    decode_matching,
    matching_quality,
    matching_similarity_total,
    matching_to_qubo,
    similarity_matrix,
)
from repro.integration.schema import ATTRIBUTE_TYPES, Attribute, Schema
from repro.integration.similarity import (
    combined_similarity,
    jaccard_ngrams,
    levenshtein_distance,
    levenshtein_similarity,
    type_compatibility,
)
from repro.qubo.bruteforce import BruteForceSolver


class TestSchema:
    def test_construction(self):
        s = Schema("s", [Attribute("a", "int"), Attribute("b")])
        assert len(s) == 2
        assert s.attribute("a").dtype == "int"
        assert s.attribute_names == ["a", "b"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ReproError):
            Schema("s", [Attribute("a"), Attribute("a")])

    def test_unknown_type_rejected(self):
        with pytest.raises(ReproError):
            Attribute("a", "blob")

    def test_unknown_attribute(self):
        with pytest.raises(ReproError):
            Schema("s", [Attribute("a")]).attribute("z")


class TestSimilarity:
    def test_levenshtein_distance(self):
        assert levenshtein_distance("kitten", "sitting") == 3
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "abc") == 0

    def test_levenshtein_similarity_bounds(self):
        assert levenshtein_similarity("name", "name") == 1.0
        assert 0.0 <= levenshtein_similarity("abc", "xyz") <= 1.0

    def test_normalisation_ignores_case_and_punct(self):
        assert levenshtein_similarity("Customer_ID", "customerid") == 1.0

    def test_jaccard_identical(self):
        assert jaccard_ngrams("email", "email") == 1.0

    def test_jaccard_disjoint(self):
        assert jaccard_ngrams("abc", "xyz") == 0.0

    def test_type_compatibility(self):
        assert type_compatibility("int", "int") == 1.0
        assert type_compatibility("int", "float") == 0.8
        assert type_compatibility("float", "int") == 0.8  # symmetric
        assert type_compatibility("date", "bool") == pytest.approx(0.1)

    def test_combined_similarity_favours_same_name(self):
        a = Attribute("customer_id", "int")
        same = Attribute("customer_id", "int")
        other = Attribute("zzz", "date")
        assert combined_similarity(a, same) > combined_similarity(a, other)


# -- references: the per-pair similarity the profiled matrix replaces ---------


def reference_levenshtein_distance(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _reference_normalise(name):
    return "".join(c for c in name.lower() if c.isalnum())


def reference_combined_similarity(a, b, name_weight=0.8):
    na, nb = _reference_normalise(a.name), _reference_normalise(b.name)
    if not na and not nb:
        lev = 1.0
    else:
        lev = 1.0 - reference_levenshtein_distance(na, nb) / max(len(na), len(nb))

    def grams(s, n=3):
        padded = f"#{s}#"
        if len(padded) < n:
            return {padded}
        return {padded[i : i + n] for i in range(len(padded) - n + 1)}

    ga, gb = grams(na), grams(nb)
    union = ga | gb
    jac = 1.0 if not union else len(ga & gb) / len(union)
    lexical = 0.5 * lev + 0.5 * jac
    return name_weight * lexical + (1.0 - name_weight) * type_compatibility(a.dtype, b.dtype)


#: Short alphabets make matches and near-misses likely; the unicode one
#: holds letters and digits outside ASCII (``isalnum`` keeps them).
NAMES = st.one_of(
    st.text(alphabet="ab_", max_size=12),
    st.text(alphabet="abcdeé1_ß", max_size=80),
    st.text(alphabet="xyzΣσ٣九Ⅻ-", max_size=70),
    st.text(max_size=20),
)


class TestSimilarityOracles:
    @settings(max_examples=300, deadline=None)
    @given(NAMES, NAMES)
    def test_levenshtein_equals_the_dynamic_program(self, a, b):
        assert levenshtein_distance(a, b) == reference_levenshtein_distance(a, b)

    @pytest.mark.parametrize("a, b", [
        ("", ""), ("", "é九"), ("Σσ", ""), ("x" * 64, "x" * 63 + "y"),
        ("ab" * 40, "ba" * 40), ("a" * 65, "a" * 130), ("九" * 70 + "ß", "ß" + "九" * 70),
    ])
    def test_levenshtein_edge_cases(self, a, b):
        assert levenshtein_distance(a, b) == reference_levenshtein_distance(a, b)
        assert levenshtein_distance(b, a) == reference_levenshtein_distance(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(NAMES, st.sampled_from(ATTRIBUTE_TYPES)), min_size=1, max_size=5,
                    unique_by=lambda t: t[0]),
           st.lists(st.tuples(NAMES, st.sampled_from(ATTRIBUTE_TYPES)), min_size=1, max_size=5,
                    unique_by=lambda t: t[0]))
    def test_matrix_equals_per_pair_similarity(self, left, right):
        source = Schema("s", [Attribute(n, t) for n, t in left])
        target = Schema("t", [Attribute(n, t) for n, t in right])
        want = {(a.name, b.name): combined_similarity(a, b) for a in source for b in target}
        got = similarity_matrix(source, target)
        assert list(got.items()) == list(want.items())
        assert got == {(a.name, b.name): reference_combined_similarity(a, b)
                       for a in source for b in target}

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_on_generated_schemas(self, seed):
        source, target, _ = generate_schema_pair(8, rng=seed)
        assert similarity_matrix(source, target) == {
            (a.name, b.name): reference_combined_similarity(a, b) for a in source for b in target
        }


class TestQuboMatching:
    def _schemas(self):
        src = Schema("s", [Attribute("customer_id", "int"), Attribute("email", "string")])
        tgt = Schema("t", [Attribute("client_id", "int"), Attribute("email_address", "string")])
        return src, tgt

    def test_qubo_optimum_matches_hungarian(self):
        for seed in range(4):
            src, tgt, _ = generate_schema_pair(5, rng=seed)
            model, sims = matching_to_qubo(src, tgt)
            if model.num_variables == 0 or model.num_variables > 18:
                continue
            ground = BruteForceSolver(max_variables=18).solve(model).best
            qubo_match = decode_matching(model, ground.bits)
            hung = hungarian_matching(src, tgt)
            assert matching_similarity_total(qubo_match, sims) == pytest.approx(
                matching_similarity_total(hung, sims), abs=1e-9
            )

    def test_one_to_one_enforced(self):
        src, tgt = self._schemas()
        model, _ = matching_to_qubo(src, tgt, threshold=0.0)
        ground = BruteForceSolver().solve(model).best
        match = decode_matching(model, ground.bits, repair=False)
        assert len(set(match.values())) == len(match)

    def test_decode_repair_resolves_conflicts(self):
        src, tgt = self._schemas()
        model, _ = matching_to_qubo(src, tgt, threshold=0.0)
        bits = [1] * model.num_variables  # everything selected
        match = decode_matching(model, bits)
        assert len(set(match.values())) == len(match)

    def test_threshold_prunes(self):
        src, tgt = self._schemas()
        loose, _ = matching_to_qubo(src, tgt, threshold=0.0)
        tight, _ = matching_to_qubo(src, tgt, threshold=0.9)
        assert tight.num_variables < loose.num_variables

    def test_sa_recovers_ground_truth_on_clean_schemas(self):
        src, tgt, truth = generate_schema_pair(6, rename_probability=0.0, drop_probability=0.0, rng=1)
        model, _ = matching_to_qubo(src, tgt)
        ss = SimulatedAnnealingSolver(num_reads=16, num_sweeps=200).solve(model, rng=2)
        pred = decode_matching(model, ss.best.bits)
        precision, recall, f1 = matching_quality(pred, truth)
        assert f1 == pytest.approx(1.0)


class TestClassicalBaselines:
    def test_hungarian_beats_or_ties_greedy(self):
        for seed in range(5):
            src, tgt, _ = generate_schema_pair(6, rng=seed)
            sims = similarity_matrix(src, tgt)
            h = hungarian_matching(src, tgt)
            g = greedy_matching(src, tgt)
            assert matching_similarity_total(h, sims) >= matching_similarity_total(g, sims) - 1e-9

    def test_matching_quality_perfect(self):
        assert matching_quality({"a": "b"}, {"a": "b"}) == (1.0, 1.0, 1.0)

    def test_matching_quality_empty_prediction(self):
        precision, recall, f1 = matching_quality({}, {"a": "b"})
        assert f1 == 0.0


class TestGenerator:
    def test_ground_truth_refers_to_real_attributes(self):
        src, tgt, truth = generate_schema_pair(8, rng=3)
        for a, b in truth.items():
            assert a in src.attribute_names
            assert b in tgt.attribute_names

    def test_drop_probability_shrinks_truth(self):
        src, tgt, truth = generate_schema_pair(8, drop_probability=1.0, extra_attributes=2, rng=4)
        assert truth == {}
        assert len(tgt) == 2

    def test_bounds_checked(self):
        with pytest.raises(ReproError):
            generate_schema_pair(0)
        with pytest.raises(ReproError):
            generate_schema_pair(99)

    def test_deterministic(self):
        a = generate_schema_pair(5, rng=9)
        b = generate_schema_pair(5, rng=9)
        assert a[2] == b[2]
