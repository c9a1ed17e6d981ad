"""Edge cases of the SampleSet container: oversized truncation, empty
sets, deterministic tie-breaking of ``best``, and an oracle against the
dict merge and tuple sort the array container replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qubo.sampleset import SampleSet


class TestTruncate:
    def test_k_larger_than_set(self):
        ss = SampleSet([(0, 1), (1, 0)], [1.0, 2.0])
        truncated = ss.truncate(100)
        assert len(truncated) == 2
        assert [s.bits for s in truncated] == [(0, 1), (1, 0)]

    def test_k_zero(self):
        ss = SampleSet([(0,)], [1.0])
        assert len(ss.truncate(0)) == 0

    def test_preserves_info(self):
        ss = SampleSet([(0,)], [1.0], info={"solver": "x"})
        assert ss.truncate(5).info == {"solver": "x"}

    def test_merges_duplicate_bits(self):
        ss = SampleSet([(1, 1), (1, 1)], [3.0, 3.0], counts=[1, 2])
        assert len(ss) == 1
        assert ss.best.num_occurrences == 3


class TestEmpty:
    def test_len_and_iter(self):
        ss = SampleSet([], [])
        assert len(ss) == 0
        assert list(ss) == []

    def test_best_raises(self):
        with pytest.raises(IndexError):
            SampleSet([], []).best

    def test_truncate_empty(self):
        assert len(SampleSet([], []).truncate(3)) == 0

    def test_energies_empty(self):
        assert SampleSet([], []).energies().size == 0

    def test_repr(self):
        assert repr(SampleSet([], [])) == "SampleSet(empty)"


class TestTieBreaking:
    def test_best_is_lexicographically_smallest_on_energy_tie(self):
        """Equal energies sort by bits, so ``best`` is deterministic."""
        ss = SampleSet([(1, 0), (0, 1), (1, 1)], [5.0, 5.0, 5.0])
        assert ss.best.bits == (0, 1)

    def test_tie_order_is_stable_across_input_permutations(self):
        bits, energies = [(1, 0), (0, 0), (0, 1)], [2.0, 2.0, 1.0]
        a = SampleSet(bits, energies)
        b = SampleSet(bits[::-1], energies[::-1])
        assert [s.bits for s in a] == [s.bits for s in b] == [(0, 1), (0, 0), (1, 0)]

    def test_lower_energy_beats_bit_order(self):
        ss = SampleSet([(0, 0), (1, 1)], [2.0, 1.0])
        assert ss.best.bits == (1, 1)


def _reference(rows, energies, counts):
    """The list-of-samples merge: equal bit tuples merge into the first
    one's energy with summed counts, then ``sorted`` by ``(energy, bits)``."""
    merged = {}
    for bits, energy, count in zip(rows, energies, counts):
        if bits in merged:
            _, first, total = merged[bits]
            merged[bits] = (bits, first, total + count)
        else:
            merged[bits] = (bits, energy, count)
    ordered = sorted(merged.values(), key=lambda s: (s[1], s[0]))
    return [(bits, repr(energy), count) for bits, energy, count in ordered]


@st.composite
def _sample_rows(draw):
    """Rows drawn from a few patterns (so duplicates are common), energies
    from a small pool (so ties and -0.0/0.0 pairs are common)."""
    n = draw(st.integers(0, 12))
    patterns = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(patterns), max_size=12))
    energy = st.sampled_from([0.0, -0.0, 1.5, -2.25]) | st.floats(allow_nan=False)
    energies = draw(st.lists(energy, min_size=len(rows), max_size=len(rows)))
    counts = draw(st.none() | st.lists(st.integers(1, 5), min_size=len(rows),
                                       max_size=len(rows)))
    return n, rows, energies, counts


@settings(max_examples=300, deadline=None)
@given(case=_sample_rows(), as_array=st.booleans(), k=st.integers(0, 6))
def test_matches_the_dict_merge_and_tuple_sort(case, as_array, k):
    n, rows, energies, counts = case
    bits = np.array(rows, dtype=np.int64).reshape(len(rows), n) if as_array else rows
    ss = SampleSet(bits, energies, counts)
    got = [(s.bits, repr(s.energy), s.num_occurrences) for s in ss]
    assert got == _reference(rows, energies, counts or [1] * len(rows))
    assert all(type(b) is int for s in ss for b in s.bits)
    assert all(type(s.num_occurrences) is int for s in ss)
    assert [(s.bits, repr(s.energy)) for s in ss.truncate(k)] == [g[:2] for g in got[:k]]
    assert ss.bits.shape == (len(got), n if as_array or rows else 0)


def test_rows_of_unequal_length_are_rejected():
    with pytest.raises(ValueError):
        SampleSet([(0, 1), (1,)], [0.0, 1.0])
