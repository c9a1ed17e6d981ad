"""Attribute similarity metrics for schema matching.

The standard lexical matchers: normalised Levenshtein, n-gram Jaccard, and
a type-compatibility prior, combined into one score in [0, 1].
"""

from __future__ import annotations

from repro.integration.schema import Attribute

_TYPE_AFFINITY = {
    ("int", "int"): 1.0,
    ("float", "float"): 1.0,
    ("string", "string"): 1.0,
    ("date", "date"): 1.0,
    ("bool", "bool"): 1.0,
    ("int", "float"): 0.8,
    ("int", "bool"): 0.4,
    ("string", "date"): 0.5,
    ("int", "string"): 0.3,
    ("float", "string"): 0.3,
}


def _normalise(name: str) -> str:
    return "".join(c for c in name.lower() if c.isalnum())


def _ngrams(normalised: str, n: int) -> set[str]:
    padded = f"#{normalised}#"
    if len(padded) < n:
        return {padded}
    return {padded[i : i + n] for i in range(len(padded) - n + 1)}


def levenshtein_distance(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute).

    Myers' bit-parallel algorithm in Hyyrö's formulation: one column of the
    dynamic-programming table over ``a`` is held as two bit-vectors of
    +1/-1 vertical differences (Python ints, so ``a`` may be any length),
    and each character of ``b`` advances the column in a fixed number of
    word operations.  Exact: it returns the distance the table does.
    """
    if not a:
        return len(b)
    if not b:
        return len(a)
    match: dict[str, int] = {}
    for i, c in enumerate(a):
        match[c] = match.get(c, 0) | 1 << i
    mask = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    plus, minus, distance = mask, 0, len(a)
    for c in b:
        eq = match.get(c, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        h_plus = minus | ~(horizontal | plus)
        h_minus = plus & horizontal
        if h_plus & last:
            distance += 1
        elif h_minus & last:
            distance -= 1
        h_plus = h_plus << 1 | 1  # row 0 of the table grows by one per column
        h_minus <<= 1
        plus = (h_minus | ~(vertical | h_plus)) & mask
        minus = h_plus & vertical
    return distance


def _edit_similarity(a: str, b: str) -> float:
    """``1 - distance / max_len`` of two normalised names."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - levenshtein_distance(a, b) / longest


def _jaccard(ga: set[str], gb: set[str]) -> float:
    shared = len(ga & gb)
    union = len(ga) + len(gb) - shared
    if not union:
        return 1.0
    return shared / union


def levenshtein_similarity(a: str, b: str) -> float:
    """``1 - distance / max_len`` on normalised names."""
    return _edit_similarity(_normalise(a), _normalise(b))


def jaccard_ngrams(a: str, b: str, n: int = 3) -> float:
    """Jaccard similarity of character n-gram sets (padded)."""
    return _jaccard(_ngrams(_normalise(a), n), _ngrams(_normalise(b), n))


def type_compatibility(a: str, b: str) -> float:
    """Affinity of two attribute types in [0, 1]."""
    if a == b:
        return 1.0
    return _TYPE_AFFINITY.get((a, b), _TYPE_AFFINITY.get((b, a), 0.1))


def name_profile(name: str) -> tuple[str, set[str]]:
    """A name's normalised form and padded trigram set: what
    :func:`combined_similarity` reads of it, built once per attribute."""
    normalised = _normalise(name)
    return normalised, _ngrams(normalised, 3)


def profile_similarity(
    a: Attribute, a_profile, b: Attribute, b_profile, name_weight: float = 0.8
) -> float:
    """:func:`combined_similarity` of two attributes from their :func:`name_profile`."""
    (na, ga), (nb, gb) = a_profile, b_profile
    lexical = 0.5 * _edit_similarity(na, nb) + 0.5 * _jaccard(ga, gb)
    return name_weight * lexical + (1.0 - name_weight) * type_compatibility(a.dtype, b.dtype)


def combined_similarity(a: Attribute, b: Attribute, name_weight: float = 0.8) -> float:
    """Weighted blend of lexical similarity and type compatibility."""
    return profile_similarity(a, name_profile(a.name), b, name_profile(b.name), name_weight)
