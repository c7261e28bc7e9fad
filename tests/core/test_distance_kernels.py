"""Equivalence of the clustering kernels with their textbook definitions.

``edit_distance`` is bit-parallel and ``jaccard_distance`` sums per-key
minima; both must agree exactly with the direct transcriptions kept
here as oracles: the two-row Levenshtein dynamic program and the
``Counter`` intersection/union form of multiset Jaccard.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distance import edit_distance, jaccard_distance

# Pattern widths across CPython's 30-bit int digits, across 64- and
# 128-bit words, and around the pages' text_cap of 600.
BOUNDARY_LENGTHS = (0, 1, 2, 30, 31, 60, 61, 63, 64, 65, 127, 128, 129,
                    599, 600, 601, 700)
CAPS = (None, 600, 5)


def levenshtein_oracle(seq_a, seq_b, cap=None):
    """Levenshtein distance by the classic two-row dynamic program."""
    if cap is not None:
        seq_a = seq_a[:cap]
        seq_b = seq_b[:cap]
    if seq_a == seq_b:
        return 0
    if not seq_a:
        return len(seq_b)
    if not seq_b:
        return len(seq_a)
    if len(seq_a) < len(seq_b):
        seq_a, seq_b = seq_b, seq_a
    previous = list(range(len(seq_b) + 1))
    for i, item_a in enumerate(seq_a, 1):
        current = [i]
        for j, item_b in enumerate(seq_b, 1):
            cost = 0 if item_a == item_b else 1
            current.append(min(previous[j] + 1,
                               current[j - 1] + 1,
                               previous[j - 1] + cost))
        previous = current
    return previous[-1]


def jaccard_oracle(multiset_a, multiset_b):
    """Multiset Jaccard distance through ``Counter`` ``&`` and ``|``."""
    if not multiset_a and not multiset_b:
        return 0.0
    return 1.0 - (sum((multiset_a & multiset_b).values())
                  / sum((multiset_a | multiset_b).values()))


lengths = st.one_of(st.sampled_from(BOUNDARY_LENGTHS), st.integers(0, 80))


@st.composite
def sequence_pairs(draw):
    """Two str or two tuple-of-small-int sequences over a small alphabet,
    so that matches, substitutions and indels all occur; a third of the
    pairs are near-copies (a few random edits apart), like the
    near-identical pages clustering mostly compares."""
    as_text = draw(st.booleans())
    size = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=False))
    items_a = [rng.randrange(size) for __ in range(draw(lengths))]
    if draw(st.integers(0, 2)) == 0:
        items_b = list(items_a)
        for __ in range(rng.randrange(1, 6)):
            spot = rng.randrange(len(items_b) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                items_b.insert(spot, rng.randrange(size))
            elif items_b and edit == 1:
                del items_b[spot - 1]
            elif items_b:
                items_b[spot - 1] = rng.randrange(size)
    else:
        items_b = [rng.randrange(size) for __ in range(draw(lengths))]
    if as_text:
        return ("".join("abcdef"[x] for x in items_a),
                "".join("abcdef"[x] for x in items_b))
    return tuple(items_a), tuple(items_b)


@given(sequence_pairs(), st.sampled_from(CAPS))
@settings(max_examples=150, deadline=None)
def test_edit_distance_matches_oracle(pair, cap):
    seq_a, seq_b = pair
    assert edit_distance(seq_a, seq_b, cap=cap) == \
        levenshtein_oracle(seq_a, seq_b, cap=cap)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("as_text", [True, False])
def test_edit_distance_boundary_lengths(cap, as_text):
    rng = random.Random(1999)
    for length_a in BOUNDARY_LENGTHS:
        for length_b in (0, 1, 63, 64, 65, 700):
            items_a = [rng.randrange(4) for __ in range(length_a)]
            items_b = [rng.randrange(4) for __ in range(length_b)]
            if as_text:
                seq_a = "".join("wxyz"[x] for x in items_a)
                seq_b = "".join("wxyz"[x] for x in items_b)
            else:
                seq_a, seq_b = tuple(items_a), tuple(items_b)
            assert edit_distance(seq_a, seq_b, cap=cap) == \
                levenshtein_oracle(seq_a, seq_b, cap=cap), \
                (length_a, length_b)


def test_edit_distance_whole_alphabet_mismatch():
    assert edit_distance("a" * 700, "b" * 65) == 700
    assert edit_distance(tuple(range(64)), tuple(range(1, 65))) == 2


multisets = st.dictionaries(st.sampled_from("abcdefgh"),
                            st.integers(1, 6)).map(Counter)


@st.composite
def multiset_pairs(draw):
    """Random, identical and disjoint positive-count multiset pairs."""
    multiset_a = draw(multisets)
    kind = draw(st.sampled_from(["random", "identical", "disjoint"]))
    if kind == "identical":
        return multiset_a, Counter(multiset_a)
    multiset_b = draw(multisets)
    if kind == "disjoint":
        multiset_b = Counter({key.upper(): count
                              for key, count in multiset_b.items()})
    return multiset_a, multiset_b


@given(multiset_pairs())
@settings(max_examples=300)
def test_jaccard_distance_matches_oracle(pair):
    multiset_a, multiset_b = pair
    assert jaccard_distance(multiset_a, multiset_b) == \
        jaccard_oracle(multiset_a, multiset_b)
    assert jaccard_distance(multiset_b, multiset_a) == \
        jaccard_oracle(multiset_a, multiset_b)
