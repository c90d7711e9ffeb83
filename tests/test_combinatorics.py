"""Alternation, enumeration order, and count tests."""

import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkparity import combinatorics
from linkparity.combinatorics import (
    _HAS_ADJACENT,
    AlternationCase,
    _closed_form,
    _merged_order_alternates,
    alternates,
    alternating_count_bruteforce,
    alternating_count_closed_form,
    alternating_counts,
    check_subset,
    colex_rows,
    combinations_colex,
    enumerate_disjoint_pairs,
    spread_subsets,
)
from linkparity.errors import ContractError
from oracles import merged_order_alternates


# ------------------------------- alternates ---------------------------------


def test_alternates_basic():
    assert alternates((1, 3), (2, 4))
    assert not alternates((1, 2), (3, 4))
    assert alternates((2, 4, 6), (3, 5, 7))


def test_alternates_contract_errors():
    with pytest.raises(ContractError):
        alternates((1, 2), (2, 3))
    with pytest.raises(ContractError):
        alternates((1,), (2, 4))
    with pytest.raises(ContractError):
        alternates((), (1,))


disjoint_pair = st.integers(2, 12).flatmap(
    lambda half: st.lists(
        st.integers(1, 200), min_size=2 * half, max_size=2 * half, unique=True
    ).flatmap(
        lambda vals: st.permutations(vals).map(
            lambda perm: (tuple(perm[:half]), tuple(perm[half:]))
        )
    )
)


@given(disjoint_pair)
@settings(max_examples=150)
def test_alternates_symmetric(pair):
    p, q = pair
    assert alternates(p, q) == alternates(q, p)


@given(disjoint_pair, st.integers(-50, 50))
@settings(max_examples=150)
def test_alternates_shift_invariant(pair, shift):
    p, q = pair
    lo = min(min(p), min(q))
    if lo + shift < 1:
        shift = 1 - lo
    shifted_p = tuple(v + shift for v in p)
    shifted_q = tuple(v + shift for v in q)
    assert alternates(p, q) == alternates(shifted_p, shifted_q)


@given(disjoint_pair)
@settings(max_examples=300)
def test_merged_order_alternates_matches_oracle(pair):
    p, q = (tuple(sorted(side)) for side in pair)
    expected = merged_order_alternates(p, q)
    assert _merged_order_alternates(p, q) == expected
    assert _merged_order_alternates(q, p) == expected
    assert alternates(p, q) == expected
    assert alternates(q, p) == expected


# ------------------------------ brute force ---------------------------------


def test_bruteforce_examples():
    assert alternating_count_bruteforce((1, 3), 5) == 2
    assert alternating_count_bruteforce((1, 2), 5) == 0


def test_bruteforce_even_label_subset_counts_two():
    for k in range(1, 7):
        subject = tuple(range(2, 2 * k + 3, 2))
        assert alternating_count_bruteforce(subject, 2 * k + 3) == 2


def test_bruteforce_identifies_the_two_alternators():
    # for I = {2,4,...,2k+2} the alternators are the two odd ladders
    k = 2
    n = 2 * k + 3
    subject = (2, 4, 6)
    complement = [v for v in range(1, n + 1) if v not in subject]
    winners = [
        j for j in itertools.combinations(complement, k + 1) if alternates(subject, j)
    ]
    assert winners == [(1, 3, 5), (3, 5, 7)]


def _oracle_count(subject, n):
    """Alternating partners of ``subject`` in [n], by the tag-and-sort oracle."""
    complement = [v for v in range(1, n + 1) if v not in subject]
    return sum(
        merged_order_alternates(subject, j)
        for j in itertools.combinations(complement, len(subject))
    )


def test_bruteforce_matches_oracle_count():
    for n in range(2, 12):
        for size in range(1, n // 2 + 1):
            for subject in itertools.combinations(range(1, n + 1), size):
                expected = _oracle_count(subject, n)
                assert alternating_count_bruteforce(subject, n) == expected, (subject, n)


def test_alternating_counts_match_bruteforce_and_oracle():
    for n in range(2, 12):
        for size in range(1, n // 2 + 1):
            table = alternating_counts(n, size)
            subjects = set(itertools.combinations(range(1, n + 1), size))
            # zero counts are missing keys, never stored
            assert set(table) <= subjects and 0 not in table.values(), (n, size)
            assert sum(table.values()) == 2 * math.comb(n, 2 * size), (n, size)
            for subject in subjects:
                expected = _oracle_count(subject, n)
                assert table.get(subject, 0) == expected, (subject, n)
                assert alternating_count_bruteforce(subject, n) == expected, (subject, n)


def test_alternating_counts_examples():
    # the (k+1)-subsets of [2k+3] with no adjacent labels and not both ends
    assert alternating_counts(5, 2) == {(1, 3): 2, (1, 4): 2, (2, 4): 2, (2, 5): 2, (3, 5): 2}
    # outside that regime: one label of [4] alternates with each other label
    assert alternating_counts(4, 1) == {(1,): 3, (2,): 3, (3,): 3, (4,): 3}


def test_alternating_counts_contract_errors():
    with pytest.raises(ContractError, match="subset size must be >= 1, got 0"):
        alternating_counts(5, 0)
    with pytest.raises(ContractError, match=re.escape("two disjoint 3-subsets do not fit in [5]")):
        alternating_counts(5, 3)


def test_bruteforce_oversized_subject_rejected():
    with pytest.raises(ContractError):
        alternating_count_bruteforce((1, 2, 3), 5)


def test_bruteforce_accepts_exploratory_sizes():
    assert alternating_count_bruteforce((2,), 3) == 2  # {1} and {3}


# ------------------------------ closed form ---------------------------------


def test_closed_form_left_end_case():
    breakdown = alternating_count_closed_form((1, 3), 5)
    assert breakdown.case_tag == AlternationCase.LEFT_END_ONLY
    assert breakdown.block_sizes == (1, 2)
    assert breakdown.count == 2


def test_closed_form_both_ends_case():
    breakdown = alternating_count_closed_form((1, 5), 5)
    assert breakdown.case_tag == AlternationCase.BOTH_ENDS
    assert breakdown.count == 0
    assert breakdown.block_sizes is None


def test_closed_form_neither_end_case():
    breakdown = alternating_count_closed_form((2, 4), 5)
    assert breakdown.case_tag == AlternationCase.NEITHER_END
    assert breakdown.count == 2


def test_closed_form_right_end_case():
    breakdown = alternating_count_closed_form((3, 5), 5)
    assert breakdown.case_tag == AlternationCase.RIGHT_END_ONLY
    assert breakdown.block_sizes == (2, 1)
    assert breakdown.count == 2


def test_closed_form_adjacent_case():
    breakdown = alternating_count_closed_form((1, 2), 5)
    assert breakdown.case_tag == AlternationCase.HAS_ADJACENT
    assert breakdown.count == 0


def test_closed_form_wrong_cardinality_rejected():
    with pytest.raises(ContractError):
        alternating_count_closed_form((1, 2, 3), 5)
    with pytest.raises(ContractError):
        alternating_count_closed_form((1, 3), 6)


def test_closed_form_matches_bruteforce_small_k():
    for k in range(1, 5):
        n = 2 * k + 3
        for subject in itertools.combinations(range(1, n + 1), k + 1):
            breakdown = alternating_count_closed_form(subject, n)
            assert breakdown.count == alternating_count_bruteforce(subject, n), subject


def test_private_closed_form_matches_the_validating_one():
    # the unvalidated classifier of each generated alternation row
    for k in range(1, 7):
        n = 2 * k + 3
        for subject in combinations_colex(range(1, n + 1), k + 1):
            breakdown = _closed_form(subject, n)
            # equal count, case_tag and block_sizes
            assert breakdown == alternating_count_closed_form(subject, n), subject
            if k <= 4:
                assert breakdown.count == _oracle_count(subject, n), subject


def test_closed_form_counts_are_even_small_k():
    for k in range(1, 5):
        n = 2 * k + 3
        for subject in itertools.combinations(range(1, n + 1), k + 1):
            assert alternating_count_closed_form(subject, n).count % 2 == 0


# ------------------------------ enumeration ---------------------------------


def test_colex_order_of_pairs_in_four():
    pairs = list(enumerate_disjoint_pairs(4, 2))
    assert pairs == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_pair_count_n5():
    assert len(list(enumerate_disjoint_pairs(5, 2))) == 15


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pair_count_binomial_identity(k):
    n, s = 2 * k + 3, k + 1
    expected = math.comb(n, s) * math.comb(n - s, s) // 2
    pairs = list(enumerate_disjoint_pairs(n, s))
    assert len(pairs) == expected
    normalized = {frozenset((frozenset(a), frozenset(b))) for a, b in pairs}
    assert len(normalized) == expected  # each unordered pair exactly once


def test_pairs_are_disjoint_and_min_first():
    for first, second in enumerate_disjoint_pairs(7, 3):
        assert not set(first) & set(second)
        assert min(first) < min(second)


def test_enumerate_contract_error():
    with pytest.raises(ContractError):
        list(enumerate_disjoint_pairs(5, 3))


def test_combinations_colex_order():
    got = list(combinations_colex((1, 2, 3, 4, 5), 2))
    assert got == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
        (1, 5), (2, 5), (3, 5), (4, 5),
    ]
    # oracle: every subset in lexicographic order, sorted by its reversal
    for length in range(10):
        for items in (tuple(range(1, length + 1)), tuple(range(2, 3 * length + 2, 3))):
            for size in range(length + 2):
                expected = sorted(itertools.combinations(items, size), key=lambda c: c[::-1])
                assert list(combinations_colex(items, size)) == expected, (items, size)


def test_combinations_colex_is_lazy():
    # all C(21, 10) = 352,716 subsets held at once take about 43 MB
    tracemalloc.start()
    try:
        first = next(combinations_colex(tuple(range(1, 22)), 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == tuple(range(1, 11))
    assert peak < 1_000_000


def _colex_subsets(n, size):
    """The ``size``-subsets of [n] in colex order, by sorting on the reversed tuples."""
    return sorted(itertools.combinations(range(1, n + 1), size), key=lambda subset: subset[::-1])


def _block_count(n, size):
    """How many blocks the walk over the ``size``-subsets of [n] has: one per top label set."""
    high = combinatorics._top_size(n, size)
    return math.comb(n - (size - high), high) if size <= n else 0


def _assert_pieces_per_block(pieces, n, size, row_separator):
    # a block is at most two pieces after the row separator before it, so a
    # keyed block is not yielded a stretch at a time
    blocks = _block_count(n, size)
    assert len([piece for piece in pieces if piece != row_separator]) <= 2 * blocks, (n, size)
    assert len(pieces) <= 3 * blocks - 1 or not pieces, (n, size)


@pytest.mark.parametrize("row_separator", ["", ",\n  {"], ids=["csv", "json"])
@pytest.mark.parametrize("one_block_rows", [combinatorics._ONE_BLOCK_ROWS, 0])
def test_colex_rows_are_the_colex_subsets_and_their_tails(one_block_rows, row_separator,
                                                          monkeypatch):
    # the default rule, and every walk of two or more labels a subset split
    monkeypatch.setattr(combinatorics, "_ONE_BLOCK_ROWS", one_block_rows)
    rng = random.Random(7)
    for n in range(13):
        for size in range(n + 2):
            subsets = _colex_subsets(n, size)
            # from no keyed row to every row keyed
            for keyed in sorted({0, 1, 3, len(subsets) // 5, len(subsets)}):
                chosen = rng.sample(subsets, min(keyed, len(subsets)))
                tails = {subset: f";{rng.randrange(10**6)}" for subset in chosen}
                expected = row_separator.join(", ".join(map(str, subset)) + tails.get(subset, ";z")
                                              for subset in subsets)
                pieces = list(colex_rows(n, size, ", ", row_separator, tails, ";z"))
                assert "".join(pieces) == expected, (n, size, keyed)
                _assert_pieces_per_block(pieces, n, size, row_separator)
            # a walk of no keyed row writes each block in two pieces
            pieces = list(colex_rows(n, size, ", ", row_separator, {}, ";z"))
            split = 2 <= size < n and (one_block_rows == 0 or math.comb(n, size) > 256)
            assert (len(pieces) > 2) == split, (n, size)


def test_colex_rank_is_the_index_in_colex_order():
    for n in range(13):
        for size in range(n + 1):
            ranks = [combinatorics._colex_rank(subset) for subset in _colex_subsets(n, size)]
            assert ranks == list(range(math.comb(n, size))), (n, size)


def _blocks(n, size):
    """The colex subsets of the walk's blocks, a list per top label set, by the oracle order."""
    low = size - combinatorics._top_size(n, size)
    blocks = {}
    for subset in _colex_subsets(n, size):
        blocks.setdefault(subset[low:], []).append(subset)
    return list(blocks.values())


@pytest.mark.parametrize("one_block_rows", [combinatorics._ONE_BLOCK_ROWS, 0])
def test_colex_rows_tails_at_the_block_edges(one_block_rows, monkeypatch):
    monkeypatch.setattr(combinatorics, "_ONE_BLOCK_ROWS", one_block_rows)
    for n, size in ((5, 2), (7, 3), (9, 4), (11, 4), (11, 5), (12, 6), (13, 6)):
        blocks = _blocks(n, size)
        subsets = [subset for block in blocks for subset in block]
        largest = max(blocks, key=len)
        middle = len(largest) // 2
        cases = {
            "the first and last row of every block": [subset for block in blocks
                                                      for subset in (block[0], block[-1])],
            "two adjacent rows": largest[middle - 1:middle + 1],
            "every row of one block": largest,
            "every row of one block but its first and last": largest[1:-1],
        }
        if len(blocks) > 1:
            cases["the last row of a block and the first of the next"] = [blocks[0][-1],
                                                                         blocks[1][0]]
        for name, chosen in cases.items():
            tails = {subset: f";{i}" for i, subset in enumerate(chosen)}
            expected = "\n".join(" ".join(map(str, subset)) + tails.get(subset, ";z")
                                  for subset in subsets)
            pieces = list(colex_rows(n, size, " ", "\n", tails, ";z"))
            assert "".join(pieces) == expected, (n, size, name)
            _assert_pieces_per_block(pieces, n, size, "\n")


@pytest.mark.parametrize("key", [(2, 1, 3), (1, 2), (1, 2, 9), (0, 1, 2), (1, 1, 2), (1, 2, 3, 4)])
def test_colex_rows_refuses_a_bad_tails_key(key):
    # a key that no row has would never be written; under rank keying an
    # unsorted or short one would land on another row's rank
    tails = {(1, 2, 3): ";a", key: ";b", (5, 6, 7): ";c"}
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        list(colex_rows(7, 3, " ", "\n", tails, ";z"))


def test_colex_rows_edges():
    # size 0: the one empty subset, with its tail
    assert "".join(colex_rows(2, 0, " ", "\n", {}, ";z")) == ";z"
    assert "".join(colex_rows(2, 0, " ", "\n", {(): ";e"}, ";z")) == ";e"
    assert "".join(colex_rows(0, 0, " ", "\n", {}, ";z")) == ";z"
    # more labels than there are: no row
    assert list(colex_rows(2, 3, " ", "\n", {}, ";z")) == []
    with pytest.raises(ValueError):
        list(colex_rows(1, -1, " ", "\n", {}, ";z"))


def test_spread_subsets_are_the_closed_forms_rows_without_adjacent_labels():
    # the rows of each alternation table that the closed form does not call has_adjacent
    for k in range(1, 10):
        n = 2 * k + 3
        spread = list(spread_subsets(n, k + 1))
        assert len(spread) == math.comb(k + 3, 2)
        assert spread == sorted(spread, key=lambda s: s[::-1])
        assert set(spread) == {
            subset for subset in combinations_colex(range(1, n + 1), k + 1)
            if _closed_form(subset, n) is not _HAS_ADJACENT
        }, k


def test_check_subset_validation():
    assert check_subset([3, 1, 2], 5) == (1, 2, 3)
    with pytest.raises(ContractError):
        check_subset([1, 1], 5)
    with pytest.raises(ContractError):
        check_subset([0, 1], 5)
    with pytest.raises(ContractError):
        check_subset([1, 6], 5)


@pytest.mark.parametrize("labels, n, message", [
    ((), 5, "subset is empty"),
    ((True,), 5, "subset must contain integers: (True,)"),
    ((1, 2.0), 5, "subset must contain integers: (1, 2.0)"),
    ((2, 1, 2), 5, "subset has repeated labels: (2, 1, 2)"),
    ((3, 0), 5, "subset labels must be >= 1: (3, 0)"),
    ((1, 6), 5, "subset label 6 exceeds universe size 5"),
    ((9, 1, 7), 5, "subset label 9 exceeds universe size 5"),
    # two faults at once: the first in this order is reported
    (("a", "a"), 5, "subset must contain integers: ('a', 'a')"),
    ((0, True), 5, "subset must contain integers: (0, True)"),
    ((0, 0), 5, "subset has repeated labels: (0, 0)"),
    ((9, 9), 5, "subset has repeated labels: (9, 9)"),
    ((0, 9), 5, "subset labels must be >= 1: (0, 9)"),
])
def test_check_subset_messages(labels, n, message):
    with pytest.raises(ContractError) as info:
        check_subset(labels, n)
    assert str(info.value) == message
