"""Alternation, enumeration order, and count tests."""

import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkparity.combinatorics import (
    AlternationCase,
    _merged_order_alternates,
    alternates,
    alternating_count_bruteforce,
    alternating_count_closed_form,
    check_subset,
    combinations_colex,
    enumerate_disjoint_pairs,
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


def test_bruteforce_matches_oracle_count():
    for n in range(2, 12):
        for size in range(1, n // 2 + 1):
            for subject in itertools.combinations(range(1, n + 1), size):
                complement = [v for v in range(1, n + 1) if v not in subject]
                expected = sum(
                    merged_order_alternates(subject, j)
                    for j in itertools.combinations(complement, size)
                )
                assert alternating_count_bruteforce(subject, n) == expected, (subject, n)


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


def test_check_subset_validation():
    assert check_subset([3, 1, 2], 5) == (1, 2, 3)
    with pytest.raises(ContractError):
        check_subset([1, 1], 5)
    with pytest.raises(ContractError):
        check_subset([0, 1], 5)
    with pytest.raises(ContractError):
        check_subset([1, 6], 5)
