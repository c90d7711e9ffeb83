"""Alternation predicate, subset enumeration, and alternating-subset counts.

Label subsets are plain tuples of strictly increasing integers drawn from
``[n] = {1, ..., n}``.  The central quantity is, for a subset ``I`` of size
k+1 in a universe of size 2k+3, the number of equal-size subsets of the
complement that strictly alternate with ``I`` in the merged order; that count
is always even, and a case analysis pins it to 0 or 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from operator import lt
from typing import Iterable, Iterator, Sequence

from .errors import ContractError

IndexSubset = tuple[int, ...]

# A report over 2k + 3 points, like the alternation table, has one row per
# (k+1)-subset: C(21, 10) rows at k = 9, C(23, 11) = 1,352,078 at k = 10.
MAX_REPORT_ROWS = 352_716


def check_subset(labels: Iterable[int], n: int | None = None, name: str = "subset") -> IndexSubset:
    """Validate and canonicalize a label subset.

    Labels must be distinct positive integers, and within ``1..n`` when a
    universe size is given.  Returns the sorted tuple.
    """
    values = tuple(labels)
    if not values:
        raise ContractError(f"{name} is empty")
    if any(not isinstance(v, int) or isinstance(v, bool) for v in values):
        raise ContractError(f"{name} must contain integers: {values!r}")
    if len(set(values)) != len(values):
        raise ContractError(f"{name} has repeated labels: {values!r}")
    if min(values) < 1:
        raise ContractError(f"{name} labels must be >= 1: {values!r}")
    if n is not None and max(values) > n:
        raise ContractError(f"{name} label {max(values)} exceeds universe size {n}")
    return tuple(sorted(values))


def alternates(p: Iterable[int], q: Iterable[int]) -> bool:
    """True iff the merged sorted sequence strictly alternates between the sets.

    The sets must be disjoint, nonempty, and of equal size.
    """
    ps = check_subset(p, name="P")
    qs = check_subset(q, name="Q")
    if len(ps) != len(qs):
        raise ContractError(f"sizes differ: {len(ps)} vs {len(qs)}")
    if set(ps) & set(qs):
        raise ContractError(f"subsets overlap: {sorted(set(ps) & set(qs))}")
    return _merged_order_alternates(ps, qs)


def _merged_order_alternates(ps: IndexSubset, qs: IndexSubset) -> bool:
    """``alternates`` without validation, for sorted, disjoint, equal-size subsets.

    Linear in the subset size, with no merge or sort: the merged order
    alternates iff, with ``first`` the tuple holding the smaller minimum,
    ``first[0] < second[0] < first[1] < second[1] < ...``.  The reference is
    the tag-and-sort ``merged_order_alternates`` in ``tests/oracles.py``;
    ``test_merged_order_alternates_matches_oracle`` holds the two equal.
    """
    first, second = (ps, qs) if ps[0] < qs[0] else (qs, ps)
    return all(map(lt, first, second)) and all(map(lt, second, first[1:]))


def _exceeds_binomial(n: int, r: int, ceiling: int) -> bool:
    """True iff C(n, r) > ceiling, for 0 <= r <= n.

    C(n, i) grows with i up to r = min(r, n - r), so the product is built
    term by term and stops once it passes the ceiling: a huge n or r never
    forms a huge binomial.
    """
    count = 1
    for i in range(min(r, n - r)):
        if count > ceiling:
            return True
        count = count * (n - i) // (i + 1)
    return count > ceiling


def _require_report_rows(k: int) -> None:
    """ContractError when a report over 2k + 3 points would exceed ``MAX_REPORT_ROWS`` rows."""
    if _exceeds_binomial(2 * k + 3, k + 1, MAX_REPORT_ROWS):
        raise ContractError(
            f"k={k}: a report has C(2k + 3, k + 1) rows, more than the ceiling of "
            f"{MAX_REPORT_ROWS:,} (k <= 9)"
        )


def combinations_colex(items: Sequence[int], size: int) -> Iterator[IndexSubset]:
    """Yield the ``size``-subsets of ``items`` in colexicographic order.

    ``items`` must be sorted ascending.  Colex compares the largest differing
    element, so every subset with maximum m precedes every subset with a
    larger maximum.  Knuth's colex successor (TAOCP 7.2.1.3, Algorithm L)
    makes each subset from the one before on an index list ending in the
    sentinel ``len(items)``: raise the lowest index that can rise without
    meeting the next and reset those below it, so only that list is held.
    """
    if size < 0:
        raise ValueError(f"subset size must be >= 0, got {size}")
    items = tuple(items)
    if size > len(items):
        return
    indices = list(range(size)) + [len(items)]
    while True:
        yield tuple(map(items.__getitem__, indices[:size]))
        j = 0
        while j < size and indices[j] + 1 == indices[j + 1]:
            indices[j] = j
            j += 1
        if j == size:
            return
        indices[j] += 1


def enumerate_disjoint_pairs(n: int, s: int) -> Iterator[tuple[IndexSubset, IndexSubset]]:
    """Yield each unordered pair of disjoint s-subsets of [n] exactly once.

    Deterministic order: the first component is the member containing the
    minimum of the union; first components advance in colex order, and for a
    fixed first component the second components advance in colex order over
    the complement.
    """
    if s < 1:
        raise ContractError(f"subset size must be >= 1, got {s}")
    if 2 * s > n:
        raise ContractError(f"two disjoint {s}-subsets do not fit in [{n}]")
    universe = range(1, n + 1)
    for first in combinations_colex(tuple(universe), s):
        taken = set(first)
        rest = tuple(v for v in universe if v not in taken)
        lo = first[0]
        for second in combinations_colex(rest, s):
            if second[0] > lo:
                yield first, second


class AlternationCase(Enum):
    """Case labels for the closed-form alternating count."""

    HAS_ADJACENT = "has_adjacent"
    BOTH_ENDS = "both_ends"          # case (i)
    LEFT_END_ONLY = "left_end_only"  # case (ii)
    RIGHT_END_ONLY = "right_end_only"  # case (iii)
    NEITHER_END = "neither_end"      # case (iv)


# Count per case: adjacent labels or both extremes kill every candidate;
# the remaining cases admit exactly two alternating subsets.
_CASE_COUNTS = {
    AlternationCase.HAS_ADJACENT: 0,
    AlternationCase.BOTH_ENDS: 0,
    AlternationCase.LEFT_END_ONLY: 2,
    AlternationCase.RIGHT_END_ONLY: 2,
    AlternationCase.NEITHER_END: 2,
}


@dataclass(frozen=True)
class AlternatingCountBreakdown:
    """Closed-form alternating count for one subset, with its case evidence."""

    count: int
    case_tag: AlternationCase
    block_sizes: tuple[int, ...] | None

    def __post_init__(self):
        if self.count % 2 != 0:
            raise AssertionError(f"alternating count must be even, got {self.count}")
        if self.block_sizes is not None:
            if sorted(self.block_sizes) != [1] * (len(self.block_sizes) - 1) + [2]:
                raise AssertionError(f"expected one 2-block and 1-blocks, got {self.block_sizes}")


def alternating_count_bruteforce(i_labels: Iterable[int], n: int) -> int:
    """Count subsets J of [n] \\ I with |J| = |I| alternating with I, by enumeration.

    Every one of the C(n - |I|, |I|) candidates J is tested, with the linear
    ``_merged_order_alternates``; no case analysis is used, so this stays the
    independent check of ``alternating_count_closed_form``.
    ``test_bruteforce_matches_oracle_count`` holds it equal to a count made
    with the tag-and-sort oracle for every I with n <= 11.
    """
    subject = check_subset(i_labels, n, name="I")
    if len(subject) > n - len(subject):
        raise ContractError(
            f"|I|={len(subject)} leaves no room for a disjoint equal-size subset in [{n}]"
        )
    in_subject = set(subject)
    complement = [v for v in range(1, n + 1) if v not in in_subject]
    return sum(
        1 for j in itertools.combinations(complement, len(subject))
        if _merged_order_alternates(subject, j)
    )


def _complement_blocks(subject: IndexSubset, n: int) -> tuple[int, ...]:
    """Sizes of the maximal runs of consecutive integers in [n] \\ I."""
    in_subject = set(subject)
    blocks = []
    run = 0
    for v in range(1, n + 1):
        if v in in_subject:
            if run:
                blocks.append(run)
            run = 0
        else:
            run += 1
    if run:
        blocks.append(run)
    return tuple(blocks)


def alternating_count_closed_form(i_labels: Iterable[int], n: int) -> AlternatingCountBreakdown:
    """Classify I and return its alternating count without enumeration.

    Requires the n = 2k+3, |I| = k+1 regime.  Adjacent labels in I rule out
    every candidate; otherwise the extremes 1 and n decide the case.  In the
    one-extreme cases the complement splits into k+1 runs whose sizes
    multiply to the count, and with k+2 elements in k+1 runs exactly one run
    has size 2.
    """
    subject = check_subset(i_labels, n, name="I")
    if n < 5 or n % 2 == 0:
        raise ContractError(f"universe size must be odd and >= 5, got {n}")
    k = (n - 3) // 2
    if len(subject) != k + 1:
        raise ContractError(f"|I| must be {k + 1} for universe size {n}, got {len(subject)}")

    has_adjacent = any(b - a == 1 for a, b in zip(subject, subject[1:]))
    if has_adjacent:
        case = AlternationCase.HAS_ADJACENT
        blocks = None
    elif 1 in subject and n in subject:
        case = AlternationCase.BOTH_ENDS
        blocks = None
    elif 1 in subject:
        case = AlternationCase.LEFT_END_ONLY
        blocks = _complement_blocks(subject, n)
    elif n in subject:
        case = AlternationCase.RIGHT_END_ONLY
        blocks = _complement_blocks(subject, n)
    else:
        case = AlternationCase.NEITHER_END
        blocks = None
        # no adjacent labels and neither extreme forces the even labels
        assert subject == tuple(range(2, 2 * k + 3, 2)), subject

    if blocks is not None:
        assert len(blocks) == k + 1, blocks
        product = 1
        for size in blocks:
            product *= size
        assert product == _CASE_COUNTS[case], (blocks, product)

    return AlternatingCountBreakdown(
        count=_CASE_COUNTS[case],
        case_tag=case,
        block_sizes=blocks,
    )
