"""Alternation predicate, subset enumeration, and alternating-subset counts.

Label subsets are plain tuples of strictly increasing integers drawn from
``[n] = {1, ..., n}``.  The central quantity is, for a subset ``I`` of size
k+1 in a universe of size 2k+3, the number of equal-size subsets of the
complement that strictly alternate with ``I`` in the merged order; that count
is always even, and a case analysis pins it to 0 or 2.  Two independent
counts check that analysis: ``alternating_counts`` finds every alternating
pair of a whole universe at once from its union, whose even and odd positions
are the pair, and is the n4 of every linking report; the reference
``alternating_count_bruteforce`` tests every candidate J of one I.

``colex_rows`` is the one writer of the dense tables of C(n, k+1) rows, the
``alternation --k`` table and the dense report sections: it writes every
subset in colex order a block of rows at a time, a block being the subsets
that share their ``size // 2`` largest labels.  One loop writes every block
as stretches of rows, each one ``join`` on the default tail that ends at
one of the few rows that differ from the default, placed by its colex rank
within the block, or at the block's last row.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from math import comb, prod
from operator import add, lt, sub

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
    # one sort: repeats are equal neighbours, and the ends are the extremes
    ordered = sorted(values)
    if not all(map(lt, ordered, ordered[1:])):
        raise ContractError(f"{name} has repeated labels: {values!r}")
    if ordered[0] < 1:
        raise ContractError(f"{name} labels must be >= 1: {values!r}")
    if n is not None and ordered[-1] > n:
        raise ContractError(f"{name} label {ordered[-1]} exceeds universe size {n}")
    return tuple(ordered)


def check_disjoint(first: Iterable[int], second: Iterable[int], n: int | None = None,
                   names: tuple[str, str] = ("P", "Q")) -> tuple[IndexSubset, IndexSubset]:
    """Both subsets sorted, each checked by ``check_subset`` under its name, sharing no label."""
    fs = check_subset(first, n, name=names[0])
    ss = check_subset(second, n, name=names[1])
    overlap = set(fs) & set(ss)
    if overlap:
        raise ContractError(f"subsets overlap: {sorted(overlap)}")
    return fs, ss


def alternates(p: Iterable[int], q: Iterable[int]) -> bool:
    """True iff the merged sorted sequence strictly alternates between the sets.

    The sets must be disjoint, nonempty, and of equal size.
    """
    ps, qs = check_disjoint(p, q)
    if len(ps) != len(qs):
        raise ContractError(f"sizes differ: {len(ps)} vs {len(qs)}")
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


def combinations_colex(items: Sequence, size: int) -> Iterator[tuple]:
    """Yield the ``size``-subsets of ``items`` in colexicographic order.

    Only positions in ``items`` are compared, so ``items`` gives the order and
    may hold label strings: each subset ending at ``items[m]`` precedes each
    subset ending later.  Knuth's colex successor (TAOCP 7.2.1.3, Algorithm L)
    makes each subset from the one before on an index list ending in the
    sentinel ``len(items)``: raise the lowest index that can rise without
    meeting the next and reset those below it.  A list of the current
    subset's values is kept beside the indices and only the positions the
    step moves are rewritten in it, so each subset costs one ``tuple`` copy
    of that list and only the two lists are held.
    """
    if size < 0:
        raise ValueError(f"subset size must be >= 0, got {size}")
    items = tuple(items)
    if size > len(items):
        return
    indices = list(range(size)) + [len(items)]
    values = list(items[:size])
    while True:
        yield tuple(values)
        j = 0
        while j < size and indices[j] + 1 == indices[j + 1]:
            indices[j] = j
            values[j] = items[j]
            j += 1
        if j == size:
            return
        indices[j] += 1
        values[j] = items[indices[j]]


def _colex_texts(texts: tuple[str, ...], size: int, separator: str) -> list[str]:
    """The ``size``-subsets of ``texts``, each joined by ``separator``, in colex order.

    Built up a label at a time: the j + 1-subsets whose largest label is
    ``texts[m]`` are the first C(m, j) j-subsets, which lie below it, each
    followed by that label, so each text is one concatenation.
    """
    if size == 0:
        return [""]
    joined = list(texts)
    for j in range(1, size):
        joined = [text + suffix
                  for m, suffix in enumerate([separator + t for t in texts[j:]], j)
                  for text in joined[:comb(m, j)]]
    return joined


def _colex_rank(subset: IndexSubset) -> int:
    """The index of an increasing ``subset`` of [n] among the subsets of its size in colex order.

    The sum of C(s_i - 1, i) over its labels s_1 < s_2 < ..., the
    combinatorial number system (Knuth TAOCP 7.2.1.3): C(s_i - 1, i) subsets
    agree with it above s_i and have a smaller i-th label.  It does not
    depend on n.
    """
    return sum(comb(label - 1, i) for i, label in enumerate(subset, 1))


def colex_rows(n: int, size: int, separator: str, row_separator: str,
               tails: dict[IndexSubset, str], default_tail: str) -> Iterator[str]:
    """The text of every ``size``-subset of [n] in colex order, a block of rows at a time.

    A row is the subset's labels joined by ``separator``, then
    ``tails[subset]`` or else ``default_tail``; ``row_separator`` goes
    between rows.  A ``tails`` key that is not an increasing ``size``-subset
    of [n] is a ValueError.  A block is the consecutive subsets sharing their
    ``size // 2`` largest labels ``top``, so a walk of subsets of at most one
    label is one block.  A subset's other, low labels range over the subsets
    of the labels below ``top[0]``, and in colex order those are the first
    C(top[0] - 1, low) subsets of the labels 1..n - high, the most any block
    reads.  So the low texts are joined once, into one list, and a block's
    rows are a slice of it, each followed by ``top``'s text.  A block is
    written as stretches of rows, each ending at a keyed row, placed by the
    colex rank of its low labels, or at the block's last row: a stretch is
    one ``join`` on the default tail and then its last row's tail, two
    pieces, with the row separator a piece of its own between stretches.  So
    a block of thousands of rows is never copied to add a tail to it.
    """
    if size < 0:
        raise ValueError(f"subset size must be >= 0, got {size}")
    for subset in tails:
        # labels strictly increasing from above 0 to at most n
        if len(subset) != size or not all(map(lt, (0, *subset), (*subset, n + 1))):
            raise ValueError(f"tails key {subset!r} is not an increasing {size}-subset of [{n}]")
    if size > n:
        return
    texts = tuple(map(str, range(1, n + 1)))
    high = size // 2
    low = size - high
    # the least top label is at most n - high + 1
    lows = _colex_texts(texts[:n - high], low, separator)
    # each stretch of a block ends before a stop: one past a keyed row's colex
    # rank, or the block's end, None, where the last row takes the default tail
    last = (None, default_tail)
    keyed: dict[IndexSubset, list[tuple[int | None, str]]] = {}
    for subset, tail in tails.items():
        keyed.setdefault(subset[low:], []).append((_colex_rank(subset[:low]) + 1, tail))
    for stops in keyed.values():
        stops.sort()
        stops.append(last)
    # a top's least label t leaves t - 1 >= ``low`` labels below it
    tops = zip(combinations_colex(range(low + 1, n + 1), high),
               _colex_texts(tuple(separator + text for text in texts[low:]), high, ""))
    default_separator = default_tail + row_separator
    lead = ""
    for top, suffix in tops:
        block = lows[:comb(top[0] - 1, low)] if top else lows
        joiner = suffix + default_separator
        start = 0
        for stop, tail in keyed.get(top, (last,)):
            if start == len(block):
                # the last row was keyed
                break
            if lead:
                yield lead
            yield joiner.join(block[start:stop])
            yield suffix + tail
            lead = row_separator
            start = stop


def spread_subsets(n: int, size: int) -> Iterator[IndexSubset]:
    """The ``size``-subsets of [n] with no two consecutive labels, in colex order.

    Adding 0, 1, ..., size - 1 to the labels of a ``size``-subset t of
    [n - size + 1] opens a gap between each two, and removing them closes
    it, so these are ``t_i + i`` over those t, C(n - size + 1, size) of
    them; the map keeps colex order.
    """
    for t in combinations_colex(range(1, n - size + 2), size):
        yield tuple(map(add, t, range(size)))


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


def alternating_counts(n: int, size: int) -> Counter[IndexSubset]:
    """Alternating count of every ``size``-subset I of [n], by enumerating unions.

    I and a disjoint J of the same size alternate exactly when I is the even
    or the odd positions of the sorted union U = I ∪ J.  So each
    ``2 * size``-subset U gives one alternating partner to each of its halves
    ``U[0::2]`` and ``U[1::2]``, and each alternating pair (I, J) arises from
    exactly one U, its union.  One pass over the C(n, 2 * size) unions
    therefore finds every nonzero count; a subset missing from the table has
    count 0, and the counts sum to 2 * C(n, 2 * size).  No case analysis is
    used, so this stays an independent check of
    ``alternating_count_closed_form``.  For n = 2k + 3 and size k + 1 there
    are only n unions, against C(n, k + 1) subsets with k + 2 candidates each
    for ``alternating_count_bruteforce``.
    ``test_alternating_counts_match_bruteforce_and_oracle`` holds the table
    equal to both that count and the tag-and-sort oracle for every n <= 11.
    """
    if size < 1:
        raise ContractError(f"subset size must be >= 1, got {size}")
    if 2 * size > n:
        raise ContractError(f"two disjoint {size}-subsets do not fit in [{n}]")
    return Counter(
        half
        for union in itertools.combinations(range(1, n + 1), 2 * size)
        for half in (union[0::2], union[1::2])
    )


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
    return _closed_form(subject, n)


# the two zero-count outcomes, which most subsets of a table have, built once
_HAS_ADJACENT, _BOTH_ENDS = (
    AlternatingCountBreakdown(_CASE_COUNTS[case], case, None)
    for case in (AlternationCase.HAS_ADJACENT, AlternationCase.BOTH_ENDS)
)


def _closed_form(subject: IndexSubset, n: int) -> AlternatingCountBreakdown:
    """``alternating_count_closed_form`` without validation, for a sorted
    (k+1)-subset of [2k+3], such as each subset of ``combinations_colex``.

    ``test_private_closed_form_matches_the_validating_one`` holds the two
    equal on every such subset for k <= 6.
    """
    if 1 in map(sub, subject[1:], subject):
        return _HAS_ADJACENT
    left, right = subject[0] == 1, subject[-1] == n
    if left and right:
        return _BOTH_ENDS
    if not (left or right):
        # no adjacent labels and neither extreme forces the even labels
        assert subject == tuple(range(2, n, 2)), subject
        return AlternatingCountBreakdown(
            count=_CASE_COUNTS[AlternationCase.NEITHER_END],
            case_tag=AlternationCase.NEITHER_END,
            block_sizes=None,
        )
    case = AlternationCase.LEFT_END_ONLY if left else AlternationCase.RIGHT_END_ONLY
    # the maximal runs of [n] \ I are the gaps between consecutive labels of 0, I, n + 1
    bounds = (0, *subject, n + 1)
    blocks = tuple(gap for a, b in zip(bounds, bounds[1:]) if (gap := b - a - 1) > 0)
    assert len(blocks) == (n - 1) // 2, blocks  # k + 1 runs
    assert prod(blocks) == _CASE_COUNTS[case], (blocks, prod(blocks))
    return AlternatingCountBreakdown(
        count=_CASE_COUNTS[case],
        case_tag=case,
        block_sizes=blocks,
    )
