"""Linking counts and whole-configuration verification campaigns.

For a configuration of n = 2k+3 general-position points in R^{2k} and a
(k+1)-subset I, the boundary of the complementary (k+1)-simplex is the union
of its k-faces, one per (k+1)-subset J of the complement.  Each face meets
conv(I) in at most one point, so the boundary intersection count is the
number of faces hit.  I is *linked* with its complement when that count is
odd.

I and a face J together cover every label but one, v, so conv(I) meets
conv(J) exactly when {I, J} is the Radon partition of the other n - 1
points: the sign split of their unique affine dependence (Radon's theorem;
Matoušek, *Lectures on Discrete Geometry*, 2002, §5.6).  The affine
dependences of all n points form a 2-dimensional space, their Gale dual, so
two of them span it: the dependence of [n] \\ {v} is the 2×2 cross product
of that pair taken at v.  ``configuration._gale_pair`` hands out these n
integer dependences, from one fraction-free elimination, after certifying
general position with them (or raising DegeneracyError naming the first
dependent (d+1)-subset).  ``Configuration.radon_partitions`` reads off each
one's sign split and integer weights.  A balanced partition, one into two
(k+1)-sets, is both an intersecting disjoint pair and a face hit of each
side by the other, its face read as ``RadonPartition.other`` of the side.
``Configuration.face_hits`` groups the balanced partitions by side, sides
in colex order and each side's partitions in colex order of their faces,
and keeps the index on the configuration instance, so one configuration
runs one elimination and one grouping however many of the queries below it
meets.  This module holds no general-position code and forms no cross
product: every query reads that index and nothing else.  n1 tells the hits
of I apart by their weights on I, made primitive, so a Radon point, its
integer homogeneous coordinates as well as its ``Fraction``s, is formed
only for a witness row or a pair that is written.

Verification campaigns:

* ``total_linked_parity`` keeps the configuration and its support: the
  counts of every subset with a face hit (a side in ``face_hits``, its row's
  hits that side's tuple) or an alternating partner (from
  ``alternating_counts``'s n unions), at most 2n subsets, each row built
  once.  Its linked total is even: the ordered double sum over disjoint
  (I, J) counts every unordered pair twice.
* ``verify_counterexample`` builds the moment-curve configuration on
  2k+3 integer parameters and checks that it has *no* linked pair at all,
  cross-checking three counts on every row of the support: distinct
  boundary points (n1), faces hit (n2 = n3, faces being in bijection with
  subsets J), and subsets alternating with I (n4).
* ``find_intersecting_pair`` exhibits two disjoint (k+1)-subsets with
  intersecting hulls, which must exist for any d+3 general-position points
  in even dimension d.  It and ``intersecting_pairs`` read which pairs meet
  off ``face_hits``, one pair per balanced partition, and form a pair's
  barycentric witness from its partition's integer weights only for a pair
  yielded, with no solve.  ``intersect_complementary`` is the per-pair
  oracle the tests compare them with.

Reports are computed serially; the ``workers`` arguments are accepted and
ignored.  Reports serialize to JSON with a stable key order and carry no
timestamps or worker counts, so reruns produce byte-identical files.
``link_report_document`` and ``counterexample_document`` build the one form
of a document: its dense sections, ``per_subset`` and ``cross_checks``, are
``DenseSection``s, each naming the ``SubsetCounts`` fields it writes.  A
section's rows are made only as they are written, by the one colex row
writer, ``combinatorics.colex_rows``, which also writes the ``alternation``
table, a block of rows sharing their (k + 1) // 2 largest labels at a time:
each row is a head shared by the section, the subset's labels and a tail,
the zero row's unless the subset is on the support, and a block is written
as stretches, each one ``join`` on the zero tail that ends at a support row
or at the block's last row.
``dumps_canonical`` and ``write_canonical`` run one encoder: ``_text``
makes one text of a document, each list and dict encoded once, with the
placeholder ``"\\x00"`` where a dense section or an iterator streams (the
``ensure_ascii`` encoder writes that character as ``\\u0000`` in every key
and string) and a dense section's head and tails made with it, so a value
refused outside any iterator raises before anything is written.
``_pieces`` writes the text split at its placeholders, each streamed value
in its place: a dense section a colex block at a time, an iterator an item
at a time, each item through ``_pieces``.
``write_canonical`` writes the pieces as they are made, holding the low
labels' texts that blocks read and one block, not the section.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from io import TextIOBase
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd

# alternating_count_bruteforce, find_degenerate_subset and
# intersect_complementary are not called here; perfbench's span tracer wraps
# them under this module's name
from .combinatorics import (
    IndexSubset,
    _require_report_rows,
    alternating_count_bruteforce,  # noqa: F401
    alternating_counts,
    check_subset,
    colex_rows,
    combinations_colex,
)
from .configuration import (
    Configuration,
    Point,
    RadonPartition,
    find_degenerate_subset,  # noqa: F401
    moment_curve,
)
from .errors import ContractError
from .intersection import IntersectionResult, intersect_complementary  # noqa: F401
from .ratmat import format_rational


@dataclass(frozen=True)
class SubsetCounts:
    """The counts compared for one subset I.

    n1 counts distinct boundary points and n4 alternating subsets; both are
    stored.  ``hits`` are the configuration's own Radon partitions with I as
    a side, in colex order of their other side, the face J hit; n3, the
    faces hit, is derived as ``len(hits)``.  n2, the subsets J whose hull
    meets conv(I), equals n3 by construction: the k-faces of the
    complementary simplex are exactly the sets conv(J) for (k+1)-subsets J
    of the complement.
    """

    subset: IndexSubset
    n1: int
    n4: int
    hits: tuple[RadonPartition, ...]

    @property
    def n3(self) -> int:
        return len(self.hits)

    @property
    def n2(self) -> int:
        return self.n3

    @property
    def consistent(self) -> bool:
        return self.n1 == self.n2 == self.n3 == self.n4

    @property
    def even(self) -> bool:
        return self.n3 % 2 == 0


def _distinct_points(subset: IndexSubset, hits: Iterable[RadonPartition]) -> int:
    """n1: the number of distinct boundary points among the face hits of ``subset``.

    Each hit's Radon point is Σ_{i∈I} w_i·p_i / Σ_{i∈I} w_i, its weights on
    I, which share one sign, as barycentric coordinates.  In general
    position I's points are affinely independent, so two hits meet conv(I)
    at one point exactly when their weights on I are proportional.  Each
    hit is keyed by those k + 1 weights divided by their gcd, negated when I
    is the negative side, so no point is formed.
    """
    keys = set()
    for hit in hits:
        vector = [hit.weights[label - 1] for label in subset]
        content = gcd(*vector) if vector[0] > 0 else -gcd(*vector)
        keys.add(tuple([x // content for x in vector]))
    return len(keys)


@dataclass(frozen=True)
class LinkReport:
    """A configuration and the nonzero rows of its counts.

    ``support`` maps each (k+1)-subset with a face hit or an alternating
    partner to its ``SubsetCounts``, in colex order; every other subset has
    n1 = n3 = n4 = 0.  Each row is built once, by ``total_linked_parity``,
    and every derived fact reads these rows.  ``per_subset``, the dense
    colex rows, is built once, on first use.
    """

    config: Configuration
    support: dict[IndexSubset, SubsetCounts]

    @property
    def k(self) -> int:
        return self.config.dimension // 2

    def row(self, subset: IndexSubset) -> SubsetCounts:
        """The counts of one (k+1)-subset: its support row, or all zeros."""
        return self.support.get(subset) or SubsetCounts(subset, 0, 0, ())

    @cached_property
    def per_subset(self) -> tuple[SubsetCounts, ...]:
        return tuple(map(self.row, combinations_colex(self.config.labels, self.k + 1)))

    @property
    def linked_subsets(self) -> tuple[IndexSubset, ...]:
        return tuple(subset for subset, row in self.support.items() if row.n3 % 2)

    @property
    def single_point_subsets(self) -> tuple[IndexSubset, ...]:
        return tuple(subset for subset, row in self.support.items() if row.n1 == 1)

    @property
    def total_linked(self) -> int:
        return len(self.linked_subsets)

    @property
    def parity_ok(self) -> bool:
        return self.total_linked % 2 == 0


@dataclass(frozen=True)
class CounterexampleReport:
    """LinkReport plus the cross-check failures for the moment-curve configuration."""

    report: LinkReport
    failures: tuple[str, ...]

    @property
    def cross_checks(self) -> tuple[SubsetCounts, ...]:
        return self.report.per_subset

    @property
    def ok(self) -> bool:
        return not self.failures


def _require_linking_shape(d: int, n: int) -> int:
    """k for n = d + 3 points in even dimension d; ContractError for any other shape."""
    if d % 2 != 0:
        raise ContractError(f"linking verification needs even dimension, got d={d}")
    if n != d + 3:
        raise ContractError(f"need n = d + 3 points, got n={n}, d={d}")
    return d // 2


def boundary_intersection_count(config: Configuration, subset: Iterable[int]) -> int:
    """Number of boundary points of the complementary simplex met by conv(I).

    Sums [conv(I) ∩ conv(J) != empty] over the (k+1)-subsets J of the
    complement: the number of I's partitions in ``config.face_hits``,
    grouped on the first query of a configuration and looked up by every
    later one.  Each face contributes at most one point, and distinct faces
    hit distinct points under general position (asserted).
    """
    k = _require_linking_shape(config.dimension, config.n)
    canon = check_subset(subset, config.n, name="I")
    if len(canon) != k + 1:
        raise ContractError(f"|I| must be k + 1 = {k + 1}, got {len(canon)}")
    hits = config.face_hits.get(canon, ())
    assert _distinct_points(canon, hits) == len(hits), \
        "coincident face hits indicate a general-position violation"
    return len(hits)


def is_linked(config: Configuration, subset: Iterable[int]) -> bool:
    """True iff conv(I) meets the complementary simplex boundary oddly often.

    Reads the configuration's face hits; see ``boundary_intersection_count``.
    """
    return boundary_intersection_count(config, subset) % 2 == 1


def total_linked_parity(config: Configuration, workers: int = 1) -> LinkReport:
    """The report of a configuration: the counts of every subset on its support.

    The support is the union of the sides in ``config.face_hits`` and the
    nonzero alternating counts, formed here alone; a row's hits are its
    side's tuple in that index, and each row's n1 is counted once.
    Raises DegeneracyError (with the offending subset) when the configuration
    is not in general position, and ContractError for a report of more than
    ``MAX_REPORT_ROWS`` rows (k > 9).  ``workers`` is accepted and ignored:
    the report costs the configuration's face hits (one integer elimination
    and one grouping, none if an earlier query made them) and n unions, no
    enumeration.
    """
    k = _require_linking_shape(config.dimension, config.n)
    _require_report_rows(k)
    alternating = alternating_counts(config.n, k + 1)
    support = {}
    for subset in sorted(config.face_hits.keys() | alternating.keys(), key=lambda s: s[::-1]):
        hits = config.face_hits.get(subset, ())
        support[subset] = SubsetCounts(
            subset, _distinct_points(subset, hits), alternating[subset], hits
        )
    return LinkReport(config=config, support=support)


def verify_counterexample(k: int, workers: int = 1) -> CounterexampleReport:
    """Check that the moment-curve configuration on 2k+3 points has no linked pair.

    Certifies general position and requires n1 = n3 = n4, all even, and zero
    linked subsets, checking the report's support rows in colex order:
    every other row is all zeros.  Any violation is recorded as a failure
    (it would falsify the implementation, not the statement being checked).
    A k above 9 raises ContractError before any point is built.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    _require_report_rows(k)
    config = moment_curve(2 * k + 3, 2 * k)
    report = total_linked_parity(config, workers=workers)

    failures = []
    for row in report.support.values():
        if not row.consistent:
            failures.append(
                f"count mismatch at I={row.subset}: "
                f"n1={row.n1} n2={row.n2} n3={row.n3} n4={row.n4}"
            )
        if row.n1 % 2 != 0:
            failures.append(f"odd boundary count {row.n1} at I={row.subset}")
    total = report.total_linked
    if total != 0:
        failures.append(f"{total} linked subsets: {report.linked_subsets}")
    if not report.parity_ok:
        failures.append("total linked count is odd")
    return CounterexampleReport(report=report, failures=tuple(failures))


def radon_witness(
    partition: RadonPartition, first: IndexSubset, second: IndexSubset,
) -> IntersectionResult:
    """The barycentric witness of conv(first) ∩ conv(second), the two sides of ``partition``.

    Each side's coordinates are its weights over their sum:
    ``intersect_complementary(config, first, second)``'s, with no solve.
    """
    weights = partition.weights
    total = sum(weights[label - 1] for label in first)
    return IntersectionResult(
        point=partition.point,
        coeffs_first=tuple(Fraction(weights[label - 1], total) for label in first),
        coeffs_second=tuple(Fraction(-weights[label - 1], total) for label in second),
    )


def intersecting_pairs(
    config: Configuration,
) -> Iterator[tuple[IndexSubset, IndexSubset, IntersectionResult]]:
    """Every disjoint (k+1)-subset pair with intersecting hulls: one per balanced partition.

    Pairs come in ``enumerate_disjoint_pairs`` order: ``first`` is the side
    with the smaller minimum, and pairs are in the colex order of ``first``,
    then of ``second``.  That is the order of ``config.face_hits``, sides
    and then faces, read once, each partition from its side holding the
    smaller minimum.  Each pair's witness is ``radon_witness``'s, equal
    field by field to ``intersect_complementary``'s.  Raises
    DegeneracyError on the first step when general position fails.
    """
    _require_linking_shape(config.dimension, config.n)
    for first, hits in config.face_hits.items():
        for partition in hits:
            second = partition.other(first)
            if first[0] < second[0]:
                yield first, second, radon_witness(partition, first, second)


def find_intersecting_pair(
    config: Configuration,
) -> tuple[IndexSubset, IndexSubset, IntersectionResult] | None:
    """First disjoint (k+1)-subset pair (colex order) with intersecting hulls.

    Returns None only for inputs outside the guarantee; for general-position
    configurations with n = d + 3 an intersecting pair always exists.
    """
    return next(intersecting_pairs(config), None)


# ---------------------------------------------------------------------------
# JSON report document (stable key order, exact rationals as "p/q" strings)
# ---------------------------------------------------------------------------


def _point_json(point: Point) -> list[str]:
    return [format_rational(x) for x in point]


def _witnesses_json(report: LinkReport) -> list[dict]:
    return [
        {
            "I": list(subset),
            "faces": [
                {"J": list(hit.other(subset)), "point": _point_json(hit.point)} for hit in row.hits
            ],
        }
        for subset, row in report.support.items()
        if row.n3 % 2
    ]


@dataclass(frozen=True)
class DenseSection:
    """A report section with one row per (k+1)-subset I, in colex order.

    Each row is the subset ``"I"`` and then, in order, the ``SubsetCounts``
    attributes named in ``fields``, each an int or a bool; only the support
    rows' attributes are read, as every other row is the zero row.  The rows
    are never held together: ``dumps_canonical`` and ``write_canonical``
    write them a colex block at a time, and ``json.dumps`` raises TypeError
    on a section.
    """

    report: LinkReport
    fields: tuple[str, ...]


def link_report_document(report: LinkReport) -> dict:
    """The report document, its dense ``per_subset`` section a ``DenseSection``.

    This is the one home of the document's section order.  Key order is
    fixed; elapsed time and timestamps are deliberately absent so that
    identical inputs give byte-identical documents.  Serialize it with
    ``dumps_canonical`` or ``write_canonical``.
    """
    config = report.config
    return {
        "config": {
            "dimension": config.dimension,
            "n": config.n,
            "provenance": config.provenance.describe(),
            "points": [_point_json(p) for p in config.points],
        },
        "k": report.k,
        "per_subset": DenseSection(report, ("n1", "n3", "n4", "even")),
        "linked_pairs": [list(s) for s in report.linked_subsets],
        "single_point_subsets": [list(s) for s in report.single_point_subsets],
        "total": report.total_linked,
        "parity_ok": report.parity_ok,
        "witnesses": _witnesses_json(report),
        "failures": [],
    }


def counterexample_document(result: CounterexampleReport, manifest: dict | None = None) -> dict:
    """The verify document: the report's, failures filled in, cross checks appended."""
    document = link_report_document(result.report)
    document["failures"] = list(result.failures)
    document["cross_checks"] = DenseSection(result.report, ("n1", "n2", "n3", "n4", "consistent"))
    if manifest is not None:
        document["manifest"] = manifest
    return document


def dumps_canonical(document: dict) -> str:
    """Serialize with a stable layout suitable for byte-for-byte comparison.

    The text is exactly ``json.dumps(document, indent=2, ensure_ascii=True)``
    plus a final newline, with each iterator written as the list it yields
    and each ``DenseSection`` as the list of its rows.  Only dicts with
    ``str`` keys, lists, ``str``, ``int``, ``bool`` and ``None`` are
    accepted besides these; any other value or key type (a ``float``, a
    ``tuple``, a ``set``, an ``int`` key) raises TypeError.
    """
    return "".join(_pieces(document, "")) + "\n"


def write_canonical(handle: TextIOBase, document: dict) -> None:
    """Write ``dumps_canonical(document)``'s text to ``handle`` a piece at a time.

    An iterator in ``document`` is written as a list one item at a time, and
    a ``DenseSection`` a colex block at a time, so the whole is never held.
    """
    handle.writelines(_pieces(document, ""))
    handle.write("\n")


# the text of a value of each scalar type, looked up by exact type; a str or
# int subclass is written by _text's isinstance checks.  1 == True, so the
# literals are looked up by type, never by value
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}

# stands in the one text for a value written as it is made; the ensure_ascii
# encoder writes the character as \u0000 in every key and string
_PLACEHOLDER = "\x00"


def _text(value, pad: str, streamed: list) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it on a line indented by ``pad``.

    A ``DenseSection`` or an iterator anywhere in ``value`` is written as
    ``_PLACEHOLDER``, and the pieces that write it in its place are
    appended to ``streamed``, in the order of the placeholders in the text:
    a dense section's by ``_dense_rows``, its head and tails made now, and
    an iterator's by ``_items``.  TypeError for a value or key that
    ``dumps_canonical`` does not accept.  A scalar inside a list or dict is
    written by its ``_SCALAR_TEXT`` entry with no call of ``_text``.
    """
    scalar = _SCALAR_TEXT.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = pad + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[\n" + inner + (",\n" + inner).join([
            scalar(item) if (scalar := _SCALAR_TEXT.get(type(item)))
            else _text(item, inner, streamed)
            for item in value
        ]) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        return "{\n" + inner + (",\n" + inner).join([
            _key(key) + ": " + (scalar(item) if (scalar := _SCALAR_TEXT.get(type(item)))
                                else _text(item, inner, streamed))
            for key, item in value.items()
        ]) + "\n" + pad + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, DenseSection):
        streamed.append(_dense_rows(value, pad))
        return _PLACEHOLDER
    if isinstance(value, Iterator):
        streamed.append(_items(value, pad))
        return _PLACEHOLDER
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _pieces(value, pad: str) -> Iterator[str]:
    """``_text(value, pad)`` in pieces, each streamed value written in its placeholder's place.

    The whole text is made first, a dense section's head and tails with it,
    so a refused value outside any iterator raises before a piece is
    yielded.  A dense section is then written a colex block at a time, and
    an iterator an item at a time, each item's text made only when the item
    is reached.
    """
    streamed = []
    parts = _text(value, pad, streamed).split(_PLACEHOLDER)
    yield parts[0]
    for pieces, part in zip(streamed, parts[1:]):
        yield from pieces
        yield part


def _items(items: Iterator, pad: str) -> Iterator[str]:
    """The list an iterator yields, as ``json.dumps(indent=2)`` lays it out, an item at a time."""
    inner = pad + "  "
    separator = "[\n" + inner
    for item in items:
        yield separator
        yield from _pieces(item, inner)
        separator = ",\n" + inner
    # the separator is still the opening one only after an empty iterator
    yield "[]" if separator[0] == "[" else "\n" + pad + "]"


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _dense_rows(section: DenseSection, pad: str) -> Iterator[str]:
    """The section's list as ``json.dumps(indent=2)`` lays it out, a colex block at a time.

    The head and every tail are made by this call, so a field that
    ``_text`` refuses, or writes with a streamed value in it, raises
    TypeError here, before any row is written.  The returned iterator runs
    one ``colex_rows`` walk between the opening bracket and the closing one.
    Each row is the section's one head, its subset's labels and a tail: a
    support row's or else the zero row's.  A block, the rows sharing their
    (k + 1) // 2 largest labels, is written as stretches: each is one join on
    the zero tail and the next row's head, and ends at a support row, placed
    by its colex rank, or at the block's last row.
    """
    report = section.report
    row_pad = pad + "  "
    field_pad = row_pad + "  "
    label_pad = field_pad + "  "
    head = "{\n" + field_pad + _key("I") + ": [\n" + label_pad
    tail = "\n" + field_pad + "]" + "".join(
        f",\n{field_pad}{_key(name)}: %s" for name in section.fields
    ) + "\n" + row_pad + "}"
    streamed = []

    def tail_of(row: SubsetCounts) -> str:
        return tail % tuple([_text(getattr(row, name), field_pad, streamed)
                             for name in section.fields])

    tails = {subset: tail_of(row) for subset, row in report.support.items()}
    # any subset off the support gives the zero row; the empty one is such a subset
    zero_tail = tail_of(report.row(()))
    if streamed:
        raise TypeError(f"a dense section field of {section.fields} holds a streamed value")
    rows = colex_rows(report.config.n, report.k + 1, ",\n" + label_pad,
                      ",\n" + row_pad + head, tails, zero_tail)
    # a section is never empty
    return chain(["[\n" + row_pad + head], rows, ["\n" + pad + "]"])
