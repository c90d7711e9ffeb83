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
dependent (d+1)-subset), so this module holds no general-position code and
forms no cross product; every query below reads the table they give.

Verification campaigns:

* ``total_linked_parity`` enumerates every I and checks the total number of
  linked subsets is even (it is: the ordered double sum over disjoint (I, J)
  counts every unordered pair twice).
* ``verify_counterexample`` builds the moment-curve configuration on
  2k+3 integer parameters and checks that it has *no* linked pair at all,
  cross-checking three counts for every I: distinct boundary points (n1),
  faces hit (n2 = n3, faces being in bijection with subsets J), and subsets
  alternating with I (n4).
* ``find_intersecting_pair`` exhibits two disjoint (k+1)-subsets with
  intersecting hulls, which must exist for any d+3 general-position points
  in even dimension d.  It and ``intersecting_pairs`` read which pairs meet
  from the table; each hit keeps its partition's integer weights, and its
  barycentric witness is formed from them only for a pair yielded, with no
  solve.  ``intersect_complementary`` is the per-pair oracle the tests
  compare them with.

Reports are computed serially; the ``workers`` arguments are accepted and
ignored.  Reports serialize to JSON with a stable key order and carry no
timestamps or worker counts, so reruns produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator

from .combinatorics import (
    IndexSubset,
    _require_report_rows,
    alternating_count_bruteforce,
    check_subset,
    combinations_colex,
)
# find_degenerate_subset and intersect_complementary are not called here;
# perfbench's span tracer wraps them under this module's name
from .configuration import (
    Configuration,
    Point,
    _gale_pair,
    find_degenerate_subset,  # noqa: F401
    moment_curve,
)
from .errors import ContractError
from .intersection import IntersectionResult, intersect_complementary  # noqa: F401
from .ratmat import format_rational


@dataclass(frozen=True)
class FaceHit:
    """One face of the complementary simplex met by conv(I), with the point.

    ``weights`` holds, at index i - 1, the integer affine dependence
    coefficient of label i on the Radon partition {I, face}: positive on one
    side, negative on the other, zero at the one label outside both.
    """

    face: IndexSubset
    point: Point
    weights: tuple[int, ...]

    def witness(self, subset: IndexSubset) -> IntersectionResult:
        """The barycentric witness of conv(subset) ∩ conv(face), ``subset`` being I.

        Each side's coordinates are its weights over their sum:
        ``intersect_complementary(config, subset, face)``'s, with no solve.
        """
        total = sum(self.weights[label - 1] for label in subset)
        return IntersectionResult(
            point=self.point,
            coeffs_first=tuple(Fraction(self.weights[label - 1], total) for label in subset),
            coeffs_second=tuple(Fraction(-self.weights[label - 1], total) for label in self.face),
        )


@dataclass(frozen=True)
class SubsetCounts:
    """The counts compared for one subset I.

    n1 counts distinct boundary points and n4 alternating subsets; both are
    stored.  n3, the faces hit, is derived as ``len(hits)``.  n2, the
    subsets J whose hull meets conv(I), equals n3 by construction: the
    k-faces of the complementary simplex are exactly the sets conv(J) for
    (k+1)-subsets J of the complement.
    """

    subset: IndexSubset
    n1: int
    n4: int
    hits: tuple[FaceHit, ...]

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

    @property
    def linked(self) -> bool:
        return self.n3 % 2 == 1


@dataclass(frozen=True)
class LinkReport:
    """Outcome of a full linked-pair enumeration over one configuration.

    Only the rows are stored; the linked and single-point subsets, the
    linked total and the parity verdict are derived from ``per_subset``.
    """

    dimension: int
    n: int
    k: int
    provenance: str
    points: tuple[Point, ...]
    per_subset: tuple[SubsetCounts, ...]

    @property
    def linked_subsets(self) -> tuple[IndexSubset, ...]:
        return tuple(row.subset for row in self.per_subset if row.linked)

    @property
    def single_point_subsets(self) -> tuple[IndexSubset, ...]:
        return tuple(row.subset for row in self.per_subset if row.n1 == 1)

    @property
    def total_linked(self) -> int:
        return sum(row.linked for row in self.per_subset)

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


def _radon_table(config: Configuration) -> dict[IndexSubset, tuple[FaceHit, ...]]:
    """Face hits of every (k+1)-subset that has any, from ``_gale_pair``'s rows.

    ``_gale_pair`` certifies general position and gives the homogeneous
    columns, each scaled by a positive integer s_i, and for each label v the
    integer dependence c of [n] \\ {v}, zero only at v; its sign split is
    that set's Radon partition.  w_i = c_i·s_i is the same dependence of the
    points themselves, kept as each hit's ``weights``.  Each Radon point is
    the first ``Fraction`` formed.  Each subset's hits are in the colex
    order of their faces.
    """
    k = config.dimension // 2
    labels = tuple(config.labels)
    columns, dependences = _gale_pair(config)
    found: dict[IndexSubset, list[FaceHit]] = {}
    for dependence in dependences:
        positive = tuple(v for v, c in zip(labels, dependence) if c > 0)
        negative = tuple(v for v, c in zip(labels, dependence) if c < 0)
        # 2k + 2 nonzero coefficients
        if len(positive) != k + 1:
            continue
        weights = tuple(c * column[-1] for c, column in zip(dependence, columns))
        weighted = [(c, column) for c, column in zip(dependence, columns) if c > 0]
        total = sum(w for w in weights if w > 0)
        point = tuple(
            Fraction(sum(c * column[axis] for c, column in weighted), total)
            for axis in range(config.dimension)
        )
        found.setdefault(positive, []).append(FaceHit(negative, point, weights))
        found.setdefault(negative, []).append(FaceHit(positive, point, weights))
    return {
        subset: tuple(sorted(hits, key=lambda hit: hit.face[::-1]))
        for subset, hits in found.items()
    }


def boundary_intersection_count(config: Configuration, subset: Iterable[int]) -> int:
    """Number of boundary points of the complementary simplex met by conv(I).

    Sums [conv(I) ∩ conv(J) != empty] over the (k+1)-subsets J of the
    complement; each face contributes at most one point, and distinct faces
    hit distinct points under general position (asserted).
    """
    k = _require_linking_shape(config.dimension, config.n)
    canon = check_subset(subset, config.n, name="I")
    if len(canon) != k + 1:
        raise ContractError(f"|I| must be k + 1 = {k + 1}, got {len(canon)}")
    hits = _radon_table(config).get(canon, ())
    assert len({hit.point for hit in hits}) == len(hits), \
        "coincident face hits indicate a general-position violation"
    return len(hits)


def is_linked(config: Configuration, subset: Iterable[int]) -> bool:
    """True iff conv(I) meets the complementary simplex boundary oddly often."""
    return boundary_intersection_count(config, subset) % 2 == 1


def total_linked_parity(config: Configuration, workers: int = 1) -> LinkReport:
    """Enumerate every (k+1)-subset, count the linked ones, and check evenness.

    Raises DegeneracyError (with the offending subset) when the configuration
    is not in general position, and ContractError for a report of more than
    ``MAX_REPORT_ROWS`` rows (k > 9).  ``workers`` is accepted and ignored:
    the whole report costs one integer elimination and is computed serially.
    """
    k = _require_linking_shape(config.dimension, config.n)
    _require_report_rows(k)
    table = _radon_table(config)
    rows = []
    for subset in combinations_colex(tuple(config.labels), k + 1):
        hits = table.get(subset, ())
        # no label of J can sit between two adjacent labels a, a + 1 of I,
        # so no J alternates with such an I
        adjacent = any(y - x == 1 for x, y in zip(subset, subset[1:]))
        rows.append(SubsetCounts(
            subset=subset,
            n1=len({hit.point for hit in hits}),
            n4=0 if adjacent else alternating_count_bruteforce(subset, config.n),
            hits=hits,
        ))
    return LinkReport(
        dimension=config.dimension,
        n=config.n,
        k=k,
        provenance=config.provenance.describe(),
        points=config.points,
        per_subset=tuple(rows),
    )


def verify_counterexample(k: int, workers: int = 1) -> CounterexampleReport:
    """Check that the moment-curve configuration on 2k+3 points has no linked pair.

    Certifies general position, computes n1/n3 geometrically and n4
    combinatorially for every (k+1)-subset I, and requires n1 = n3 = n4, all
    even, and zero linked subsets.  Any violation is recorded as a failure
    (it would falsify the implementation, not the statement being checked).
    A k above 9 raises ContractError before any point is built.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    _require_report_rows(k)
    config = moment_curve(2 * k + 3, 2 * k)
    report = total_linked_parity(config, workers=workers)

    failures = []
    for row in report.per_subset:
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
    if total % 2 != 0:
        failures.append("total linked count is odd")
    return CounterexampleReport(report=report, failures=tuple(failures))


def intersecting_pairs(
    config: Configuration,
) -> Iterator[tuple[IndexSubset, IndexSubset, IntersectionResult]]:
    """Every disjoint (k+1)-subset pair with intersecting hulls.

    Pairs come in ``enumerate_disjoint_pairs`` order: ``first`` holds the
    smaller minimum and walks the table's subsets in colex order, and its
    partners follow in the colex order of the table's hits.  Each pair's
    witness is its hit's ``witness``, equal field by field to
    ``intersect_complementary``'s.  Raises DegeneracyError on the first
    step when general position fails.
    """
    _require_linking_shape(config.dimension, config.n)
    table = _radon_table(config)
    for first in sorted(table, key=lambda subset: subset[::-1]):
        for hit in table[first]:
            if hit.face[0] > first[0]:
                yield first, hit.face, hit.witness(first)


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
    docs = []
    for row in report.per_subset:
        if not row.linked:
            continue
        docs.append({
            "I": list(row.subset),
            "faces": [
                {"J": list(hit.face), "point": _point_json(hit.point)}
                for hit in row.hits
            ],
        })
    return docs


def link_report_document(report: LinkReport, manifest: dict | None = None) -> dict:
    """Assemble the serializable report document.

    Key order is fixed; elapsed time and timestamps are deliberately absent
    so that identical inputs give byte-identical documents.
    """
    total = report.total_linked
    doc = {
        "config": {
            "dimension": report.dimension,
            "n": report.n,
            "provenance": report.provenance,
            "points": [_point_json(p) for p in report.points],
        },
        "k": report.k,
        "per_subset": [
            {
                "I": list(row.subset),
                "n1": row.n1,
                "n3": row.n3,
                "n4": row.n4,
                "even": row.even,
            }
            for row in report.per_subset
        ],
        "linked_pairs": [list(s) for s in report.linked_subsets],
        "single_point_subsets": [list(s) for s in report.single_point_subsets],
        "total": total,
        "parity_ok": total % 2 == 0,
        "witnesses": _witnesses_json(report),
        "failures": [],
    }
    if manifest is not None:
        doc["manifest"] = manifest
    return doc


def counterexample_document(result: CounterexampleReport, manifest: dict | None = None) -> dict:
    """The report document with the failures filled in and the cross checks appended."""
    doc = link_report_document(result.report)
    doc["failures"] = list(result.failures)
    doc["cross_checks"] = [
        {
            "I": list(row.subset),
            "n1": row.n1,
            "n2": row.n2,
            "n3": row.n3,
            "n4": row.n4,
            "consistent": row.consistent,
        }
        for row in result.cross_checks
    ]
    if manifest is not None:
        doc["manifest"] = manifest
    return doc


def dumps_canonical(document: dict) -> str:
    """Serialize with a stable layout suitable for byte-for-byte comparison.

    The text is exactly ``json.dumps(document, indent=2, ensure_ascii=True)``
    plus a final newline.  Only dicts with ``str`` keys, lists, ``str``,
    ``int``, ``bool`` and ``None`` are accepted; any other value or key type
    (a ``float``, a ``tuple``, a ``set``, an ``int`` key) raises TypeError.
    """
    return _encode(document, "") + "\n"


_BOOLS = {True: "true", False: "false"}


def _encode(value, pad: str) -> str:
    """``value`` as ``json.dumps(indent=2)`` writes it on a line indented by ``pad``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return _BOOLS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, list):
        if not value:
            return "[]"
        return _block(_table(value, inner) or [_encode(item, inner) for item in value], pad, "[]")
    if isinstance(value, dict):
        if not value:
            return "{}"
        return _block((f"{_key(key)}: {_encode(item, inner)}" for key, item in value.items()),
                      pad, "{}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _block(items: Iterable[str], pad: str, brackets: str) -> str:
    """Non-empty ``items``, one a line indented by ``pad`` plus two spaces, in brackets."""
    inner = pad + "  "
    return brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + pad + brackets[1]


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _table(rows: list, pad: str) -> list[str] | None:
    """The rows of a list of same-keyed dicts, each indented by ``pad``, or None if not one.

    The rows share one ``%`` template; whole columns of ints, bools and int
    lists are formatted at once, any other column value recursively.
    """
    if set(map(type, rows)) != {dict} or not rows[0]:
        return None
    keys = list(rows[0])
    # list(row) == keys compares order too, which comparing key views would not
    if not all(map(keys.__eq__, map(list, rows))):
        return None
    template = _block((_key(key).replace("%", "%%") + ": %s" for key in keys), pad, "{}")
    inner = pad + "  "
    columns = []
    for key in keys:
        column = [row[key] for row in rows]
        kinds = set(map(type, column))
        if kinds == {int}:
            columns.append(map(int.__repr__, column))
        elif kinds == {bool}:
            columns.append(map(_BOOLS.__getitem__, column))
        elif kinds == {list} and set(map(type, chain.from_iterable(column))) <= {int}:
            columns.append([
                _block(map(int.__repr__, items), inner, "[]") if items else "[]"
                for items in column
            ])
        else:
            columns.append([_encode(item, inner) for item in column])
    return [template % fields for fields in zip(*columns)]
