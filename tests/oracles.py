"""Independent oracles for cross-checking the fast paths.

Everything here is deliberately naive: cofactor expansion for determinants,
orientation-sign tests for planar segment crossings, the moment curve's
closed-form Gale basis, a tag-and-sort alternation test, ``json.dumps`` of a
report document whose dense sections are expanded row by row, and
``csv.writer`` of an alternation table.  These must stay free of the code
they check.
"""

import csv
import io
import itertools
import json
import math
from fractions import Fraction

from linkparity.combinatorics import alternating_count_closed_form
from linkparity.linking import DenseSection


def cofactor_det(rows):
    """Determinant by first-row cofactor expansion (exponential, exact)."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    sign = 1
    for col in range(n):
        minor = [r[:col] + r[col + 1:] for r in rows[1:]]
        total += sign * Fraction(rows[0][col]) * cofactor_det(minor)
        sign = -sign
    return total


def ccw_sign(a, b, c):
    """Sign of the signed area of triangle (a, b, c)."""
    value = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (value > 0) - (value < 0)


def segments_cross_properly(p1, p2, q1, q2):
    """True iff open segments (p1,p2) and (q1,q2) cross in a single interior point."""
    d1 = ccw_sign(q1, q2, p1)
    d2 = ccw_sign(q1, q2, p2)
    d3 = ccw_sign(p1, p2, q1)
    d4 = ccw_sign(p1, p2, q2)
    return d1 * d2 < 0 and d3 * d4 < 0


def planar_boundary_crossings(config, subset):
    """For 5 points in the plane: edges of the complementary triangle crossed
    by the segment over ``subset`` (2 labels).  Independent of the linear solve."""
    assert config.dimension == 2 and len(subset) == 2
    p1, p2 = (config.point(label) for label in subset)
    complement = [v for v in config.labels if v not in set(subset)]
    count = 0
    for i in range(len(complement)):
        for j in range(i + 1, len(complement)):
            q1 = config.point(complement[i])
            q2 = config.point(complement[j])
            if segments_cross_properly(p1, p2, q1, q2):
                count += 1
    return count


def merged_order_alternates(ps, qs):
    """True iff the merged order of disjoint, equal-size ``ps`` and ``qs``
    strictly alternates: tag each label with its side, sort, scan."""
    merged = sorted([(v, 0) for v in ps] + [(v, 1) for v in qs])
    return all(merged[i][1] != merged[i + 1][1] for i in range(len(merged) - 1))


def moment_curve_radon_faces(k):
    """The face table of the moment curve in R^{2k} at t_i = i, with no elimination.

    Any 2k + 2 points on the moment curve have one Radon partition: the even
    and the odd positions of their labels in increasing order (Gale's
    evenness condition; Ziegler, *Lectures on Polytopes*, Thm 0.7).  So for
    each label v of [2k + 3] the other labels split into two (k+1)-subsets,
    and each is a face met by the other.  Returns {I: sorted list of faces}.
    """
    n = 2 * k + 3
    table = {}
    for v in range(1, n + 1):
        rest = [label for label in range(1, n + 1) if label != v]
        first, second = tuple(rest[0::2]), tuple(rest[1::2])
        table.setdefault(first, []).append(second)
        table.setdefault(second, []).append(first)
    return {subset: sorted(faces) for subset, faces in table.items()}


def _primitive(values):
    """Rationals scaled by one positive factor to coprime integers."""
    scale = math.lcm(*(Fraction(x).denominator for x in values))
    integers = [int(x * scale) for x in values]
    content = math.gcd(*integers)
    return tuple(x // content for x in integers)


def moment_curve_gale_basis(parameters):
    """A basis a, b of the affine dependences of moment-curve points, in closed form.

    For n distinct parameters t_i, Lagrange's identity gives
    Σ_i t_i^e / ∏_{j≠i}(t_i − t_j) = 0 for every e ≤ n − 2 (the leading
    coefficient of the degree n − 1 interpolant of t^e).  So for the points
    (t_i, ..., t_i^{n-3}) in R^{n-3}, a_i = 1/∏_{j≠i}(t_i − t_j) and
    b_i = t_i·a_i are affine dependences, independent since the t_i are
    distinct.  Each is returned as primitive integers: a_i = L/∏_{j≠i}(t_i − t_j)
    for the positive L that makes a coprime, and b likewise.
    """
    ts = [Fraction(t) for t in parameters]
    a = [1 / math.prod(ti - tj for j, tj in enumerate(ts) if j != i)
         for i, ti in enumerate(ts)]
    return _primitive(a), _primitive([t * x for t, x in zip(ts, a)])


def expanded(value):
    """``value`` with each ``DenseSection`` replaced by the list of its rows.

    Each row is a dict of the subset ``"I"`` and the section's ``fields``,
    read from one of ``report.per_subset``'s dense colex rows, built one by
    one, with none of the serializer's templates.
    """
    if isinstance(value, DenseSection):
        return [
            {"I": list(row.subset), **{name: getattr(row, name) for name in value.fields}}
            for row in value.report.per_subset
        ]
    if isinstance(value, dict):
        return {key: expanded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [expanded(item) for item in value]
    return value


def json_text(document) -> str:
    """The canonical text of a report document, by ``json.dumps`` of its expansion."""
    return json.dumps(expanded(document), indent=2, ensure_ascii=True) + "\n"


def alternation_table_csv(k):
    """The ``alternation --k`` table, as ``csv.writer`` writes it.

    The (k+1)-subsets of [2k + 3] come from ``itertools.combinations``,
    sorted into colex order by their reversed tuples, and each is classified
    by the validating ``alternating_count_closed_form``.
    """
    n = 2 * k + 3
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["I", "case", "block_sizes", "count"])
    subsets = sorted(itertools.combinations(range(1, n + 1), k + 1), key=lambda s: s[::-1])
    for subset in subsets:
        breakdown = alternating_count_closed_form(subset, n)
        blocks = breakdown.block_sizes or ()
        writer.writerow([" ".join(map(str, subset)), breakdown.case_tag.value,
                         " ".join(map(str, blocks)), breakdown.count])
    return out.getvalue()
