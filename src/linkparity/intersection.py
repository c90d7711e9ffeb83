"""Exact intersection of complementary simplices and separating witnesses.

Two disjoint vertex sets M, N with |M| + |N| = d + 2 in R^d intersect in at
most one point: the d + 2 points carry (generically) a one-dimensional space
of affine dependencies sum_c g_c x_c = 0, sum_c g_c = 0, and conv(M) meets
conv(N) exactly when the dependence signs split along (M, N).  The predicate
solves the square system formed by the homogenized coordinates plus a unit
normalization of the last coefficient; that system is singular precisely
when d + 1 of the points are affinely dependent, so singularity (or a zero
coefficient) certifies a general position violation and is never silently
absorbed.  It is the per-pair reference for ``linking``, which reads every
pair of n = d + 3 points off the Radon partitions of one Gale pair.  Note the naive
formulation {sum lambda_i p_i = sum mu_j q_j, sum lambda_i = 1,
sum mu_j = 1} would go singular already when the two affine hulls are
merely parallel, which happens for honest general-position inputs; the
dependence formulation does not.

On success the witness is exactly the unique solution of the naive system:
strictly positive barycentric coordinates over both vertex sets and the
common point they describe.

For point sets on the moment curve, a non-alternating pair (P, Q) of
parameter sets is separated by an explicit hyperplane: the polynomial with
simple roots at the midpoints of the bicolored parameter gaps (plus filler
roots below the parameter range, bringing the degree to exactly d) changes
sign precisely where the color changes, so it takes one strict sign on P's
curve points and the opposite sign on Q's.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .combinatorics import _merged_order_alternates, check_disjoint
from .configuration import Configuration, Point, check_curve_parameters
from .errors import ContractError, DegeneracyError
from .ratmat import Matrix, solve


@dataclass(frozen=True)
class IntersectionResult:
    """Decision plus exact witness for conv(first) against conv(second).

    When the hulls intersect, ``point`` is the unique common point and the
    coefficient tuples are its strictly positive barycentric coordinates over
    the first and second vertex sets; otherwise all three are None.  The
    decision ``intersects`` is derived: ``point is not None``.
    """

    point: Point | None
    coeffs_first: tuple[Fraction, ...] | None
    coeffs_second: tuple[Fraction, ...] | None

    @property
    def intersects(self) -> bool:
        return self.point is not None


def intersect_complementary(
    config: Configuration,
    first: Iterable[int],
    second: Iterable[int],
) -> IntersectionResult:
    """Decide conv(first) ∩ conv(second) for complementary vertex sets.

    Requires |first| + |second| = d + 2.  Raises DegeneracyError when some
    d + 1 of the involved points are affinely dependent, i.e. the points are
    not in general position.
    """
    fs, ss = check_disjoint(first, second, config.n, names=("first subset", "second subset"))
    d = config.dimension
    if len(fs) + len(ss) != d + 2:
        raise ContractError(
            f"|first| + |second| must be d + 2 = {d + 2}, got {len(fs) + len(ss)}"
        )
    labels = fs + ss
    points = [config.point(label) for label in labels]
    m = len(fs)
    # the affine dependence: sum_c g_c x_c = 0, sum_c g_c = 0, g_last = 1
    zero, one = Fraction(0), Fraction(1)
    rows = [[p[axis] for p in points] for axis in range(d)]
    rows.append([one] * (d + 2))
    rows.append([zero] * (d + 1) + [one])
    gamma = solve(Matrix.from_rows(rows), [zero] * (d + 1) + [one]).solution
    # a singular system or a zero coefficient: the other d + 1 points are
    # affinely dependent
    if gamma is None or 0 in gamma:
        skip = d + 1 if gamma is None else gamma.index(0)
        others = labels[:skip] + labels[skip + 1:]
        raise DegeneracyError(
            f"points {others} are affinely dependent: not in general position",
            labels=others,
        )

    # no coefficient is zero, so the hulls meet iff gamma[:m] has one sign and
    # gamma[m:] the other; one sign on gamma[:m] also makes its sum nonzero
    side = gamma[0] > 0
    if any((g > 0) != side for g in gamma[:m]) or any((g > 0) == side for g in gamma[m:]):
        return IntersectionResult(point=None, coeffs_first=None, coeffs_second=None)
    scale = sum(gamma[:m])
    lam = tuple(g / scale for g in gamma[:m])
    mu = tuple(-g / scale for g in gamma[m:])
    point = tuple(
        sum((l * p[axis] for l, p in zip(lam, points[:m])), Fraction(0))
        for axis in range(d)
    )
    return IntersectionResult(point=point, coeffs_first=lam, coeffs_second=mu)


@dataclass(frozen=True)
class HyperplaneWitness:
    """Hyperplane n_1 x_1 + ... + n_d x_d - offset = 0 separating two moment-curve simplices.

    Restricted to the curve, the hyperplane is the degree-d polynomial
    p(x) = n_1 x + n_2 x^2 + ... + n_d x^d - offset whose simple roots are
    exactly ``midpoint_roots`` (one per bicolored parameter gap) and
    ``filler_roots`` (below the parameter range).  ``bicolored_count`` is
    derived: ``len(midpoint_roots)``.
    """

    coefficients: tuple[Fraction, ...]
    offset: Fraction
    midpoint_roots: tuple[Fraction, ...]
    filler_roots: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.midpoint_roots) + len(self.filler_roots) != len(self.coefficients):
            raise AssertionError("root count must equal the polynomial degree")

    @property
    def bicolored_count(self) -> int:
        return len(self.midpoint_roots)

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def value_at(self, x: Fraction) -> Fraction:
        """Evaluate the restricted polynomial p at parameter x."""
        x = Fraction(x)
        acc = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            acc = acc * x + c
        return acc * x - self.offset


def _expand_monic(roots: Sequence[Fraction]) -> list[Fraction]:
    """Coefficients c_0..c_deg of the monic polynomial with the given roots."""
    coeffs = [Fraction(1)]
    for root in roots:
        coeffs = [Fraction(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= root * coeffs[i + 1]
    return coeffs


def separating_hyperplane_moment(
    p_labels: Iterable[int],
    q_labels: Iterable[int],
    parameters: Sequence[Fraction],
    d: int,
) -> HyperplaneWitness:
    """Separator for non-alternating moment-curve simplices in R^d (d even).

    ``parameters`` holds the curve parameters t_1 < ... < t_n for all labels;
    P and Q index into it and must be disjoint, of size d/2 + 1 each, and not
    alternate.  The witness polynomial has one root at the midpoint of each
    bicolored gap of the merged parameter sequence, plus d - t filler roots
    at t_min - 1 - j (j = 1..d-t), all strictly below t_min - 1.
    """
    if d < 2 or d % 2 != 0:
        raise ContractError(f"dimension must be even and >= 2, got {d}")
    params = check_curve_parameters(parameters)
    ps, qs = check_disjoint(p_labels, q_labels, len(params))
    if len(ps) != d // 2 + 1 or len(qs) != d // 2 + 1:
        raise ContractError(f"|P| and |Q| must be d/2 + 1 = {d // 2 + 1}")
    if _merged_order_alternates(ps, qs):
        raise ContractError("P and Q alternate: no separating hyperplane exists")

    merged = sorted(ps + qs)
    in_p = set(ps)
    colors = [label in in_p for label in merged]
    midpoints = tuple(
        (params[a - 1] + params[b - 1]) / 2
        for a, b, ca, cb in zip(merged, merged[1:], colors, colors[1:])
        if ca != cb
    )
    t = len(midpoints)
    assert t <= d, f"{t} bicolored gaps exceed dimension {d}"

    t_min = params[merged[0] - 1]
    fillers = tuple(t_min - 1 - j for j in range(1, d - t + 1))
    coeffs = _expand_monic(midpoints + fillers)

    witness = HyperplaneWitness(
        coefficients=tuple(coeffs[1:]),
        offset=-coeffs[0],
        midpoint_roots=midpoints,
        filler_roots=fillers,
    )
    p_signs = {witness.value_at(params[label - 1]) > 0 for label in ps}
    q_signs = {witness.value_at(params[label - 1]) > 0 for label in qs}
    if not (len(p_signs) == 1 and len(q_signs) == 1 and p_signs != q_signs):
        raise AssertionError("separator failed strict sign check")
    if any(witness.value_at(params[label - 1]) == 0 for label in ps + qs):
        raise AssertionError("separator vanished on an input point")
    return witness
