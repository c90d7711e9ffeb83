"""Labeled point configurations in R^d.

A configuration is an immutable list of points with labels 1..n, a dimension,
and a provenance record saying how it was built.  Three constructors are
provided: points on the moment curve t -> (t, t^2, ..., t^d), explicit point
lists, and rejection-sampled random integer configurations.

General position means no d+1 points lie in a common (d-1)-hyperplane.  For
n = d+3 points ``_gale_pair`` alone decides it, from the Gale dual: one
fraction-free integer elimination gives two affine dependences spanning all
of them, and their 2x2 cross products at each label v give the n
dependences of [n] \\ {v}.  A (d+1)-subset is dependent exactly when the
dependence of one label outside it is zero at the other, so these integers
decide every subset and name the first dependent one, with no determinant;
the linking code reads its Radon partitions from the same rows.  Other
shapes scan every (d+1)x(d+1) homogenized determinant.

Random sampling PRNG (documented for cross-language reproduction): the value
for coordinate slot c is drawn from its own splitmix64 output stream

    u_r = mix64(mix64(seed + (c+1)*PHI) + (r+1)*PHI),   r = 0, 1, ...

where PHI = 0x9E3779B97F4A7C15, mix64 is the splitmix64 finalizer, and
c = (attempt*n + point_index)*d + coord_index.  Each 64-bit draw u_r is
mapped to [-bound, bound] by rejection: with range = 2*bound + 1 and
limit = 2^64 - (2^64 mod range), the first u_r < limit is accepted and the
value is (u_r mod range) - bound.  Whole configurations are resampled until
general position holds.  The bound must lie in [1, 2^63 - 1]: beyond that,
range exceeds 2^64, limit is 0 and no draw would ever be accepted.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from math import lcm
from typing import Iterable, Iterator, Sequence

from .combinatorics import _exceeds_binomial
from .errors import ContractError, DegeneracyError, SamplingError
from .ratmat import Matrix, det, format_rational, integer_kernel, parse_rational

Point = tuple[Fraction, ...]

_MASK64 = (1 << 64) - 1
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_PHI64 = 0x9E3779B97F4A7C15
_MAX_BOUND = (1 << 63) - 1
_MAX_ATTEMPTS = 1000
# Each sampler attempt certifies general position over C(n, d + 1) subsets:
# one determinant each (about 0.6 s for 10,000 of them at d = 4), or, for
# n = d + 3, one cross-product entry each, since C(d + 3, d + 1) = C(d + 3, 2).  A
# shape with more is refused before the first draw.
_MAX_GP_SUBSETS = 10_000


@dataclass(frozen=True)
class MomentCurve:
    parameters: tuple[Fraction, ...]

    def describe(self) -> str:
        return "moment-curve params=" + ",".join(format_rational(t) for t in self.parameters)


@dataclass(frozen=True)
class Explicit:
    def describe(self) -> str:
        return "explicit"


@dataclass(frozen=True)
class RandomSample:
    seed: int
    bound: int
    attempts: int

    def describe(self) -> str:
        return f"random-sample seed={self.seed} bound={self.bound} attempts={self.attempts}"


Provenance = MomentCurve | Explicit | RandomSample


@dataclass(frozen=True)
class Configuration:
    """n labeled points in R^d; point with label i sits at ``points[i - 1]``."""

    dimension: int
    points: tuple[Point, ...]
    provenance: Provenance

    def __post_init__(self):
        if self.dimension < 1:
            raise ContractError(f"dimension must be >= 1, got {self.dimension}")
        for idx, point in enumerate(self.points):
            if len(point) != self.dimension:
                raise ContractError(
                    f"point {idx + 1} has {len(point)} coordinates, expected {self.dimension}"
                )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def labels(self) -> range:
        return range(1, self.n + 1)

    def point(self, label: int) -> Point:
        if not 1 <= label <= self.n:
            raise ContractError(f"label {label} outside 1..{self.n}")
        return self.points[label - 1]


def explicit_configuration(points: Iterable[Iterable], dimension: int | None = None) -> Configuration:
    """Build a configuration from raw coordinate rows (ints, strings, Fractions)."""
    rows = tuple(tuple(Fraction(x) for x in row) for row in points)
    if not rows:
        raise ContractError("configuration needs at least one point")
    d = dimension if dimension is not None else len(rows[0])
    return Configuration(dimension=d, points=rows, provenance=Explicit())


def moment_curve(n: int, d: int, parameters: Sequence[Fraction] | None = None) -> Configuration:
    """Points (t_i, t_i^2, ..., t_i^d) for strictly increasing parameters.

    Defaults to t_i = i, realizing the image of {1, ..., n}.
    """
    if n < 1:
        raise ContractError(f"need n >= 1, got {n}")
    if d < 1:
        raise ContractError(f"need d >= 1, got {d}")
    if parameters is None:
        params = tuple(Fraction(i) for i in range(1, n + 1))
    else:
        params = tuple(Fraction(t) for t in parameters)
        if len(params) != n:
            raise ContractError(f"expected {n} parameters, got {len(params)}")
        if any(a >= b for a, b in zip(params, params[1:])):
            raise ContractError("parameters must be strictly increasing")
    points = tuple(tuple(islice(_curve_coordinates(t), d)) for t in params)
    return Configuration(dimension=d, points=points, provenance=MomentCurve(params))


def _curve_coordinates(t: Fraction) -> Iterator[Fraction]:
    """t, t^2, t^3, ...: the moment-curve coordinates at parameter t, lazily."""
    power = Fraction(1)
    while True:
        power *= t
        yield power


def find_degenerate_subset(config: Configuration) -> tuple[int, ...] | None:
    """First (d+1)-subset of labels lying in a common hyperplane, or None.

    First in ``itertools.combinations`` order.  For n = d + 3 the subset is
    the one ``_gale_pair`` names; other shapes run ``_degenerate_subset_scan``.
    """
    if config.n != config.dimension + 3:
        return _degenerate_subset_scan(config)
    try:
        _gale_pair(config)
    except DegeneracyError as exc:
        return exc.labels
    return None


def _degenerate_subset_scan(config: Configuration) -> tuple[int, ...] | None:
    """``find_degenerate_subset`` by C(n, d+1) determinants, for any shape.

    Affine dependence of points p_1..p_{d+1} is the vanishing of the
    homogenized determinant with rows (p_i, 1).
    """
    d = config.dimension
    one = Fraction(1)
    for subset in combinations(config.labels, d + 1):
        rows = [config.point(label) + (one,) for label in subset]
        if det(Matrix.from_rows(rows)) == 0:
            return subset
    return None


def _gale_pair(config: Configuration) -> tuple[list[list[int]], list[list[int]]]:
    """Integer homogeneous columns, and the affine dependence of each n - 1 of them.

    For n = d + 3 points.  Column i is (p_i, 1) scaled by the positive lcm
    s_i of p_i's denominators, so the (d+1)×n matrix is integer and its
    kernel is the space of affine dependences (the Gale dual) with
    coefficient i divided by s_i, which keeps every sign.  One
    ``integer_kernel`` elimination gives a basis a, b of that 2-dimensional
    space.  Row v - 1 of the returned dependences is the cross product
    a_v·b - b_v·a, the dependence of [n] \\ {v}, zero at v.

    Outside general position this raises DegeneracyError naming the scan's
    first dependent (d+1)-subset: labels 1..d+1, on which the elimination
    pivots, when it is singular; otherwise a, b span the kernel and
    [n] \\ {u, v} is dependent iff row u - 1 is zero at v too, so the first
    such pair (u, v) in reverse lexicographic order, the ``combinations``
    order of the complements, names it.  Certified rows are zero only at v.
    """
    columns = []
    for point in config.points:
        scale = lcm(*(x.denominator for x in point))
        columns.append([x.numerator * (scale // x.denominator) for x in point] + [scale])
    basis = integer_kernel(list(zip(*columns)))
    if basis is None:
        degenerate = tuple(range(1, config.dimension + 2))
    else:
        a, b = basis
        dependences = [[av * bi - bv * ai for ai, bi in zip(a, b)] for av, bv in zip(a, b)]
        n = config.n
        zero = next((
            (i, j) for i in range(n - 2, -1, -1) for j in range(n - 1, i, -1)
            if dependences[i][j] == 0
        ), None)
        if zero is None:
            return columns, dependences
        degenerate = tuple(label for label in config.labels if label - 1 not in zero)
    raise DegeneracyError(f"points {degenerate} lie in a common hyperplane", labels=degenerate)


def is_general_position(config: Configuration) -> bool:
    """True iff every (d+1)-subset of the points spans R^d affinely."""
    if config.n < config.dimension + 1:
        warnings.warn(
            f"only {config.n} points in R^{config.dimension}: "
            "general position holds trivially",
            stacklevel=2,
        )
        return True
    return find_degenerate_subset(config) is None


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _coordinate_draw(seed: int, slot: int, bound: int) -> int:
    """Uniform integer in [-bound, bound] from the slot's splitmix64 stream."""
    span = 2 * bound + 1
    limit = (1 << 64) - ((1 << 64) % span)
    stream = _mix64(seed + (slot + 1) * _PHI64)
    trial = 0
    while True:
        value = _mix64(stream + (trial + 1) * _PHI64)
        if value < limit:
            return value % span - bound
        trial += 1


def _check_bound(bound: int) -> None:
    if not 1 <= bound <= _MAX_BOUND:
        raise ContractError(f"bound must be in [1, 2^63 - 1], got {bound}")


def _attempt_points(n: int, d: int, seed: int, bound: int, attempt: int) -> Iterator[Point]:
    """The points of sampler attempt ``attempt`` (0-based), one at a time."""
    base = attempt * n * d
    for i in range(n):
        yield tuple(Fraction(_coordinate_draw(seed, base + i * d + j, bound)) for j in range(d))


def _check_sampling(n: int, d: int, bound: int) -> None:
    """The sampler's argument checks, made before any point is drawn."""
    if n < d + 1:
        raise ContractError(f"need n >= d + 1 points, got n={n}, d={d}")
    _check_bound(bound)
    if _exceeds_binomial(n, d + 1, _MAX_GP_SUBSETS):
        raise ContractError(
            f"n={n}, d={d}: the general-position check covers C(n, d + 1) subsets "
            f"per sampling attempt, more than the sampler's ceiling of {_MAX_GP_SUBSETS:,}"
        )


def sample_random_configuration(n: int, d: int, seed: int, bound: int) -> Configuration:
    """Deterministic rejection sampler for general-position integer configurations.

    Coordinates are uniform integers in [-bound, bound]; whole configurations
    are redrawn until general position holds.  Identical (n, d, seed, bound)
    always produce identical output.  Each attempt is certified by
    ``find_degenerate_subset``: one integer elimination and n rows of cross
    products when n = d + 3, every (d+1)x(d+1) determinant otherwise.  A
    bound outside [1, 2^63 - 1] raises ContractError, and so does a shape
    with more than ``_MAX_GP_SUBSETS`` (10,000) (d+1)-subsets, C(n, d + 1),
    to certify per attempt; ``_check_sampling`` checks both before any point
    is drawn.  Small bounds may exhaust the ``_MAX_ATTEMPTS`` budget, which
    raises SamplingError.
    """
    _check_sampling(n, d, bound)
    for attempt in range(_MAX_ATTEMPTS):
        config = Configuration(
            dimension=d,
            points=tuple(_attempt_points(n, d, seed, bound, attempt)),
            provenance=RandomSample(seed=seed, bound=bound, attempts=attempt + 1),
        )
        if find_degenerate_subset(config) is None:
            return config
    raise SamplingError(
        f"no general-position configuration with n={n}, d={d}, bound={bound} "
        f"after {_MAX_ATTEMPTS} attempts (seed {seed})"
    )


# ---------------------------------------------------------------------------
# Point-set text format: header "d n", optional "# provenance:" comment,
# then n lines of d whitespace-separated rationals.  Round-trips bit-exactly.
# A moment-curve or random-sample provenance is checked against the points;
# for a random sample only the recorded attempt is redrawn.
# ---------------------------------------------------------------------------


def _parse_integer(text: str) -> int:
    """Parse an ASCII ``[+-]?[0-9]+`` literal, the integer form ``parse_rational`` accepts."""
    if not _INTEGER_RE.fullmatch(text):
        raise ValueError(f"not an integer literal: {text!r}")
    return int(text)


def _parse_provenance(text: str) -> Provenance:
    body = text.strip()
    if body == "explicit":
        return Explicit()
    if body.startswith("moment-curve params="):
        raw = body[len("moment-curve params="):]
        params = tuple(parse_rational(tok) for tok in raw.split(","))
        return MomentCurve(params)
    if body.startswith("random-sample "):
        parts = body[len("random-sample "):].split()
        if bad := [part for part in parts if "=" not in part]:
            raise ValueError(f"provenance field without '=': {bad[0]!r}")
        fields = dict(part.split("=", 1) for part in parts)
        if missing := [key for key in ("seed", "bound", "attempts") if key not in fields]:
            raise ValueError(f"random-sample provenance lacks {', '.join(missing)}")
        return RandomSample(
            seed=_parse_integer(fields["seed"]),
            bound=_parse_integer(fields["bound"]),
            attempts=_parse_integer(fields["attempts"]),
        )
    raise ValueError(f"unrecognized provenance: {text!r}")


def _check_moment_curve(points: Sequence[Point], params: tuple[Fraction, ...]) -> None:
    """Raise ValueError unless ``points`` are the moment-curve points at ``params``.

    Coordinates are compared one power at a time, so a mismatch stops the
    check before any power larger than the file's own numbers is formed.
    """
    if len(params) != len(points):
        raise ValueError(
            f"moment-curve provenance has {len(params)} parameters for {len(points)} points"
        )
    if any(a >= b for a, b in zip(params, params[1:])):
        raise ValueError("moment-curve parameters must be strictly increasing")
    for label, (point, t) in enumerate(zip(points, params), start=1):
        if not all(x == y for x, y in zip(point, _curve_coordinates(t))):
            raise ValueError(
                f"point {label} is not the moment-curve point at parameter "
                f"{format_rational(t)}"
            )


def _check_random_sample(points: Sequence[Point], d: int, provenance: RandomSample) -> None:
    """Raise ValueError unless ``points`` are the sampler's recorded attempt.

    The bound and attempt count are range-checked first, so a hostile bound
    cannot stall the redraw.  Whether the earlier attempts were degenerate is
    not rechecked.
    """
    _check_bound(provenance.bound)
    if provenance.attempts < 1:
        raise ValueError(f"random-sample attempts must be >= 1, got {provenance.attempts}")
    drawn = _attempt_points(
        len(points), d, provenance.seed, provenance.bound, provenance.attempts - 1
    )
    for label, (point, expected) in enumerate(zip(points, drawn), start=1):
        if point != expected:
            raise ValueError(
                f"point {label} is not the sampler's draw for {provenance.describe()}"
            )


def write_points_text(config: Configuration) -> str:
    lines = [f"{config.dimension} {config.n}"]
    lines.append(f"# provenance: {config.provenance.describe()}")
    for point in config.points:
        lines.append(" ".join(format_rational(x) for x in point))
    return "\n".join(lines) + "\n"


def read_points_text(text: str) -> Configuration:
    provenance: Provenance = Explicit()
    data_lines = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.startswith("provenance:"):
                provenance = _parse_provenance(comment[len("provenance:"):])
            continue
        data_lines.append(stripped)
    if not data_lines:
        raise ValueError("empty point-set file")
    header = data_lines[0].split()
    if len(header) != 2:
        raise ValueError(f"header must be 'd n', got {data_lines[0]!r}")
    d, n = _parse_integer(header[0]), _parse_integer(header[1])
    if len(data_lines) - 1 != n:
        raise ValueError(f"expected {n} point lines, got {len(data_lines) - 1}")
    points = []
    for line in data_lines[1:]:
        coords = tuple(parse_rational(tok) for tok in line.split())
        if len(coords) != d:
            raise ValueError(f"expected {d} coordinates per point, got {len(coords)}")
        points.append(coords)
    if isinstance(provenance, MomentCurve):
        _check_moment_curve(points, provenance.parameters)
    elif isinstance(provenance, RandomSample):
        _check_random_sample(points, d, provenance)
    return Configuration(dimension=d, points=tuple(points), provenance=provenance)


def save_points(config: Configuration, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_points_text(config))


def load_points(path) -> Configuration:
    with open(path, "r", encoding="ascii") as handle:
        return read_points_text(handle.read())
