"""Labeled point configurations in R^d.

A configuration is an immutable list of points with labels 1..n, a dimension,
and a provenance record saying how it was built.  Three constructors are
provided: points on the moment curve t -> (t, t^2, ..., t^d), explicit point
lists, and rejection-sampled random integer configurations.

General position means no d+1 points lie in a common (d-1)-hyperplane.  For
n = d+3 points ``_gale_pair`` alone decides it, from the Gale dual: one
fraction-free integer elimination gives two affine dependences, each
divided by its content (its positive gcd), and their 2x2 cross products at
each label v give the n dependences of [n] \\ {v}.  Two checks and one scan
certify them: the two are checked against the integer columns, a scan looks
for a zero cross product, and only if it finds one does the second check
ask whether every cross product is zero: two dependent vectors, which do
not span the kernel.  A (d+1)-subset is dependent exactly when the
dependence of one label outside it is zero at the other, so these integers
decide every subset and name the first dependent one, with no determinant.
The same rows give the Radon partition of each [n] \\ {v}: its sides and
integer weights.  Its Radon point, in integer homogeneous coordinates and
then as ``Fraction``s, is formed only when it is read.  A ``Configuration``
computes each on first use and keeps it on the instance: ``gale_rows``, the
certified rows; ``radon_partitions``, one partition per label; and
``face_hits``, the balanced partitions grouped by side, each side's in colex
order of its faces.  The sampler's certification, the report and every
linking query of one configuration share one elimination and one grouping.
Other shapes scan every (d+1)x(d+1) homogenized determinant.

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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from math import gcd
from operator import mul

from .combinatorics import _exceeds_binomial
from .errors import (
    CertificateError,
    ContractError,
    DegeneracyError,
    SamplingError,
    quote_input,
)
from .ratmat import (Matrix, _clear_row_denominators, det, format_rational, integer_kernel,
                     parse_integer, parse_rational)

Point = tuple[Fraction, ...]

_MASK64 = (1 << 64) - 1
# every line end of str.splitlines, "\r\n" first; _lines cuts after one of them
# past each _LINE_PIECE characters
_LINE_END_RE = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")
_LINE_PIECE = 1 << 20
_PHI64 = 0x9E3779B97F4A7C15
_MAX_BOUND = (1 << 63) - 1
_MAX_ATTEMPTS = 1000
# Each sampler attempt certifies general position over C(n, d + 1) subsets:
# one determinant each (about 0.6 s for 10,000 of them at d = 4), or, for
# n = d + 3, one cross-product entry each, since C(d + 3, d + 1) = C(d + 3, 2).  A
# shape with more is refused before the first draw.
_MAX_GP_SUBSETS = 10_000
# A point file is read up to this many bytes plus one, and refused if longer:
# far above 21 points in R^18, and /dev/zero or a huge file cannot grow memory.
_MAX_POINT_FILE_BYTES = 16 << 20
# A point file whose header declares more than n·d = 10,000 coordinates is
# refused before any point line is kept or parsed.  parity reads at most 21
# points in R^18 (378 coordinates) and plot 10; 10,000 coordinates of about
# 1,700 digits each, a 16 MiB file, parse in about 1 s on a 2-vCPU VM.
_MAX_POINT_COORDINATES = 10_000


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
class RadonPartition:
    """The Radon partition of [n] \\ {v}: the sign split of its affine dependence.

    ``weights`` holds, at index i - 1, the integer coefficient w_i of label i
    in that dependence of the points: positive on ``positive``, negative on
    ``negative``, zero at v alone.  Both hulls meet at the Radon point, whose
    barycentric coordinates on each side are that side's weights over their
    sum.  ``columns`` are the configuration's integer columns s_i·(p_i, 1),
    held by reference and seen by neither ``==`` nor ``repr``.  From them
    ``point`` forms the point's integer homogeneous coordinates and divides
    them out, on first read, and keeps it on the partition.  When the sides
    are equal in size, each side's hull meets the other's there, so the
    partition is a face hit of each side, its face the ``other`` side.
    """

    positive: tuple[int, ...]
    negative: tuple[int, ...]
    weights: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @cached_property
    def point(self) -> Point:
        """The positive side's sums of w_i·p_i, each divided by its total of w_i, which is > 0.

        Column i is s_i·(p_i, 1), so w_i·(p_i, 1) is the column times w_i / s_i,
        an exact quotient: w_i is the dependence's coefficient times s_i.
        """
        columns, weights = self.columns, self.weights
        scaled = ([weights[v - 1] // columns[v - 1][-1] * x for x in columns[v - 1]]
                  for v in self.positive)
        *sums, total = map(sum, zip(*scaled))
        return tuple(Fraction(x, total) for x in sums)

    def other(self, side: tuple[int, ...]) -> tuple[int, ...]:
        """The side of the partition that is not ``side``, which must be one of the two."""
        return self.negative if side == self.positive else self.positive


@dataclass(frozen=True)
class Configuration:
    """n labeled points in R^d; point with label i sits at ``points[i - 1]``.

    For n = d + 3, ``gale_rows``, ``radon_partitions`` and ``face_hits`` are
    computed on first use and kept on the instance, so each configuration
    runs one elimination however many queries read them.  They are not
    fields: equality, hashing and ``repr`` see the points alone.
    """

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

    @cached_property
    def gale_rows(self) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """``_gale_pair``'s integer columns and certified dependences, as tuples.

        Needs n = d + 3 (ContractError otherwise).  A degenerate
        configuration raises ``_gale_pair``'s DegeneracyError on every
        access, since nothing is kept.
        """
        if self.n != self.dimension + 3:
            raise ContractError(
                f"the Gale pair needs n = d + 3 points, got n={self.n}, d={self.dimension}"
            )
        return _gale_pair(self)

    @cached_property
    def radon_partitions(self) -> tuple[RadonPartition, ...]:
        """The Radon partition of [n] \\ {v} for each label v, in label order.

        Read off ``gale_rows``: the dependence c of [n] \\ {v} on the columns
        scaled by s_i gives w_i = c_i·s_i on the points, and its signs give
        the sides.  Each partition holds the columns by reference; its Radon
        ``point`` is formed only when read, so no point sum and no
        ``Fraction`` is formed here.
        """
        columns, dependences = self.gale_rows
        scales = [column[-1] for column in columns]
        labels = self.labels
        return tuple(
            RadonPartition(
                positive=tuple(v for v, c in zip(labels, dependence) if c > 0),
                negative=tuple(v for v, c in zip(labels, dependence) if c < 0),
                weights=tuple(map(mul, dependence, scales)),
                columns=columns,
            )
            for dependence in dependences
        )

    @cached_property
    def face_hits(self) -> dict[tuple[int, ...], tuple[RadonPartition, ...]]:
        """Each side of a balanced Radon partition, in colex order, to that side's partitions.

        A balanced partition splits [n] \\ {v} into two sides of one size,
        and each side's hull meets the other's, its face, so the partition
        is a face hit of each side.  A side's partitions are in colex order
        of their faces.  For odd d, n - 1 = d + 2 labels never split evenly,
        so the index is empty.
        """
        found: dict[tuple[int, ...], list[RadonPartition]] = {}
        # the face of side I at label v is [n] \ I \ {v}, so faces in colex
        # order come from labels in descending order
        for partition in reversed(self.radon_partitions):
            if len(partition.positive) == len(partition.negative):
                found.setdefault(partition.positive, []).append(partition)
                found.setdefault(partition.negative, []).append(partition)
        return {side: tuple(found[side]) for side in sorted(found, key=lambda side: side[::-1])}


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
        params = check_curve_parameters(parameters)
        if len(params) != n:
            raise ContractError(f"expected {n} parameters, got {len(params)}")
    points = tuple(tuple(islice(_curve_coordinates(t), d)) for t in params)
    return Configuration(dimension=d, points=points, provenance=MomentCurve(params))


def check_curve_parameters(parameters: Iterable) -> tuple[Fraction, ...]:
    """The moment-curve parameters as ``Fraction``s; ContractError unless strictly increasing."""
    params = tuple(Fraction(t) for t in parameters)
    if any(a >= b for a, b in zip(params, params[1:])):
        raise ContractError("moment-curve parameters must be strictly increasing")
    return params


def _curve_coordinates(t: Fraction) -> Iterator[Fraction]:
    """t, t^2, t^3, ...: the moment-curve coordinates at parameter t, lazily.

    For t = p/q in lowest terms, t^j is p^j/q^j, formed from integer powers.
    """
    p, q = t.numerator, t.denominator
    numerator = denominator = 1
    while True:
        numerator *= p
        denominator *= q
        yield Fraction(numerator, denominator)


def find_degenerate_subset(config: Configuration) -> tuple[int, ...] | None:
    """First (d+1)-subset of labels lying in a common hyperplane, or None.

    First in ``itertools.combinations`` order.  For n = d + 3 the subset is
    the one ``_gale_pair`` names, read through ``config.gale_rows``, so a
    certified instance is not eliminated again; other shapes run
    ``_degenerate_subset_scan``.
    """
    if config.n != config.dimension + 3:
        return _degenerate_subset_scan(config)
    try:
        config.gale_rows
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


def _gale_pair(
    config: Configuration,
) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Integer homogeneous columns, and the affine dependence of each n - 1 of them.

    For n = d + 3 points.  Column i is (p_i, 1) scaled by the positive lcm
    s_i of p_i's denominators, as ``ratmat._clear_row_denominators`` clears
    a row, so the (d+1)×n matrix M is integer and its kernel is the space of
    affine dependences (the Gale dual) with coefficient i divided by s_i,
    which keeps every sign.  One ``integer_kernel`` elimination gives a
    basis a, b of that 2-dimensional space.  Each is divided by its content,
    the positive gcd of its entries, or 1 for a zero vector: a change of
    basis of positive determinant, so no sign moves, and the dependences
    lose the common factor the elimination leaves in them.  Row v - 1 of the
    returned dependences is the cross product a_v·b - b_v·a, the dependence
    of [n] \\ {v}, zero at v.

    Two checks and one scan certify the pair.  The first check is
    M·a = M·b = 0 over the integers, as exact as before the division (a
    content divides every entry, so M·(a/c) = (M·a)/c) on entries of a few
    bits where the elimination leaves thousands.  The scan then looks for a
    zero cross product off the diagonal, (u, v) in reverse lexicographic
    order.  If it finds none, some cross product is nonzero, so a and b are
    independent and the rows are returned.  If it finds one, the second
    check asks whether every cross product is zero, the case of dependent
    vectors, a zero one among them.  A basis failing either check raises
    CertificateError, a fault of the program.

    Outside general position this raises DegeneracyError naming the scan's
    first dependent (d+1)-subset: labels 1..d+1, on which the elimination
    pivots, when it is singular; otherwise a, b span the kernel and
    [n] \\ {u, v} is dependent iff row u - 1 is zero at v too, so the
    scan's first zero, in the ``combinations`` order of the complements,
    names it.  Certified rows are zero only at v.
    """
    columns = tuple((*row, scale) for row, scale in map(_clear_row_denominators, config.points))
    rows = list(zip(*columns))
    basis = integer_kernel(rows)
    if basis is None:
        degenerate = tuple(range(1, config.dimension + 2))
    else:
        a, b = basis
        # each divided by its content, a positive gcd: every sign stays
        content_a, content_b = gcd(*a) or 1, gcd(*b) or 1
        a = [x // content_a for x in a]
        b = [x // content_b for x in b]
        # the first check: every sign below rests on M·a = M·b = 0 exactly,
        # which holds for the divided vectors iff it holds for the undivided
        if any(sum(map(mul, row, a)) or sum(map(mul, row, b)) for row in rows):
            raise CertificateError(
                "integer_kernel returned a vector outside the kernel of the Gale columns"
            )
        dependences = tuple(
            tuple([av * bi - bv * ai for ai, bi in zip(a, b)]) for av, bv in zip(a, b)
        )
        n = config.n
        zero = next((
            (i, j) for i in range(n - 2, -1, -1) for j in range(n - 1, i, -1)
            if dependences[i][j] == 0
        ), None)
        if zero is None:
            return columns, dependences
        # the second check: every cross product is a 2x2 minor of (a, b),
        # all zero iff a, b are dependent
        if not any(map(any, dependences)):
            raise CertificateError(
                "integer_kernel returned dependent vectors for the kernel of the Gale columns"
            )
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


def _check_bound(bound: int) -> None:
    if not 1 <= bound <= _MAX_BOUND:
        raise ContractError(f"bound must be in [1, 2^63 - 1], got {bound}")


def _attempt_points(n: int, d: int, seed: int, bound: int,
                    attempt: int) -> Iterator[tuple[int, ...]]:
    """The integer points of sampler attempt ``attempt`` (0-based), one at a time.

    Each coordinate is a uniform integer in [-bound, bound] drawn from its
    slot's splitmix64 stream, as the module docstring states.
    """
    span = 2 * bound + 1
    limit = (1 << 64) - ((1 << 64) % span)

    def draw(slot: int) -> int:
        stream = _mix64(seed + (slot + 1) * _PHI64)
        trial = 1
        while (value := _mix64(stream + trial * _PHI64)) >= limit:
            trial += 1
        return value % span - bound

    first = attempt * n * d
    for start in range(first, first + n * d, d):
        yield tuple(map(draw, range(start, start + d)))


def _check_sampling(n: int, d: int, bound: int) -> None:
    """The sampler's argument checks, made before any point is drawn."""
    if d < 1:
        raise ContractError(f"need d >= 1, got d={d}")
    if n < d + 1:
        raise ContractError(f"need n >= d + 1 points, got n={n}, d={d}")
    _check_bound(bound)
    if _exceeds_binomial(n, d + 1, _MAX_GP_SUBSETS):
        raise ContractError(
            f"n={n}, d={d}: the general-position check covers C(n, d + 1) subsets "
            f"per sampling attempt, more than the sampler's ceiling of {_MAX_GP_SUBSETS:,}"
        )
    # n = d + 1 passes the subset ceiling for any d; its file must be readable
    if n * d > _MAX_POINT_COORDINATES:
        raise ContractError(
            f"n={n}, d={d}: {n * d:,} coordinates, more than a point file may hold "
            f"({_MAX_POINT_COORDINATES:,})"
        )


def sample_random_configuration(n: int, d: int, seed: int, bound: int) -> Configuration:
    """Deterministic rejection sampler for general-position integer configurations.

    Coordinates are uniform integers in [-bound, bound]; whole configurations
    are redrawn until general position holds.  Identical (n, d, seed, bound)
    always produce identical output.  Each attempt is certified by
    ``find_degenerate_subset``: one integer elimination and n rows of cross
    products when n = d + 3, every (d+1)x(d+1) determinant otherwise.  A
    dimension d below 1 or a bound outside [1, 2^63 - 1] raises
    ContractError, and so does a shape with more than ``_MAX_GP_SUBSETS``
    (10,000) (d+1)-subsets, C(n, d + 1), to certify per attempt, or with more
    than ``_MAX_POINT_COORDINATES`` (10,000) coordinates, n·d;
    ``_check_sampling`` checks all four before any point is drawn.  Small
    bounds may exhaust the ``_MAX_ATTEMPTS`` budget, which raises
    SamplingError.
    """
    _check_sampling(n, d, bound)
    for attempt in range(_MAX_ATTEMPTS):
        config = Configuration(
            dimension=d,
            points=tuple(tuple(map(Fraction, point))
                         for point in _attempt_points(n, d, seed, bound, attempt)),
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


def _parse_provenance(text: str) -> Provenance:
    body = text.strip()
    if body == "explicit":
        return Explicit()
    if body.startswith("moment-curve params="):
        raw = body[len("moment-curve params="):]
        # one parameter a point, so no point file that can be read has more
        if raw.count(",") >= _MAX_POINT_COORDINATES:
            raise ValueError(
                f"moment-curve provenance has over {_MAX_POINT_COORDINATES:,} parameters"
            )
        params = tuple(parse_rational(tok) for tok in raw.split(","))
        return MomentCurve(params)
    if body.startswith("random-sample "):
        parts = body[len("random-sample "):].split()
        if bad := [part for part in parts if "=" not in part]:
            raise ValueError(f"provenance field without '=': {quote_input(bad[0])}")
        fields = dict(part.split("=", 1) for part in parts)
        if missing := [key for key in ("seed", "bound", "attempts") if key not in fields]:
            raise ValueError(f"random-sample provenance lacks {', '.join(missing)}")
        return RandomSample(
            seed=parse_integer(fields["seed"]),
            bound=parse_integer(fields["bound"]),
            attempts=parse_integer(fields["attempts"]),
        )
    raise ValueError(f"unrecognized provenance: {quote_input(text)}")


def _check_moment_curve(points: Sequence[Point], params: tuple[Fraction, ...]) -> None:
    """Raise ValueError unless ``points`` are the moment-curve points at ``params``.

    Coordinates are compared one power at a time, so a mismatch stops the
    check before any power larger than the file's own numbers is formed.
    """
    if len(params) != len(points):
        raise ValueError(
            f"moment-curve provenance has {len(params)} parameters for {len(points)} points"
        )
    check_curve_parameters(params)
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


def _lines(text: str) -> Iterator[str]:
    """``text.splitlines()``, split about ``_LINE_PIECE`` characters at a time.

    Each piece ends just after a line end of any kind, ``"\\r\\n"`` kept whole,
    so the lines are the same; no text is held as a list of millions of lines.
    """
    start = 0
    while start < len(text):
        found = _LINE_END_RE.search(text, start + _LINE_PIECE)
        end = found.end() if found else len(text)
        yield from text[start:end].splitlines()
        start = end


def read_points_text(text: str) -> Configuration:
    """The configuration in a point-set text; ValueError if it is malformed.

    Lines are read one at a time, and the header's n·d is checked before any
    point line is kept or any coordinate parsed.
    """
    provenance: Provenance = Explicit()
    d = n = None
    point_lines = []
    for line in _lines(text):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.startswith("provenance:"):
                provenance = _parse_provenance(comment[len("provenance:"):])
        elif n is None:
            header = stripped.split(None, 2)
            if len(header) != 2:
                raise ValueError(f"header must be 'd n', got {quote_input(stripped)}")
            d, n = parse_integer(header[0]), parse_integer(header[1])
            if d < 1 or n < 1:
                raise ValueError(f"header needs d >= 1 and n >= 1, got {quote_input(stripped)}")
            if n * d > _MAX_POINT_COORDINATES:
                raise ValueError(
                    f"header declares {n} points in R^{d}, more than "
                    f"{_MAX_POINT_COORDINATES:,} coordinates"
                )
        elif len(point_lines) >= n:
            raise ValueError(f"expected {n} point lines, got more")
        else:
            point_lines.append(stripped)
    if n is None:
        raise ValueError("empty point-set file")
    if len(point_lines) != n:
        raise ValueError(f"expected {n} point lines, got {len(point_lines)}")
    points = []
    for line in point_lines:
        # split at most d times: a line of millions of tokens is not split up
        tokens = line.split(None, d)
        if len(tokens) != d:
            got = "more" if len(tokens) > d else len(tokens)
            raise ValueError(f"expected {d} coordinates per point, got {got}")
        points.append(tuple(map(parse_rational, tokens)))
    if isinstance(provenance, MomentCurve):
        _check_moment_curve(points, provenance.parameters)
    elif isinstance(provenance, RandomSample):
        _check_random_sample(points, d, provenance)
    return Configuration(dimension=d, points=tuple(points), provenance=provenance)


def save_points(config: Configuration, path) -> None:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(write_points_text(config))


def _read_point_file(path) -> bytes:
    """The bytes of a point file of at most 16 MiB, read once; ValueError if longer."""
    with open(path, "rb") as handle:
        data = handle.read(_MAX_POINT_FILE_BYTES + 1)
    if len(data) > _MAX_POINT_FILE_BYTES:
        raise ValueError(f"point-set file is longer than {_MAX_POINT_FILE_BYTES} bytes")
    return data


def load_points(path) -> Configuration:
    """The configuration in an ASCII point file of at most 16 MiB; ValueError if longer."""
    return read_points_text(_read_point_file(path).decode("ascii"))
