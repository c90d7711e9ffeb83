"""Configuration tests: moment curve, general position, sampling, file format."""

import itertools
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from operator import add, mul
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkparity import configuration
from linkparity.cli import main
from linkparity.combinatorics import _exceeds_binomial
from linkparity.configuration import (
    Configuration,
    Explicit,
    MomentCurve,
    RandomSample,
    _PHI64,
    _attempt_points,
    _degenerate_subset_scan,
    _gale_pair,
    explicit_configuration,
    find_degenerate_subset,
    is_general_position,
    moment_curve,
    read_points_text,
    sample_random_configuration,
    write_points_text,
)
from linkparity.errors import CertificateError, ContractError, DegeneracyError, SamplingError
from linkparity.ratmat import integer_kernel, parse_rational
from oracles import moment_curve_gale_basis
from test_linking import _rational_cases


def test_moment_curve_default_parameters():
    config = moment_curve(5, 2)
    expected = [(1, 1), (2, 4), (3, 9), (4, 16), (5, 25)]
    assert [tuple(int(x) for x in p) for p in config.points] == expected
    assert isinstance(config.provenance, MomentCurve)


def test_moment_curve_single_point_cubic():
    config = moment_curve(1, 3, [Fraction(2)])
    assert config.points == ((Fraction(2), Fraction(4), Fraction(8)),)


def test_moment_curve_rational_parameters():
    config = moment_curve(2, 2, [Fraction(1, 2), Fraction(3)])
    assert config.points[0] == (Fraction(1, 2), Fraction(1, 4))


def test_moment_curve_rejects_non_increasing_parameters():
    with pytest.raises(ContractError):
        moment_curve(3, 2, [Fraction(1), Fraction(1), Fraction(2)])
    with pytest.raises(ContractError):
        moment_curve(2, 2, [Fraction(5), Fraction(3)])


def test_moment_curve_quartic_is_general_position():
    assert is_general_position(moment_curve(7, 4))


def test_moment_curve_general_position_sweep():
    # Vandermonde structure: no d+1 curve points ever share a hyperplane
    for n in range(3, 9):
        for d in range(1, min(n, 6)):
            assert is_general_position(moment_curve(n, d)), (n, d)
    assert is_general_position(moment_curve(13, 10))
    assert is_general_position(moment_curve(15, 10))


def test_collinear_points_detected():
    config = explicit_configuration([(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    assert not is_general_position(config)
    assert find_degenerate_subset(config) == (1, 2, 3)


def _attempt_fractions(n, d, seed, bound):
    """The points of the sampler's first attempt, as ``Fraction``s as the sampler keeps them."""
    return tuple(tuple(map(Fraction, point)) for point in _attempt_points(n, d, seed, bound, 0))


@pytest.mark.parametrize("n, d", [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5), (9, 6)])
def test_gale_general_position_equals_the_scan(n, d):
    # attempt 0 of each seed, degenerate or not; small bounds make most
    # attempts degenerate
    for bound in (1, 2, 3, 1000):
        for seed in range(150):
            config = Configuration(
                dimension=d,
                points=_attempt_fractions(n, d, seed, bound),
                provenance=RandomSample(seed=seed, bound=bound, attempts=1),
            )
            expected = _degenerate_subset_scan(config)
            assert find_degenerate_subset(config) == expected, (bound, seed)
            assert is_general_position(config) == (expected is None), (bound, seed)


def _two_elimination_gale_pair(config):
    """``_gale_pair`` built as it once was, the reference: two m×(m+1)
    ``integer_kernel`` eliminations on the leading block, ``a`` without the
    column of label n and ``b`` without that of label n - 1, each padded
    with a zero at the label it omits."""
    columns = []
    for point in config.points:
        scale = math.lcm(*(x.denominator for x in point))
        columns.append([x.numerator * (scale // x.denominator) for x in point] + [scale])
    rows = list(zip(*columns))
    a = integer_kernel([row[:-1] for row in rows])
    b = integer_kernel([row[:-2] + row[-1:] for row in rows])
    if a is None or b is None:
        degenerate = tuple(range(1, config.dimension + 2))
    else:
        (a,), (b,) = a, b
        a, b = a + (0,), b[:-1] + (0,) + b[-1:]
        dependences = [[av * bi - bv * ai for ai, bi in zip(a, b)] for av, bv in zip(a, b)]
        pairs = reversed(list(itertools.combinations(range(config.n), 2)))
        zero = next(((i, j) for i, j in pairs if dependences[i][j] == 0), None)
        if zero is None:
            return columns, dependences
        degenerate = tuple(label for label in config.labels if label - 1 not in zero)
    raise DegeneracyError(f"points {degenerate} lie in a common hyperplane", labels=degenerate)


def _gale_reference_cases():
    # attempt 0 of each seed, degenerate or not
    for n, d in ((5, 2), (7, 4), (9, 6)):
        for bound in (1, 3, 1000):
            for seed in range(100):
                yield Configuration(
                    dimension=d,
                    points=_attempt_fractions(n, d, seed, bound),
                    provenance=RandomSample(seed=seed, bound=bound, attempts=1),
                )
    yield from _rational_cases()
    for k in range(1, 6):
        yield moment_curve(2 * k + 3, 2 * k)


def test_gale_pair_equals_the_two_elimination_reference():
    degenerate = scaled = 0
    for config in _gale_reference_cases():
        case = (config.dimension, config.provenance.describe())
        try:
            expected = _two_elimination_gale_pair(config)
        except DegeneracyError as reference:
            degenerate += 1
            with pytest.raises(DegeneracyError) as info:
                _gale_pair(config)
            assert info.value.labels == reference.labels, case
            assert str(info.value) == str(reference), case
        else:
            columns, dependences = _gale_pair(config)
            expected_columns, expected_dependences = expected
            assert columns == expected_columns, case
            # the reference keeps the content the eliminations leave in its
            # vectors; the dependences are it divided by one positive integer
            factor = Fraction(expected_dependences[0][1], dependences[0][1])
            assert factor > 0 and factor.denominator == 1, case
            assert [[factor * x for x in row] for row in dependences] == expected_dependences, case
            scaled += factor > 1
    assert degenerate > 0  # the bound-1 attempts reach the degenerate branch
    assert scaled > 0  # and some cases lose a content above 1


@pytest.mark.parametrize("k", range(1, 10))
def test_moment_curve_dependences_are_the_closed_form_times_one_factor(k):
    config = moment_curve(2 * k + 3, 2 * k)
    a, b = moment_curve_gale_basis(config.provenance.parameters)
    columns, dependences = config.gale_rows
    # the oracle passes the exact kernel check
    assert all(sum(map(mul, row, a)) == 0 == sum(map(mul, row, b)) for row in zip(*columns))
    expected = [[av * bi - bv * ai for ai, bi in zip(a, b)] for av, bv in zip(a, b)]
    # any two bases differ by one determinant; it is negative here (-1/(2k+2)
    # measured), so its sign is not assumed
    factor = Fraction(dependences[0][1], expected[0][1])
    assert factor != 0
    assert [[x == 0 for x in row] for row in dependences] == \
        [[x == 0 for x in row] for row in expected]
    assert dependences == tuple(tuple(factor * x for x in row) for row in expected)
    if k == 9:
        # without the content division they were 834 bits wide
        assert max(abs(x).bit_length() for row in dependences for x in row) < 64


def test_gale_rows_are_the_gale_pair_as_tuples_computed_once(monkeypatch):
    eliminations = []

    def counted(config):
        eliminations.append(config.provenance)
        return _gale_pair(config)

    monkeypatch.setattr(configuration, "_gale_pair", counted)
    for config in _rational_cases():
        columns, dependences = config.gale_rows
        assert config.gale_rows is config.gale_rows
        assert config.radon_partitions is config.radon_partitions
        assert config.face_hits is config.face_hits
        assert find_degenerate_subset(config) is None
        assert (list(map(list, columns)), list(map(list, dependences))) == _gale_pair(config)
        assert all(type(row) is tuple for row in (columns, dependences, *columns, *dependences))
        assert type(config.radon_partitions) is tuple
        assert type(config.face_hits) is dict
        assert all(type(hits) is tuple for hits in config.face_hits.values())
    # one for each of the 6 configurations queried, and one for each of the
    # 5 sampled ones that _rational_cases rescales into new configurations
    assert len(eliminations) == 6 + 5


def test_radon_partitions_split_each_dependence_by_sign():
    for config in _gale_reference_cases():
        if find_degenerate_subset(config) is not None:
            continue
        columns, dependences = config.gale_rows
        assert len(config.radon_partitions) == config.n
        for v, (partition, dependence) in enumerate(
                zip(config.radon_partitions, dependences), start=1):
            assert sorted(partition.positive + partition.negative) == \
                [label for label in config.labels if label != v]
            assert partition.weights == tuple(c * column[-1] for c, column in zip(dependence, columns))
            assert all(partition.weights[label - 1] > 0 for label in partition.positive)
            assert all(partition.weights[label - 1] < 0 for label in partition.negative)
            # the Radon point is each side's weighted mean of its points
            for side, sign in ((partition.positive, 1), (partition.negative, -1)):
                total = sum(sign * partition.weights[label - 1] for label in side)
                assert partition.point == tuple(
                    sum(sign * partition.weights[label - 1] * config.point(label)[axis]
                        for label in side) / total
                    for axis in range(config.dimension)
                ), (config.provenance.describe(), v)


def test_computed_gale_rows_leave_equality_hash_and_repr_alone():
    config = sample_random_configuration(7, 4, seed=3, bound=1000)
    fresh = Configuration(config.dimension, config.points, config.provenance)
    config.face_hits
    assert "radon_partitions" in vars(config) and "face_hits" in vars(config)
    assert "gale_rows" not in vars(fresh)
    assert config == fresh
    assert hash(config) == hash(fresh)
    assert repr(config) == repr(fresh)


def test_gale_rows_of_a_degenerate_configuration_raise_on_every_access():
    config = explicit_configuration([(0, 0), (3, 1), (0, 2), (1, 3), (2, 4)])
    for _ in range(2):
        for name in ("gale_rows", "radon_partitions", "face_hits"):
            with pytest.raises(DegeneracyError) as info:
                getattr(config, name)
            assert info.value.labels == (3, 4, 5)
        assert find_degenerate_subset(config) == (3, 4, 5)
    assert not {"gale_rows", "radon_partitions", "face_hits"} & vars(config).keys()


def test_face_hits_of_an_odd_dimension_are_empty():
    # n - 1 = d + 2 labels, an odd number, never split into two equal sides
    for config in (moment_curve(6, 3), sample_random_configuration(8, 5, seed=1, bound=1000)):
        assert config.face_hits == {}
        assert len(config.radon_partitions) == config.n


def test_gale_rows_need_d_plus_3_points():
    with pytest.raises(ContractError, match="n = d \\+ 3"):
        moment_curve(6, 2).gale_rows


def test_gale_general_position_with_dependent_leading_points():
    # points 1..5 lie in x_4 = 0, so the elimination is singular
    config = explicit_configuration([
        (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
        (1, 1, 1, 0), (0, 0, 0, 1), (3, 1, 4, 1),
    ])
    with pytest.raises(DegeneracyError) as info:
        _gale_pair(config)
    assert info.value.labels == (1, 2, 3, 4, 5)
    assert str(info.value) == "points (1, 2, 3, 4, 5) lie in a common hyperplane"
    assert not is_general_position(config)
    assert find_degenerate_subset(config) == _degenerate_subset_scan(config) == (1, 2, 3, 4, 5)


def test_gale_pair_refuses_a_basis_outside_the_kernel(monkeypatch):
    real = configuration.integer_kernel

    def rebased(rows):
        # another basis of the kernel: a multiple and a sum of the vectors
        a, b = real(rows)
        return tuple(3 * x for x in a), tuple(map(add, a, b))

    monkeypatch.setattr(configuration, "integer_kernel", rebased)
    assert find_degenerate_subset(moment_curve(7, 4)) is None
    for doctor in (
        lambda a, b: ((a[0] + 1, *a[1:]), b),
        lambda a, b: (a, (*b[:-1], b[-1] - 1)),
        # a's scale moved to the other trailing column: two distinct columns apart
        lambda a, b: ((*a[:-2], a[-1], a[-2]), b),
        # inside the kernel but dependent: every cross product is zero
        lambda a, b: (a, tuple(2 * x for x in a)),
        # zero vectors, refused before either is divided by its content
        lambda a, b: ((0,) * len(a), b),
        lambda a, b: (a, (0,) * len(b)),
    ):
        monkeypatch.setattr(configuration, "integer_kernel",
                            lambda rows, doctor=doctor: doctor(*real(rows)))
        for config in (moment_curve(7, 4), explicit_configuration(
                [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                 (0, 0, 0, 1), ("1/2", 3, -1, 2), (5, -2, "7/3", 1)])):
            with pytest.raises(CertificateError, match="outside the kernel|dependent vectors"):
                config.gale_rows
            # a failed certificate is a fault, never read as a degeneracy
            with pytest.raises(CertificateError):
                find_degenerate_subset(config)
        with pytest.raises(CertificateError):
            sample_random_configuration(7, 4, seed=0, bound=1000)
        with pytest.raises(CertificateError):
            main(["parity", "--random", "7", "4"])
    assert not issubclass(CertificateError, AssertionError)


def test_general_position_permutation_invariant():
    base = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)]
    results = {
        is_general_position(explicit_configuration(perm))
        for perm in itertools.permutations(base)
    }
    assert results == {False}

    good = [(0, 0), (3, 1), (1, 4), (-2, 2), (2, -3)]
    assert is_general_position(explicit_configuration(good))
    for perm in itertools.islice(itertools.permutations(good), 0, 120, 7):
        assert is_general_position(explicit_configuration(list(perm)))


def test_general_position_translation_and_scaling_invariant():
    points = [(0, 0), (3, 1), (1, 4), (-2, 2), (2, -3)]
    shifted = [(x + 17, y - 5) for x, y in points]
    scaled = [(Fraction(3, 7) * x, Fraction(3, 7) * y) for x, y in points]
    assert is_general_position(explicit_configuration(points))
    assert is_general_position(explicit_configuration(shifted))
    assert is_general_position(explicit_configuration(scaled))


def test_too_few_points_warns_and_passes():
    config = explicit_configuration([(0, 0, 0), (1, 2, 3)])
    with pytest.warns(UserWarning):
        assert is_general_position(config)


def test_configuration_validates_coordinate_lengths():
    with pytest.raises(ContractError):
        Configuration(dimension=2, points=((Fraction(1),),), provenance=Explicit())


def test_sampler_is_reproducible():
    a = sample_random_configuration(5, 2, seed=0, bound=100)
    b = sample_random_configuration(5, 2, seed=0, bound=100)
    assert a == b
    assert write_points_text(a) == write_points_text(b)
    assert isinstance(a.provenance, RandomSample)
    assert a.provenance.attempts >= 1


def test_sampler_first_point_matches_documented_generator():
    # independent splitmix64 evaluation of every coordinate slot, rejection
    # included: at bound 2^62 the limit is 2^63 + 1, so about half the draws
    # are rejected
    mask = (1 << 64) - 1

    def mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    n, d, seed = 5, 2, 0
    for bound in (100, 2**62):
        span = 2 * bound + 1
        limit = (1 << 64) - ((1 << 64) % span)
        config = sample_random_configuration(n, d, seed=seed, bound=bound)
        attempt = config.provenance.attempts - 1
        rejected = 0
        for i, point in enumerate(config.points):
            for j, coordinate in enumerate(point):
                c = (attempt * n + i) * d + j
                stream = mix((seed + (c + 1) * _PHI64) & mask)
                r = 0
                while (value := mix((stream + (r + 1) * _PHI64) & mask)) >= limit:
                    r += 1
                rejected += r > 0
                assert coordinate == value % span - bound, (bound, i, j)
        assert (rejected > 0) == (bound == 2**62), bound


def test_sampler_output_is_general_position():
    config = sample_random_configuration(7, 4, seed=1, bound=1000)
    assert is_general_position(config)
    assert all(abs(x) <= 1000 and x.denominator == 1 for p in config.points for x in p)


def test_sampler_exhausts_budget_on_tiny_bound():
    # six distinct values from {-1, 0, 1} cannot exist
    with pytest.raises(SamplingError):
        sample_random_configuration(6, 1, seed=1, bound=1)


def test_sampler_contract_errors():
    with pytest.raises(ContractError):
        sample_random_configuration(2, 2, seed=0, bound=10)
    with pytest.raises(ContractError):
        sample_random_configuration(5, 2, seed=0, bound=0)


@given(n=st.integers(0, 60), data=st.data(), ceiling=st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_binomial_ceiling_matches_math_comb(n, data, ceiling):
    r = data.draw(st.integers(0, n))
    assert _exceeds_binomial(n, r, ceiling) == (math.comb(n, r) > ceiling)


def test_sampler_bound_range_edges():
    # past 2^63 - 1 the range 2*bound + 1 exceeds 2^64 and no draw is accepted
    with pytest.raises(ContractError, match=r"bound must be in \[1, 2\^63 - 1\]"):
        sample_random_configuration(5, 2, seed=0, bound=1 << 63)
    config = sample_random_configuration(5, 2, seed=0, bound=(1 << 63) - 1)
    assert read_points_text(write_points_text(config)) == config
    assert any(abs(x) > 1 << 62 for point in config.points for x in point)


def test_point_file_round_trip_moment():
    config = moment_curve(5, 2)
    text = write_points_text(config)
    back = read_points_text(text)
    assert back == config
    assert write_points_text(back) == text


def test_point_file_checks_moment_curve_provenance():
    config = moment_curve(3, 2, [Fraction(1, 2), Fraction(3), Fraction(7, 2)])
    text = write_points_text(config)
    assert read_points_text(text) == config
    with pytest.raises(ValueError, match="point 2 is not the moment-curve point"):
        read_points_text(text.replace("\n3 9\n", "\n3 10\n"))
    with pytest.raises(ValueError, match="strictly increasing"):
        read_points_text("2 2\n# provenance: moment-curve params=3,1\n3 9\n1 1\n")


def test_point_file_round_trip_rational_coordinates():
    config = explicit_configuration([("1/2", "-3"), ("0", "7/5")])
    text = write_points_text(config)
    assert "1/2" in text and "7/5" in text
    back = read_points_text(text)
    assert back == config


def test_point_file_round_trip_random_provenance():
    config = sample_random_configuration(5, 2, seed=3, bound=50)
    back = read_points_text(write_points_text(config))
    assert back == config
    assert back.provenance == config.provenance


def test_point_file_without_provenance_comment_is_explicit():
    back = read_points_text("2 2\n1 2\n3 4\n")
    assert back.provenance == Explicit()
    assert back.points == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))


@pytest.mark.parametrize("token", [
    "+5", "-0", "007", "1_000", "\u0663", "5/1", "10/4", "3/0", "-12/8", "-HUGE", "1/HUGE",
])
def test_point_file_tokens_read_as_parse_rational_reads_them(token):
    # parse_rational reads p and q with int; the values are Fraction's own
    # parse of the token, and a point file fails with parse_rational's error
    token = token.replace("HUGE", _HUGE)
    text = f"2 1\n{token} {token}\n"
    try:
        expected = parse_rational(token)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            read_points_text(text)
        assert str(info.value) == str(exc)
    else:
        assert expected == Fraction(token)
        (point,) = read_points_text(text).points
        assert point == (expected, expected)
        assert all(type(x) is Fraction for x in point)


def test_point_file_rejects_bad_data():
    with pytest.raises(ValueError):
        read_points_text("2 2\n1 2\n")  # missing a point line
    with pytest.raises(ValueError):
        read_points_text("2 1\n1.5 2\n")  # float syntax is not a rational
    with pytest.raises(ValueError):
        read_points_text("2 1\n1 2 3\n")  # wrong coordinate count
    with pytest.raises(ValueError):
        read_points_text("")
    # header counts take ASCII digits only, like rational literals
    for header in ("\u0662 2", "2 0_2", "2 +\u0662", "2 2.0"):
        with pytest.raises(ValueError, match="not an integer literal"):
            read_points_text(f"{header}\n1 2\n3 4\n")
    for provenance in (
        "random-sample seed=\u0663 bound=5 attempts=1",
        "random-sample seed=1 bound=1_0 attempts=1",
        "random-sample seed=1 bound=5 attempts=+\u0661",
    ):
        with pytest.raises(ValueError, match="not an integer literal"):
            read_points_text(f"2 2\n# provenance: {provenance}\n1 2\n3 4\n")
    # a random-sample provenance is checked by redrawing the recorded attempt
    lines = write_points_text(sample_random_configuration(7, 4, seed=0, bound=1000)).splitlines()
    for label in range(1, 8):
        tampered = list(lines)
        first, *rest = tampered[label + 1].split()
        tampered[label + 1] = " ".join([str(int(first) + 1), *rest])
        with pytest.raises(ValueError, match=f"point {label} is not the sampler's draw"):
            read_points_text("\n".join(tampered) + "\n")
    for provenance, complaint in (
        ("random-sample seed=1 bound=-5 attempts=0", "bound must be in"),
        ("random-sample seed=1 bound=0 attempts=1", "bound must be in"),
        ("random-sample seed=1 bound=9223372036854775808 attempts=1", "bound must be in"),
        ("random-sample seed=1 bound=5 attempts=0", "attempts must be >= 1"),
        ("random-sample seed=1 bound=5 attempts=-3", "attempts must be >= 1"),
    ):
        with pytest.raises(ValueError, match=complaint):
            read_points_text(f"2 2\n# provenance: {provenance}\n1 2\n3 4\n")


def test_point_text_is_split_into_the_lines_of_splitlines():
    # pieces of a megabyte end after a "\n", never inside "\r\n"
    text = "1 2\r\n" * 300_000 + "\r3\v4\x1c\n\n" * 100_000 + "\r" * 10 + "end"
    assert len(text) > 2 << 20
    assert list(configuration._lines(text)) == text.splitlines()
    assert list(configuration._lines("")) == []


_LINE_ENDS = ("\r\n", "\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@given(st.lists(st.sampled_from(("a", " ", *_LINE_ENDS)), max_size=40).map("".join),
       st.integers(1, 5))
@settings(max_examples=500, deadline=None)
def test_point_text_lines_match_splitlines_across_piece_boundaries(text, piece):
    with mock.patch.object(configuration, "_LINE_PIECE", piece):
        assert list(configuration._lines(text)) == text.splitlines()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_a_point_file_of_carriage_returns_is_read_in_bounded_memory(tmp_path):
    # a 16 MiB file of "##\r" lines: pieces must end at a "\r" as they do at
    # a "\n", or the whole text is split into one list of 5.6 million lines.
    # The child reports VmHWM, its own peak RSS; ru_maxrss would carry over
    # the peak of the test process that started it.
    path = tmp_path / "cr.pts"
    path.write_bytes(b"##\r" * ((16 << 20) // 3))
    script = (
        "import re, sys\n"
        "from linkparity.cli import main\n"
        "code = main(['parity', '--input', sys.argv[1]])\n"
        "status = open('/proc/self/status').read()\n"
        "print(code, re.search(r'VmHWM:\\s*(\\d+) kB', status)[1])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                            capture_output=True, text=True, timeout=120)
    code, peak_kib = result.stdout.split()
    assert code == "64"
    assert result.stderr.endswith("empty point-set file\n")
    assert int(peak_kib) / 1024 < 120


def test_point_file_shapes_are_checked_before_coordinates_are_parsed(monkeypatch):
    # n·d up to 10,000 is read; one more is refused at the header
    assert configuration._MAX_POINT_COORDINATES == 10_000
    row = " ".join(["1"] * 100)
    assert read_points_text("100 100\n" + f"{row}\n" * 100).n == 100

    def no_parse(text):
        raise AssertionError("a coordinate was parsed")

    monkeypatch.setattr(configuration, "parse_rational", no_parse)
    for text, complaint in (
        ("1 10001\n1\n", "header declares 10001 points in R^1, more than 10,000"),
        # a header must declare at least one coordinate and one point
        ("2 -3\n", "header needs d >= 1 and n >= 1, got '2 -3'"),
        ("-2 3\n" + "1 1\n" * 3, "header needs d >= 1 and n >= 1, got '-2 3'"),
        ("0 5\n" + "1\n" * 5, "header needs d >= 1 and n >= 1, got '0 5'"),
        ("-4 -5\n", "header needs d >= 1 and n >= 1, got '-4 -5'"),
        ("1 1\n" + "1 " * 1_000_000, "expected 1 coordinates per point, got more"),
        ("2 2\n1 1\n1 1\n1 1\n", "expected 2 point lines, got more"),
        ("# provenance: moment-curve params=" + "1," * 10_000 + "1\n2 1\n1 1\n",
         "moment-curve provenance has over 10,000 parameters"),
    ):
        with pytest.raises(ValueError, match=re.escape(complaint)):
            read_points_text(text)


# ------------------------- hostile point-file texts -------------------------

_VALID_TEXTS = tuple(
    write_points_text(config)
    for config in (
        moment_curve(5, 2),
        moment_curve(7, 4),
        moment_curve(3, 2, [Fraction(1, 2), Fraction(3), Fraction(7, 2)]),
        sample_random_configuration(5, 2, seed=3, bound=50),
        sample_random_configuration(7, 4, seed=0, bound=1000),
        explicit_configuration([("1/2", "-3"), ("0", "7/5"), ("4", "1"), ("-2/3", "5"), ("1", "1")]),
    )
)
# HUGE stands for a 5,000-digit literal, past Python's int-string digit limit
# (4,300); it is expanded only in _mutate, to keep the strategy's repr small.
_HUGE = "9" * 5000
_BAD_TOKENS = (
    "", "x", "-", "1.5", "1e3", "0x1f", "1/0", "-7/000", "1/-2", "/3", "3/", "1//2",
    "\u0663", "HUGE", "-HUGE", "1/HUGE", "HUGE/7", "-HUGE/000",
)
_BAD_HEADER_NUMBERS = ("-1", "0", "-7", "4" * 30, "HUGE", "2.0", "")
_BAD_PROVENANCE = tuple(
    "# provenance: " + body
    for body in (
        "", "moment-curve", "moment-curve params=", "moment-curve params=1,,2",
        "moment-curve params=1/0,2", "moment-curve params=1/00,2", "moment-curve params=5,4,3,2,1",
        "moment-curve params=1,2,x", "moment-curve params=1,HUGE", "random-sample",
        "random-sample seed=1", "random-sample seed bound attempts",
        "random-sample seed=x bound=1 attempts=1", "random-sample seed=1 bound=-5 attempts=0",
        "random-sample seed=HUGE bound=1 attempts=1", "random-sample =1 =2 =3",
        "explicit extra", "gale",
    )
)
_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.integers(0, 12)),
    st.tuples(st.just("duplicate"), st.integers(0, 12)),
    st.tuples(st.just("token"), st.integers(0, 12), st.integers(0, 4), st.sampled_from(_BAD_TOKENS)),
    st.tuples(st.just("header"), st.integers(0, 1), st.sampled_from(_BAD_HEADER_NUMBERS)),
    st.tuples(st.just("provenance"), st.sampled_from(_BAD_PROVENANCE)),
)


def _mutate(text, mutations):
    lines = text.splitlines()
    for kind, *args in mutations:
        if kind == "provenance":
            marked = [i for i, line in enumerate(lines) if line.startswith("# provenance:")]
            line = args[0].replace("HUGE", _HUGE)
            if marked:
                lines[marked[0]] = line
            else:
                lines.insert(1, line)
        elif not lines:
            continue
        elif kind == "drop":
            del lines[args[0] % len(lines)]
        elif kind == "duplicate":
            i = args[0] % len(lines)
            lines.insert(i, lines[i])
        else:  # "token" or "header": replace one token of a line
            i = 0 if kind == "header" else args[0] % len(lines)
            tokens = lines[i].split() or [""]
            tokens[args[-2] % len(tokens)] = args[-1].replace("HUGE", _HUGE)
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


hostile_point_text = st.builds(
    _mutate, st.sampled_from(_VALID_TEXTS), st.lists(_MUTATION, min_size=1, max_size=4)
)


@given(hostile_point_text)
@settings(max_examples=300, deadline=None)
def test_point_file_parser_fuzz_loads_or_raises_value_error(text):
    try:
        config = read_points_text(text)
    except ValueError:  # ContractError included
        return
    assert read_points_text(write_points_text(config)) == config


@given(text=hostile_point_text)
@settings(max_examples=60, deadline=None)
def test_parity_input_fuzz_exits_with_a_documented_code(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "points.pts"
    path.write_text(text, encoding="utf-8")
    assert main(["parity", "--input", str(path)]) in (0, 2, 3, 64)
