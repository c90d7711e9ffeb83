"""Configuration tests: moment curve, general position, sampling, file format."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from linkparity.errors import ContractError, DegeneracyError, SamplingError
from linkparity.ratmat import integer_kernel
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


@pytest.mark.parametrize("n, d", [(4, 1), (5, 2), (6, 3), (7, 4), (8, 5), (9, 6)])
def test_gale_general_position_equals_the_scan(n, d):
    # attempt 0 of each seed, degenerate or not; small bounds make most
    # attempts degenerate
    for bound in (1, 2, 3, 1000):
        for seed in range(150):
            config = Configuration(
                dimension=d,
                points=tuple(_attempt_points(n, d, seed, bound, 0)),
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
                    points=tuple(_attempt_points(n, d, seed, bound, 0)),
                    provenance=RandomSample(seed=seed, bound=bound, attempts=1),
                )
    yield from _rational_cases()
    for k in range(1, 6):
        yield moment_curve(2 * k + 3, 2 * k)


def test_gale_pair_equals_the_two_elimination_reference():
    degenerate = 0
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
            assert _gale_pair(config) == expected, case
    assert degenerate > 0  # the bound-1 attempts reach the degenerate branch


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
    # independent splitmix64 evaluation of coordinate slot 0, trial 0
    mask = (1 << 64) - 1

    def mix(z):
        z &= mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    stream = mix((0 + 1 * _PHI64) & mask)
    value = mix((stream + 1 * _PHI64) & mask)
    span = 201
    assert value < (1 << 64) - ((1 << 64) % span)
    expected = value % span - 100

    config = sample_random_configuration(5, 2, seed=0, bound=100)
    assert config.points[0][0] == expected


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
