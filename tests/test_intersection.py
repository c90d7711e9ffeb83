"""Intersection predicate and separating-hyperplane witness tests."""

from fractions import Fraction

import pytest

from linkparity.combinatorics import alternates, enumerate_disjoint_pairs
from linkparity.configuration import explicit_configuration, moment_curve
from linkparity.errors import ContractError, DegeneracyError
from linkparity.intersection import (
    intersect_complementary,
    separating_hyperplane_moment,
)


def test_symmetric_crossing_in_the_plane():
    config = explicit_configuration([(0, 0), (2, 2), (0, 2), (2, 0)])
    result = intersect_complementary(config, (1, 2), (3, 4))
    assert result.intersects
    assert result.point == (Fraction(1), Fraction(1))
    assert result.coeffs_first == (Fraction(1, 2), Fraction(1, 2))
    assert result.coeffs_second == (Fraction(1, 2), Fraction(1, 2))


def test_moment_alternating_pair_intersects():
    config = moment_curve(5, 2)
    result = intersect_complementary(config, (1, 3), (2, 4))
    assert result.intersects
    # chord system solved by hand: 3 - 2*lam = 4 - 2*mu at x = 5/2
    assert result.point == (Fraction(5, 2), Fraction(7))
    assert result.coeffs_first == (Fraction(1, 4), Fraction(3, 4))
    assert result.coeffs_second == (Fraction(3, 4), Fraction(1, 4))


def test_moment_non_alternating_pair_misses():
    config = moment_curve(5, 2)
    result = intersect_complementary(config, (1, 2), (3, 4))
    assert not result.intersects
    assert result.point is None
    assert result.coeffs_first is None and result.coeffs_second is None


def test_parallel_chords_miss_without_degeneracy():
    # chords {2,3} and {1,4} on the parabola are parallel (equal slope 5);
    # the affine hulls are disjoint but the points are in general position
    config = moment_curve(5, 2)
    result = intersect_complementary(config, (2, 3), (1, 4))
    assert not result.intersects
    assert result.point is None
    assert result.coeffs_first is None and result.coeffs_second is None


def test_intersection_symmetry_and_witness_soundness():
    config = moment_curve(7, 4)
    for first, second in enumerate_disjoint_pairs(7, 3):
        a = intersect_complementary(config, first, second)
        b = intersect_complementary(config, second, first)
        assert a.intersects == b.intersects
        if a.intersects:
            assert a.point == b.point
            assert sum(a.coeffs_first) == 1
            assert sum(a.coeffs_second) == 1
            assert all(c > 0 for c in a.coeffs_first + a.coeffs_second)
            first_pt = [
                sum(c * config.point(l)[axis] for c, l in zip(a.coeffs_first, first))
                for axis in range(4)
            ]
            second_pt = [
                sum(c * config.point(l)[axis] for c, l in zip(a.coeffs_second, second))
                for axis in range(4)
            ]
            assert tuple(first_pt) == a.point
            assert tuple(second_pt) == a.point


def test_degenerate_points_raise():
    config = explicit_configuration([(0, 0), (1, 1), (2, 2), (5, 0)])
    with pytest.raises(DegeneracyError) as info:
        intersect_complementary(config, (1, 2), (3, 4))
    assert info.value.labels is not None


def test_contract_errors():
    config = moment_curve(5, 2)
    with pytest.raises(ContractError):
        intersect_complementary(config, (1, 2), (2, 3))  # overlap
    with pytest.raises(ContractError):
        intersect_complementary(config, (1, 2), (3,))  # |M|+|N| != d+2
    with pytest.raises(ContractError):
        intersect_complementary(config, (1, 2, 3), (4, 5))  # != d+2 again


# --------------------------- separating witness ------------------------------


def params_upto(n):
    return tuple(Fraction(i) for i in range(1, n + 1))


def test_separator_single_bicolored_gap():
    witness = separating_hyperplane_moment((1, 2), (3, 4), params_upto(4), 2)
    assert witness.bicolored_count == 1
    assert witness.midpoint_roots == (Fraction(5, 2),)
    assert witness.filler_roots == (Fraction(-1),)
    assert witness.coefficients == (Fraction(-3, 2), Fraction(1))
    assert witness.offset == Fraction(5, 2)
    values = [witness.value_at(Fraction(i)) for i in (1, 2, 3, 4)]
    assert values == [Fraction(-3), Fraction(-3, 2), Fraction(2), Fraction(15, 2)]


def test_separator_two_bicolored_gaps_no_fillers():
    witness = separating_hyperplane_moment((1, 4), (2, 3), params_upto(4), 2)
    assert witness.bicolored_count == 2
    assert witness.midpoint_roots == (Fraction(3, 2), Fraction(7, 2))
    assert witness.filler_roots == ()
    values = [witness.value_at(Fraction(i)) for i in (1, 2, 3, 4)]
    assert values[0] > 0 and values[3] > 0
    assert values[1] < 0 and values[2] < 0


def test_separator_rejects_alternating_pair():
    with pytest.raises(ContractError):
        separating_hyperplane_moment((1, 3), (2, 4), params_upto(4), 2)


def test_separator_rejects_bad_sizes_and_overlap():
    with pytest.raises(ContractError):
        separating_hyperplane_moment((1, 2), (2, 3), params_upto(4), 2)
    with pytest.raises(ContractError):
        separating_hyperplane_moment((1,), (2,), params_upto(2), 2)
    with pytest.raises(ContractError):
        separating_hyperplane_moment((1, 2), (3, 4), params_upto(4), 3)
    with pytest.raises(ContractError, match="strictly increasing"):
        separating_hyperplane_moment((1, 2), (3, 4), params_upto(4)[::-1], 2)


def test_separator_with_rational_parameters():
    params = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(4))
    witness = separating_hyperplane_moment((1, 2), (3, 4), params, 2)
    for label in (1, 2):
        assert witness.value_at(params[label - 1]) < 0 or witness.value_at(params[label - 1]) > 0
    p_side = {witness.value_at(params[l - 1]) > 0 for l in (1, 2)}
    q_side = {witness.value_at(params[l - 1]) > 0 for l in (3, 4)}
    assert len(p_side) == 1 and len(q_side) == 1 and p_side != q_side


@pytest.mark.parametrize("k", [1, 2, 3])
def test_separator_properties_and_cross_check(k):
    n, d = 2 * k + 3, 2 * k
    params = params_upto(n)
    config = moment_curve(n, d)
    for first, second in enumerate_disjoint_pairs(n, k + 1):
        if alternates(first, second):
            continue
        witness = separating_hyperplane_moment(first, second, params, d)
        # degree bound: exactly d simple roots, all distinct
        roots = witness.midpoint_roots + witness.filler_roots
        assert len(roots) == d
        assert len(set(roots)) == d
        assert witness.degree == d
        # strict sign separation
        p_vals = [witness.value_at(params[l - 1]) for l in first]
        q_vals = [witness.value_at(params[l - 1]) for l in second]
        assert all(v != 0 for v in p_vals + q_vals)
        assert len({v > 0 for v in p_vals}) == 1
        assert len({v > 0 for v in q_vals}) == 1
        assert (p_vals[0] > 0) != (q_vals[0] > 0)
        # fillers live strictly below the parameter range
        t_min = min(params[l - 1] for l in first + second)
        assert all(y < t_min - 1 for y in witness.filler_roots)
        # separated hulls cannot intersect
        assert not intersect_complementary(config, first, second).intersects
