"""Linking counts, parity reports, counterexample verification, existence."""

import io
import json
import os
import tracemalloc
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from itertools import islice, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkparity.combinatorics import (
    alternating_count_bruteforce,
    combinations_colex,
    enumerate_disjoint_pairs,
)
from linkparity import configuration, linking
from linkparity.configuration import (
    Configuration,
    RadonPartition,
    _degenerate_subset_scan,
    explicit_configuration,
    find_degenerate_subset,
    is_general_position,
    moment_curve,
    sample_random_configuration,
)
from linkparity.errors import ContractError, DegeneracyError
from linkparity.intersection import intersect_complementary
from linkparity.linking import (
    DenseSection,
    boundary_intersection_count,
    counterexample_document,
    dumps_canonical,
    find_intersecting_pair,
    intersecting_pairs,
    is_linked,
    link_report_document,
    radon_witness,
    total_linked_parity,
    verify_counterexample,
    write_canonical,
)
from oracles import json_text, moment_curve_radon_faces, planar_boundary_crossings


def test_boundary_counts_on_planar_moment_curve():
    config = moment_curve(5, 2)
    assert boundary_intersection_count(config, (1, 3)) == 2
    assert boundary_intersection_count(config, (1, 2)) == 0


def test_boundary_count_on_quartic_moment_curve():
    config = moment_curve(7, 4)
    assert boundary_intersection_count(config, (2, 4, 6)) == 2


def test_is_linked_false_on_moment_curve():
    config = moment_curve(5, 2)
    assert not is_linked(config, (1, 3))
    assert not is_linked(config, (1, 2))


def test_boundary_count_contract_errors():
    config = moment_curve(5, 2)
    with pytest.raises(ContractError):
        boundary_intersection_count(config, (1, 2, 3))  # wrong size
    with pytest.raises(ContractError):
        boundary_intersection_count(moment_curve(6, 2), (1, 2))  # n != d+3


def test_boundary_counts_match_planar_crossing_oracle():
    # independent orientation-sign oracle on random planar configurations
    for seed in range(20):
        config = sample_random_configuration(5, 2, seed=seed, bound=50)
        for first, _ in enumerate_disjoint_pairs(5, 2):
            assert boundary_intersection_count(config, first) == \
                planar_boundary_crossings(config, first), (seed, first)


def test_linked_segment_from_interior_point():
    # point 5 sits inside the square: the segments from it to the two far
    # corners each cross the complementary triangle boundary exactly once
    config = explicit_configuration([(0, 0), (4, 0), (4, 4), (0, 4), (2, 1)])
    report = total_linked_parity(config)
    assert report.parity_ok
    for row in report.per_subset:
        assert row.n3 == planar_boundary_crossings(config, row.subset)
    assert report.linked_subsets == ((3, 5), (4, 5))
    assert report.single_point_subsets == ((3, 5), (4, 5))
    assert report.total_linked == 2


def test_total_linked_parity_on_moment_curves():
    for k in (1, 2, 3):
        report = total_linked_parity(moment_curve(2 * k + 3, 2 * k))
        assert report.total_linked == 0
        assert report.parity_ok
        assert report.linked_subsets == ()
        assert all(row.even for row in report.per_subset)


def test_total_linked_parity_on_random_configuration():
    config = sample_random_configuration(5, 2, seed=42, bound=100)
    report = total_linked_parity(config)
    assert report.parity_ok
    assert report.total_linked % 2 == 0
    assert len(report.per_subset) == 10
    # single-point subsets are exactly the rows with one distinct hit
    assert set(report.single_point_subsets) == {
        row.subset for row in report.per_subset if row.n1 == 1
    }


def test_total_linked_parity_rejects_degenerate_input():
    config = explicit_configuration([(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    with pytest.raises(DegeneracyError) as info:
        total_linked_parity(config)
    assert info.value.labels == (1, 2, 3)


def test_total_linked_parity_shape_contract():
    # n = d + 3 at odd d has Radon partitions, but no (k+1, k+1) pairs to read
    queries = (
        total_linked_parity,
        find_intersecting_pair,
        lambda config: list(intersecting_pairs(config)),
    )
    for query in queries:
        with pytest.raises(ContractError):
            query(moment_curve(6, 2))
        with pytest.raises(ContractError):
            query(moment_curve(6, 3))


def test_double_sum_evenness_identity():
    # ordered double sum equals twice the unordered pair sum
    for seed in (0, 3):
        config = sample_random_configuration(5, 2, seed=seed, bound=100)
        report = total_linked_parity(config)
        ordered = sum(row.n3 for row in report.per_subset)
        unordered = sum(
            1
            for first, second in enumerate_disjoint_pairs(5, 2)
            if intersect_complementary(config, first, second).intersects
        )
        assert ordered == 2 * unordered
        assert ordered % 2 == 0


def _per_face_reference(config, subset):
    """Face hits of conv(I) by one per-pair solve per face of the complement.

    Each face is also queried in the other order, which must give the same
    decision and point with the coefficient tuples swapped.
    """
    complement = tuple(v for v in config.labels if v not in subset)
    hits = []
    for face in combinations_colex(complement, len(subset)):
        result = intersect_complementary(config, subset, face)
        swapped = intersect_complementary(config, face, subset)
        assert (swapped.intersects, swapped.point) == (result.intersects, result.point)
        assert (swapped.coeffs_first, swapped.coeffs_second) == \
            (result.coeffs_second, result.coeffs_first)
        if result.intersects:
            hits.append((face, result.point))
    return hits


def _per_pair_reference(config):
    """Intersecting pairs by one per-pair solve for every disjoint pair."""
    k = config.dimension // 2
    triples = []
    for first, second in enumerate_disjoint_pairs(config.n, k + 1):
        result = intersect_complementary(config, first, second)
        if result.intersects:
            triples.append((first, second, result))
    return triples


def _table_oracle_cases():
    for k in range(1, 5):
        yield moment_curve(2 * k + 3, 2 * k)
    for n, d in ((5, 2), (7, 4), (9, 6)):
        for seed in range(10):
            yield sample_random_configuration(n, d, seed=seed, bound=1000)
    # tiny coordinates make parallel hulls (a side's coefficients summing to 0) common
    for n, d in ((5, 2), (7, 4)):
        for seed in range(10):
            yield sample_random_configuration(n, d, seed=seed, bound=1)
    yield from _rational_cases()


_RATIONAL_PARAMETERS = tuple(
    Fraction(t) for t in ("1/3", "1/2", "2", "7/3", "3", "5", "11/2")
)


def _rational_cases():
    """(7,4) configurations whose points have denominators other than 1."""
    yield moment_curve(7, 4, parameters=_RATIONAL_PARAMETERS)
    for seed in range(5):
        sampled = sample_random_configuration(7, 4, seed=seed, bound=1000)
        yield explicit_configuration(
            [x / (label + 1) for x in point]
            for label, point in enumerate(sampled.points, start=1)
        )


def test_report_hits_match_per_face_solves():
    for config in _table_oracle_cases():
        report = total_linked_parity(config)
        for row in report.per_subset:
            expected = _per_face_reference(config, row.subset)
            case = (config.provenance.describe(), row.subset)
            assert [(hit.other(row.subset), hit.point) for hit in row.hits] == expected, case
            assert row.n3 == len(expected), case
            assert row.n1 == len({point for _, point in expected}), case
        assert list(intersecting_pairs(config)) == _per_pair_reference(config), \
            config.provenance.describe()


def test_report_hits_are_the_configurations_own_partitions():
    for config in _table_oracle_cases():
        for row in total_linked_parity(config).support.values():
            for hit in row.hits:
                assert any(hit is p for p in config.radon_partitions), \
                    (config.provenance.describe(), row.subset)


def test_face_hits_are_the_faces_each_subset_meets_by_per_pair_solves():
    for config in _table_oracle_cases():
        k = config.dimension // 2
        face_hits = config.face_hits
        case = config.provenance.describe()
        assert list(face_hits) == sorted(face_hits, key=lambda side: side[::-1]), case
        for subset in combinations_colex(config.labels, k + 1):
            complement = tuple(v for v in config.labels if v not in subset)
            expected = [
                face for face in combinations_colex(complement, k + 1)
                if intersect_complementary(config, subset, face).intersects
            ]
            hits = face_hits.get(subset, ())
            assert [hit.other(subset) for hit in hits] == expected, (case, subset)
            assert all(subset in (hit.positive, hit.negative) for hit in hits), (case, subset)
            assert bool(expected) == (subset in face_hits), (case, subset)


def _witness_cases():
    for n, d in ((5, 2), (7, 4), (9, 6)):
        for bound in (3, 1000):
            for seed in range(100):
                yield sample_random_configuration(n, d, seed=seed, bound=bound)
    for k in range(1, 5):
        yield moment_curve(2 * k + 3, 2 * k)
    yield from _rational_cases()


def test_witnesses_equal_the_per_pair_solve():
    # intersecting_pairs yields each pair once, the side with the smaller
    # minimum first; the report's hits hold both orientations
    for config in _witness_cases():
        triples = [
            (row.subset, face, radon_witness(hit, row.subset, face))
            for row in total_linked_parity(config).per_subset
            for hit in row.hits
            for face in (hit.other(row.subset),)
        ]
        assert set(intersecting_pairs(config)) <= set(triples)
        for first, second, result in triples:
            expected = intersect_complementary(config, first, second)
            case = (config.provenance.describe(), first, second)
            assert result.point == expected.point, case
            assert result.coeffs_first == expected.coeffs_first, case
            assert result.coeffs_second == expected.coeffs_second, case


@pytest.mark.parametrize("k", range(1, 6))
def test_n4_equals_the_bruteforce_count(k):
    report = total_linked_parity(moment_curve(2 * k + 3, 2 * k))
    for row in report.per_subset:
        assert row.n4 == alternating_count_bruteforce(row.subset, report.config.n), row.subset


@pytest.mark.parametrize("k", range(1, 10))
def test_moment_curve_table_matches_the_evenness_oracle(k):
    report = total_linked_parity(moment_curve(2 * k + 3, 2 * k))
    faces = {
        subset: sorted(hit.other(subset) for hit in row.hits)
        for subset, row in report.support.items()
    }
    assert faces == moment_curve_radon_faces(k)
    # the alternating support is the table's: no row has n4 without n3
    for row in report.support.values():
        assert row.n3 == row.n4 == 2, row.subset


def test_report_holds_the_supports_and_builds_its_rows_once(monkeypatch):
    built = []
    real = linking.combinations_colex

    def counted(*args):
        built.append(args)
        return real(*args)

    def never(*args):
        raise AssertionError("n4 brute-forced for the report")

    distinct = []
    real_distinct = linking._distinct_points

    def counted_distinct(subset, hits):
        distinct.append(subset)
        return real_distinct(subset, hits)

    monkeypatch.setattr(linking, "combinations_colex", counted)
    monkeypatch.setattr(linking, "alternating_count_bruteforce", never)
    monkeypatch.setattr(linking, "_distinct_points", counted_distinct)
    report = total_linked_parity(sample_random_configuration(9, 6, seed=2, bound=1000))
    assert built == []
    assert report.per_subset is report.per_subset
    assert len(built) == 1
    # the support is the nonzero rows in colex order, each built once
    assert list(report.support) == [
        row.subset for row in report.per_subset if row.n1 or row.n3 or row.n4
    ]
    # some rows are on one support only, so the map is their union
    assert any(row.n3 == 0 for row in report.support.values())
    assert any(row.n4 == 0 for row in report.support.values())
    for subset in report.support:
        assert report.row(subset) is report.support[subset]
    link_report_document(report)
    assert distinct == list(report.support)


def _n1_cases():
    yield from _table_oracle_cases()
    for k in range(1, 5):
        for bound in (1, 3, 1000):
            for seed in range(40):
                yield sample_random_configuration(2 * k + 3, 2 * k, seed=seed, bound=bound)


def test_n1_on_integer_keys_equals_the_fraction_set_count():
    rows = 0
    for config in _n1_cases():
        for row in total_linked_parity(config).support.values():
            assert row.n1 == len({hit.point for hit in row.hits}), \
                (config.provenance.describe(), row.subset)
            rows += 1
    assert rows == 6654  # of 540 configurations
    # hand-made hits of I = (1, 2) among the points below: (1, 0) at two
    # scales of I's weights, the second with I on the negative side, and (2, 0)
    columns = tuple((x, y, 1) for x, y in ((0, 0), (4, 0), (1, -1), (1, 1), (1, 3), (2, 0)))
    same = RadonPartition((1, 2), (3, 4), (3, 1, -2, -2, 0, 0), columns)
    also = RadonPartition((3, 5), (1, 2), (-6, -2, 6, 0, 2, 0), columns)
    other = RadonPartition((1, 2), (6,), (1, 1, 0, 0, 0, -2), columns)
    assert same.point == also.point == (1, 0)
    assert other.point == (2, 0)
    assert linking._distinct_points((1, 2), (same, also)) == 1
    assert linking._distinct_points((1, 2), (same, also, other)) == 2
    assert linking._distinct_points((1, 2), (other, same, also, other)) == 2


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_verify_forms_no_radon_point(k):
    # n1 reads each hit's weights on I, and the moment curve has no linked
    # subset, so no witness row; its document divides out no Radon point
    result = verify_counterexample(k)
    dumps_canonical(counterexample_document(result))
    partitions = result.report.config.radon_partitions
    assert len(partitions) == 2 * k + 3
    assert all("point" not in vars(partition) for partition in partitions)
    # reading a point forms it once and keeps it on the partition
    assert partitions[0].point is partitions[0].point
    assert "point" in vars(partitions[0])


def test_a_parity_report_forms_the_radon_points_of_its_witness_rows_only():
    config = sample_random_configuration(7, 4, seed=3, bound=1000)
    report = total_linked_parity(config)
    dumps_canonical(link_report_document(report))
    witnessed = {id(hit) for row in report.support.values() if row.n3 % 2 for hit in row.hits}
    formed = {id(partition) for partition in config.radon_partitions
              if "point" in vars(partition)}
    assert formed == witnessed
    assert 0 < len(witnessed) < len(config.radon_partitions)


def test_a_reported_configuration_answers_as_a_fresh_copy_does():
    for config in _table_oracle_cases():
        total_linked_parity(config)
        fresh = Configuration(config.dimension, config.points, config.provenance)
        expected = _per_pair_reference(fresh)
        case = config.provenance.describe()
        assert find_intersecting_pair(config) == find_intersecting_pair(fresh) == expected[0], case
        assert list(intersecting_pairs(config)) == list(intersecting_pairs(fresh)) == expected, case


def test_one_elimination_serves_every_query_of_a_configuration(monkeypatch):
    eliminations = []
    real = configuration._gale_pair

    def counted(config):
        eliminations.append(config.provenance)
        return real(config)

    monkeypatch.setattr(configuration, "_gale_pair", counted)
    config = sample_random_configuration(7, 4, seed=1, bound=1000)
    report = total_linked_parity(config)
    find_intersecting_pair(config)
    list(intersecting_pairs(config))
    counts = [boundary_intersection_count(config, row.subset) for row in report.per_subset]
    assert [is_linked(config, row.subset) for row in report.per_subset] == \
        [bool(row.n3 % 2) for row in report.per_subset]
    assert counts == [row.n3 for row in report.per_subset]
    # the sampler's certification is the one elimination
    assert eliminations == [config.provenance]


def test_boundary_counts_of_every_subset_equal_the_report_rows():
    config = moment_curve(13, 10)
    report = total_linked_parity(moment_curve(13, 10))
    assert [boundary_intersection_count(config, row.subset) for row in report.per_subset] == \
        [row.n3 for row in report.per_subset]


@st.composite
def _small_configurations(draw):
    """(5,2) or (7,4) points with coordinates p/q, p in [-2, 2] and q in
    {1, 2, 3}, often degenerate."""
    n, d = draw(st.sampled_from([(5, 2), (7, 4)]))
    coordinate = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 2, 3]))
    coordinate_rows = st.lists(coordinate, min_size=d, max_size=d)
    rows = draw(st.lists(coordinate_rows, min_size=n, max_size=n))
    subset = draw(st.sampled_from(list(combinations_colex(tuple(range(1, n + 1)), d // 2 + 1))))
    return explicit_configuration(rows, dimension=d), subset


def _linking_queries(subset):
    return (
        total_linked_parity,
        lambda config: boundary_intersection_count(config, subset),
        lambda config: is_linked(config, subset),
        find_intersecting_pair,
    )


@given(_small_configurations())
@settings(max_examples=200, deadline=None)
def test_entry_points_name_the_scanned_degenerate_subset(case):
    config, subset = case
    degenerate = _degenerate_subset_scan(config)
    assert find_degenerate_subset(config) == degenerate
    for query in _linking_queries(subset):
        if degenerate is None:
            query(config)
        else:
            with pytest.raises(DegeneracyError) as info:
                query(config)
            assert info.value.labels == degenerate


_DEGENERATE_CASES = (
    # points 1..5 lie in the hyperplane x_4 = 0 and (2, 3, 5, 6, 7) is
    # degenerate too; every query names the first in scan order
    ([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
      (1, 1, 1, 0), (0, 0, 0, 1), (3, 1, 4, 1)], (1, 2, 3, 4, 5)),
    # both table solves succeed; only a zero cross product shows these
    ([(0, 0), (3, 1), (0, 2), (1, 3), (2, 4)], (3, 4, 5)),
    ([(0, 0, 0, 0), (5, 1, 0, 2), (1, 7, 1, 0), (2, 1, 9, 1),
      (0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 2, 2)], (1, 2, 3, 6, 7)),
)


def _assert_every_query_names(config, degenerate):
    k = config.dimension // 2
    for query in _linking_queries(tuple(range(1, k + 2))):
        with pytest.raises(DegeneracyError) as info:
            query(config)
        assert info.value.labels == degenerate, config.points


def test_degenerate_subset_does_not_depend_on_the_query():
    for points, degenerate in _DEGENERATE_CASES:
        config = explicit_configuration(points)
        assert _degenerate_subset_scan(config) == degenerate
        _assert_every_query_names(config, degenerate)


def test_degenerate_subsets_are_named_without_determinants(monkeypatch):
    # for n = d + 3 the Gale pair decides general position and names the
    # subset, so neither the sampler nor any query reaches the scan
    def no_det(*args):
        raise AssertionError("determinant computed for n = d + 3 points")

    monkeypatch.setattr(configuration, "det", no_det)
    for points, degenerate in _DEGENERATE_CASES:
        config = explicit_configuration(points)
        assert find_degenerate_subset(config) == degenerate
        assert not is_general_position(config)
        _assert_every_query_names(config, degenerate)
    # bound 3 makes many attempts degenerate
    for seed in range(5):
        total_linked_parity(sample_random_configuration(7, 4, seed=seed, bound=3))


@pytest.mark.parametrize("k", [1, 2])
def test_verify_counterexample_small(k):
    result = verify_counterexample(k)
    assert result.ok
    assert len(result.cross_checks) == len(result.report.per_subset)
    for check in result.cross_checks:
        assert check.n1 == check.n2 == check.n3 == check.n4
        assert check.n1 % 2 == 0
    assert result.report.total_linked == 0


def test_verify_counterexample_rejects_bad_k():
    with pytest.raises(ContractError):
        verify_counterexample(0)


def test_find_intersecting_pair_on_moment_curve():
    config = moment_curve(5, 2)
    found = find_intersecting_pair(config)
    assert found is not None
    first, second, result = found
    assert (first, second) == ((1, 3), (2, 4))
    assert result.intersects


def test_intersecting_pairs_on_moment_curve():
    config = moment_curve(5, 2)
    pairs = list(intersecting_pairs(config))
    assert ((1, 3), (2, 4)) == (pairs[0][0], pairs[0][1])
    assert all(r.intersects for _, _, r in pairs)
    # ordered count is twice the unordered count
    report = total_linked_parity(config)
    assert 2 * len(pairs) == sum(row.n3 for row in report.per_subset)


def test_find_intersecting_pair_on_random_configurations():
    for seed in range(5):
        config = sample_random_configuration(7, 4, seed=seed, bound=1000)
        found = find_intersecting_pair(config)
        assert found is not None
        _, _, result = found
        assert result.intersects
        assert all(c > 0 for c in result.coeffs_first + result.coeffs_second)


def test_find_intersecting_pair_rejects_degenerate():
    config = explicit_configuration([(0, 0), (1, 1), (2, 2), (0, 1), (1, 0)])
    with pytest.raises(DegeneracyError):
        find_intersecting_pair(config)


def test_worker_pool_preserves_report_bytes():
    result1 = verify_counterexample(2, workers=1)
    result2 = verify_counterexample(2, workers=2)
    doc1 = dumps_canonical(counterexample_document(result1))
    doc2 = dumps_canonical(counterexample_document(result2))
    assert doc1 == doc2


def test_report_document_layout():
    result = verify_counterexample(1)
    doc = counterexample_document(result, manifest={"command": "verify"})
    assert list(doc.keys()) == [
        "config", "k", "per_subset", "linked_pairs", "single_point_subsets",
        "total", "parity_ok", "witnesses", "failures", "cross_checks", "manifest",
    ]
    assert doc["total"] == 0
    assert doc["parity_ok"] is True
    assert doc["failures"] == []
    assert doc["config"]["points"][0] == ["1", "1"]
    # canonical serialization is valid JSON and stable
    text = dumps_canonical(doc)
    assert text == dumps_canonical(doc)
    plain = json.loads(text)
    assert [row["I"] for row in plain["per_subset"]] == [
        [1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 4], [1, 5], [2, 5], [3, 5], [4, 5],
    ]
    assert list(plain["per_subset"][0]) == ["I", "n1", "n3", "n4", "even"]
    assert list(plain["cross_checks"][0]) == ["I", "n1", "n2", "n3", "n4", "consistent"]
    with pytest.raises(TypeError):
        json.dumps(doc)


def test_parity_report_document_on_random_config():
    config = sample_random_configuration(5, 2, seed=11, bound=100)
    report = total_linked_parity(config)
    doc = link_report_document(report)
    assert doc["config"]["provenance"].startswith("random-sample seed=11")
    assert doc["total"] == report.total_linked
    # witnesses listed exactly for linked subsets, with exact rational points
    assert len(doc["witnesses"]) == len(report.linked_subsets)
    for witness in doc["witnesses"]:
        assert witness["faces"]
        for face in witness["faces"]:
            assert all(isinstance(c, str) for c in face["point"])


_KEYS = st.text(max_size=3) | st.sampled_from(
    ["I", "n1", "even", "50%", "%s", "%%", '"', "a\nb", "\u00e9", "\U0001f600", ""]
)
_BIG_INTS = st.integers(10**300, 10**310) | st.integers(-(10**310), -(10**300))
_SCALARS = st.none() | st.booleans() | st.integers() | _BIG_INTS | st.text(max_size=5)
_COLUMNS = [
    st.integers() | _BIG_INTS,
    st.booleans(),
    st.booleans() | st.integers(),
    st.lists(st.integers(), max_size=3),
    st.lists(st.integers() | st.booleans(), max_size=3),
]


@st.composite
def _tables(draw, values):
    """Lists of dicts sharing their keys, some rows in another key order."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    columns = {key: draw(st.sampled_from([*_COLUMNS, values])) for key in keys}
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(keys)) if draw(st.integers(0, 3)) == 0 else keys
        rows.append({key: draw(columns[key]) for key in order})
    return rows


_DOCUMENTS = st.recursive(
    _SCALARS,
    lambda values: st.lists(values, max_size=3)
    | st.dictionaries(_KEYS, values, max_size=3)
    | _tables(values),
    max_leaves=30,
)


def _written(document) -> str:
    buffer = io.StringIO()
    write_canonical(buffer, document)
    return buffer.getvalue()


def _first_difference(text: str, expected: str) -> tuple[int, str | None, str | None] | None:
    """The first line (1-based) where two texts differ, with both lines; None if equal.

    A wrong dense row in a document of thousands of lines is reported at
    once, without a diff of the two whole texts.
    """
    lines = zip_longest(text.splitlines(keepends=True), expected.splitlines(keepends=True))
    return next(((number, *pair) for number, pair in enumerate(lines, 1) if pair[0] != pair[1]),
                None)


def _lists_as_iterators(value):
    if isinstance(value, list):
        return iter([_lists_as_iterators(item) for item in value])
    if isinstance(value, dict):
        return {key: _lists_as_iterators(item) for key, item in value.items()}
    return value


def test_each_dense_section_is_one_walk_over_label_strings(monkeypatch):
    walks = []
    real = linking.colex_rows

    def counted(n, size, *rest):
        walks.append((n, size))
        return real(n, size, *rest)

    def unexpected(items, size):
        raise AssertionError("a dense section walked the subsets themselves")

    # C(11, 5) = 462 rows a section, more than one block
    document = counterexample_document(verify_counterexample(4))
    monkeypatch.setattr(linking, "colex_rows", counted)
    monkeypatch.setattr(linking, "combinations_colex", unexpected)
    write_canonical(io.StringIO(), document)
    # per_subset and cross_checks, each one walk of the 5-subsets of [11]
    assert walks == [(11, 5)] * 2


def test_the_k9_report_is_written_holding_one_block_and_the_low_texts_a_block_reads():
    # the largest block, C(16, 5) = 4,368 rows of the 10-subsets of [21], and
    # the texts of the 5-subsets of [16]; the texts of all C(21, 5) = 20,349
    # 5-subsets of [21] peaked at 4.1 MiB (Python 3.11)
    document = counterexample_document(verify_counterexample(9))
    with open(os.devnull, "w") as handle:
        tracemalloc.start()
        try:
            write_canonical(handle, document)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 3.5 * 2**20, peak


@given(_DOCUMENTS)
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example({"empty": [], "nested": [[], {}, [{"I": [1]}]]})
# the encoder's placeholder character as a key, as a str value and inside a
# list, which _lists_as_iterators makes an iterator
@example({"\x00": "\x00", "list": ["\x00", ["a\x00b"], {"\x00": 1}]})
@example([{"\x00": ["\x00"]}, "\x00"])
@settings(max_examples=300, deadline=None)
def test_write_canonical_equals_dumps_canonical(document):
    # dumps_canonical's text is json's; it shares write_canonical's
    # generator, so json is the oracle here too
    expected = json.dumps(document, indent=2, ensure_ascii=True) + "\n"
    assert _written(document) == expected
    # an iterator is written as the list it yields
    assert _written(_lists_as_iterators(document)) == expected


def test_streamed_sections_equal_the_built_documents():
    # the oracle builds every dense row and hands the document to json
    result = verify_counterexample(3)
    documents = [
        *(link_report_document(total_linked_parity(config)) for config in _rational_cases()),
        counterexample_document(result),
        counterexample_document(result, {"command": "verify"}),
    ]
    # a parity payload nests its reports a level deeper than verify does
    documents.append({"reports": documents[-2:]})
    # the encoder's placeholder character in keys and strings beside streamed values
    documents.append({"\x00": documents[-1], "a\x00": ["\x00", counterexample_document(result)]})
    for document in documents:
        expected = json_text(document)
        assert _first_difference(_written(document), expected) is None
        assert _first_difference(dumps_canonical(document), expected) is None


def test_each_list_and_dict_is_encoded_once(monkeypatch):
    # every list and dict is encoded once, into the one text of its
    # document or of its iterator item, whether or not it holds a streamed value
    real = linking._text
    encoded = []

    def counted(value, pad, streamed):
        if isinstance(value, (list, dict)):
            encoded.append(id(value))
        return real(value, pad, streamed)

    monkeypatch.setattr(linking, "_text", counted)
    reports = [link_report_document(total_linked_parity(config))
               for config in islice(_rational_cases(), 2)]
    for document, expected in (
        (lambda: {"reports": reports}, json_text({"reports": reports})),
        (lambda: [reports], json_text([reports])),
        (lambda: {"reports": iter(reports)}, json_text({"reports": reports})),
    ):
        for write in (dumps_canonical, _written):
            encoded.clear()
            assert write(document()) == expected
            assert encoded and len(encoded) == len(set(encoded))


@given(_DOCUMENTS)
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example([{"%": 1, "x%sy": True, "%(a)s": None}])
@example([{"n": 1}, {"n": True}, {"n": 0}])
@example([{"I": [1, 2]}, {"I": []}, {"I": [True, 3]}])
@example([{}, {}])
@example([{"a": 1}, ["a"]])
@example({"big": -(10**300), "empty_dict": {}, "empty_list": [], "\u00e9\n\"": "\u2603"})
@example({"\x00": "\x00", "list": ["\x00", ["a\x00b"], {"\x00": 1}]})
@example([{"\x00": ["\x00"]}, "\x00"])
@settings(max_examples=300, deadline=None)
def test_dumps_canonical_equals_json_indent_2(document):
    # json's indent path is the oracle for every byte of the layout
    assert dumps_canonical(document) == json.dumps(document, indent=2, ensure_ascii=True) + "\n"


class _Str(str):
    pass


class _Int(int):
    pass


class _Label(IntEnum):
    THREE = 3


class _List(list):
    pass


class _Dict(dict):
    pass


def test_dumps_canonical_writes_subclasses_as_json_does():
    # scalars are looked up by exact type; subclasses take the isinstance path
    document = _Dict(
        a=_List([_Str("x"), _Int(5), _Label.THREE, True, None, _List(), _Dict()]),
        b=OrderedDict(z=_List([_Dict(n=_Int(-7)), [_Str("\u00e9")]])),
        c=[_Dict(), _List([1, False])],
    )
    expected = json.dumps(document, indent=2, ensure_ascii=True) + "\n"
    assert dumps_canonical(document) == expected
    assert _written(document) == expected
    assert _written(_lists_as_iterators(document)) == expected


@pytest.mark.parametrize("document", [
    {"x": 1.5},
    [{"n": 1}, {"n": 0.5}],
    {"s": {1, 2}},
    {1: "int key"},
    [{"a": 1, 2: "b"}],
    {"t": (1, 2)},
    # a dense section field must be a scalar; SubsetCounts.subset is a tuple
    {"per_subset": DenseSection(total_linked_parity(moment_curve(5, 2)), ("subset",))},
])
def test_dumps_canonical_rejects_values_outside_json_documents(document):
    with pytest.raises(TypeError):
        dumps_canonical(document)
    with pytest.raises(TypeError):
        _written(document)


def test_a_refused_value_outside_any_iterator_is_refused_before_anything_is_written():
    # the whole text is made before a piece is written, even past an iterator
    buffer = io.StringIO()
    with pytest.raises(TypeError):
        write_canonical(buffer, {"rows": iter([1]), "bad": 1.5})
    assert buffer.getvalue() == ""
    # a dense section's tails are made with the text, so a refused field is too
    with pytest.raises(TypeError):
        write_canonical(buffer, {
            "per_subset": DenseSection(total_linked_parity(moment_curve(5, 2)), ("subset",)),
        })
    assert buffer.getvalue() == ""
