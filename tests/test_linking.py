"""Linking counts, parity reports, counterexample verification, existence."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linkparity.combinatorics import (
    alternating_count_bruteforce,
    combinations_colex,
    enumerate_disjoint_pairs,
)
from linkparity import configuration
from linkparity.configuration import (
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
    boundary_intersection_count,
    counterexample_document,
    dumps_canonical,
    find_intersecting_pair,
    intersecting_pairs,
    is_linked,
    link_report_document,
    total_linked_parity,
    verify_counterexample,
)
from oracles import planar_boundary_crossings


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
    with pytest.raises(ContractError):
        total_linked_parity(moment_curve(6, 2))
    with pytest.raises(ContractError):
        total_linked_parity(moment_curve(6, 3))


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


def test_radon_table_matches_per_face_solves():
    for config in _table_oracle_cases():
        report = total_linked_parity(config)
        for row in report.per_subset:
            expected = _per_face_reference(config, row.subset)
            case = (config.provenance.describe(), row.subset)
            assert [(hit.face, hit.point) for hit in row.hits] == expected, case
            assert row.n3 == len(expected), case
            assert row.n1 == len({point for _, point in expected}), case
        assert list(intersecting_pairs(config)) == _per_pair_reference(config), \
            config.provenance.describe()


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
            (row.subset, hit.face, hit.witness(row.subset))
            for row in total_linked_parity(config).per_subset
            for hit in row.hits
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
        assert row.n4 == alternating_count_bruteforce(row.subset, report.n), row.subset


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


def test_find_intersecting_pair_all_flag():
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
    row = doc["per_subset"][0]
    assert set(row) == {"I", "n1", "n3", "n4", "even"}
    # canonical serialization is valid JSON and stable
    text = dumps_canonical(doc)
    assert json.loads(text) == doc
    assert text == dumps_canonical(doc)


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


@given(_DOCUMENTS)
@example([{"a": 1, "b": 2}, {"b": 2, "a": 1}])
@example([{"%": 1, "x%sy": True, "%(a)s": None}])
@example([{"n": 1}, {"n": True}, {"n": 0}])
@example([{"I": [1, 2]}, {"I": []}, {"I": [True, 3]}])
@example([{}, {}])
@example([{"a": 1}, ["a"]])
@example({"big": -(10**300), "empty_dict": {}, "empty_list": [], "\u00e9\n\"": "\u2603"})
@settings(max_examples=300, deadline=None)
def test_dumps_canonical_equals_json_indent_2(document):
    # json's indent path is the oracle for every byte of the layout
    assert dumps_canonical(document) == json.dumps(document, indent=2, ensure_ascii=True) + "\n"


@pytest.mark.parametrize("document", [
    {"x": 1.5},
    [{"n": 1}, {"n": 0.5}],
    {"s": {1, 2}},
    {1: "int key"},
    [{"a": 1, 2: "b"}],
    {"t": (1, 2)},
])
def test_dumps_canonical_rejects_values_outside_json_documents(document):
    with pytest.raises(TypeError):
        dumps_canonical(document)
