import math

import pytest
from hypothesis import given, strategies as st

from treeclust import (
    Box,
    CostKind,
    Cut,
    Dataset,
    box_members,
    canonical_thresholds,
    centroid,
    cluster_cost,
    cut_apply,
)
from treeclust.core import _prefix_masks


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(())
    with pytest.raises(ValueError):
        Dataset(((0.0,), (0.0, 1.0)))
    with pytest.raises(ValueError):
        Dataset(((math.nan,),))
    ds = Dataset.from_rows([[0, 1], [2, 3]])
    assert ds.n == 2 and ds.d == 2
    assert ds.points[1] == (2.0, 3.0)


def test_cut_routing():
    cut = Cut(2, 1.5)
    assert cut.goes_left((9.0, 1.5))
    assert not cut.goes_left((0.0, 1.6))
    with pytest.raises(ValueError):
        Cut(0, 0.0)
    left, right = cut_apply([(0.0, 1.0), (0.0, 2.0)], cut)
    assert left == [(0.0, 1.0)] and right == [(0.0, 2.0)]


def test_canonical_thresholds_sorted_distinct():
    ds = Dataset.from_rows([[3, 0], [1, 0], [3, 2]])
    assert canonical_thresholds(ds, 1) == [1.0, 3.0]
    assert canonical_thresholds(ds, 2) == [0.0, 2.0]
    with pytest.raises(ValueError):
        canonical_thresholds(ds, 3)


def test_prefix_masks_on_duplicate_coordinates():
    ds = Dataset.from_rows([[3, 0], [1, 0], [3, 2], [1, 5], [2, 0]])
    coords, masks = _prefix_masks(ds.points)
    # one entry per distinct value, as canonical_thresholds lists them
    assert coords == [canonical_thresholds(ds, 1), canonical_thresholds(ds, 2)]
    assert masks == [[0b01010, 0b11010, 0b11111], [0b10011, 0b10111, 0b11111]]
    for dim, (values, row) in enumerate(zip(coords, masks)):
        for theta, m in zip(values, row):
            assert m == sum(1 << i for i, p in enumerate(ds.points) if p[dim] <= theta)
        assert all(a & ~b == 0 and a != b for a, b in zip(row, row[1:]))  # nested
        assert row[-1] == (1 << ds.n) - 1


def test_means_cost_and_centroid():
    pts = [(0.0,), (1.0,), (10.0,), (11.0,)]
    assert cluster_cost(pts[:2], CostKind.MEANS) == pytest.approx(0.5)
    assert centroid(pts[:2], CostKind.MEANS) == (0.5,)
    assert cluster_cost(pts, CostKind.MEANS) == pytest.approx(sum((x - 5.5) ** 2 for (x,) in pts))


def test_medians_cost_uses_lower_median():
    pts = [(0.0,), (4.0,), (5.0,)]
    # median 4 -> |0-4| + 0 + |5-4| = 5
    assert cluster_cost(pts, CostKind.MEDIANS) == pytest.approx(5.0)
    # even count: lower median
    assert centroid([(1.0,), (2.0,)], CostKind.MEDIANS) == (1.0,)


def test_empty_cluster_cost_rejected():
    with pytest.raises(ValueError):
        cluster_cost([], CostKind.MEANS)
    with pytest.raises(ValueError):
        centroid([], CostKind.MEDIANS)


def test_box_membership_half_open():
    box = Box((0.0, -math.inf), (1.0, 0.0))
    assert not box.contains((0.0, -1.0))  # left edge excluded
    assert box.contains((1.0, 0.0))  # right edge included
    ds = Dataset.from_rows([[0, -1], [1, 0], [0.5, 0.5]])
    assert box_members(ds, box) == [1]
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=1, max_size=20
    )
)
def test_means_cost_nonnegative_and_zero_iff_constant(rows):
    pts = [(float(a), float(b)) for a, b in rows]
    c = cluster_cost(pts, CostKind.MEANS)
    assert c >= 0.0
    if len(set(pts)) == 1:
        assert c == 0.0


@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=20),
    st.integers(-50, 50),
)
def test_median_minimizes_l1(values, candidate):
    pts = [(float(v),) for v in values]
    best = cluster_cost(pts, CostKind.MEDIANS)
    alt = sum(abs(v - candidate) for v in values)
    assert best <= alt + 1e-12
