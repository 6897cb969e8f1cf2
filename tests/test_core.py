import math
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from treeclust import (
    Box,
    Clustering,
    CostKind,
    Cut,
    Dataset,
    LimitExceededError,
    box_members,
    canonical_thresholds,
    centroid,
    cluster_cost,
    cut_apply,
    exact_explain,
    solve_approx,
    solve_branching,
    solve_dp,
)
from treeclust.core import _prefix_masks, _splits


def _guarded_call(solver: str, size: str, value: int, force: bool) -> None:
    """Run solver on 12 points in 1 dimension (k = 2), except that size is value."""
    sizes = {"n": 12, "d": 1, "k": 2, size: value}
    n, d, k = sizes["n"], sizes["d"], sizes["k"]
    ds = Dataset(tuple((float(i),) * d for i in range(n)))
    if solver == "exact_explain":
        labels = tuple(1 if i < n // 2 else 2 for i in range(n))
        assert exact_explain(Clustering(ds, labels, 2), 0, force=force) is not None
    elif solver == "solve_approx":  # n' = 0 at these sizes: the exact fallback runs
        assert not any(solve_approx(ds, k, CostKind.MEANS, 0.5, force=force).rank_grid)
    else:
        solve = solve_branching if solver == "solve_branching" else solve_dp
        assert solve(ds, k, CostKind.MEANS, force=force).cost >= 0.0


# Every guard rail with its limit written out, so that this test pins the
# refused and accepted inputs whatever the limits' source says.
@pytest.mark.parametrize("solver, size, limit", [
    ("exact_explain", "n", 30),
    ("exact_explain", "d", 3),
    ("solve_branching", "k", 8),
    ("solve_dp", "n", 40),
    ("solve_dp", "d", 4),
    ("solve_approx", "k", 8),
])
def test_guard_rail_boundary(solver, size, limit):
    _guarded_call(solver, size, limit, force=False)
    with pytest.raises(LimitExceededError):
        _guarded_call(solver, size, limit + 1, force=False)
    _guarded_call(solver, size, limit + 1, force=True)


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
    masks = _prefix_masks(ds.points)
    assert masks == [[0b01010, 0b11010, 0b11111], [0b10011, 0b10111, 0b11111]]
    for dim, row in enumerate(masks):
        # one mask per distinct value, as canonical_thresholds lists them
        values = canonical_thresholds(ds, dim + 1)
        assert len(row) == len(values)
        for theta, m in zip(values, row):
            assert m == sum(1 << i for i, p in enumerate(ds.points) if p[dim] <= theta)
        assert all(a & ~b == 0 and a != b for a, b in zip(row, row[1:]))  # nested
        assert row[-1] == (1 << ds.n) - 1


def test_splits_leave_both_sides_nonempty():
    ds = Dataset.from_rows([[3, 0], [1, 0], [3, 2], [1, 5], [2, 0]])
    masks = _prefix_masks(ds.points)
    assert list(_splits(0b11111, masks)) == [
        (1, 0b01010, 0b01010), (1, 0b11010, 0b10000),
        (2, 0b10011, 0b10011), (2, 0b10111, 0b00100),
    ]
    # points 0, 2, 4: the cut at x1 <= 1 holds none of them, x1 <= 3 all
    assert list(_splits(0b10101, masks)) == [(1, 0b10000, 0b10000), (2, 0b10001, 0b10001)]
    for mask in range(1, 1 << ds.n):
        prev = {}
        for dim, left, new in _splits(mask, masks):
            assert 0 != left and left & mask == left != mask
            assert new == left & ~prev.get(dim, 0) and new
            prev[dim] = left


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


def test_median_centroid_is_median_low():
    rng = random.Random(11)
    for _ in range(200):
        n, d = rng.randint(1, 9), rng.randint(1, 3)
        pool = [0.0, -0.0, 1.0, -2.5, rng.random(), rng.randint(-3, 3)]
        pts = [tuple(rng.choice(pool) for _ in range(d)) for _ in range(n)]
        want = tuple(statistics.median_low([p[i] for p in pts]) for i in range(d))
        # repr tells 0.0 from -0.0 and 1 from 1.0
        assert repr(centroid(pts, CostKind.MEDIANS)) == repr(want)


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
