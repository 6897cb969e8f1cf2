import copy
import math
import pickle
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from treeclust import (
    ApproxResult,
    Box,
    Clustering,
    CostKind,
    Cut,
    Dataset,
    ExplainableResult,
    ExplanationResult,
    Internal,
    Leaf,
    LimitExceededError,
    LloydResult,
    ThresholdTree,
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


_DS = Dataset(((0.0, 1.0), (2.0, 3.0)))
_DS_TEXT = "Dataset(points=((0.0, 1.0), (2.0, 3.0)))"
_NODE = Internal(Cut(1, 0.5), Leaf(1), Leaf(2))
_NODE_TEXT = "Internal(cut=Cut(dim=1, theta=0.5), left=Leaf(label=1), right=Leaf(label=2))"
_TREE = ThresholdTree(_NODE)
_TREE_TEXT = f"ThresholdTree(root={_NODE_TEXT})"

# Every public record type: its fields in order, one valid set of arguments
# and its repr, and, where the constructor validates, arguments it rejects
# with their message.
RECORDS = [
    (Dataset, ("points",), (_DS.points,), _DS_TEXT,
     ((),), "dataset must contain at least one point"),
    (Cut, ("dim", "theta"), (1, 0.5), "Cut(dim=1, theta=0.5)",
     (0, 0.5), "cut dimension must be >= 1"),
    (Box, ("a", "b"), ((0.0,), (1.0,)), "Box(a=(0.0,), b=(1.0,))",
     ((1.0,), (0.0,)), "box requires a[i] < b[i] in every dimension"),
    (Leaf, ("label",), (1,), "Leaf(label=1)", None, None),
    (Internal, ("cut", "left", "right"), (_NODE.cut, _NODE.left, _NODE.right), _NODE_TEXT,
     None, None),
    (ThresholdTree, ("root",), (_NODE,), _TREE_TEXT, None, None),
    (Clustering, ("ds", "labels", "k"), (_DS, (1, 2), 2),
     f"Clustering(ds={_DS_TEXT}, labels=(1, 2), k=2)",
     (_DS, (1, 1), 2), "empty input cluster(s): [2]"),
    (ExplanationResult, ("removed", "tree"), (frozenset({1}), _TREE),
     f"ExplanationResult(removed=frozenset({{1}}), tree={_TREE_TEXT})", None, None),
    (ExplainableResult, ("tree", "clusters", "cost", "kind"),
     (_TREE, {1: (0,), 2: (1,)}, 0.0, CostKind.MEANS),
     f"ExplainableResult(tree={_TREE_TEXT}, clusters={{1: (0,), 2: (1,)}}, cost=0.0, "
     "kind=<CostKind.MEANS: 'means'>)", None, None),
    (ApproxResult, ("kept", "removed", "tree", "cost", "epsilon", "rank_grid"),
     (frozenset({0, 1}), frozenset(), _TREE, 0.0, 0.5, ((0.5,), ())),
     f"ApproxResult(kept=frozenset({{0, 1}}), removed=frozenset(), tree={_TREE_TEXT}, "
     "cost=0.0, epsilon=0.5, rank_grid=((0.5,), ()))", None, None),
    (LloydResult, ("centers", "labels", "cost"), (((1.0, 2.0),), (1, 1), 4.0),
     "LloydResult(centers=((1.0, 2.0),), labels=(1, 1), cost=4.0)", None, None),
]


@pytest.mark.parametrize(
    "cls, fields, args, text, bad, message", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_record_behaves_as_a_frozen_dataclass(cls, fields, args, text, bad, message):
    rec = cls(*args)
    assert rec == cls(**dict(zip(fields, args)))
    assert tuple(getattr(rec, f) for f in fields) == args
    assert cls.__match_args__ == fields
    if bad is not None:
        for call in (lambda: cls(*bad), lambda: cls(**dict(zip(fields, bad)))):
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == message
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    assert tuple(getattr(rec, f) for f in fields) == args

    class Twin(cls):
        __slots__ = ()

    assert rec != Twin(*args) and Twin(*args) != rec  # equal only within a class
    assert rec != args
    assert repr(rec) == text
    if any(isinstance(a, dict) for a in args):  # a dict field makes the record unhashable
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(args)
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(twin) is cls and twin == rec


def test_records_carry_no_instance_dict():
    assert [cls.__name__ for cls, _, args, *_ in RECORDS if hasattr(cls(*args), "__dict__")] == []


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
