import pytest

from treeclust import (
    Cut,
    Dataset,
    Internal,
    Leaf,
    ThresholdTree,
    enumerate_shapes,
    shape_leaf_count,
    tree_evaluate,
    tree_from_shape,
    validate_tree,
)
from helpers import chain_tree

DEEP = 5000

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def two_leaf_tree(theta=0.5):
    return ThresholdTree(Internal(Cut(1, theta), Leaf(1), Leaf(2)))


def test_leaf_labels_left_to_right():
    t = ThresholdTree(
        Internal(Cut(1, 0.0), Internal(Cut(2, 0.0), Leaf(3), Leaf(1)), Leaf(2))
    )
    assert t.leaf_labels() == [3, 1, 2]
    assert t.leaf_count == 3


def test_evaluate_routes_and_reports_empty_leaves():
    ds = Dataset.from_rows([[0], [1], [2]])
    t = two_leaf_tree(theta=5.0)  # everything goes left
    ev = tree_evaluate(t, ds)
    assert ev == {1: (0, 1, 2), 2: ()}


def test_evaluate_boundary_goes_left():
    ds = Dataset.from_rows([[0.5], [0.6]])
    ev = tree_evaluate(two_leaf_tree(0.5), ds)
    assert ev == {1: (0,), 2: (1,)}


@pytest.mark.parametrize("k", range(1, 11))
def test_shape_counts_are_catalan(k):
    shapes = list(enumerate_shapes(k))
    assert len(shapes) == CATALAN[k - 1]
    assert all(shape_leaf_count(s) == k for s in shapes)
    assert len(set(shapes)) == len(shapes)


def test_enumerate_shapes_order_is_deterministic():
    assert list(enumerate_shapes(3)) == [((), ((), ())), (((), ()), ())]


def test_tree_from_shape_round_trip():
    shape = (((), ()), ())
    cuts = [Cut(1, 0.0), Cut(2, 1.0)]
    t = tree_from_shape(shape, cuts, [1, 2, 3])
    assert t.leaf_labels() == [1, 2, 3]
    assert isinstance(t.root, Internal)
    assert t.root.cut == cuts[0]


def test_validate_tree_flags_problems():
    ds_dims = 2
    ok = two_leaf_tree()
    assert validate_tree(ok, ds_dims, 2) == []
    wrong_k = validate_tree(ok, ds_dims, 3)
    assert any("leaves" in v for v in wrong_k)
    dup = ThresholdTree(Internal(Cut(1, 0.0), Leaf(1), Leaf(1)))
    assert any("duplicate" in v for v in validate_tree(dup, ds_dims, 2))
    bad_dim = ThresholdTree(Internal(Cut(5, 0.0), Leaf(1), Leaf(2)))
    assert any("dimension" in v for v in validate_tree(bad_dim, ds_dims, 2))
    not_perm = ThresholdTree(Internal(Cut(1, 0.0), Leaf(1), Leaf(3)))
    assert any("permutation" in v for v in validate_tree(not_perm, ds_dims, 2))


@pytest.fixture(scope="module")
def deep_tree():
    return chain_tree(DEEP)


def test_leaf_labels_at_any_depth(deep_tree):
    assert deep_tree.leaf_labels() == list(range(1, DEEP + 1))
    assert deep_tree.leaf_count == DEEP


def test_evaluate_at_any_depth(deep_tree):
    ds = Dataset.from_rows([[1], [2500], [DEEP]])
    ev = tree_evaluate(deep_tree, ds)
    assert list(ev) == list(range(1, DEEP + 1))
    assert (ev[1], ev[2500], ev[DEEP]) == ((0,), (1,), (2,))
    assert sum(map(len, ev.values())) == 3


def test_validate_at_any_depth(deep_tree):
    assert validate_tree(deep_tree, 1, DEEP) == []
    # every cut is reported, in preorder
    assert validate_tree(deep_tree, 0, DEEP) == ["cut dimension 1 out of range 1..0"] * (DEEP - 1)
