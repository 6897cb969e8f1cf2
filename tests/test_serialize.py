import json
import re

import pytest

from treeclust import (
    CostKind,
    Cut,
    Dataset,
    Internal,
    Leaf,
    ThresholdTree,
    solve_dp,
    tree_from_json_obj,
    tree_to_dot,
    tree_to_json_obj,
)
from helpers import chain_tree


def sample_tree():
    return ThresholdTree(
        Internal(Cut(1, 2.5), Leaf(1), Internal(Cut(2, -1.0), Leaf(2), Leaf(3)))
    )


def test_json_round_trip():
    tree = sample_tree()
    obj = tree_to_json_obj(tree)
    assert obj["k"] == 3
    assert obj["tree"]["dim"] == 1 and obj["tree"]["theta"] == 2.5
    assert tree_from_json_obj(obj) == tree
    # survives an actual serialize/parse cycle
    assert tree_from_json_obj(json.loads(json.dumps(obj))) == tree


def test_leaf_only_tree():
    tree = ThresholdTree(Leaf(1))
    obj = tree_to_json_obj(tree)
    assert obj == {"k": 1, "tree": {"leaf": 1}}
    assert tree_from_json_obj(obj) == tree


def test_malformed_json_rejected():
    with pytest.raises(ValueError):
        tree_from_json_obj({"tree": {"leaf": 1}})
    with pytest.raises(ValueError):
        tree_from_json_obj({"k": 2, "tree": {"dim": 1}})
    with pytest.raises(ValueError):
        tree_from_json_obj({"k": 2, "tree": {"leaf": 1}})  # k mismatch
    # wrong types raise ValueError, not TypeError, and fractions are not
    # truncated to an integer field
    leaves = {"left": {"leaf": 1}, "right": {"leaf": 2}}
    for obj in (
        {"k": [1], "tree": {"leaf": 1}},
        {"k": 1, "tree": {"leaf": [1]}},
        {"k": 2, "tree": {"dim": 1, "theta": None, **leaves}},
        {"k": 1, "tree": {"leaf": 1.9}},
        {"k": 2, "tree": {"dim": 1.5, "theta": 0.0, **leaves}},
        {"k": 1.5, "tree": {"leaf": 1}},
        # a repeated leaf label would merge two leaves' points into one cluster
        {"k": 2, "tree": {"dim": 1, "theta": 0.5, "left": {"leaf": 1}, "right": {"leaf": 1}}},
    ):
        with pytest.raises(ValueError):
            tree_from_json_obj(obj)
    assert tree_from_json_obj({"k": 1.0, "tree": {"leaf": 2.0}}) == ThresholdTree(Leaf(2))


def test_decoder_reports_the_first_fault_in_preorder():
    # a node's own fields, then its left subtree, then its right, then k
    cases = [
        ({"dim": "a", "theta": "b", "left": 5, "right": 5}, "dim must be an integer"),
        ({"dim": 1, "theta": "b", "left": 5, "right": 5}, "theta must be a number"),
        ({"dim": 1, "theta": 0.0, "left": 5, "right": {"dim": 1}}, "must be a JSON object"),
        ({"dim": 1, "theta": 0.0, "left": {"dim": 1}, "right": 5}, "missing field 'theta'"),
        ({"dim": 1, "theta": 0.0, "left": {"leaf": 1}, "right": {"leaf": 1.5}}, "leaf must be"),
        ({"dim": 1, "theta": 0.0, "left": {"leaf": 1}, "right": {"leaf": 1}}, "more than once"),
        ({"dim": 1, "theta": 0.0, "left": {"leaf": 1}, "right": {"leaf": 2}}, "k must be"),
    ]
    for tree, message in cases:
        with pytest.raises(ValueError, match=message):
            tree_from_json_obj({"k": "x", "tree": tree})


def test_json_booleans_rejected():
    # JSON true/false are not the numbers 1/0 in any numeric field
    leaves = {"left": {"leaf": 1}, "right": {"leaf": 2}}
    for obj in (
        {"k": True, "tree": {"leaf": True}},
        {"k": True, "tree": {"leaf": 1}},
        {"k": 1, "tree": {"leaf": True}},
        {"k": 2, "tree": {"dim": True, "theta": 0.0, **leaves}},
        {"k": 2, "tree": {"dim": 1, "theta": False, **leaves}},
        {"k": 2, "tree": {"dim": 1, "theta": True, **leaves}},
    ):
        with pytest.raises(ValueError, match="must be"):
            tree_from_json_obj(obj)


@pytest.mark.parametrize("theta", ["nan", "inf", "-inf", float("nan")])
def test_non_finite_threshold_rejected(theta):
    # a NaN cut would send every point right without an error
    obj = {"k": 2, "tree": {"dim": 1, "theta": theta, "left": {"leaf": 1}, "right": {"leaf": 2}}}
    with pytest.raises(ValueError, match="threshold must be finite"):
        tree_from_json_obj(obj)


def test_dot_output():
    dot = tree_to_dot(sample_tree(), sizes={1: 4, 2: 2, 3: 1})
    assert dot.startswith("digraph tree {")
    assert 'x[1] <= 2.5' in dot
    assert 'cluster 1\\nsize=4' in dot
    assert dot.count("->") == 4


def test_dot_labels_keep_every_threshold_digit():
    # cuts 0.1234562 and 0.1234565 both read 0.123456 at six significant digits
    ds = Dataset.from_rows([(0.1234561,), (0.1234562,), (0.1234564,), (0.1234565,), (0.9,)])
    tree = solve_dp(ds, 3, CostKind.MEANS).tree
    thetas = []
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            thetas.append(node.cut.theta)
            stack += [node.right, node.left]
    labels = re.findall(r'label="x\[1\] <= ([^"]+)"', tree_to_dot(tree))
    assert [float(x) for x in labels] == thetas == [0.1234562, 0.1234565]


def test_deep_tree_dot_and_json_round_trip():
    # 4,999 levels: past the recursion limit, so every walk keeps a stack
    k = 5000
    tree = chain_tree(k)
    nodes, edges = [], []
    for j in range(1, k):
        nodes += [f'  n{2 * j - 2} [label="x[1] <= {float(j)!r}"];',
                  f'  n{2 * j - 1} [label="cluster {j}", shape=ellipse];']
    nodes.append(f'  n{2 * k - 2} [label="cluster {k}", shape=ellipse];')
    for j in range(k - 1, 0, -1):  # each node's edges once its right subtree is done
        edges += [f'  n{2 * j - 2} -> n{2 * j - 1} [label="yes"];',
                  f'  n{2 * j - 2} -> n{2 * j} [label="no"];']
    dot = tree_to_dot(tree)
    assert dot == "\n".join(["digraph tree {", "  node [shape=box];", *nodes, *edges, "}"]) + "\n"
    # trees this deep are compared by DOT text: a record's == recurses
    obj = tree_to_json_obj(tree)
    assert obj["k"] == k
    back = tree_from_json_obj(obj)
    assert back.leaf_labels() == list(range(1, k + 1))
    assert tree_to_dot(back) == dot
