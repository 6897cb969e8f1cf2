"""Threshold trees: representation, evaluation, shape enumeration, validation.

A threshold tree is a full binary tree whose internal nodes each test one
coordinate against a threshold (<= goes left) and whose leaves carry
cluster labels. Every walk over a tree runs through ``_walk``, on an
explicit stack, so any depth works (k clusters can need k - 1 levels).
Shapes are unlabeled full binary trees, enumerated in a fixed order: the
left subtree's leaf count runs 1..k-1 ascending, recursively.
"""
from __future__ import annotations

from typing import Iterator, Sequence, Union

from .core import Cut, Dataset, _Record, _set


class Leaf(_Record):
    __slots__ = ("label",)
    label: int

    def __init__(self, label: int) -> None:
        _set(self, "label", label)


class Internal(_Record):
    __slots__ = ("cut", "left", "right")
    cut: Cut
    left: "TreeNode"
    right: "TreeNode"

    def __init__(self, cut: Cut, left: "TreeNode", right: "TreeNode") -> None:
        _set(self, "cut", cut)
        _set(self, "left", left)
        _set(self, "right", right)


TreeNode = Union[Leaf, Internal]


def _walk(root: TreeNode) -> Iterator[tuple[TreeNode, bool]]:
    """Each node in preorder as (node, True), and each internal node again
    as (node, False) once its right subtree is done; no recursion."""
    stack: list[tuple[TreeNode, bool]] = [(root, True)]
    while stack:
        node, enter = stack.pop()
        yield node, enter
        if enter and isinstance(node, Internal):
            stack += ((node, False), (node.right, True), (node.left, True))


# A shape is () for a single leaf or a (left, right) pair of shapes.
TreeShape = tuple


class ThresholdTree(_Record):
    __slots__ = ("root",)
    root: TreeNode

    def __init__(self, root: TreeNode) -> None:
        _set(self, "root", root)

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_labels())

    def leaf_labels(self) -> list[int]:
        """Leaf labels in left-to-right order."""
        return [node.label for node, _ in _walk(self.root) if isinstance(node, Leaf)]


def tree_evaluate(tree: ThresholdTree, ds: Dataset) -> dict[int, tuple[int, ...]]:
    """Route every point from the root; returns label -> ids per leaf.

    Empty leaves are reported with an empty id tuple, not dropped.
    """
    result: dict[int, tuple[int, ...]] = {}
    parts = [list(range(ds.n))]  # id lists of the nodes still to enter, the next last
    for node, enter in _walk(tree.root):
        if not enter:
            continue
        ids = parts.pop()
        if isinstance(node, Leaf):
            result[node.label] = tuple(ids)
        else:
            left = [i for i in ids if node.cut.goes_left(ds.points[i])]
            right = [i for i in ids if not node.cut.goes_left(ds.points[i])]
            parts += (right, left)
    return result


def enumerate_shapes(k: int) -> Iterator[TreeShape]:
    """All full-binary shapes with k leaves, in deterministic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        yield ()
        return
    for k1 in range(1, k):
        for left in enumerate_shapes(k1):
            for right in enumerate_shapes(k - k1):
                yield (left, right)


def shape_leaf_count(shape: TreeShape) -> int:
    if shape == ():
        return 1
    return shape_leaf_count(shape[0]) + shape_leaf_count(shape[1])


def tree_from_shape(
    shape: TreeShape, cuts: Sequence[Cut], labels: Sequence[int]
) -> ThresholdTree:
    """Fill a shape with cuts (preorder over internal nodes) and leaf labels
    (left-to-right)."""
    cut_iter = iter(cuts)
    label_iter = iter(labels)

    def build(s: TreeShape) -> TreeNode:
        if s == ():
            return Leaf(next(label_iter))
        cut = next(cut_iter)
        return Internal(cut, build(s[0]), build(s[1]))

    return ThresholdTree(build(shape))


def validate_tree(tree: ThresholdTree, d: int, k: int) -> list[str]:
    """Structural checks; returns all violations found (empty list = ok)."""
    violations: list[str] = []
    labels = tree.leaf_labels()
    if len(labels) != k:
        violations.append(f"expected {k} leaves, found {len(labels)}")
    if len(set(labels)) != len(labels):
        violations.append("duplicate leaf label")
    elif set(labels) != set(range(1, len(labels) + 1)):
        violations.append("leaf labels are not a permutation of 1..k")
    violations += (
        f"cut dimension {node.cut.dim} out of range 1..{d}"
        for node, enter in _walk(tree.root)
        if enter and isinstance(node, Internal) and not 1 <= node.cut.dim <= d
    )
    return violations
