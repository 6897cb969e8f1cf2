"""Threshold trees: representation, evaluation, shape enumeration, validation.

A threshold tree is a full binary tree whose internal nodes each test one
coordinate against a threshold (<= goes left) and whose leaves carry
cluster labels. Shapes are unlabeled full binary trees, enumerated in a
fixed order: the left subtree's leaf count runs 1..k-1 ascending,
recursively.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .core import Cut, Dataset


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Internal:
    cut: Cut
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Internal]

# A shape is () for a single leaf or a (left, right) pair of shapes.
TreeShape = tuple


@dataclass(frozen=True)
class ThresholdTree:
    root: TreeNode

    @property
    def leaf_count(self) -> int:
        return len(self.leaf_labels())

    def leaf_labels(self) -> list[int]:
        """Leaf labels in left-to-right order."""
        out: list[int] = []

        def walk(node: TreeNode) -> None:
            if isinstance(node, Leaf):
                out.append(node.label)
            else:
                walk(node.left)
                walk(node.right)

        walk(self.root)
        return out


def tree_evaluate(tree: ThresholdTree, ds: Dataset) -> dict[int, tuple[int, ...]]:
    """Route every point from the root; returns label -> ids per leaf.

    Empty leaves are reported with an empty id tuple, not dropped.
    """
    result: dict[int, tuple[int, ...]] = {}

    def walk(node: TreeNode, ids: list[int]) -> None:
        if isinstance(node, Leaf):
            result[node.label] = tuple(ids)
            return
        left = [i for i in ids if node.cut.goes_left(ds.points[i])]
        right = [i for i in ids if not node.cut.goes_left(ds.points[i])]
        walk(node.left, left)
        walk(node.right, right)

    walk(tree.root, list(range(ds.n)))
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

    def walk(node: TreeNode) -> None:
        if isinstance(node, Leaf):
            return
        if not 1 <= node.cut.dim <= d:
            violations.append(f"cut dimension {node.cut.dim} out of range 1..{d}")
        walk(node.left)
        walk(node.right)

    walk(tree.root)
    return violations
