"""Independent brute-force reference solvers for small instances.

These deliberately re-derive cut routing from first principles instead of
calling the production solvers, so agreement between the two is evidence
rather than tautology. Hard input limits fail loudly.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from .core import CostKind, Cut, Dataset, LimitExceededError, Point, cluster_cost
from .explanation import Clustering
from .tree import (
    Internal,
    Leaf,
    ThresholdTree,
    TreeNode,
    enumerate_shapes,
    tree_from_shape,
)
from .explainable import ExplainableResult

BRUTE_EXPLAINABLE_MAX = {"n": 10, "d": 2, "k": 4}
BRUTE_EXPLANATION_MAX = {"n": 12, "s": 4, "k": 3}
BRUTE_UNCONSTRAINED_MAX_N = 8


def _leaves_of(node: TreeNode, ids: list[int], pts: Sequence[Point]) -> list[list[int]]:
    if isinstance(node, Leaf):
        return [ids]
    left = [i for i in ids if pts[i][node.cut.dim - 1] <= node.cut.theta]
    right = [i for i in ids if pts[i][node.cut.dim - 1] > node.cut.theta]
    return _leaves_of(node.left, left, pts) + _leaves_of(node.right, right, pts)


def brute_explainable(ds: Dataset, k: int, kind: CostKind) -> ExplainableResult:
    """Exhaustive minimum over every shape and canonical cut assignment."""
    if ds.n > BRUTE_EXPLAINABLE_MAX["n"] or ds.d > BRUTE_EXPLAINABLE_MAX["d"] or k > BRUTE_EXPLAINABLE_MAX["k"]:
        raise LimitExceededError("brute_explainable limits: n <= 10, d <= 2, k <= 4")
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    pts = ds.points
    cut_options = [
        Cut(dim, theta)
        for dim in range(1, ds.d + 1)
        for theta in sorted({p[dim - 1] for p in pts})
    ]
    best: tuple[float, ThresholdTree] | None = None
    all_ids = list(range(ds.n))
    for shape in enumerate_shapes(k):
        for cuts in itertools.product(cut_options, repeat=k - 1):
            tree = tree_from_shape(shape, cuts, range(1, k + 1))
            leaves = _leaves_of(tree.root, all_ids, pts)
            if any(not leaf for leaf in leaves):
                continue
            cost = sum(cluster_cost([pts[i] for i in leaf], kind) for leaf in leaves)
            if best is None or cost < best[0]:
                best = (cost, tree)
    if best is None:
        raise ValueError("no explainable k-clustering exists for this input")
    cost, tree = best
    clusters = {
        lab: tuple(ids)
        for lab, ids in zip(range(1, k + 1), _leaves_of(tree.root, all_ids, pts))
    }
    return ExplainableResult(tree, clusters, cost, kind)


def _separable(
    pts: Sequence[Point], labels: Sequence[int], ids: list[int]
) -> TreeNode | None:
    """A canonical tree whose leaves are exactly the nonempty clusters among
    ids, or None. Exhaustive over non-splitting canonical cuts."""
    present = sorted({labels[i] for i in ids})
    if len(present) == 1:
        return Leaf(present[0])
    d = len(pts[0])
    for dim in range(1, d + 1):
        for theta in sorted({pts[i][dim - 1] for i in ids}):
            left = [i for i in ids if pts[i][dim - 1] <= theta]
            right = [i for i in ids if pts[i][dim - 1] > theta]
            if not left or not right:
                continue
            llabs = {labels[i] for i in left}
            rlabs = {labels[i] for i in right}
            if llabs & rlabs:
                continue  # some cluster is split by this cut
            nl = _separable(pts, labels, left)
            if nl is None:
                continue
            nr = _separable(pts, labels, right)
            if nr is None:
                continue
            return Internal(Cut(dim, theta), nl, nr)
    return None


def brute_explanation(
    cl: Clustering, s: int
) -> tuple[frozenset[int], ThresholdTree] | None:
    """Smallest removal set of size <= s whose survivors are explainable,
    with a witness tree; None if no such set exists."""
    n = cl.ds.n
    if n > BRUTE_EXPLANATION_MAX["n"] or s > BRUTE_EXPLANATION_MAX["s"] or cl.k > BRUTE_EXPLANATION_MAX["k"]:
        raise LimitExceededError("brute_explanation limits: n <= 12, s <= 4, k <= 3")
    if s < 0:
        raise ValueError("removal budget must be nonnegative")
    pts = cl.ds.points
    for size in range(0, s + 1):
        for removal in itertools.combinations(range(n), size):
            survivors = [i for i in range(n) if i not in removal]
            if not survivors:
                continue
            node = _separable(pts, cl.labels, survivors)
            if node is not None:
                return frozenset(removal), ThresholdTree(node)
    return None


def brute_unconstrained(ds: Dataset, k: int, kind: CostKind) -> float:
    """Minimum cost over every partition into k nonempty clusters."""
    if ds.n > BRUTE_UNCONSTRAINED_MAX_N:
        raise LimitExceededError("brute_unconstrained limit: n <= 8")
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    pts = ds.points
    best = float("inf")

    def extend(i: int, parts: list[list[int]]) -> None:
        nonlocal best
        if i == ds.n:
            if len(parts) == k:
                cost = sum(cluster_cost([pts[j] for j in part], kind) for part in parts)
                best = min(best, cost)
            return
        # restricted-growth enumeration: point i joins an existing part or
        # opens a new one
        for part in parts:
            part.append(i)
            extend(i + 1, parts)
            part.pop()
        if len(parts) < k:
            parts.append([i])
            extend(i + 1, parts)
            parts.pop()

    extend(0, [])
    return best
