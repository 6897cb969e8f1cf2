"""Optimal and approximate explainable clustering.

Solvers for minimizing the means/medians cost over clusterings induced by
threshold trees with k nonempty leaves. The two exact solvers,
solve_branching (recursive branching search) and solve_dp (dynamic
program over point subsets), run one memoized split search keyed by
member bitmask and leaf quota, so they return the same tree; they differ
only in their guard rails. solve_approx is an outlier-tolerant grid
approximation that may drop up to an epsilon fraction of the points.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import (
    CostKind,
    Cut,
    Dataset,
    LimitExceededError,
    Point,
    _prefix_masks,
    centroid,
    cluster_cost,
)
from .tree import (
    Internal,
    Leaf,
    ThresholdTree,
    TreeNode,
    enumerate_shapes,
    shape_leaf_count,
    tree_evaluate,
)

BRANCH_MAX_K = 8
DP_MAX_N = 40
DP_MAX_D = 4

_INF = math.inf


@dataclass(frozen=True)
class ExplainableResult:
    tree: ThresholdTree
    clusters: dict[int, tuple[int, ...]]
    cost: float
    kind: CostKind


@dataclass(frozen=True)
class ApproxResult:
    kept: frozenset[int]
    removed: frozenset[int]
    tree: ThresholdTree
    cost: float
    epsilon: float
    rank_grid: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class LloydResult:
    centers: tuple[Point, ...]
    labels: tuple[int, ...]
    cost: float


def _relabel(node: TreeNode) -> TreeNode:
    """Assign leaf labels 1..k left to right (input leaves are placeholders)."""
    counter = [0]

    def walk(nd: TreeNode) -> TreeNode:
        if isinstance(nd, Leaf):
            counter[0] += 1
            return Leaf(counter[0])
        left = walk(nd.left)
        right = walk(nd.right)
        return Internal(nd.cut, left, right)

    return walk(node)


def _finish(node: TreeNode, ds: Dataset, cost: float, kind: CostKind) -> ExplainableResult:
    tree = ThresholdTree(_relabel(node))
    return ExplainableResult(tree, tree_evaluate(tree, ds), cost, kind)


def _split_search(ds: Dataset, k: int, kind: CostKind) -> tuple[float, TreeNode]:
    """Optimal k-leaf threshold tree by memoized split search.

    A state is a member bitmask plus a leaf quota s. Its cuts are, per
    dimension, every distinct member value except the largest, ascending;
    a cut's left side is the member mask ANDed with a prefix "<= theta"
    mask. The search tries s1 = 1..s-1, then dimensions, then cuts; it
    skips a cut whose left optimum already reaches the best total, and
    only a strictly better total replaces the incumbent, so ties go to
    the first cut in that order.
    """
    pts = ds.points
    _, prefix = _prefix_masks(pts)
    memo: dict[tuple[int, int], tuple[float, TreeNode | None]] = {}

    def solve(mask: int, s: int) -> tuple[float, TreeNode | None]:
        hit = memo.get((mask, s))
        if hit is not None:
            return hit
        if s == 1:
            ans = (cluster_cost([p for i, p in enumerate(pts) if mask >> i & 1], kind), Leaf(0))
            memo[(mask, s)] = ans
            return ans
        size = mask.bit_count()
        splits = []
        for dim, row in enumerate(prefix, start=1):
            prev = 0
            for upto in row:
                lmask = mask & upto
                if lmask == mask:
                    break
                if lmask != prev:
                    # theta comes from the lowest new member, as it would from
                    # a set of member values (this keeps the sign of a zero)
                    new = lmask ^ prev
                    theta = pts[(new & -new).bit_length() - 1][dim - 1]
                    splits.append((dim, theta, lmask, mask ^ lmask, lmask.bit_count()))
                    prev = lmask
        best = _INF
        best_node: TreeNode | None = None
        for s1 in range(1, s):
            s2 = s - s1
            for dim, theta, lmask, rmask, nl in splits:
                if nl < s1 or size - nl < s2:
                    continue
                cl, node_l = solve(lmask, s1)
                if cl >= best:
                    continue
                cr, node_r = solve(rmask, s2)
                total = cl + cr
                if total < best:
                    best = total
                    best_node = Internal(Cut(dim, theta), node_l, node_r)
        memo[(mask, s)] = (best, best_node)
        return best, best_node

    cost, node = solve((1 << ds.n) - 1, k)
    if node is None:
        raise ValueError("no explainable k-clustering: too few distinct points")
    return cost, node


def solve_branching(
    ds: Dataset, k: int, kind: CostKind, *, force: bool = False
) -> ExplainableResult:
    """Optimal explainable k-clustering by recursive cut-and-split search.

    Runs the same memoized search as solve_dp; the two differ only in their
    guard rails (this one limits k). Raises ValueError when the points have
    fewer than k distinct positions.
    """
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    if k > BRANCH_MAX_K and not force:
        raise LimitExceededError(
            f"branching solver limited to k <= {BRANCH_MAX_K} (use force to override)"
        )
    cost, node = _split_search(ds, k, kind)
    return _finish(node, ds, cost, kind)


def solve_dp(
    ds: Dataset, k: int, kind: CostKind, *, force: bool = False
) -> ExplainableResult:
    """Optimal explainable k-clustering by dynamic programming over point
    subsets (canonical boxes with equal membership merged).

    Runs the same memoized search as solve_branching and returns the same
    tree, ties included; the two differ only in their guard rails (this
    one limits n and d). Raises ValueError when the points have fewer than
    k distinct positions.
    """
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    if (ds.n > DP_MAX_N or ds.d > DP_MAX_D) and not force:
        raise LimitExceededError(
            f"dp solver limited to n <= {DP_MAX_N}, d <= {DP_MAX_D} (use force to override)"
        )
    cost, node = _split_search(ds, k, kind)
    return _finish(node, ds, cost, kind)


def _rank_grid(ds: Dataset, k: int, epsilon: float, nprime: int):
    """Per dimension: grid thresholds (i*n'-th order statistics) and the
    removal band (ids in rank positions i*n'+1 .. (i+1)*n') per grid line."""
    cap = math.ceil(2 * k / epsilon)
    count = min(ds.n // nprime, cap)
    thresholds: list[list[float]] = []
    bands: list[list[frozenset[int]]] = []
    for dim in range(ds.d):
        order = sorted(range(ds.n), key=lambda i: (ds.points[i][dim], i))
        dim_thetas: list[float] = []
        dim_bands: list[frozenset[int]] = []
        for i in range(1, count + 1):
            pos = i * nprime  # 1-based rank of the grid line
            dim_thetas.append(ds.points[order[pos - 1]][dim])
            dim_bands.append(frozenset(order[pos : pos + nprime]))
        thresholds.append(dim_thetas)
        bands.append(dim_bands)
    return thresholds, bands


def solve_approx(
    ds: Dataset, k: int, kind: CostKind, epsilon: float, *, force: bool = False
) -> ApproxResult:
    """Explainable clustering of all but at most an epsilon fraction of the
    points, using only cuts on a per-dimension rank grid; no worse than the
    optimal explainable cost of the full dataset."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    nprime = int(epsilon * ds.n / k)

    def exact_fallback() -> ApproxResult:
        # an empty rank grid in the result marks the exact branch
        res = solve_branching(ds, k, kind, force=force)
        return ApproxResult(
            kept=frozenset(range(ds.n)),
            removed=frozenset(),
            tree=res.tree,
            cost=res.cost,
            epsilon=epsilon,
            rank_grid=tuple(() for _ in range(ds.d)),
        )

    if nprime == 0:
        return exact_fallback()
    thresholds, bands = _rank_grid(ds, k, epsilon, nprime)
    grid_out = tuple(tuple(ts) for ts in thresholds)
    options = [
        (dim, i) for dim in range(1, ds.d + 1) for i in range(len(thresholds[dim - 1]))
    ]
    if not options:
        return exact_fallback()
    pts = ds.points
    best: tuple[float, TreeNode, frozenset[int]] | None = None

    def search(shape, ids: list[int], used: list[tuple[int, int]]):
        """Yield (node, leaf id lists) for every grid-cut assignment; `used`
        accumulates the chosen lines for band removal later."""
        if shape == ():
            yield Leaf(0), [ids], list(used)
            return
        for dim, gi in options:
            theta = thresholds[dim - 1][gi]
            left_ids = [i for i in ids if pts[i][dim - 1] <= theta]
            right_ids = [i for i in ids if pts[i][dim - 1] > theta]
            for nl, leaves_l, used_l in search(shape[0], left_ids, used + [(dim, gi)]):
                for nr, leaves_r, used_r in search(shape[1], right_ids, used_l):
                    yield Internal(Cut(dim, theta), nl, nr), leaves_l + leaves_r, used_r

    all_ids = list(range(ds.n))
    for shape in enumerate_shapes(k):
        assert shape_leaf_count(shape) == k
        for node, leaves, used in search(shape, all_ids, []):
            removed: set[int] = set()
            for dim, gi in used:
                removed |= bands[dim - 1][gi]
            leaves = [[i for i in leaf if i not in removed] for leaf in leaves]
            if any(not leaf for leaf in leaves):
                continue
            cost = sum(cluster_cost([pts[i] for i in leaf], kind) for leaf in leaves)
            if best is None or cost < best[0]:
                best = (cost, node, frozenset(removed))
    if best is None:
        return exact_fallback()
    cost, node, removed = best
    return ApproxResult(
        kept=frozenset(all_ids) - removed,
        removed=removed,
        tree=ThresholdTree(_relabel(node)),
        cost=cost,
        epsilon=epsilon,
        rank_grid=grid_out,
    )


def lloyd_baseline(
    ds: Dataset, k: int, kind: CostKind, seed: int, iters: int = 50
) -> LloydResult:
    """Seeded Lloyd-style local search without the tree constraint; the
    reference point for the price of explainability."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    rng = random.Random(seed)
    centers = [ds.points[i] for i in rng.sample(range(ds.n), k)]
    pts = ds.points

    def dist(p: Point, c: Point) -> float:
        if kind is CostKind.MEANS:
            return sum((a - b) ** 2 for a, b in zip(p, c))
        return sum(abs(a - b) for a, b in zip(p, c))

    labels = [0] * ds.n
    for _ in range(iters):
        new_labels = [
            min(range(k), key=lambda j: (dist(p, centers[j]), j)) + 1 for p in pts
        ]
        if new_labels == labels:
            break
        labels = new_labels
        for j in range(1, k + 1):
            members = [pts[i] for i in range(ds.n) if labels[i] == j]
            if members:
                centers[j - 1] = centroid(members, kind)
    cost = 0.0
    for j in range(1, k + 1):
        members = [pts[i] for i in range(ds.n) if labels[i] == j]
        if members:
            cost += cluster_cost(members, kind)
    return LloydResult(tuple(centers), tuple(labels), cost)
