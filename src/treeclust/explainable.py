"""Optimal and approximate explainable clustering.

Solvers for minimizing the means/medians cost over clusterings induced by
threshold trees with k nonempty leaves. The two exact solvers,
solve_branching (recursive branching search) and solve_dp (dynamic
program over point subsets), run one memoized split search keyed by
member bitmask and leaf quota, so they return the same tree; they differ
only in their guard rails. A state with two leaves left prices its cuts
by one sorted sweep per dimension and direction. Every leaf cost is the
float nearest the exact cost (core._exact_cost), so a sweep's value is
the cost itself and trees and tie-breaks are those of pricing every leaf
with cluster_cost. solve_approx is an outlier-tolerant grid
approximation that may drop up to an epsilon fraction of the points. It
enumerates its grid trees on member bitmasks, prices each distinct leaf
once per call from a memo, sums leaves with math.fsum and skips a tree
whose already priced leaves cost at least the best total, so its result
is that of pricing every leaf of every tree.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from heapq import heappush, heapreplace
from itertools import accumulate, groupby
from operator import itemgetter

from .core import (
    CostKind,
    Cut,
    Dataset,
    LimitExceededError,
    Point,
    _exact_cost,
    _int_columns,
    _prefix_masks,
    _splits,
    centroid,
    cluster_cost,
)
from .tree import (
    Internal,
    Leaf,
    ThresholdTree,
    TreeNode,
    TreeShape,
    enumerate_shapes,
    shape_leaf_count,
    tree_evaluate,
    tree_from_shape,
)

BRANCH_MAX_K = 8
DP_MAX_N = 40
DP_MAX_D = 4

_INF = math.inf
_LEAF = Leaf(0)
# leaf costs a split search keeps before it drops them all and prices anew
_KNOWN_MAX = 1 << 16


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


class _LeafCosts:
    """Exactly rounded leaf costs (see core._exact_cost) of one dataset,
    kept per search in ``known`` (member mask -> cost), which is dropped
    whenever it holds more than _KNOWN_MAX costs. ``leaf`` prices one member
    set; ``sweep`` prices every side of one dimension's cuts of a state in
    one sorted pass, with exact int prefix sums."""

    def __init__(self, pts: tuple[Point, ...], kind: CostKind):
        n = len(pts)
        self.kind = kind
        self.n = n
        self.scale, self.cols = _int_columns(pts)
        self.squares = [sum(c * c for c in x) for x in zip(*self.cols)]
        self.order = [sorted(range(n), key=col.__getitem__) for col in self.cols]
        self.known: dict[int, float] = {}

    def leaf(self, mask: int) -> float:
        """The cost of the member set ``mask``, from the map if it is there."""
        cost = self.known.get(mask)
        if cost is None:
            if len(self.known) > _KNOWN_MAX:
                self.known.clear()
            cost = self.known[mask] = _exact_cost(
                self.cols, _members(mask, self.n), self.scale, self.kind)
        return cost

    def sweep(self, mask: int, dim: int, sizes: list[int], sides: list[int],
              forward: bool) -> None:
        """Store the cost of every side of one dimension's cuts of the state
        ``mask``: the left sides when ``forward``, in ascending cut order,
        else the right sides in descending order. ``sizes`` holds their
        member counts, which grow along the list."""
        flags = format(mask, f"0{self.n}b")[::-1]
        ids = [i for i in self.order[dim - 1] if flags[i] == "1"]
        if not forward:
            ids.reverse()
        if self.kind is CostKind.MEDIANS:
            nums = [0] * len(sizes)
            for j, col in enumerate(self.cols):
                vals = [col[i] for i in ids]
                if j == dim - 1:
                    _sorted_l1(vals, sizes, nums, 1 if forward else -1)
                else:
                    _running_l1(vals, sizes, nums)
            costs = [num / self.scale for num in nums]
        else:
            total = list(accumulate([self.squares[i] for i in ids], initial=0))
            nums = [m * total[m] for m in sizes]
            for col in self.cols:
                acc = list(accumulate([col[i] for i in ids], initial=0))
                nums = [num - acc[m] * acc[m] for num, m in zip(nums, sizes)]
            den = self.scale * self.scale
            costs = [num / (m * den) for num, m in zip(nums, sizes)]
        self.known.update(zip(sides, costs))


def _members(mask: int, n: int) -> list[int]:
    """The ids of ``mask``'s members, ascending, read off one bit string."""
    flags = format(mask, f"0{n}b")[::-1]
    return [i for i, f in enumerate(flags) if f == "1"]


def _sorted_l1(vals: list[int], sizes: list[int], nums: list[int], sign: int) -> None:
    """Add to nums[t] the L1 cost about the median of vals[:sizes[t]], where
    vals is sorted (descending when sign is -1): the top half's sum minus
    the bottom half's."""
    acc = list(accumulate(vals, initial=0))
    for t, m in enumerate(sizes):
        h = m >> 1
        nums[t] += sign * (acc[m] - acc[m - h] - acc[h])


def _running_l1(vals: list[int], sizes: list[int], nums: list[int]) -> None:
    """As _sorted_l1 for vals in any order: a max-heap ``lower`` (negated)
    keeps the ceil(m/2) smallest values and ``upper`` the rest."""
    lower: list[int] = []
    upper: list[int] = []
    low_sum = up_sum = 0
    even = True  # len(lower) == len(upper)
    start = 0
    for t, m in enumerate(sizes):
        for v in vals[start:m]:
            if even:
                if upper and v > upper[0]:
                    y = heapreplace(upper, v)
                    up_sum += v - y
                    v = y
                heappush(lower, -v)
                low_sum += v
            else:
                if v < -lower[0]:
                    y = -heapreplace(lower, -v)
                    low_sum += v - y
                    v = y
                heappush(upper, v)
                up_sum += v
            even = not even
        start = m
        # with m odd the lower median sits atop `lower`, outside both halves
        nums[t] += up_sum - low_sum - (lower[0] if m & 1 else 0)


def _split_search(ds: Dataset, k: int, kind: CostKind) -> tuple[float, TreeNode]:
    """Optimal k-leaf threshold tree by memoized split search.

    A state is a member bitmask plus a leaf quota s. Its cuts are those of
    ``core._splits``: per dimension, every distinct member value except the
    largest, ascending. The search tries s1 = 1..s-1, then dimensions,
    then cuts; it skips a cut whose left optimum already reaches the best
    total, and only a strictly better total replaces the incumbent, so
    ties go to the first cut in that order.

    Leaf costs are exactly rounded and kept in one map (``_LeafCosts``).
    A state with quota 2 prices all its cuts at once: per dimension a
    forward sweep prices every left side and a backward sweep every right
    side, each only when one of its sides is not in the map, and the state
    takes the first cut of least total, as the loop would. The map is
    dropped whenever it holds more than _KNOWN_MAX costs, which bounds its
    memory; a dropped side is priced again when a state needs it.
    """
    pts = ds.points
    prefix = _prefix_masks(pts)
    memo: dict[tuple[int, int], tuple[float, TreeNode | None]] = {}
    costs = _LeafCosts(pts, kind)
    known = costs.known

    def cut_node(dim: int, new: int, left: TreeNode, right: TreeNode) -> Internal:
        # theta comes from the lowest new member, as it would from a set of
        # member values (this keeps the sign of a zero)
        return Internal(Cut(dim, pts[(new & -new).bit_length() - 1][dim - 1]), left, right)

    def two_leaves(mask: int) -> tuple[float, TreeNode | None]:
        splits = list(_splits(mask, prefix))
        if len(known) > _KNOWN_MAX:
            known.clear()
        lefts = [known.get(lmask) for _, lmask, _ in splits]
        rights = [known.get(mask ^ lmask) for _, lmask, _ in splits]
        if None in lefts or None in rights:
            start = 0
            for dim, run in groupby(splits, key=itemgetter(0)):
                sides = [lmask for _, lmask, _ in run]
                end = start + len(sides)
                if None in lefts[start:end]:
                    costs.sweep(mask, dim, [m.bit_count() for m in sides], sides, True)
                if None in rights[start:end]:
                    sides = [mask ^ lmask for lmask in reversed(sides)]
                    costs.sweep(mask, dim, [m.bit_count() for m in sides], sides, False)
                start = end
            lefts = [known[lmask] for _, lmask, _ in splits]
            rights = [known[mask ^ lmask] for _, lmask, _ in splits]
        totals = [cl + cr for cl, cr in zip(lefts, rights)]
        best = min(totals, default=_INF)
        if best == _INF:
            # no cut, or every total overflows: the loop keeps no incumbent
            return best, None
        dim, _, new = splits[totals.index(best)]
        return best, cut_node(dim, new, _LEAF, _LEAF)

    def solve(mask: int, s: int) -> tuple[float, TreeNode | None]:
        if s == 1:
            return costs.leaf(mask), _LEAF
        hit = memo.get((mask, s))
        if hit is not None:
            return hit
        if s == 2:
            memo[(mask, s)] = ans = two_leaves(mask)
            return ans
        splits = [
            (dim, lmask, mask ^ lmask, lmask.bit_count(), new)
            for dim, lmask, new in _splits(mask, prefix)
        ]
        size = mask.bit_count()
        best = _INF
        best_node: TreeNode | None = None
        for s1 in range(1, s):
            s2 = s - s1
            for dim, lmask, rmask, nl, new in splits:
                if nl < s1 or size - nl < s2:
                    continue
                cl, node_l = solve(lmask, s1)
                if cl >= best:
                    continue
                cr, node_r = solve(rmask, s2)
                total = cl + cr
                if total < best:
                    best = total
                    best_node = cut_node(dim, new, node_l, node_r)
        memo[(mask, s)] = (best, best_node)
        return best, best_node

    try:
        cost, root = solve((1 << ds.n) - 1, k)
    finally:
        # solve refers to itself, so without this the maps would live until
        # the next cyclic garbage collection
        memo.clear()
        known.clear()
    if root is None:
        raise ValueError("no explainable k-clustering: too few distinct points")
    return cost, root


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
    optimal explainable cost of the full dataset.

    Every shape, then every assignment of grid lines to its internal nodes
    in preorder, is a candidate; it drops the bands of all its lines from
    every leaf and counts only if no leaf is left empty. The first
    candidate of least total wins (strict ``<``); a total is the
    correctly rounded ``math.fsum`` of exactly rounded leaf costs.
    Candidates are enumerated on bitmasks (each line's "<= theta" members
    and band members), and a per-call memo prices each distinct leaf once.
    A candidate with an unpriced leaf is skipped when its priced leaves
    already sum to at least the best total: costs are >= 0 and a correctly
    rounded sum is monotone, so its total could not be less.
    """
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
    cuts = [Cut(dim, theta) for dim, ts in enumerate(thresholds, 1) for theta in ts]
    if not cuts:
        return exact_fallback()
    pts = ds.points
    scale, cols = _int_columns(pts)
    # per grid line: the members of its "<= theta" side and of its band
    lows = [sum(1 << i for i, p in enumerate(pts) if p[c.dim - 1] <= c.theta) for c in cuts]
    band_masks = [sum(1 << i for i in band) for dim_bands in bands for band in dim_bands]

    def search(shape, mask: int):
        """Yield (grid lines in preorder, leaf masks, used band mask) for every
        grid-cut assignment of ``shape`` to the members of ``mask`` that
        leaves no leaf empty before band removal."""
        if not mask:
            return
        if shape == ():
            yield (), [mask], 0
            return
        for o, low in enumerate(lows):
            rights = list(search(shape[1], mask & ~low))
            for opts_l, leaves_l, used_l in search(shape[0], mask & low) if rights else ():
                used_l |= band_masks[o]
                for opts_r, leaves_r, used_r in rights:
                    yield (o, *opts_l, *opts_r), leaves_l + leaves_r, used_l | used_r

    costs_of: dict[int, float] = {}  # leaf mask after band removal -> cost
    best: tuple[float, TreeShape, tuple[int, ...], int] | None = None
    for shape in enumerate_shapes(k):
        assert shape_leaf_count(shape) == k
        for opts, leaves, used in search(shape, (1 << ds.n) - 1):
            leaves = [leaf & ~used for leaf in leaves]
            if 0 in leaves:
                continue
            costs = [costs_of.get(leaf) for leaf in leaves]
            if None in costs:
                if best is not None and math.fsum(c for c in costs if c is not None) >= best[0]:
                    continue
                for t, leaf in enumerate(leaves):
                    if costs[t] is None:
                        costs[t] = costs_of[leaf] = _exact_cost(
                            cols, _members(leaf, ds.n), scale, kind)
            cost = math.fsum(costs)
            if best is None or cost < best[0]:
                best = (cost, shape, opts, used)
    if best is None:
        return exact_fallback()
    cost, shape, opts, used = best
    removed = frozenset(i for i in range(ds.n) if used >> i & 1)
    return ApproxResult(
        kept=frozenset(range(ds.n)) - removed,
        removed=removed,
        tree=tree_from_shape(shape, [cuts[o] for o in opts], range(1, k + 1)),
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
