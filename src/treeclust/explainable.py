"""Optimal and approximate explainable clustering.

Solvers for minimizing the means/medians cost over clusterings induced by
threshold trees with k nonempty leaves. The two exact solvers,
solve_branching (recursive branching search) and solve_dp (dynamic
program over point subsets), run one memoized split search keyed by
member bitmask and leaf quota, so they return the same tree; they differ
only in their guard rails. A state with two leaves left prices its cuts
by one sorted sweep per dimension and direction, which yields a certified
interval for the float cost of every side; only the cuts whose interval
can reach the least total are priced with cluster_cost, so costs, trees
and tie-breaks are those of pricing every leaf. solve_approx is an
outlier-tolerant grid approximation that may drop up to an epsilon
fraction of the points. It enumerates its grid trees on member bitmasks,
prices each distinct leaf once per call from a memo, and skips a tree
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
_U = 2.0**-53
# spare roundings and absolute underflow slack of a _LeafBounds interval
_SPARE = 10
_TINY = 2.0**-1000
# no cost of coordinates up to this magnitude overflows a float
_SWEEP_MAX = 2.0**400
# intervals a split search keeps before it drops them all and sweeps anew
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


class _LeafBounds:
    """Certified intervals for the float ``cluster_cost`` of leaf sets, filled
    by sorted sweeps over one dimension's cuts of a state and kept per search
    in ``known`` (member mask -> (lo, hi)).

    Every coordinate is scaled by one power of two E into an exact int, so
    the running sums are exact and a leaf's exact cost C is a ratio of ints,
    which ``/`` rounds once, correctly. For m members in d dimensions, with
    u = 2**-53 and gamma(j) = j*u / (1 - j*u), ``cluster_cost`` returns:

    - MEDIANS: a float within gamma(m + d) * C of C. The L1 cost about the
      lower median of a column is the sum of its top floor(m/2) values minus
      the sum of its bottom floor(m/2). ``cluster_cost`` takes the median
      exactly, rounds once in each ``c - med`` and adds the nonnegative
      terms with m - 1, then d - 1, more roundings.
    - MEANS: a float in [C (1 - g), (C + D) (1 + g)], g = gamma(m + d + 2),
      where C = (m * sum x**2 - (sum x)**2) / (m * E**2) summed over
      dimensions. The rounded mean is off by at most gamma(m) * sum|x| / m,
      so the exact squares about it add up to at most C + D with
      D = sum over dimensions of gamma(m)**2 * (sum|x|)**2 / m. Each term
      then takes one rounding in ``c - mean`` (two once squared), up to one
      ulp (two roundings) in the C ``pow`` behind ``** 2``, and the m - 1
      and d - 1 additions.

    Both hold for the compensated float ``sum`` of CPython >= 3.12 too.
    That sum returns fl(s + c), where s is the recursive sum of the m terms
    t and c adds up their m - 1 exactly computed step errors, each at most
    u * sum|t|; so it too stays within gamma(m - 1) * sum|t| of the exact
    sum, the one property of ``sum`` used above.

    A stored interval widens g by _SPARE roundings (the correctly rounded
    C, an int column's sum turned float, the interval's own four float
    operations) and sum|x| by max|x| per member; _TINY covers underflow,
    which only the products and quotients of MEANS can suffer, by at most
    2**-1075 each. A cut's total needs no widening: rounding is monotone,
    so fl(lo_l + lo_r) <= fl(cl + cr) <= fl(hi_l + hi_r).
    """

    def __init__(self, pts: tuple[Point, ...], kind: CostKind, scale: int,
                 known: dict[int, tuple[float, float]]):
        n, d = len(pts), len(pts[0])
        self.medians = kind is CostKind.MEDIANS
        self.n = n
        self.scale = scale
        self.known = known
        self.cols = [[_scaled(p[j], scale) for p in pts] for j in range(d)]
        self.squares = [sum(c * c for c in x) for x in zip(*self.cols)]
        self.order = [sorted(range(n), key=col.__getitem__) for col in self.cols]
        # max|x| per dimension, for the rounded mean's shift D of MEANS
        spread = [] if self.medians else [max(abs(float(p[j])) for p in pts) for j in range(d)]
        self.lo_f = [0.0] * (n + 1)
        self.hi_f = [0.0] * (n + 1)
        self.shift = [0.0] * (n + 1)
        for m in range(1, n + 1):
            g = _gamma(m + d + _SPARE)
            self.lo_f[m] = 1.0 - g
            self.hi_f[m] = 1.0 + g
            # D with sum|x| <= m * max|x|, one spare rounding in gamma and
            # doubled for the rounding of this sum
            self.shift[m] = 2.0 * sum(m * (_gamma(m + 1) * a + _TINY) ** 2 for a in spread)

    @classmethod
    def of(cls, pts: tuple[Point, ...], kind: CostKind,
           known: dict[int, tuple[float, float]]) -> "_LeafBounds | None":
        """None when a coordinate is not a float, an int beyond 2**53 (which
        ``cluster_cost`` rounds on use) or beyond _SWEEP_MAX in magnitude."""
        den = 1
        for p in pts:
            for c in p:
                if isinstance(c, float):
                    if abs(c) > _SWEEP_MAX:
                        return None
                    den = max(den, c.as_integer_ratio()[1])
                elif not isinstance(c, int) or abs(c) > 2**53:
                    return None
        return cls(pts, kind, den, known)

    def sweep(self, mask: int, dim: int, sizes: list[int], sides: list[int],
              forward: bool) -> None:
        """Store the interval of every side of one dimension's cuts of the
        state ``mask``: the left sides when ``forward``, in ascending cut
        order, else the right sides in descending order. ``sizes`` holds
        their member counts, which grow along the list."""
        flags = format(mask, f"0{self.n}b")[::-1]
        ids = [i for i in self.order[dim - 1] if flags[i] == "1"]
        if not forward:
            ids.reverse()
        if self.medians:
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
        lo_f, hi_f, shift = self.lo_f, self.hi_f, self.shift
        self.known.update(zip(sides, [
            (c * lo_f[m] - _TINY, (c + shift[m]) * hi_f[m] + _TINY)
            for c, m in zip(costs, sizes)
        ]))


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


def _scaled(c: float, scale: int) -> int:
    num, den = c.as_integer_ratio()
    return num * (scale // den)


def _gamma(j: int) -> float:
    return j * _U / (1 - j * _U)


def _split_search(ds: Dataset, k: int, kind: CostKind) -> tuple[float, TreeNode]:
    """Optimal k-leaf threshold tree by memoized split search.

    A state is a member bitmask plus a leaf quota s. Its cuts are those of
    ``core._splits``: per dimension, every distinct member value except the
    largest, ascending. The search tries s1 = 1..s-1, then dimensions,
    then cuts; it skips a cut whose left optimum already reaches the best
    total, and only a strictly better total replaces the incumbent, so
    ties go to the first cut in that order.

    A state with quota 2 does not price every leaf. Per dimension a forward
    sweep bounds every left side and a backward sweep every right side
    (``_LeafBounds``), each only when one of its sides has no interval in
    the search's map yet. With U the least upper bound of a cut's total,
    only cuts whose lower bound is at most U are priced with
    ``cluster_cost``, in the same order and with the same strict ``<``.
    Every cut whose float total is the minimum has a lower bound at most
    that minimum, which is at most U, so it is priced; the state returns
    the same float and the same first minimum as pricing every cut. Data
    that ``_LeafBounds.of`` refuses is priced leaf by leaf. The map is
    dropped whenever it holds more than _KNOWN_MAX intervals, which bounds
    its memory; a dropped side is swept again when a state needs it.
    """
    pts = ds.points
    prefix = _prefix_masks(pts)
    memo: dict[tuple[int, int], tuple[float, TreeNode | None]] = {}
    known: dict[int, tuple[float, float]] = {}
    bounds = _LeafBounds.of(pts, kind, known)

    def near_minimal(
        mask: int, splits: list[tuple[int, int, int, int, int]]
    ) -> list[tuple[int, int, int, int, int]]:
        """The cuts of a quota-2 state whose total can reach the least."""
        if len(known) > _KNOWN_MAX:
            known.clear()
        lefts = [known.get(lmask) for _, lmask, _, _, _ in splits]
        rights = [known.get(rmask) for _, _, rmask, _, _ in splits]
        if None in lefts or None in rights:
            size = mask.bit_count()
            start = 0
            for dim, run in groupby(splits, key=itemgetter(0)):
                cuts = list(run)
                end = start + len(cuts)
                if None in lefts[start:end]:
                    bounds.sweep(mask, dim, [nl for _, _, _, nl, _ in cuts],
                                 [lmask for _, lmask, _, _, _ in cuts], True)
                if None in rights[start:end]:
                    cuts.reverse()
                    bounds.sweep(mask, dim, [size - nl for _, _, _, nl, _ in cuts],
                                 [rmask for _, _, rmask, _, _ in cuts], False)
                start = end
            lefts = [known[lmask] for _, lmask, _, _, _ in splits]
            rights = [known[rmask] for _, _, rmask, _, _ in splits]
        cap = min([lb[1] + rb[1] for lb, rb in zip(lefts, rights)], default=_INF)
        return [sp for sp, lb, rb in zip(splits, lefts, rights) if lb[0] + rb[0] <= cap]

    def solve(mask: int, s: int) -> tuple[float, TreeNode | None]:
        hit = memo.get((mask, s))
        if hit is not None:
            return hit
        if s == 1:
            ans = (cluster_cost([p for i, p in enumerate(pts) if mask >> i & 1], kind), Leaf(0))
            memo[(mask, s)] = ans
            return ans
        splits = [
            (dim, lmask, mask ^ lmask, lmask.bit_count(), new)
            for dim, lmask, new in _splits(mask, prefix)
        ]
        if s == 2 and bounds is not None:
            splits = near_minimal(mask, splits)
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
                    # theta comes from the lowest new member, as it would
                    # from a set of member values (this keeps the sign of a
                    # zero)
                    theta = pts[(new & -new).bit_length() - 1][dim - 1]
                    best_node = Internal(Cut(dim, theta), node_l, node_r)
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
    candidate of least float total wins (strict ``<``). Candidates are
    enumerated on bitmasks (each line's "<= theta" members and band
    members), and a per-call memo prices each distinct leaf once with
    ``cluster_cost`` on its points in id order, so every total is the float
    of pricing every leaf. A candidate with an unpriced leaf is skipped
    when its priced leaves' float sum reaches bar = best * (1 + 4
    gamma(k)) + _TINY (gamma as in _LeafBounds). Proof that it cannot win:
    costs are >= 0 and every float sum of at most k of them, recursive or
    compensated, is within gamma(k) of its exact sum, so its total is at
    least (1 - gamma(k)) / (1 + gamma(k)) * bar >= best.
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
    grow = 1 + 4 * _gamma(k)
    best: tuple[float, TreeShape, tuple[int, ...], int] | None = None
    for shape in enumerate_shapes(k):
        assert shape_leaf_count(shape) == k
        for opts, leaves, used in search(shape, (1 << ds.n) - 1):
            leaves = [leaf & ~used for leaf in leaves]
            if 0 in leaves:
                continue
            costs = [costs_of.get(leaf) for leaf in leaves]
            if None in costs:
                if best is not None and sum(c for c in costs if c is not None) >= bar:
                    continue
                for t, leaf in enumerate(leaves):
                    if costs[t] is None:
                        costs[t] = costs_of[leaf] = cluster_cost(
                            [p for i, p in enumerate(pts) if leaf >> i & 1], kind)
            cost = sum(costs)
            if best is None or cost < best[0]:
                best = (cost, shape, opts, used)
                bar = cost * grow + _TINY
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
