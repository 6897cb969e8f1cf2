"""Optimal and approximate explainable clustering.

Solvers for minimizing the means/medians cost over clusterings induced by
threshold trees with k nonempty leaves. All of them run one memoized
split search keyed by member bitmask and leaf quota (_split_search). The
two exact solvers, solve_branching (recursive branching search) and
solve_dp (dynamic program over point subsets), search every canonical cut
and return the same tree; they run one body and differ only in their
core.LIMITS entry. A state with two leaves left prices all its cuts,
canonical or grid, from one sorted pass per dimension; a state with more
reads its cuts' sides off one such pass per dimension, and a canonical one
searches each dimension's cuts best-first and skips those a monotone lower
bound rules out. Every leaf cost is the float nearest the
exact cost (core._exact_cost), so a sweep's value is the cost itself and
trees and tie-breaks are those of pricing every leaf with cluster_cost; a
leaf whose cost overflows a float is priced as inf. solve_approx is an
outlier-tolerant approximation that searches only the cuts of a
per-dimension rank grid, each of which drops its band of points from its
own node, so it removes at most an epsilon fraction of the points.
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush, heappushpop
from itertools import accumulate, count, groupby, repeat, zip_longest
from operator import add, itemgetter, or_, truediv

from .core import (CostKind, Cut, Dataset, Point, _check_limits, _exact_cost, _int_columns,
                   _prefix_masks, _Record, _set, _splits, centroid, cluster_cost)
from .tree import Internal, Leaf, ThresholdTree, TreeNode, _walk, tree_evaluate

_INF = math.inf
_NORMAL = 2.0 ** -1022  # the least positive normal float
_LEAF = Leaf(0)
# leaf costs a split search keeps before it drops them all and prices anew
_KNOWN_MAX = 1 << 16


class ExplainableResult(_Record):
    __slots__ = ("tree", "clusters", "cost", "kind")
    tree: ThresholdTree
    clusters: dict[int, tuple[int, ...]]
    cost: float
    kind: CostKind

    def __init__(
        self, tree: ThresholdTree, clusters: dict[int, tuple[int, ...]], cost: float,
        kind: CostKind,
    ) -> None:
        _set(self, "tree", tree)
        _set(self, "clusters", clusters)
        _set(self, "cost", cost)
        _set(self, "kind", kind)


class ApproxResult(_Record):
    __slots__ = ("kept", "removed", "tree", "cost", "epsilon", "rank_grid")
    kept: frozenset[int]
    removed: frozenset[int]
    tree: ThresholdTree
    cost: float
    epsilon: float
    rank_grid: tuple[tuple[float, ...], ...]

    def __init__(
        self, kept: frozenset[int], removed: frozenset[int], tree: ThresholdTree, cost: float,
        epsilon: float, rank_grid: tuple[tuple[float, ...], ...],
    ) -> None:
        _set(self, "kept", kept)
        _set(self, "removed", removed)
        _set(self, "tree", tree)
        _set(self, "cost", cost)
        _set(self, "epsilon", epsilon)
        _set(self, "rank_grid", rank_grid)


class LloydResult(_Record):
    __slots__ = ("centers", "labels", "cost")
    centers: tuple[Point, ...]
    labels: tuple[int, ...]
    cost: float

    def __init__(self, centers: tuple[Point, ...], labels: tuple[int, ...], cost: float) -> None:
        _set(self, "centers", centers)
        _set(self, "labels", labels)
        _set(self, "cost", cost)


def _relabel(node: TreeNode) -> TreeNode:
    """Assign leaf labels 1..k left to right (input leaves are placeholders)."""
    labels = count(1)
    done: list[TreeNode] = []  # the relabeled subtrees not yet joined to a parent
    for nd, enter in _walk(node):
        if isinstance(nd, Leaf):
            done.append(Leaf(next(labels)))
        elif not enter:
            done[-2:] = [Internal(nd.cut, *done[-2:])]
    return done[0]


def _finish(node: TreeNode, ds: Dataset, cost: float, kind: CostKind) -> ExplainableResult:
    tree = ThresholdTree(_relabel(node))
    return ExplainableResult(tree, tree_evaluate(tree, ds), cost, kind)


class _LeafCosts:
    """Exactly rounded leaf costs (see core._exact_cost) of one dataset.
    ``sides`` prices the prefixes and suffixes of one ordered member list
    in one pass, with exact int prefix sums, and keeps nothing. ``leaf``
    prices what no sweep does (k = 1 and grid left sides that are no
    prefix), one member set at a time, and keeps it in ``known`` (mask ->
    cost), dropped whenever it holds more than _KNOWN_MAX costs to bound
    its memory. The map is idle on generic points, but on tied ones it
    answers most calls: 932,323 of 1,233,206 over 9,600 solve_approx runs
    on small tie-heavy inputs, which take 46 % longer without it, and
    without it 18 runs on 90 points of a 7 x 7 integer grid take 2.5 times
    as long. Uncapped, it raised peak RSS from 27-29 MB to 37-50 MB at
    n = 300, k = 4, epsilon = 0.05 on 21 x 21 and 41 x 41 grids."""

    def __init__(self, pts: tuple[Point, ...], kind: CostKind):
        self.kind = kind
        self.n = n = len(pts)
        self.scale, self.cols = _int_columns(pts)
        self.squares = [sum(c * c for c in x) for x in zip(*self.cols)]
        self.order = [sorted(range(n), key=col.__getitem__) for col in self.cols]
        self.known: dict[int, float] = {}

    def leaf(self, mask: int) -> float:
        """The cost of the member set ``mask``, from the map if it is there;
        inf when it overflows a float (no finite-cost tree has that leaf)."""
        cost = self.known.get(mask)
        if cost is None:
            if len(self.known) > _KNOWN_MAX:
                self.known.clear()
            flags = format(mask, f"0{self.n}b")[::-1]
            ids = [i for i, f in enumerate(flags) if f == "1"]
            try:
                cost = _exact_cost(self.cols, ids, self.scale, self.kind)
            except OverflowError:
                cost = _INF
            self.known[mask] = cost
        return cost

    def sides(self, ids: list[int], dim: int, lsizes: list[int], rsizes: list[int]):
        """(lefts, rights): the costs of ids[:m] for each m in ``lsizes``,
        which do not decrease, and of ids[len(ids) - r:] for each r in
        ``rsizes``, which do not increase; ``ids`` ascends along dimension
        ``dim``. A cost that overflows a float is inf."""
        n = len(ids)
        if self.kind is CostKind.MEDIANS:
            lnums, rnums = [0] * len(lsizes), [0] * len(rsizes)
            for j, col in enumerate(self.cols):
                vals = [col[i] for i in ids]
                if j == dim - 1:  # vals ascend: top half's sum minus bottom half's
                    acc = list(accumulate(vals, initial=0))
                    lnums = [x + acc[m] - acc[m - (m >> 1)] - acc[m >> 1]
                             for x, m in zip(lnums, lsizes)]
                    rnums = [x + acc[n] - acc[n - (r >> 1)] - acc[n - r + (r >> 1)] + acc[n - r]
                             for x, r in zip(rnums, rsizes)]
                else:  # each _running_l1 walks every value, so skip an idle one
                    if lsizes:
                        lnums = list(map(add, lnums, _running_l1(vals, lsizes)))
                    if rsizes:
                        back = _running_l1(vals[::-1], rsizes[::-1])
                        rnums = list(map(add, rnums, reversed(back)))
            ldens = rdens = repeat(self.scale)
        else:  # a suffix's sums are the whole list's minus the prefix's before it
            sq = list(accumulate([self.squares[i] for i in ids], initial=0))
            lnums = [m * sq[m] for m in lsizes]
            rnums = [r * (sq[n] - sq[n - r]) for r in rsizes]
            for col in self.cols:
                acc = list(accumulate([col[i] for i in ids], initial=0))
                lnums = [x - acc[m] * acc[m] for x, m in zip(lnums, lsizes)]
                rnums = [x - (y := acc[n] - acc[n - r]) * y for x, r in zip(rnums, rsizes)]
            den = self.scale * self.scale
            ldens, rdens = [m * den for m in lsizes], [r * den for r in rsizes]
        try:
            return list(map(truediv, lnums, ldens)), list(map(truediv, rnums, rdens))
        except OverflowError:  # some side's cost overflows: divide each alone
            return list(map(_quotient, lnums, ldens)), list(map(_quotient, rnums, rdens))


def _quotient(num: int, den: int) -> float:
    """num / den, or inf where that overflows a float."""
    try:
        return num / den
    except OverflowError:
        return _INF


def _running_l1(vals: list[int], sizes: list[int]) -> list[int]:
    """The L1 cost about the median of vals[:m], times E, for each m in
    ``sizes``, for vals in any order. One pass takes the values two at a
    time and records the cost after each: a max-heap ``lower`` (negated)
    keeps the ceil(m/2) smallest values and ``upper`` the rest, and
    ``diff`` is sum(upper) - sum(lower), the cost at even m; at odd m the
    median tops ``lower`` and counts once more."""
    lower: list[int] = []
    upper: list[int] = []
    diff = 0
    costs = [0]
    for a, b in zip_longest(*[iter(vals)] * 2):
        y = heappushpop(upper, a)  # lower gains the least of upper and a
        heappush(lower, -y)
        diff += a - 2 * y
        costs.append(diff - lower[0])
        if b is None:
            break
        y = -heappushpop(lower, -b)  # upper gains the largest of lower and b
        heappush(upper, y)
        diff += 2 * y - b
        costs.append(diff)
    return list(map(costs.__getitem__, sizes))


def _split_search(
    ds: Dataset, k: int, kind: CostKind, nprime: int = 0
) -> tuple[float, TreeNode | None, int]:
    """Least-cost k-leaf threshold tree by memoized split search, as
    (cost, root, mask of the points the tree drops).

    A state is a member bitmask plus a leaf quota s; its optimum depends on
    nothing else. With n' = 0, its cuts are those of ``core._splits``: per
    dimension, every distinct member value except the largest, ascending.
    With n' >= 1 they are solve_approx's grid lines: in each dimension's
    (value, id) order, ``costs.order``, a line's anchor has 1-based rank
    r = n', 2n', ... <= n, theta is its coordinate and its band holds the
    ranks r + 1 .. r + n'. One rule, applied only in ``line_cuts``, makes a
    state's grid cuts: a line drops its band's members from the state and
    sends the rest left when <= theta; it is a cut when neither side is
    empty and its two sides are not the previous cut's (those never win).
    The right side is a suffix of the state's members in (value, id)
    order. The left side is a prefix when it holds just the members ranked
    up to the anchor; otherwise (the band holds only theta and a member
    past it equals theta too) ``leaf`` prices it. A state takes the first
    cut of least total in the order s1 = 1..s-1, then the cuts; a grid
    state with quota s >= 3 tries them in that order and keeps only a
    strictly better one. It skips a cut whose left optimum already reaches
    the best total, and a cut whose right side is one leaf that alone
    reaches it, before its left side is priced. Costs are >= 0 and float
    addition is monotone, so such a cut's total is at least the best and
    cannot replace it; skipping it only leaves a state unmemoized.

    Leaf costs are exactly rounded (``_LeafCosts``), inf where they
    overflow a float. A state with quota 2 prices all its cuts by sweeps:
    per dimension it lists its members in (value, id) order, ``sides``
    prices every left side that is a prefix and every right side, a suffix,
    and the state takes the first cut of least total in (dimension, cut)
    order, as the loop would.

    A state with quota s >= 3 sweeps too: the first time it prices a cut
    in a dimension, one ``sides`` call prices every prefix and suffix of
    its members in that (value, id) order. A one-leaf prefix or suffix reads
    its cost off the sweep, and a two-leaf one gets the sweep's prefixes
    (suffixes) through ``solve``, not its memo key, as its own in that
    dimension. Each is the exactly rounded cost ``leaf`` gives, so costs,
    trees, tie-breaks and the states priced are unchanged.

    A canonical state with quota s >= 3 searches each (s1, dimension) run
    of cuts best-first. For point sets with at least q distinct points, the
    optimal q-leaf cost opt(X, q) does not grow as X shrinks: restricted to
    a subset, no leaf of an optimal tree costs more, an empty leaf goes with
    its cut, and a leaf with two distinct points is split (raising no cost)
    until q leaves remain. So along a run, opt(L_i, s1) never decreases and
    opt(R_i, s2) never increases, and opt(L_i-1, s1) + opt(R_j+1, s2)
    bounds every total of the cuts i..j; so does that sum with a term
    replaced by 0, as every cost is >= 0. Runs are cut to their feasible
    range, where the sides have at least s1 and s2 distinct points (the inf
    outside breaks monotonicity); a canonical state holds all copies of a
    point or none, so its members among ``reps`` count its distinct points.
    Each range is pushed whole, as the inclusive block lo..hi with bound 0,
    on a heap keyed by (bound, position of the block's first cut). The
    least block i..j is popped and its midpoint m priced; then i..m-1 is
    pushed with bound f + opt(R_m, s2) and m+1..j with opt(L_m, s1) + g,
    where f and g are the left and right optima of the nearest priced cut
    outside i..j, or 0 at an end of the range; so no cut is priced before
    its block's bound is checked. A cut replaces the incumbent on (total,
    position (s1, index)), which keeps the loop's first minimum, and a
    block is dropped when bound / slack > best, or == best and its first
    cut comes after the incumbent.

    Slack = 1 + (4k + 8)u, u = 2^-53, covers the rounding. Let F(X, q), the
    search's optimum, be the least float total of its q-leaf trees of X. A
    leaf's float is its exact cost times 1 + d, |d| <= u (below 2^-1022,
    plus at most 2^-1075), and passes at most q - 1 float sums, which are
    exact below 2^-1022. So with r = (1 + u) / (1 - u), for a cut m of a
    block and the priced cut i before it, restricting the tree of F(L_m, s1)
    to L_i gives F(L_i, s1) <= r^s1 F(L_m, s1), likewise on the right (a
    term of 0 is below any), and a bound, one more sum, is at most r^k times
    each total of its block. If bound / slack rounds to best or more, each
    total is at least slack * best / ((1 + u) r^k) > best, as (1 + u) r^k <=
    1 + (2k + 2)u for k < 2^40; the spare (2k + 6)u * best exceeds the
    subnormal terms (under 2k * 2^-1075) once best >= 2^-1022, and a
    restricted tree's sum can overflow only for a total within 2k ulps of
    the largest float, above best * slack. At best = 0, a total of 0 needs
    every leaf to round to 0, and then so do the restricted trees' leaves: a
    positive bound means positive totals, and the position rule settles a
    bound of 0. Hence no block is dropped while 0 < best < 2^-1022, nor one
    whose bound is inf (a finite total may lie in it, or no incumbent exists
    yet).

    With n' = 0, raises ValueError when the points have fewer than k
    distinct positions and OverflowError when no tree has a finite cost.
    With n' >= 1, the cost is inf when no grid tree has k nonempty leaves
    and a finite cost.
    """
    pts = ds.points
    prefix = _prefix_masks(pts)
    reps = sum(1 << i for i in {p: i for i, p in enumerate(pts)}.values())
    slack = 1 + (4 * k + 8) * 2.0 ** -53
    memo: dict[tuple[int, int], tuple[float, TreeNode | None, int]] = {}
    costs = _LeafCosts(pts, kind)
    # per dimension, each grid line as (anchor, band mask, mask of the points
    # "<= theta", mask of the points ranked up to the anchor), read off
    # upto[m], the mask of the first m points in order
    lines = []
    for order, col in zip(costs.order, costs.cols) if nprime else ():
        upto = list(accumulate((1 << i for i in order), or_, initial=0))
        vals = [col[i] for i in order]
        lines.append([(order[r - 1], upto[min(r + nprime, ds.n)] ^ upto[r],
                       upto[bisect_right(vals, vals[r - 1])], upto[r])
                      for r in range(nprime, ds.n + 1, nprime)])

    def cut_node(dim: int, new: int, left: TreeNode, right: TreeNode) -> Internal:
        # theta comes from the lowest new member, as it would from a set of
        # member values (this keeps the sign of a zero)
        return Internal(Cut(dim, pts[(new & -new).bit_length() - 1][dim - 1]), left, right)

    def line_cuts(mask: int, dim: int) -> list[tuple[int, int, bool, int, int]]:
        """The state ``mask``'s grid cuts in dimension ``dim`` by the rule
        above, in line order, as (left, right, prefix, anchor, band), where
        ``prefix`` tells a left side that is a prefix of the state's order.
        The first line that leaves the right side empty ends the list: each
        later line's right side is a subset of its."""
        cuts, last = [], None
        for anchor, band, low, below in lines[dim - 1]:
            kept = mask & ~band
            left = kept & low
            right = kept ^ left
            if not right:
                break
            if left and (left, right) != last:
                last = left, right
                cuts.append((left, right, left == mask & below, anchor, band))
        return cuts

    def sweeps(mask: int):
        """A quota >= 3 state's sweep(dim): (pre, suf), the costs pre[m] and
        suf[r] of its first m and last r members in dimension dim's order.
        They price a canonical cut's two sides and a grid cut's right side,
        and its left side where ``line_cuts`` marks it a prefix."""
        flags = format(mask, f"0{costs.n}b")[::-1]
        made: dict[int, tuple[list[float], list[float]]] = {}

        def sweep(dim: int) -> tuple[list[float], list[float]]:
            if dim not in made:
                ids = [i for i in costs.order[dim - 1] if flags[i] == "1"]
                n = len(ids)
                lefts, rights = costs.sides(ids, dim, range(1, n), range(n - 1, 0, -1))
                made[dim] = [_INF, *lefts], [_INF, *reversed(rights)]
            return made[dim]
        return sweep

    def two_leaves(mask: int, edge: tuple | None) -> tuple[float, TreeNode | None, int]:
        flags = format(mask, f"0{costs.n}b")[::-1]
        best, win = _INF, None
        for dim, (order, col) in enumerate(zip(costs.order, costs.cols), start=1):
            ids = [i for i in order if flags[i] == "1"]
            if not nprime:  # one cut after each run of equal values but the last
                vals = [col[i] for i in ids]
                lsizes = [m for m in range(1, len(ids)) if vals[m - 1] != vals[m]]
                rsizes, cuts = [len(ids) - m for m in lsizes], None
            else:
                cuts = line_cuts(mask, dim)
                lsizes = [left.bit_count() for left, _, prefix, _, _ in cuts if prefix]
                rsizes = [right.bit_count() for _, right, _, _, _ in cuts]
            # a prefix (suffix) of its parent along dim reads those off its sweep
            pre, suf = edge[1:] if edge and edge[0] == dim else (None, None)
            lefts, rights = costs.sides(ids, dim, [] if pre else lsizes, [] if suf else rsizes)
            lefts = [pre[m] for m in lsizes] if pre else lefts
            rights = [suf[r] for r in rsizes] if suf else rights
            if cuts:  # leaf prices the left sides that are no prefix
                priced = iter(lefts)
                lefts = [next(priced) if prefix else costs.leaf(left)
                         for left, _, prefix, _, _ in cuts]
            totals = list(map(add, lefts, rights))
            low = min(totals, default=_INF)
            if low < best:
                t = totals.index(low)
                # ids ascend within a run, so its first is the lowest new member
                head = cuts[t][3:] if cuts else (ids[lsizes[t - 1] if t else 0], 0)
                best, win = low, (dim, *head)
        dim, anchor, band = win or (0, 0, 0)
        return best, win and cut_node(dim, 1 << anchor, _LEAF, _LEAF), mask & band

    def best_first(mask: int, s: int) -> tuple[float, TreeNode | None, int]:
        splits = list(_splits(mask, prefix))
        width = len(splits)
        seen = [(lmask & reps).bit_count() for _, lmask, _ in splits]
        distinct = (mask & reps).bit_count()
        ends = [0, *accumulate(len(list(run)) for _, run in groupby(splits, key=itemgetter(0)))]
        best, at, win = _INF, -1, None
        sweep = sweeps(mask)

        def price(s1: int, i: int) -> tuple[float, float]:
            nonlocal best, at, win
            dim, lmask, new = splits[i]
            pre, suf = sweep(dim)
            cl, node_l, _ = solve(lmask, s1, (dim, pre, None))
            cr, node_r, _ = solve(mask ^ lmask, s - s1, (dim, None, suf))
            total = cl + cr
            pos = s1 * width + i
            if total < best or total == best < _INF and pos < at:
                best, at, win = total, pos, (dim, new, node_l, node_r)
            return cl, cr

        heap: list[tuple[float, int, int, int, float, float, int]] = []
        for s1 in range(1, s):
            for start, end in zip(ends, ends[1:]):
                lo = bisect_left(seen, s1, start, end)
                hi = bisect_right(seen, distinct - (s - s1), start, end) - 1
                if lo <= hi:
                    heappush(heap, (0.0, s1 * width + lo, lo, hi, 0.0, 0.0, s1))
        while heap:
            bound, start, i, j, f, g, s1 = heappop(heap)
            limit = bound / slack
            if bound < _INF and not 0 < best < _NORMAL and (
                limit > best or limit == best and start >= at
            ):
                continue  # no cut in i..j can replace the incumbent
            m = (i + j) >> 1
            fm, gm = price(s1, m)
            if m > i:
                heappush(heap, (f + gm, start, i, m - 1, f, gm, s1))
            if j > m:
                heappush(heap, (fm + g, start - i + m + 1, m + 1, j, fm, g, s1))
        return best, win and cut_node(*win), 0

    def grid_loop(mask: int, s: int) -> tuple[float, TreeNode | None, int]:
        splits = [(dim, left, right, left.bit_count(), prefix, 1 << anchor)
                  for dim in range(1, len(lines) + 1)
                  for left, right, prefix, anchor, _ in line_cuts(mask, dim)]
        # a split's right side may hold fewer than size - nl: then it costs inf
        size = mask.bit_count()
        best, win, dropped = _INF, None, 0
        sweep = sweeps(mask)
        for s1 in range(1, s):
            s2 = s - s1
            for dim, lmask, rmask, nl, prefix, new in splits:
                if nl < s1 or size - nl < s2:
                    continue
                pre, suf = sweep(dim)
                if s2 == 1 and suf[rmask.bit_count()] >= best:
                    continue  # the right leaf alone reaches the best total
                cl, node_l, dropped_l = solve(lmask, s1, (dim, pre, None) if prefix else None)
                if cl >= best:
                    continue
                cr, node_r, dropped_r = solve(rmask, s2, (dim, None, suf))
                total = cl + cr
                if total < best:
                    best, win = total, (dim, new, node_l, node_r)
                    dropped = (mask ^ lmask ^ rmask) | dropped_l | dropped_r
        return best, win and cut_node(*win), dropped

    def solve(mask: int, s: int, edge: tuple | None = None) -> tuple[float, TreeNode | None, int]:
        # edge: (dim, pre, None) or (dim, None, suf) when mask is a prefix or a
        # suffix of its parent's members along dim, from the parent's sweep
        if s == 1:
            cost = costs.leaf(mask) if edge is None else (edge[1] or edge[2])[mask.bit_count()]
            return cost, _LEAF, 0
        hit = memo.get((mask, s))
        if hit is None:
            if s == 2:
                hit = two_leaves(mask, edge)
            elif not nprime:
                hit = best_first(mask, s)
            else:
                hit = grid_loop(mask, s)
            memo[(mask, s)] = hit
        return hit

    try:
        cost, root, dropped = solve((1 << ds.n) - 1, k)
    finally:
        # solve refers to itself, so without this the maps would live until
        # the next cyclic garbage collection
        memo.clear()
        costs.known.clear()
    # a tree is found exactly when its cost is finite (at k = 1 root is a leaf)
    if cost == _INF and not nprime:
        if len(set(pts)) < k:
            raise ValueError("no explainable k-clustering: too few distinct points")
        raise OverflowError("every explainable k-clustering's cost overflows a float")
    return cost, root, dropped


def _solve_exact(
    solver: str, ds: Dataset, k: int, kind: CostKind, force: bool
) -> ExplainableResult:
    """The one body of solve_branching and solve_dp: solver names the
    LIMITS entry that guards the run."""
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    _check_limits(solver, force, n=ds.n, d=ds.d, k=k)
    cost, node, _ = _split_search(ds, k, kind)
    return _finish(node, ds, cost, kind)


def solve_branching(
    ds: Dataset, k: int, kind: CostKind, *, force: bool = False
) -> ExplainableResult:
    """Optimal explainable k-clustering by recursive cut-and-split search.

    Runs the same body as solve_dp; the two differ only in their LIMITS
    entry (this one limits k). Raises ValueError when the points have
    fewer than k distinct positions, OverflowError when no tree's cost fits.
    """
    return _solve_exact("solve_branching", ds, k, kind, force)


def solve_dp(
    ds: Dataset, k: int, kind: CostKind, *, force: bool = False
) -> ExplainableResult:
    """Optimal explainable k-clustering by dynamic programming over point
    subsets (canonical boxes with equal membership merged).

    Runs the same body as solve_branching and returns the same tree, ties
    included; the two differ only in their LIMITS entry (this one limits n
    and d). Raises ValueError when the points have fewer than k distinct
    positions, OverflowError when no tree's cost fits.
    """
    return _solve_exact("solve_dp", ds, k, kind, force)


def solve_approx(
    ds: Dataset, k: int, kind: CostKind, epsilon: float, *, force: bool = False
) -> ApproxResult:
    """Explainable clustering of all but at most an epsilon fraction of the
    points, using only cuts on a per-dimension rank grid.

    With n' = floor(epsilon * n / k), dimension j has a grid line at the
    value theta_i of its (i * n')-th order statistic in (value, id) order,
    i = 1..n // n', whose band is the n' points of the next ranks; as
    n' >= epsilon * n / (2k), that is at most ceil(2k / epsilon) lines. A
    grid cut drops the members of its band from its own node and splits
    the rest by "<= theta_i"; the result is the least-cost grid tree with k
    nonempty leaves, found by _split_search (ties go to the first in s1,
    then grid line order). When n' is 0, or no grid tree has k nonempty
    leaves and a finite cost, the result is solve_branching's, with nothing
    removed and an empty rank grid.

    Removal: each of the k - 1 internal nodes drops at most one band of n'
    points, so at most (k - 1) * n' <= epsilon * n points are removed; a
    result past that bound raises AssertionError (a failed self-check).

    Cost: let T be any k-leaf tree on the full dataset and snap each cut
    (j, theta) of T to the last grid line theta_i <= theta of dimension j.
    A point with theta_i < x_j <= theta has rank above i * n' and below
    (i + 1) * n' (line i + 1 lies above theta; past the last line fewer
    than n' ranks remain), so it is in line i's band. By induction from the
    root, each node's members are a subset of T's, since its band takes
    every member the two cuts route apart; so each leaf is a subset of T's
    leaf and costs no more (the set's mean or median serves the subset).
    When every cut of T has such a line and no leaf is left empty, the
    snapped tree is a grid tree, and the result costs at most T: at most
    the full-data optimum when an optimal tree snaps so. When none does (a
    cut below its dimension's first line, or a leaf inside the bands), the
    cost can exceed that optimum.
    """
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if not 1 <= k <= ds.n:
        raise ValueError(f"k must be in 1..{ds.n}")
    nprime = int(epsilon * ds.n / k)
    cost, root, dropped = _split_search(ds, k, kind, nprime) if nprime else (_INF, None, 0)
    if cost == _INF:
        # the exact branch has no grid: an empty rank grid in the result marks it
        res = solve_branching(ds, k, kind, force=force)
        cost, root, dropped, nprime = res.cost, res.tree.root, 0, 0
    # sorted is stable, so equal values keep id order and each threshold is
    # its (value, id) anchor's own coordinate, sign of a zero included
    thresholds = [sorted(col)[nprime - 1::nprime] if nprime else [] for col in zip(*ds.points)]
    removed = frozenset(i for i in range(ds.n) if dropped >> i & 1)
    if len(removed) > epsilon * ds.n:
        raise AssertionError("approx removal bound violated")
    return ApproxResult(
        kept=frozenset(range(ds.n)) - removed,
        removed=removed,
        tree=ThresholdTree(_relabel(root)),
        cost=cost,
        epsilon=epsilon,
        rank_grid=tuple(tuple(ts) for ts in thresholds),
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
    cols = list(zip(*pts))
    means = kind is CostKind.MEANS
    labels = [0] * ds.n
    for _ in range(iters):
        dists = []
        for c in centers:
            # one list of terms per dimension, summed per point in dimension
            # order by sum(); ** (not *) raises OverflowError as cluster_cost does
            terms = [[(v - x) ** 2 for v in col] if means else [abs(v - x) for v in col]
                     for col, x in zip(cols, c)]
            dists.append(list(map(sum, zip(*terms))))
        # the first center at least distance: min keeps the first of equals
        new_labels = [row.index(min(row)) + 1 for row in zip(*dists)]
        if new_labels == labels:
            break
        labels = new_labels
        groups: list[list[Point]] = [[] for _ in range(k)]
        for p, lab in zip(pts, labels):
            groups[lab - 1].append(p)
        for j, g in enumerate(groups):
            if g:
                centers[j] = centroid(g, kind)
    # the first pass always changes labels, so groups holds the final ones
    cost = sum((cluster_cost(g, kind) for g in groups if g), 0.0)
    return LloydResult(tuple(centers), tuple(labels), cost)
