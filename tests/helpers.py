"""Shared instance factories and reference solvers for the test suite."""
from __future__ import annotations

import math
import random

from treeclust import (
    ApproxResult,
    Clustering,
    CostKind,
    Cut,
    Dataset,
    Internal,
    Leaf,
    LloydResult,
    ThresholdTree,
    centroid,
    cluster_cost,
    enumerate_shapes,
    solve_branching,
    tree_evaluate,
)
from treeclust.core import _prefix_masks, _splits


def random_points(rng: random.Random, n: int, d: int, lo: int = 0, hi: int = 5):
    return tuple(tuple(float(rng.randint(lo, hi)) for _ in range(d)) for _ in range(n))


def random_clustering(
    rng: random.Random, n: int, d: int, k: int, hi: int = 5
) -> Clustering:
    """Random integer points with shuffled round-robin labels (all k present)."""
    pts = random_points(rng, n, d, hi=hi)
    labels = [(i % k) + 1 for i in range(n)]
    rng.shuffle(labels)
    return Clustering(Dataset(pts), tuple(labels), k)


def tree_induced_clustering(
    rng: random.Random, n: int, d: int, k: int, hi: int = 5, tries: int = 50
) -> Clustering | None:
    """Labels induced by a random threshold tree; explainable by construction.
    Retries until every leaf is nonempty, or gives up."""
    for _ in range(tries):
        pts = random_points(rng, n, d, hi=hi)
        ds = Dataset(pts)

        def build(labels: list[int]):
            if len(labels) == 1:
                return Leaf(labels[0])
            split = rng.randint(1, len(labels) - 1)
            cut = Cut(rng.randint(1, d), float(rng.randint(0, hi)))
            return Internal(cut, build(labels[:split]), build(labels[split:]))

        tree = ThresholdTree(build(list(range(1, k + 1))))
        leaves = tree_evaluate(tree, ds)
        if any(not ids for ids in leaves.values()):
            continue
        labels = [0] * n
        for lab, ids in leaves.items():
            for i in ids:
                labels[i] = lab
        return Clustering(ds, tuple(labels), k)
    return None


def mixed_instance(rng: random.Random, n: int, d: int, k: int, hi: int = 5) -> Clustering:
    """Half the time tree-induced (explainable), half the time random labels."""
    if rng.random() < 0.5:
        cl = tree_induced_clustering(rng, n, d, k, hi=hi)
        if cl is not None:
            return cl
    return random_clustering(rng, n, d, k, hi=hi)


def survivors_match(cl: Clustering, result) -> bool:
    """Tree evaluation restricted to survivors must equal {C_i \\ W}."""
    kept = set(range(cl.ds.n)) - set(result.removed)
    ev = tree_evaluate(result.tree, cl.ds)
    for lab, ids in ev.items():
        got = set(ids) & kept
        want = {i for i in kept if cl.labels[i] == lab}
        if got != want:
            return False
    # every surviving cluster must appear as a leaf
    leaf_labels = set(result.tree.leaf_labels())
    return {cl.labels[i] for i in kept} <= leaf_labels


def reference_split_search(ds, k: int, kind):
    """The exact solvers' split search as it was before the two-leaf sweep:
    every leaf priced with ``cluster_cost``. Kept as the reference that the
    production search must match bit for bit."""
    pts = ds.points
    prefix = _prefix_masks(pts)
    memo = {}

    def solve(mask, s):
        hit = memo.get((mask, s))
        if hit is not None:
            return hit
        if s == 1:
            ans = (cluster_cost([p for i, p in enumerate(pts) if mask >> i & 1], kind), Leaf(0))
            memo[(mask, s)] = ans
            return ans
        size = mask.bit_count()
        splits = [
            (dim, pts[(new & -new).bit_length() - 1][dim - 1], lmask, mask ^ lmask,
             lmask.bit_count())
            for dim, lmask, new in _splits(mask, prefix)
        ]
        best = float("inf")
        best_node = None
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


def reference_lloyd(ds, k: int, kind, seed: int, iters: int = 50) -> LloydResult:
    """``lloyd_baseline`` as it was before it computed distances one column
    at a time: each (point, center) distance is one ``sum`` over the
    coordinates, and a point takes the least (distance, center index).
    Kept as the reference that the production loop must match bit for bit."""
    rng = random.Random(seed)
    centers = [ds.points[i] for i in rng.sample(range(ds.n), k)]
    pts = ds.points

    def dist(p, c):
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
        groups = [[] for _ in range(k)]
        for p, lab in zip(pts, labels):
            groups[lab - 1].append(p)
        for j, g in enumerate(groups):
            if g:
                centers[j] = centroid(g, kind)
    cost = sum((cluster_cost(g, kind) for g in groups if g), 0.0)
    return LloydResult(tuple(centers), tuple(labels), cost)


def _rank_grid(ds, nprime: int):
    """Per dimension and grid line: its threshold (the coordinate of the
    point at rank i*n', i = 1..n // n', in (value, id) order) and its
    removal band (the ids at ranks i*n'+1 .. (i+1)*n')."""
    positions = range(nprime, ds.n + 1, nprime)  # 1-based ranks
    orders = [sorted(range(ds.n), key=lambda i: (ds.points[i][dim], i)) for dim in range(ds.d)]
    thresholds = [[ds.points[order[pos - 1]][dim] for pos in positions]
                  for dim, order in enumerate(orders)]
    bands = [[frozenset(order[pos : pos + nprime]) for pos in positions] for order in orders]
    return thresholds, bands


def chain_tree(k: int) -> ThresholdTree:
    """A caterpillar k - 1 levels deep: the cut x1 <= j sends leaf j left.
    Compare such trees by leaf labels or DOT text: a record's ==, hash,
    repr and pickle recurse."""
    node = Leaf(k)
    for j in range(k - 1, 0, -1):
        node = Internal(Cut(1, float(j)), Leaf(j), node)
    return ThresholdTree(node)


def neighbour_pairs(k: int) -> Clustering:
    """The 1-d points 0..2k-1, each cluster two neighbours: greedy's tree
    peels off one cluster per level, k - 1 levels deep."""
    ds = Dataset.from_rows([(i,) for i in range(2 * k)])
    return Clustering(ds, tuple(i // 2 + 1 for i in range(2 * k)), k)


def _relabel(node):
    """The tree ``node`` with its leaves labelled 1..k left to right."""
    leaves = 0

    def walk(nd):
        nonlocal leaves
        if isinstance(nd, Leaf):
            leaves += 1
            return Leaf(leaves)
        return Internal(nd.cut, walk(nd.left), walk(nd.right))

    return walk(node)


def reference_solve_approx(ds, k: int, kind, epsilon: float) -> ApproxResult:
    """``solve_approx`` by enumeration: every shape, then every assignment of
    grid lines to its internal nodes, built as nodes over id lists. Each
    line drops its band from the ids of its own node and splits the rest
    by "<= theta"; a tree counts only if no leaf is left empty. Every leaf
    is priced with ``cluster_cost``, the leaves are summed with
    ``math.fsum`` and the first tree of least total wins. Kept as the
    reference that the memoized search must match in cost."""
    nprime = int(epsilon * ds.n / k)

    def exact_fallback() -> ApproxResult:
        res = solve_branching(ds, k, kind, force=True)
        return ApproxResult(frozenset(range(ds.n)), frozenset(), res.tree, res.cost,
                            epsilon, tuple(() for _ in range(ds.d)))

    if nprime == 0:
        return exact_fallback()
    thresholds, bands = _rank_grid(ds, nprime)
    lines = [
        (dim, theta, band)
        for dim in range(1, ds.d + 1)
        for theta, band in zip(thresholds[dim - 1], bands[dim - 1])
    ]
    pts = ds.points

    def search(shape, ids):
        """Yield (node, leaves, dropped ids) for every grid tree of ``shape``
        on the points ``ids`` that leaves no leaf empty."""
        if not ids:
            return
        if shape == ():
            yield Leaf(0), [ids], frozenset()
            return
        for dim, theta, band in lines:
            kept = [i for i in ids if i not in band]
            left = [i for i in kept if pts[i][dim - 1] <= theta]
            right = [i for i in kept if pts[i][dim - 1] > theta]
            rights = list(search(shape[1], right))
            for nl, leaves_l, dropped_l in search(shape[0], left):
                for nr, leaves_r, dropped_r in rights:
                    yield (Internal(Cut(dim, theta), nl, nr), leaves_l + leaves_r,
                           band.intersection(ids) | dropped_l | dropped_r)

    best = None
    for shape in enumerate_shapes(k):
        for node, leaves, dropped in search(shape, list(range(ds.n))):
            cost = math.fsum(cluster_cost([pts[i] for i in leaf], kind) for leaf in leaves)
            if best is None or cost < best[0]:
                best = (cost, node, dropped)
    if best is None:
        return exact_fallback()
    cost, node, removed = best
    return ApproxResult(frozenset(range(ds.n)) - removed, removed,
                        ThresholdTree(_relabel(node)), cost, epsilon,
                        tuple(tuple(ts) for ts in thresholds))


def tie_heavy_points(rng: random.Random, n: int, d: int):
    """Points on a small integer grid, then offset and scaled, with repeated
    points, signed zeros and, now and then, int coordinates."""
    hi = rng.choice([1, 2, 3, 5])
    offset = rng.choice([0.0, 0.0, -3.5, 1e6, 1e-6])
    scale = rng.choice([1.0, 1.0, 0.1, 3.0, 1e-6])
    ints = rng.random() < 0.15
    pts: list[tuple] = []
    for _ in range(n):
        if pts and rng.random() < 0.2:
            pts.append(rng.choice(pts))
            continue
        p = []
        for _ in range(d):
            v = rng.randint(0, hi)
            if ints:
                p.append(v - hi // 2)
            elif v == 0 and offset == 0.0 and rng.random() < 0.5:
                p.append(-0.0)
            else:
                p.append(offset + scale * v)
        pts.append(tuple(p))
    return tuple(pts)
