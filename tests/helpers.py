"""Shared instance factories and reference solvers for the test suite."""
from __future__ import annotations

import math
import random

from treeclust import (
    ApproxResult,
    Clustering,
    Cut,
    Dataset,
    Internal,
    Leaf,
    ThresholdTree,
    cluster_cost,
    enumerate_shapes,
    solve_branching,
    tree_evaluate,
)
from treeclust.core import _prefix_masks, _splits
from treeclust.explainable import _rank_grid, _relabel


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


def reference_solve_approx(ds, k: int, kind, epsilon: float) -> ApproxResult:
    """``solve_approx`` as it was before the bitmask enumeration: every grid
    tree built as nodes over id lists, its used bands united as sets,
    every leaf priced with ``cluster_cost`` and the leaves summed with
    ``math.fsum``. Kept as the reference that the production search must
    match bit for bit."""
    nprime = int(epsilon * ds.n / k)

    def exact_fallback() -> ApproxResult:
        res = solve_branching(ds, k, kind, force=True)
        return ApproxResult(frozenset(range(ds.n)), frozenset(), res.tree, res.cost,
                            epsilon, tuple(() for _ in range(ds.d)))

    if nprime == 0:
        return exact_fallback()
    thresholds, bands = _rank_grid(ds, k, epsilon, nprime)
    options = [
        (dim, i) for dim in range(1, ds.d + 1) for i in range(len(thresholds[dim - 1]))
    ]
    if not options:
        return exact_fallback()
    pts = ds.points
    best = None

    def search(shape, ids, used):
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
        for node, leaves, used in search(shape, all_ids, []):
            removed = set()
            for dim, gi in used:
                removed |= bands[dim - 1][gi]
            leaves = [[i for i in leaf if i not in removed] for leaf in leaves]
            if any(not leaf for leaf in leaves):
                continue
            cost = math.fsum(cluster_cost([pts[i] for i in leaf], kind) for leaf in leaves)
            if best is None or cost < best[0]:
                best = (cost, node, frozenset(removed))
    if best is None:
        return exact_fallback()
    cost, node, removed = best
    return ApproxResult(frozenset(all_ids) - removed, removed,
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
