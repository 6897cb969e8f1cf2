"""Clustering explanation: test, approximate, and exactly repair a given
clustering by removing outliers, plus instance kernelization.

The greedy path repeatedly picks the cheapest separating cut, the least
(removal count, dim, θ), found by one sorted sweep per dimension that keeps
running left/right counts and prices each threshold in O(1), or in O(k)
where every cluster has its majority on one side: O(d·n log n + d·n) per
tree node plus O(k) per such threshold. The explainability test runs the
same greedy on the s = 0 kernel, each cluster's lowest and highest member
per dimension, which is explainable exactly when the whole clustering is.
The exact path runs a dynamic program over the boxes that canonical
cuts carve out, keyed by the box's member bitmask (boxes with the same
points share one state), with cluster subsets tracked as bitmasks. Each
state memoizes the mask of the members its best subtree removes, so the
root's entry is the answer and no reconstruction walk follows.
"""
from __future__ import annotations

from typing import Sequence

from .core import Cut, Dataset, Point, _check_limits, _prefix_masks, _Record, _set, _splits
from .tree import Internal, Leaf, ThresholdTree, TreeNode


class Clustering(_Record):
    """A dataset plus a per-point label in 1..k; every cluster nonempty."""

    __slots__ = ("ds", "labels", "k")
    ds: Dataset
    labels: tuple[int, ...]
    k: int

    def __init__(self, ds: Dataset, labels: tuple[int, ...], k: int) -> None:
        if len(labels) != ds.n:
            raise ValueError("one label per point required")
        if k < 1:
            raise ValueError("k must be >= 1")
        seen = set(labels)
        if not seen <= set(range(1, k + 1)):
            raise ValueError("labels must lie in 1..k")
        if seen != set(range(1, k + 1)):
            missing = sorted(set(range(1, k + 1)) - seen)
            raise ValueError(f"empty input cluster(s): {missing}")
        _set(self, "ds", ds)
        _set(self, "labels", labels)
        _set(self, "k", k)

    @classmethod
    def from_labels(cls, ds: Dataset, labels: Sequence[int]) -> "Clustering":
        labels = tuple(labels)
        try:
            ints = tuple(int(x) for x in labels)
        except (TypeError, ValueError, OverflowError):  # None, nan, inf
            ints = None
        if ints != labels:  # int() would truncate 1.7 to 1
            raise ValueError("labels must be integers")
        return cls(ds, ints, max(ints) if ints else 0)

    def cluster_ids(self, label: int) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.labels) if l == label)

    def clusters(self) -> dict[int, tuple[int, ...]]:
        return {label: self.cluster_ids(label) for label in range(1, self.k + 1)}


class ExplanationResult(_Record):
    __slots__ = ("removed", "tree")
    removed: frozenset[int]
    tree: ThresholdTree

    def __init__(self, removed: frozenset[int], tree: ThresholdTree) -> None:
        _set(self, "removed", removed)
        _set(self, "tree", tree)

    @property
    def removed_count(self) -> int:
        return len(self.removed)


def _drop_left(left: Sequence[int], right: Sequence[int]) -> list[bool]:
    """Which part of each present cluster a cut removes, given the clusters'
    point counts on its left and right side in label order: True drops the
    left part, False the right part, so every survivor ends up wholly on one
    side. Three cases by per-cluster majorities; the chosen cluster in the
    one-sided cases may be deleted entirely."""
    idx = range(len(left))
    more_left = [l > r for l, r in zip(left, right)]
    more_right = [r > l for l, r in zip(left, right)]
    if all(more_left):
        # Everyone majority-left: evict one cluster's left part (smallest,
        # ties by label), trim the others' right parts.
        chosen = min(idx, key=left.__getitem__)
        return [j == chosen for j in idx]
    if all(more_right):
        chosen = min(idx, key=right.__getitem__)
        return [j != chosen for j in idx]
    # Mixed majorities: each cluster keeps its larger side; balanced clusters
    # are assigned so both sides end up hosting at least one cluster.
    committed_left = any(more_left)
    committed_right = any(more_right)
    drops = more_right
    for j in idx:
        if left[j] == right[j]:
            if not committed_left:
                committed_left = True
            elif not committed_right:
                drops[j] = True
                committed_right = True
    return drops


def _best_cut(
    pts: Sequence[Point], labels: Sequence[int], active: Sequence[int]
) -> tuple[Cut, list[int], list[int], list[int]] | None:
    """Cheapest canonical cut of the active points and the node's split:
    (cut, left survivors, right survivors, removed), each in active order,
    or None when the active points hold one cluster.

    Ties go to the least key (removal count, dim, θ). One stable sort per
    dimension; the sweep then walks runs of equal coordinates, moving each
    point from the right side to the left in O(1) while it keeps the
    per-cluster left/right counts, Σ_j min(left_j, right_j) and the numbers
    of clusters with a left and with a right majority. These price a
    threshold by ``_drop_left``'s case analysis: Σ min when the majorities
    are mixed, and Σ min corrected by one O(k) argmin when every cluster
    has its majority on one side. So a node costs O(d·n log n + d·n), plus
    O(k) per one-sided threshold. θ is the coordinate of the run's first active
    point, which keeps the sign of a zero. Cuts come in key order, so the
    scan stops at the first one that removes nothing. Two more passes
    over the active points split the node at the winner: one counts each
    cluster's left side for ``_drop_left``, the other sends each point
    left, right or to the removal list.
    """
    present = sorted({labels[i] for i in active})
    m = len(present)
    if m < 2:
        return None
    slot = {lab: j for j, lab in enumerate(present)}
    total = [0] * m
    for i in active:
        total[slot[labels[i]]] += 1
    best: tuple[int, int, float] | None = None
    for dim in range(1, len(pts[0]) + 1):
        order = sorted(active, key=lambda i: pts[i][dim - 1])
        left = [0] * m
        right = total[:]
        mins = n_left = 0  # Σ min(left_j, right_j); clusters with left_j > right_j
        n_right = m  # clusters with right_j > left_j
        pos = 0
        while pos < len(order):
            theta = pts[order[pos]][dim - 1]
            while pos < len(order) and pts[order[pos]][dim - 1] == theta:
                j = slot[labels[order[pos]]]
                l = left[j] = left[j] + 1
                r = right[j] = right[j] - 1
                # left_j − right_j grew by 2, to l − r.
                if l <= r:
                    mins += 1
                    if l == r:
                        n_right -= 1
                elif l == r + 1:
                    n_left += 1
                    n_right -= 1
                else:
                    mins -= 1
                    if l == r + 2:
                        n_left += 1
                pos += 1
            if n_left == m:
                c = left.index(min(left))
                count = mins - right[c] + left[c]
            elif n_right == m:
                c = right.index(min(right))
                count = mins - left[c] + right[c]
            else:
                count = mins
            key = (count, dim, theta)
            if best is None or key < best:
                best = key
            if count == 0:
                break
        if best[0] == 0:
            break
    assert best is not None
    _, dim, theta = best
    left = [0] * m
    for i in active:
        if pts[i][dim - 1] <= theta:
            left[slot[labels[i]]] += 1
    drops = _drop_left(left, [t - l for t, l in zip(total, left)])
    parts: tuple[list[int], list[int], list[int]] = ([], [], [])  # left, right, removed
    for i in active:
        low = pts[i][dim - 1] <= theta
        # a point goes when its cluster drops the side it is on
        parts[2 if drops[slot[labels[i]]] == low else 0 if low else 1].append(i)
    return (Cut(dim, theta), *parts)


def _greedy(
    pts: Sequence[Point], labels: Sequence[int], active: Sequence[int]
) -> tuple[set[int], TreeNode]:
    """Greedy removal set and tree of the active points, built on an explicit
    work stack (so at any depth): pop a point set and push (cut, right, left);
    pop a cut and join the last two finished subtrees under it."""
    removed: set[int] = set()
    done: list[TreeNode] = []  # finished subtrees not yet joined to a parent
    work: list[Sequence[int] | Cut] = [active]
    while work:
        item = work.pop()
        if isinstance(item, Cut):
            done[-2:] = [Internal(item, *done[-2:])]
        elif (split := _best_cut(pts, labels, item)) is None:
            done.append(Leaf(labels[item[0]]))
        else:
            cut, left, right, gone = split
            removed.update(gone)
            # A fully evicted cluster can leave one side empty; the cut then
            # does not become a tree node.
            work += (cut, right, left) if left and right else (left or right,)
    return removed, done[0]


def best_cut(cl: Clustering, active: set[int]) -> tuple[Cut, set[int]]:
    """Cheapest canonical cut over the active points, with its removal set.

    Ties go to the least (removal count, dim, θ); O(d·n log n + d·n) for n
    active points, plus O(k) at each threshold where all k clusters among
    them have their majority on one side."""
    split = _best_cut(cl.ds.points, cl.labels, sorted(active))
    if split is None:
        raise ValueError("best cut needs at least two nonempty clusters")
    cut, _, _, removed = split
    return cut, set(removed)


def greedy_explain(cl: Clustering) -> ExplanationResult:
    removed, root = _greedy(cl.ds.points, cl.labels, list(range(cl.ds.n)))
    return ExplanationResult(frozenset(removed), ThresholdTree(root))


def check_explainable(cl: Clustering) -> bool:
    """Whether some threshold tree induces the clustering.

    The greedy repair removes nothing exactly when its input is explainable:
    the first cut of an explaining tree that splits the active points
    removes nothing, so the cheapest cut removes nothing too, and each side
    is again explainable. It runs on the s = 0 kernel, at most 2dk points,
    which is explainable exactly when cl is (see ``kernelize``).
    """
    kernel, _ = kernelize(cl, 0)
    removed, _ = _greedy(kernel.ds.points, kernel.labels, list(range(kernel.ds.n)))
    return not removed


class _ExactSolver:
    """Box dynamic program for minimum-outlier explanation.

    State: the member bitmask ``bm`` of a box carved out by canonical cuts
    plus the bitmask ``S`` of clusters allowed to survive in it (bit lab-1
    for cluster lab). Boxes holding the same points have the same optimum,
    so they share one state; a box's cuts are those of ``core._splits``,
    which skips cuts that leave one side empty (such a cut would map a
    state to itself).

    Value: the mask of the box's members that the best subtree removes,
    memoized per state, so the root's entry is the whole removal set and
    no second walk rebuilds it. A leaf keeps one cluster c of S, or none,
    and removes the box's members outside c. A cut gives each cluster of S
    to one side and removes the union of its two children's masks; the
    boxes are disjoint, so its size is the sum of theirs. The first
    smallest candidate wins.

    Invariant: every cluster in S has a member in the box. Every cluster is
    nonempty at the root, and a child's S takes only clusters present on
    its side; so a cluster of S absent from the left side is on the right.

    Both prunes are admissible. A cluster of S survives only in this box, so
    any tree through this state also removes its members outside the box,
    lost(bm, S). A state whose removals + lost exceed the budget therefore
    saturates to ``None``. A cluster with members inside and outside the
    box adds at least one to removals + lost, through lost if it is in S
    and through the removals otherwise, so a box that splits more clusters
    than the budget saturates before any cut is tried.
    """

    def __init__(self, cl: Clustering, budget: int):
        self.budget = budget
        self.full = (1 << cl.ds.n) - 1
        self.prefix = _prefix_masks(cl.ds.points)
        self.cmask = [0] * (cl.k + 1)  # cmask[0] stays empty
        for pid, lab in enumerate(cl.labels):
            self.cmask[lab] |= 1 << pid
        self.memo: dict[tuple[int, int], int | None] = {}

    def solve(self) -> int | None:
        return self.w(self.full, (1 << (len(self.cmask) - 1)) - 1)

    def w(self, bm: int, smask: int) -> int | None:
        key = (bm, smask)
        if key not in self.memo:
            self.memo[key] = self._compute(bm, smask)
        return self.memo[key]

    def _compute(self, bm: int, smask: int) -> int | None:
        notbm = self.full ^ bm
        nsplit = sum(1 for cm in self.cmask if cm & bm and cm & notbm)
        if nsplit > self.budget:
            return None
        kept = [lab for lab in range(1, len(self.cmask)) if smask >> (lab - 1) & 1]
        lost = sum((self.cmask[lab] & notbm).bit_count() for lab in kept)
        best = bm  # the leaf that keeps no cluster
        for lab in kept:
            gone = bm & ~self.cmask[lab]
            if gone.bit_count() < best.bit_count():
                best = gone
        # A cut can beat a leaf only when it keeps two clusters apart.
        cuts = _splits(bm, self.prefix) if len(kept) > 1 else ()
        for _, lbm, _ in cuts:
            rbm = bm ^ lbm
            left = right = 0  # kept clusters with members on each side
            for lab in kept:
                if self.cmask[lab] & lbm:
                    left |= 1 << (lab - 1)
                if self.cmask[lab] & rbm:
                    right |= 1 << (lab - 1)
            free = sub = left & right
            while True:  # each subset of free goes left, ascending
                sub = (sub - free) & free
                smask1 = (left ^ free) | sub
                g1 = self.w(lbm, smask1)
                g2 = None if g1 is None else self.w(rbm, smask ^ smask1)
                if g2 is not None and (g1 | g2).bit_count() < best.bit_count():
                    best = g1 | g2
                if sub == free:
                    break
        return None if best.bit_count() + lost > self.budget else best


def exact_explain(
    cl: Clustering, s: int, *, force: bool = False
) -> ExplanationResult | None:
    """Minimum-size removal of at most s points, with a witness tree, or None."""
    if s < 0:
        raise ValueError("removal budget must be nonnegative")
    _check_limits("exact_explain", force, n=cl.ds.n, d=cl.ds.d, k=cl.k)
    gone = _ExactSolver(cl, budget=min(s, cl.ds.n)).solve()
    if gone is None:
        return None
    survivors = [i for i in range(cl.ds.n) if not gone >> i & 1]
    extra, root = _greedy(cl.ds.points, cl.labels, survivors)
    if extra:
        raise AssertionError("DP survivors are not explainable")
    removed = frozenset(i for i in range(cl.ds.n) if gone >> i & 1)
    return ExplanationResult(removed, ThresholdTree(root))


def opt_explain(cl: Clustering, *, force: bool = False) -> tuple[int, ExplanationResult]:
    """Minimum number of removals and a witness; the greedy count bounds the
    search budget from above, so one saturated exact run suffices."""
    upper = greedy_explain(cl).removed_count
    result = exact_explain(cl, upper, force=force)
    if result is None:
        raise AssertionError("greedy removal count must be a feasible budget")
    return result.removed_count, result


def kernelize(cl: Clustering, s: int) -> tuple[Clustering, dict[int, int]]:
    """Shrink the instance to at most 2(s+1)dk points with small integer
    coordinates, preserving the yes/no answer at budget s.

    Each cluster keeps, in every dimension, its s+1 lowest and s+1 highest
    members in (value, id) order, and each kept coordinate becomes its rank
    among the kept values of its dimension. The rank map is monotone, so it
    keeps every cut's sides, and trees carry over both ways.

    At s = 0 the answer is whether cl is explainable. Any subset of an
    explainable clustering is explainable, so the kernel is. Conversely, a
    tree that explains the extremes puts each cluster's extremes in one
    leaf box. That box is a product of intervals, so it holds the cluster's
    whole bounding box, and leaf boxes are disjoint, so the tree explains
    every point of cl.

    Returns the kernel clustering and a map kernel id -> original id.
    """
    if s < 0:
        raise ValueError("removal budget must be nonnegative")
    pts = cl.ds.points
    marked: set[int] = set()
    for label in range(1, cl.k + 1):
        ids = list(cl.cluster_ids(label))
        take = min(s + 1, len(ids))
        for dim in range(cl.ds.d):
            order = sorted(ids, key=lambda i: (pts[i][dim], i))
            marked.update(order[:take])
            marked.update(order[-take:])
    survivors = sorted(marked)
    ranks: list[dict[float, int]] = []
    for dim in range(cl.ds.d):
        values = sorted({pts[i][dim] for i in survivors})
        ranks.append({v: j + 1 for j, v in enumerate(values)})
    new_pts = [
        tuple(float(ranks[dim][pts[i][dim]]) for dim in range(cl.ds.d))
        for i in survivors
    ]
    new_labels = [cl.labels[i] for i in survivors]
    mapping = {new_id: old_id for new_id, old_id in enumerate(survivors)}
    kernel = Clustering(Dataset(tuple(new_pts)), tuple(new_labels), cl.k)
    return kernel, mapping
