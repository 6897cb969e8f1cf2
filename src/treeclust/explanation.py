"""Clustering explanation: test, approximate, and exactly repair a given
clustering by removing outliers, plus instance kernelization.

The greedy path repeatedly picks the cheapest separating cut; the exact
path runs a dynamic program over half-open boxes keyed by canonical
coordinate indices, with cluster subsets tracked as bitmasks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Cut, Dataset, LimitExceededError, Point, _prefix_masks
from .tree import Internal, Leaf, ThresholdTree, TreeNode

_INF = 1 << 40

# Exact solver refuses larger instances unless forced; the state space is
# exponential in the dimension.
EXACT_MAX_N = 30
EXACT_MAX_D = 3


@dataclass(frozen=True)
class Clustering:
    """A dataset plus a per-point label in 1..k; every cluster nonempty."""

    ds: Dataset
    labels: tuple[int, ...]
    k: int

    def __post_init__(self) -> None:
        if len(self.labels) != self.ds.n:
            raise ValueError("one label per point required")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        seen = set(self.labels)
        if not seen <= set(range(1, self.k + 1)):
            raise ValueError("labels must lie in 1..k")
        if seen != set(range(1, self.k + 1)):
            missing = sorted(set(range(1, self.k + 1)) - seen)
            raise ValueError(f"empty input cluster(s): {missing}")

    @classmethod
    def from_labels(cls, ds: Dataset, labels: Sequence[int]) -> "Clustering":
        labels = tuple(int(x) for x in labels)
        return cls(ds, labels, max(labels) if labels else 0)

    def cluster_ids(self, label: int) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.labels) if l == label)

    def clusters(self) -> dict[int, tuple[int, ...]]:
        return {label: self.cluster_ids(label) for label in range(1, self.k + 1)}


@dataclass(frozen=True)
class ExplanationResult:
    removed: frozenset[int]
    tree: ThresholdTree

    @property
    def removed_count(self) -> int:
        return len(self.removed)


def _cut_removal(
    pts: Sequence[Point], labels: Sequence[int], active: Sequence[int], dim: int, theta: float
) -> set[int]:
    """Removal set for one cut: every surviving cluster ends up wholly on one
    side. Three cases by per-cluster majorities; the chosen cluster in the
    one-sided cases may be deleted entirely."""
    parts: dict[int, tuple[list[int], list[int]]] = {}
    for i in active:
        side = parts.setdefault(labels[i], ([], []))
        side[0 if pts[i][dim - 1] <= theta else 1].append(i)
    present = sorted(parts)
    if all(len(l) > len(r) for l, r in parts.values()):
        # Everyone majority-left: evict one cluster's left part (smallest,
        # ties by label), trim the others' right parts.
        chosen = min(present, key=lambda lab: (len(parts[lab][0]), lab))
        removed = set(parts[chosen][0])
        for lab in present:
            if lab != chosen:
                removed.update(parts[lab][1])
        return removed
    if all(len(r) > len(l) for l, r in parts.values()):
        chosen = min(present, key=lambda lab: (len(parts[lab][1]), lab))
        removed = set(parts[chosen][1])
        for lab in present:
            if lab != chosen:
                removed.update(parts[lab][0])
        return removed
    # Mixed majorities: each cluster keeps its larger side; balanced clusters
    # are assigned so both sides end up hosting at least one cluster.
    committed_left = any(len(l) > len(r) for l, r in parts.values())
    committed_right = any(len(r) > len(l) for l, r in parts.values())
    removed: set[int] = set()
    for lab in present:
        l, r = parts[lab]
        if len(l) > len(r):
            removed.update(r)
        elif len(r) > len(l):
            removed.update(l)
        elif not committed_left:
            removed.update(r)
            committed_left = True
        elif not committed_right:
            removed.update(l)
            committed_right = True
        else:
            removed.update(r)
    return removed


def _best_cut(
    pts: Sequence[Point], labels: Sequence[int], active: Sequence[int]
) -> tuple[Cut, set[int]]:
    present = {labels[i] for i in active}
    if len(present) < 2:
        raise ValueError("best cut needs at least two nonempty clusters")
    d = len(pts[0])
    best: tuple[int, int, float, Cut, set[int]] | None = None
    for dim in range(1, d + 1):
        for theta in sorted({pts[i][dim - 1] for i in active}):
            removed = _cut_removal(pts, labels, active, dim, theta)
            key = (len(removed), dim, theta)
            if best is None or key < best[:3]:
                best = (len(removed), dim, theta, Cut(dim, theta), removed)
    assert best is not None
    return best[3], best[4]


def _greedy(
    pts: Sequence[Point], labels: Sequence[int], active: Sequence[int]
) -> tuple[set[int], TreeNode]:
    present = sorted({labels[i] for i in active})
    if len(present) <= 1:
        return set(), Leaf(present[0])
    cut, removed = _best_cut(pts, labels, active)
    survivors = [i for i in active if i not in removed]
    left = [i for i in survivors if pts[i][cut.dim - 1] <= cut.theta]
    right = [i for i in survivors if pts[i][cut.dim - 1] > cut.theta]
    # A fully evicted cluster can leave one side empty; the cut then does
    # not become a tree node.
    if not left:
        rem_r, node_r = _greedy(pts, labels, right)
        return removed | rem_r, node_r
    if not right:
        rem_l, node_l = _greedy(pts, labels, left)
        return removed | rem_l, node_l
    rem_l, node_l = _greedy(pts, labels, left)
    rem_r, node_r = _greedy(pts, labels, right)
    return removed | rem_l | rem_r, Internal(cut, node_l, node_r)


def best_cut(cl: Clustering, active: set[int]) -> tuple[Cut, set[int]]:
    """Cheapest canonical cut over the active points, with its removal set."""
    return _best_cut(cl.ds.points, cl.labels, sorted(active))


def greedy_explain(cl: Clustering) -> ExplanationResult:
    removed, root = _greedy(cl.ds.points, cl.labels, list(range(cl.ds.n)))
    return ExplanationResult(frozenset(removed), ThresholdTree(root))


def check_explainable(cl: Clustering) -> bool:
    return greedy_explain(cl).removed_count == 0


class _ExactSolver:
    """Box dynamic program for minimum-outlier explanation.

    State: a half-open box given by per-dimension index pairs into the
    sorted canonical thresholds (lo = -1 means -inf, hi = len means +inf)
    plus the bitmask of clusters still kept in play.
    """

    def __init__(self, cl: Clustering, budget: int):
        ds = cl.ds
        self.n = ds.n
        self.d = ds.d
        self.k = cl.k
        self.budget = budget
        self.full = (1 << self.n) - 1
        # left_masks[i][j]: points with coordinate i <= coords[i][j]
        self.coords, self.left_masks = _prefix_masks(ds.points)
        self.cmask = [0] * (self.k + 1)
        for pid, lab in enumerate(cl.labels):
            self.cmask[lab] |= 1 << pid
        self.csize = [m.bit_count() for m in self.cmask]
        self.memo: dict[tuple, tuple[int, tuple | None]] = {}
        self.box_cache: dict[tuple, int] = {}
        self.root_key = tuple((-1, len(self.coords[i])) for i in range(self.d))
        self.all_smask = (1 << self.k) - 1  # bit lab-1 = cluster lab kept

    def box_mask(self, key: tuple) -> int:
        m = self.box_cache.get(key)
        if m is None:
            m = self.full
            for i, (lo, hi) in enumerate(key):
                row = self.left_masks[i]
                upper = row[hi] if hi < len(row) else self.full
                lower = row[lo] if lo >= 0 else 0
                m &= upper & (self.full ^ lower)
            self.box_cache[key] = m
        return m

    def solve(self) -> int:
        return self.w(self.root_key, self.all_smask)

    def w(self, key: tuple, smask: int) -> int:
        entry = self.memo.get((key, smask))
        if entry is not None:
            return entry[0]
        value, choice = self._compute(key, smask)
        if value > self.budget:
            value = _INF
        self.memo[(key, smask)] = (value, choice)
        return value

    def _compute(self, key: tuple, smask: int) -> tuple[int, tuple | None]:
        bm = self.box_mask(key)
        notbm = self.full ^ bm
        nsplit = 0
        for lab in range(1, self.k + 1):
            cm = self.cmask[lab]
            if cm & bm and cm & notbm:
                nsplit += 1
        if nsplit > self.budget:
            return _INF, None
        kept = [lab for lab in range(1, self.k + 1) if smask >> (lab - 1) & 1]
        out_sum = sum(
            (self.cmask[lab] & bm).bit_count()
            for lab in range(1, self.k + 1)
            if not smask >> (lab - 1) & 1
        )
        lost_sum = sum((self.cmask[lab] & notbm).bit_count() for lab in kept)
        if len(kept) <= 1:
            return out_sum + lost_sum, ("base",)
        best = _INF
        best_choice: tuple | None = None
        # Collapse: keep a single surviving cluster inside this box.
        for lab in kept:
            val = (
                (self.cmask[lab] & notbm).bit_count()
                + sum(self.csize[j] for j in kept if j != lab)
                + out_sum
            )
            if val < best:
                best = val
                best_choice = ("collapse", lab)
        # Split by a canonical cut inside the box.
        for i in range(self.d):
            lo, hi = key[i]
            m = len(self.coords[i])
            top = (hi if hi < m else m) - 1
            for t in range(lo + 1, top + 1):
                lkey = key[:i] + ((lo, t),) + key[i + 1 :]
                rkey = key[:i] + ((t, hi),) + key[i + 1 :]
                lbm = self.box_mask(lkey)
                rbm = self.box_mask(rkey)
                forced1 = 0
                forced2 = 0
                free: list[int] = []
                ok = True
                for lab in kept:
                    cm = self.cmask[lab]
                    in_l = cm & lbm
                    in_r = cm & rbm
                    if in_l and in_r:
                        free.append(lab)
                    elif in_l:
                        forced1 |= 1 << (lab - 1)
                    elif in_r:
                        forced2 |= 1 << (lab - 1)
                    else:
                        ok = False  # kept cluster fully outside the box
                        break
                if not ok:
                    continue
                for fsub in range(1 << len(free)):
                    smask1 = forced1
                    smask2 = forced2
                    for idx, lab in enumerate(free):
                        if fsub >> idx & 1:
                            smask1 |= 1 << (lab - 1)
                        else:
                            smask2 |= 1 << (lab - 1)
                    w1 = self.w(lkey, smask1)
                    if w1 >= _INF:
                        continue
                    w2 = self.w(rkey, smask2)
                    if w2 >= _INF:
                        continue
                    delta = 0
                    for lab in kept:
                        cm = self.cmask[lab]
                        if smask1 >> (lab - 1) & 1:
                            delta += (cm & rbm).bit_count()
                        else:
                            delta += (cm & lbm).bit_count()
                    val = w1 + w2 - delta
                    if val < best:
                        best = val
                        best_choice = ("cut", lkey, rkey, smask1, smask2)
        return best, best_choice


    def removal_set(self) -> set[int]:
        removed: set[int] = set()
        self._collect(self.root_key, self.all_smask, removed)
        return removed

    def _collect(self, key: tuple, smask: int, out: set[int]) -> None:
        _, choice = self.memo[(key, smask)]
        bm = self.box_mask(key)
        kept = [lab for lab in range(1, self.k + 1) if smask >> (lab - 1) & 1]
        if choice is None:
            raise AssertionError("reconstruction reached an infeasible state")
        if choice[0] == "base":
            if len(kept) == 0:
                survivors_mask = 0
            else:
                survivors_mask = self.cmask[kept[0]]
            gone = bm & (self.full ^ survivors_mask)
            while gone:
                low = gone & -gone
                out.add(low.bit_length() - 1)
                gone ^= low
        elif choice[0] == "collapse":
            gone = bm & (self.full ^ self.cmask[choice[1]])
            while gone:
                low = gone & -gone
                out.add(low.bit_length() - 1)
                gone ^= low
        else:
            _, lkey, rkey, smask1, smask2 = choice
            self._collect(lkey, smask1, out)
            self._collect(rkey, smask2, out)


def exact_explain(
    cl: Clustering, s: int, *, force: bool = False
) -> ExplanationResult | None:
    """Minimum-size removal of at most s points, with a witness tree, or None."""
    if s < 0:
        raise ValueError("removal budget must be nonnegative")
    if not force and (cl.ds.n > EXACT_MAX_N or cl.ds.d > EXACT_MAX_D):
        raise LimitExceededError(
            f"exact explanation limited to n <= {EXACT_MAX_N}, d <= {EXACT_MAX_D}; "
            "use the greedy method or kernelize first (or force)"
        )
    solver = _ExactSolver(cl, budget=min(s, cl.ds.n))
    value = solver.solve()
    if value >= _INF or value > s:
        return None
    removed = solver.removal_set()
    if len(removed) != value:
        raise AssertionError("reconstructed removal disagrees with DP value")
    survivors = [i for i in range(cl.ds.n) if i not in removed]
    extra, root = _greedy(cl.ds.points, cl.labels, survivors)
    if extra:
        raise AssertionError("DP survivors are not explainable")
    return ExplanationResult(frozenset(removed), ThresholdTree(root))


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
