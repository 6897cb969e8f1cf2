"""Output checker for the benchmark, run outside the timed region.

Trees are routed here from first principles: a node with a ``label`` is a
leaf, any other node sends a point left when ``x[dim] <= theta``. Costs are
recomputed with this file's own arithmetic. Nothing here calls treeclust's
routing, cost or search code, so an answer that passes is evidence and not
a restatement of the solver.

Every ``check_*`` function returns a list of problems; an empty list means
the output passed.
"""
from __future__ import annotations

import json

REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def route(node, ids, pts) -> list[tuple[int, list[int]]]:
    """(leaf label, routed ids) per leaf, left to right, for a tree object."""
    if hasattr(node, "label"):
        return [(node.label, list(ids))]
    dim, theta = node.cut.dim - 1, node.cut.theta
    left = [i for i in ids if pts[i][dim] <= theta]
    right = [i for i in ids if pts[i][dim] > theta]
    return route(node.left, left, pts) + route(node.right, right, pts)


def route_json(node: dict, ids, pts) -> list[tuple[int, list[int]]]:
    """The same routing for the CLI's JSON tree encoding."""
    if "leaf" in node:
        return [(node["leaf"], list(ids))]
    dim, theta = node["dim"] - 1, node["theta"]
    left = [i for i in ids if pts[i][dim] <= theta]
    right = [i for i in ids if pts[i][dim] > theta]
    return route_json(node["left"], left, pts) + route_json(node["right"], right, pts)


def means_cost(pts) -> float:
    total = 0.0
    for col in zip(*pts):
        m = sum(col) / len(col)
        total += sum((c - m) ** 2 for c in col)
    return total


def medians_cost(pts) -> float:
    total = 0.0
    for col in zip(*pts):
        s = sorted(col)
        med = s[(len(s) - 1) // 2]  # lower median
        total += sum(abs(c - med) for c in col)
    return total


def partition_cost(groups, pts, medians: bool) -> float:
    cost = medians_cost if medians else means_cost
    return sum(cost([pts[i] for i in ids]) for ids in groups if ids)


def labeling_cost(labels, pts) -> float:
    """k-means cost of the clusters that a label vector defines."""
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return partition_cost(groups.values(), pts, medians=False)


def _purity(leaves, labels, removed, n) -> list[str]:
    problems = []
    if any(not 0 <= i < n for i in removed):
        problems.append("removed id out of range")
    leaf_labels = [lab for lab, _ in leaves]
    if len(set(leaf_labels)) != len(leaf_labels):
        problems.append(f"duplicate leaf labels {leaf_labels}")
    for lab, ids in leaves:
        bad = [i for i in ids if i not in removed and labels[i] != lab]
        if bad:
            problems.append(f"leaf {lab} keeps {len(bad)} point(s) of other clusters")
    return problems


def check_explanation(pts, labels, removed, root, *, expected=None, at_most=None) -> list[str]:
    """Survivors are pure per leaf; the removed count equals ``expected`` or is
    at most ``at_most`` when those are given."""
    removed = set(removed)
    problems = _purity(route(root, range(len(pts)), pts), labels, removed, len(pts))
    if expected is not None and len(removed) != expected:
        problems.append(f"removed {len(removed)} points, pinned optimum is {expected}")
    if at_most is not None and len(removed) > at_most:
        problems.append(f"removed {len(removed)} points, pinned greedy count is {at_most}")
    return problems


def check_explanation_json(pts, labels, report: dict) -> list[str]:
    removed = set(report["result"]["removed"])
    problems = _purity(route_json(report["tree"]["tree"], range(len(pts)), pts),
                       labels, removed, len(pts))
    if report["result"]["removed_count"] != len(removed):
        problems.append("removed_count disagrees with the removed list")
    return problems


def check_kernel(pts, labels, k, s, kernel_pts, kernel_labels, mapping) -> list[str]:
    problems = []
    bound = 2 * (s + 1) * len(pts[0]) * k
    if len(kernel_pts) > bound:
        problems.append(f"kernel has {len(kernel_pts)} points, bound is {bound}")
    if sorted(mapping) != list(range(len(kernel_pts))):
        problems.append("kernel mapping does not cover the kernel ids")
    elif len(set(mapping.values())) != len(mapping) or any(
        not 0 <= v < len(pts) for v in mapping.values()
    ):
        problems.append("kernel mapping is not an injection into the input ids")
    elif any(kernel_labels[i] != labels[mapping[i]] for i in mapping):
        problems.append("kernel changes a label")
    return problems


def check_explainable(pts, k, medians, root, clusters, cost, *, pinned=None) -> list[str]:
    """k nonempty leaves labeled 1..k, clusters equal to the routed leaves,
    cost equal to the recomputed cost and to the pinned optimum."""
    leaves = route(root, range(len(pts)), pts)
    problems = []
    if sorted(lab for lab, _ in leaves) != list(range(1, k + 1)):
        problems.append(f"leaf labels {[lab for lab, _ in leaves]} are not 1..{k}")
    if any(not ids for _, ids in leaves):
        problems.append("empty leaf")
    if {lab: sorted(ids) for lab, ids in leaves} != {
        lab: sorted(ids) for lab, ids in clusters.items()
    }:
        problems.append("reported clusters differ from the routed leaves")
    recomputed = partition_cost([ids for _, ids in leaves], pts, medians)
    if not close(cost, recomputed):
        problems.append(f"cost {cost!r} differs from recomputed {recomputed!r}")
    if pinned is not None and not close(cost, pinned):
        problems.append(f"cost {cost!r} differs from pinned optimum {pinned!r}")
    return problems


def check_approx(pts, k, medians, epsilon, root, kept, removed, cost, full_opt) -> list[str]:
    n = len(pts)
    problems = []
    if set(kept) | set(removed) != set(range(n)) or set(kept) & set(removed):
        problems.append("kept and removed do not partition the input")
    if len(removed) > epsilon * n:
        problems.append(f"removed {len(removed)} > epsilon*n = {epsilon * n}")
    leaves = route(root, sorted(kept), pts)
    if len(leaves) != k:
        problems.append(f"tree has {len(leaves)} leaves, expected {k}")
    recomputed = partition_cost([ids for _, ids in leaves], pts, medians)
    if not close(cost, recomputed):
        problems.append(f"cost {cost!r} differs from recomputed {recomputed!r}")
    if cost > full_opt and not close(cost, full_opt):
        problems.append(f"cost {cost!r} exceeds the full-data optimum {full_opt!r}")
    return problems


def check_lloyd(pts, k, medians, labels, cost) -> list[str]:
    if len(labels) != len(pts) or any(not 1 <= lab <= k for lab in labels):
        return ["Lloyd labels are not one label in 1..k per point"]
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    recomputed = partition_cost(groups.values(), pts, medians)
    if not close(cost, recomputed):
        return [f"Lloyd cost {cost!r} differs from recomputed {recomputed!r}"]
    return []


def check_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def parse_report(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


# ---------------------------------------------------------------------------
# Smoke check of the checker itself.


class _Leaf:
    def __init__(self, label):
        self.label = label


class _Cut:
    def __init__(self, dim, theta):
        self.dim, self.theta = dim, theta


class _Node:
    def __init__(self, dim, theta, left, right):
        self.cut, self.left, self.right = _Cut(dim, theta), left, right


def smoke() -> list[str]:
    """Feed one right and one deliberately wrong answer per solver family
    (and one wrong CLI exit code) through the checker. Returns the cases
    the checker judged wrongly; an empty list means the checker works."""
    pts = [(0.0, 0.0), (1.0, 0.0), (5.0, 0.0), (6.0, 1.0), (5.5, 0.0)]
    labels = [1, 1, 2, 2, 1]  # point 4 sits among cluster 2
    tree = _Node(1, 1.0, _Leaf(1), _Leaf(2))
    clusters = {1: (0, 1), 2: (2, 3, 4)}
    cost = means_cost([pts[0], pts[1]]) + means_cost([pts[2], pts[3], pts[4]])
    split_cost = means_cost([pts[0], pts[1]]) + means_cost([pts[2], pts[3]])
    kernel_map = {0: 0, 1: 2}
    cases = [
        # (name, problems, should pass)
        ("greedy ok", check_explanation(pts, labels, {4}, tree, at_most=1), True),
        ("greedy keeps an impure leaf", check_explanation(pts, labels, set(), tree), False),
        ("greedy worse than pinned", check_explanation(pts, labels, {3, 4}, tree, at_most=1), False),
        ("exact ok", check_explanation(pts, labels, {4}, tree, expected=1), True),
        ("exact above optimum", check_explanation(pts, labels, {2, 4}, tree, expected=1), False),
        ("kernel ok", check_kernel(pts, labels, 2, 0, [(1.0,), (2.0,)], [1, 2], kernel_map), True),
        ("kernel over bound",  # k=1, s=0, d=2: at most 4 points
         check_kernel(pts, labels, 1, 0, [(1.0,)] * 5, labels, {i: i for i in range(5)}), False),
        ("dp ok", check_explainable(pts, 2, False, tree, clusters, cost, pinned=cost), True),
        ("dp wrong cost", check_explainable(pts, 2, False, tree, clusters, cost + 1.0), False),
        ("dp above pinned", check_explainable(pts, 2, False, tree, clusters, cost, pinned=cost / 2), False),
        ("approx ok", check_approx(pts, 2, False, 0.2, tree, [0, 1, 2, 3], [4], split_cost, cost), True),
        ("approx removes too many",
         check_approx(pts, 2, False, 0.2, tree, [0, 1, 2], [3, 4], means_cost(pts[:2]), cost), False),
        ("lloyd ok", check_lloyd(pts, 2, False, labels, labeling_cost(labels, pts)), True),
        ("lloyd wrong cost", check_lloyd(pts, 2, False, labels, 0.0), False),
        ("cli ok", check_exit(1, 1), True),
        ("cli wrong exit code", check_exit(1, 0), False),
    ]
    return [name for name, problems, should_pass in cases if (not problems) != should_pass]
